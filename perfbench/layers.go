package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// kernelTimer is a gpu.Backend that runs every kernel closure through
// gpu.Serial and adds up the host time each kernel name took. Serial
// returns no future, so the simulated schedule is the one Serial gives.
type kernelTimer struct {
	inner gpu.Serial

	mu sync.Mutex
	ns map[string]int64
	n  map[string]int64
}

func newKernelTimer() *kernelTimer {
	return &kernelTimer{ns: make(map[string]int64), n: make(map[string]int64)}
}

func (k *kernelTimer) Start(eng *des.Engine, name string, fn func()) *des.Future {
	if fn == nil {
		return k.inner.Start(eng, name, fn)
	}
	t0 := time.Now()
	fut := k.inner.Start(eng, name, fn)
	d := time.Since(t0).Nanoseconds()
	k.mu.Lock()
	k.ns[name] += d
	k.n[name]++
	k.mu.Unlock()
	return fut
}

func (k *kernelTimer) Close()         { k.inner.Close() }
func (k *kernelTimer) String() string { return "timed(" + k.inner.String() + ")" }

// total returns the summed kernel host time and launch count.
func (k *kernelTimer) total() (time.Duration, int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	var ns, n int64
	for name, v := range k.ns {
		ns += v
		n += k.n[name]
	}
	return time.Duration(ns), n
}

// snapshot copies the per-name totals in milliseconds.
func (k *kernelTimer) snapshot() map[string]float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[string]float64, len(k.ns))
	for name, v := range k.ns {
		out[name] = float64(v) / 1e6
	}
	return out
}

// install puts the timer behind every device of a cluster.
func (k *kernelTimer) install(cl *cluster.Cluster) {
	for _, d := range cl.GPUs {
		d.SetBackend(k)
	}
}

// engineDispatched reads the dispatch count the engine reports in its
// engine.stats event when it stops.
func engineDispatched(rec *obs.Recorder) int64 {
	var n int64
	for _, e := range rec.Events() {
		if e.Kind == "engine.stats" {
			v, _ := strconv.ParseInt(e.Attr("dispatched"), 10, 64)
			n += v
		}
	}
	return n
}

func identityRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// runComposed runs one exclusive job the way core.Job.Run does — a fresh
// legacy engine, a cluster from the job's cluster config, the whole
// cluster as the gang — but from public parts, so the kernel timer can sit
// behind the devices and a recorder on the engine can count dispatches.
// rec also becomes the cluster's flight recorder when recordCluster is
// set (the same-program test compares those recordings).
func runComposed[V any](j *core.Job[V], kt *kernelTimer, rec *obs.Recorder, recordCluster bool) (*core.Result[V], time.Duration, error) {
	cc := cluster.DefaultConfig(j.Config.GPUs)
	if j.Config.Cluster != nil {
		cc = *j.Config.Cluster
	}
	if recordCluster {
		cc.Obs = rec
	}
	eng := des.NewEngine()
	eng.SetRecorder(rec)
	cl := cluster.New(eng, cc)
	defer cl.Close()
	if kt != nil {
		kt.install(cl)
	}
	s := &core.Scheduled[V]{Job: j}
	t0 := time.Now()
	if err := s.LaunchOn(eng, cl, identityRanks(cc.GPUs), func(*core.Trace) {}); err != nil {
		return nil, 0, err
	}
	eng.Run()
	d := time.Since(t0)
	if s.Result == nil {
		return nil, d, fmt.Errorf("job %q never completed", j.Config.Name)
	}
	return s.Result, d, nil
}

// arrival is one job of a scheduled stream: when it arrives and how to
// build it.
type arrival struct {
	At     des.Time
	Tenant string
	Kind   string
	Params serve.Params
	Spec   sched.JobSpec // everything but Job and At
}

// schedRun is the result of one composed scheduler run.
type schedRun struct {
	Trace    *sched.ClusterTrace
	Arrive   []time.Duration // host time of each Register+Arrive
	Jobs     []core.Runnable // by arrival index
	Wall     time.Duration   // host time of the engine run
	Dispatch int64
}

// runSchedComposed replays an arrival stream the way serve.Replay drives
// the scheduler — one process that sleeps to each arrival, builds the job
// through the catalog, then registers and arrives it — but on an engine,
// cluster and scheduler built here from public parts, with the kernel
// timer behind every device. rec, when non-nil, is attached to the engine
// and (with recordCluster) the cluster.
func runSchedComposed(cc cluster.Config, pol sched.Policy, cat *serve.Catalog, arrs []arrival,
	kt *kernelTimer, rec *obs.Recorder, recordCluster bool) (*schedRun, error) {
	if rec == nil {
		rec = obs.New()
	}
	if recordCluster {
		cc.Obs = rec
	}
	eng := des.NewEngine()
	eng.SetRecorder(rec)
	cl := cluster.New(eng, cc)
	defer cl.Close()
	if kt != nil {
		kt.install(cl)
	}
	s, err := sched.NewScheduler(eng, cl, pol)
	if err != nil {
		return nil, err
	}
	out := &schedRun{Arrive: make([]time.Duration, 0, len(arrs)), Jobs: make([]core.Runnable, len(arrs))}
	var failure error
	eng.Spawn("bench.arrivals", func(p *des.Proc) {
		for i, a := range arrs {
			if d := a.At - p.Now(); d > 0 {
				p.Sleep(d)
			}
			name := fmt.Sprintf("%s-%s-%d", a.Tenant, a.Kind, i)
			run, err := cat.Build(a.Kind, name, a.Params)
			if err != nil {
				failure = fmt.Errorf("building %s: %w", name, err)
				return
			}
			out.Jobs[i] = run
			sp := a.Spec
			sp.Job = run
			t0 := time.Now()
			id, err := s.Register(sp)
			if err == nil {
				s.Arrive(id)
			}
			out.Arrive = append(out.Arrive, time.Since(t0))
			if err != nil {
				failure = fmt.Errorf("registering %s: %w", name, err)
				return
			}
		}
	})
	t0 := time.Now()
	makespan := eng.Run()
	out.Wall = time.Since(t0)
	if failure != nil {
		return nil, failure
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	out.Trace = s.Trace(makespan)
	out.Dispatch = engineDispatched(rec)
	return out, nil
}

// buildRecord is the benchmark's side record of one job a catalog built.
type buildRecord struct {
	Kind   string
	Name   string
	Params serve.Params
	Run    core.Runnable // the program's runnable, kept for the output check
	Start  time.Time     // build began
	Built  time.Time     // build returned
	Done   time.Time     // final launch completed (set by doneStamp)
}

// wrapCatalog returns a catalog with base's kinds whose builders call
// through to base's and hand each built job to onBuild, which may return a
// replacement runnable (or the same one).
func wrapCatalog(base *serve.Catalog, onBuild func(*buildRecord) core.Runnable) *serve.Catalog {
	c := serve.NewCatalog(base.PhysBudget())
	for _, kind := range base.Kinds() {
		b, _ := base.Describe(kind)
		inner := b.Build
		b.Build = func(name string, p serve.Params) (core.Runnable, error) {
			t0 := time.Now()
			run, err := inner(name, p)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			return onBuild(&buildRecord{Kind: kind, Name: name, Params: p, Run: run, Start: t0, Built: t1}), nil
		}
		c.Register(kind, b)
	}
	return c
}

// servedJob is every optional face the serving stack looks for on a
// core.Scheduled job.
type servedJob interface {
	core.Preemptible
	core.CostEstimator
	core.OutputDigester
	core.OutputRenderer
}

// doneStamp forwards a served job and notes the host time its final launch
// completes.
type doneStamp struct {
	servedJob
	done *time.Time
}

func (d *doneStamp) LaunchOn(eng *des.Engine, cl *cluster.Cluster, ranks []int, done func(*core.Trace)) error {
	return d.servedJob.LaunchOn(eng, cl, ranks, func(tr *core.Trace) {
		*d.done = time.Now()
		done(tr)
	})
}
