package main

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/mph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// tenant-stream: a seeded multi-tenant arrival trace with mixed service
// classes, replayed through serve.Replay on a 64-GPU cluster under
// weighted-fair with reservation, preemption and elastic grow-back.

const (
	tenantGPUs  = 64
	tenantPhys  = 4096
	tenantJobs  = 150
	tenantGapMs = 12.0
)

var tenantNames = []string{"ana", "bo", "cy", "di", "ed", "fa"}

// tenantStream builds the arrival trace. Arrivals come one per gap,
// jittered within it, and the job mix is stratified — every block of five
// arrivals holds one of each kind below, in seeded order — so each seed
// offers the same load and mix while no two jobs share an input: every
// job has its own seed. The rigid 32-GPU scan blocks at the queue head
// often enough that the reservation admits small scans behind it
// (backfill), interactive queries preempt the batch gangs, and standard
// jobs with a tight deadline are rejected at the door when the cost model
// predicts a miss.
func tenantStream(seed uint64) *serve.Trace {
	rng := workload.NewRNG(seed*0x9e3779b97f4a7c15 + 0x7e4a)
	var evs []serve.Event
	var block []int
	for i := 0; i < tenantJobs; i++ {
		if len(block) == 0 {
			block = shuffled(rng, []int{0, 1, 2, 3, 4})
		}
		kind := block[0]
		block = block[1:]
		at := des.FromSeconds((float64(i) + rng.Float64()) * tenantGapMs / 1e3)
		js := int64(seed)*1_000_003 + int64(i) + 1
		a := &serve.Arrival{Seq: i, At: at, Tenant: tenantNames[rng.Intn(len(tenantNames))]}
		switch kind {
		case 0: // interactive query: rigid gang, tight deadline, reject on a predicted miss
			a.Kind = "wo"
			a.Params = serve.Params{"bytes": 4 << 20, "gpus": 2, "seed": js, "dict": 512}
			a.MinGang, a.Class, a.Deadline = 2, "interactive", 25*des.Millisecond
		case 1: // standard analytics: demoted to batch on a predicted miss
			a.Kind = "kmc"
			a.Params = serve.Params{"points": 4 << 20, "gpus": 4, "seed": js}
			a.MinGang, a.Class, a.Deadline, a.Downgrade = 4, "standard", 26*des.Millisecond, true
		case 2: // standard analytics with a deadline near its service time: rejected on a predicted miss
			a.Kind = "kmc"
			a.Params = serve.Params{"points": 4 << 20, "gpus": 4, "seed": js}
			a.MinGang, a.Class, a.Deadline = 4, "standard", 26*des.Millisecond
		case 3: // small batch scan: molds down under load, elastic, short enough to backfill
			a.Kind = "sio"
			a.Params = serve.Params{"elements": 4 << 20, "gpus": 4, "seed": js, "chunkcap": 1 << 20}
			a.Class, a.Elastic = "batch", true
		default: // wide batch scan on a rigid 32-GPU gang
			a.Kind = "sio"
			a.Params = serve.Params{"elements": 128 << 20, "gpus": 32, "seed": js, "chunkcap": 1 << 20}
			a.MinGang, a.Class = 32, "batch"
		}
		evs = append(evs, serve.Event{Arrive: a})
	}
	h := serve.Header{
		Version:     serve.TraceVersion,
		Policy:      sched.WeightedFair.String(),
		GPUs:        tenantGPUs,
		GPUsPerNode: 4,
		MaxQueue:    -1, // unbounded: every arrival reaches the scheduler
		PhysBudget:  tenantPhys,
		Reserve:     true,
		Preempt:     true,
		Elastic:     true,
	}
	return &serve.Trace{Header: h, Events: evs}
}

// shuffled returns a seeded permutation of xs.
func shuffled(rng *workload.RNG, xs []int) []int {
	out := append([]int(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// tenantArrivals converts the trace into the scheduler-level stream the
// composed run replays.
func tenantArrivals(tr *serve.Trace) []arrival {
	out := make([]arrival, 0, len(tr.Events))
	for _, ev := range tr.Events {
		a := ev.Arrive
		cls, err := sched.ParseClass(a.Class)
		if err != nil {
			panic(err)
		}
		out = append(out, arrival{At: a.At, Tenant: a.Tenant, Kind: a.Kind, Params: a.Params,
			Spec: sched.JobSpec{Weight: a.Weight, MinGang: a.MinGang, Class: cls, Deadline: a.Deadline,
				DowngradeOnMiss: a.Downgrade, Elastic: a.Elastic}})
	}
	return out
}

func tenantPolicy(h serve.Header) sched.Policy {
	return sched.Policy{Kind: sched.WeightedFair, Reserve: h.Reserve, Preempt: h.Preempt, Elastic: h.Elastic}
}

func tenantCluster(h serve.Header) cluster.Config {
	cc := cluster.DefaultConfig(h.GPUs)
	cc.GPUsPerNode = h.GPUsPerNode
	return cc
}

// tenantPass is one replay's outcome.
type tenantPass struct {
	wall         time.Duration
	submit, done []float64 // per completed job, ms
	jobs, failed int
	rejected     int
}

// tenantReplay replays the trace once through serve.Replay, keeping each
// job the catalog builds so its output can be checked afterwards.
func tenantReplay(tr *serve.Trace, refs []reference) (tenantPass, error) {
	var p tenantPass
	recs := make(map[string]*buildRecord, len(tr.Events))
	cat := wrapCatalog(serve.DefaultCatalog(tr.Header.PhysBudget), func(r *buildRecord) core.Runnable {
		recs[r.Name] = r
		return &doneStamp{servedJob: r.Run.(servedJob), done: &r.Done}
	})
	t0 := time.Now()
	rep, err := serve.Replay(tr, serve.ReplayOptions{Catalog: cat})
	p.wall = time.Since(t0)
	if err != nil {
		return p, err
	}
	p.jobs = len(rep.Jobs)
	for _, j := range rep.Jobs {
		switch j.State {
		case serve.Done:
			r := recs[j.Name]
			got, err := runnableMap(r.Run)
			if err == nil {
				err = refs[j.ID].check(got)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "tenant-stream: job %s: %v\n", j.Name, err)
				p.failed++
				continue
			}
			p.submit = append(p.submit, ms(r.Built.Sub(r.Start)))
			p.done = append(p.done, ms(r.Done.Sub(r.Start)))
		case serve.Rejected:
			p.rejected++
		default:
			fmt.Fprintf(os.Stderr, "tenant-stream: job %s ended %s %s\n", j.Name, j.State, j.Reason)
			p.failed++
		}
	}
	return p, nil
}

func tenantRefs(tr *serve.Trace) ([]reference, error) {
	refs := make([]reference, len(tr.Events))
	for i, ev := range tr.Events {
		r, err := catalogRef(ev.Arrive.Kind, ev.Arrive.Params, tr.Header.PhysBudget)
		if err != nil {
			return nil, err
		}
		refs[i] = r
	}
	return refs, nil
}

func runTenant(opt options) (*result, error) {
	// Set-up is the work no replay repeats: generating the trace and every
	// job's reference. The warm-up replay after it is the same work every
	// measured replay does, so wall_s already carries it.
	var tr *serve.Trace
	var refs []reference
	setup, err := repeatSetup(9, func() (err error) {
		tr = tenantStream(opt.Seed)
		refs, err = tenantRefs(tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if p, err := tenantReplay(tr, refs); err != nil {
		return nil, err
	} else if p.failed > 0 {
		return nil, fmt.Errorf("%d jobs failed during warm-up", p.failed)
	}
	fmt.Fprintf(os.Stderr, "tenant-stream: set-up %v, warm-up replay %v\n", setup, time.Since(t0))
	res := &result{Metrics: metricSet{}}
	if opt.Trace {
		return res, tenantTraced(opt, tr, refs, res)
	}
	var walls, submit, done []float64
	var total time.Duration
	handled, rejected := 0, 0
	deadline := time.Now().Add(opt.Seconds)
	for time.Now().Before(deadline) || len(walls) == 0 {
		p, err := tenantReplay(tr, refs)
		if err != nil {
			return nil, err
		}
		walls = append(walls, p.wall.Seconds())
		total += p.wall
		submit = append(submit, p.submit...)
		done = append(done, p.done...)
		handled += len(p.done) + p.rejected
		rejected += p.rejected
		res.Attempted += p.jobs
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	st, dt := summarize(submit), summarize(done)
	fmt.Fprintf(os.Stderr, "tenant-stream: %d replays of %d jobs (%d slo-rejected per replay), wall %v\n",
		len(walls), tenantJobs, rejected/len(walls), walls)
	fmt.Fprintf(os.Stderr, "tenant-stream: submit (build) ms %v\n", st)
	fmt.Fprintf(os.Stderr, "tenant-stream: done (build to completion) ms %v\n", dt)
	m := res.Metrics
	m.set("wall_s", "s", median(walls))
	m.set("setup_s", "s", setup.Seconds())
	m.set("peak_rss_mb", "MB", rss)
	// A reject at the door is an admission decision the replay made, so it
	// counts as handled: how many a seed rejects is a virtual-time outcome,
	// not host speed.
	m.set("capacity_jps", "1/s", float64(handled)/total.Seconds())
	res.setLatency(st, dt)
	return res, nil
}

// tenantTraced alternates plain and traced composed scheduler runs of the
// trace, then measures the serving layer's Submit on a live in-process
// server and counts scheduler decisions from the program's own recorder.
func tenantTraced(opt options, tr *serve.Trace, refs []reference, res *result) error {
	h := tr.Header
	cc, pol := tenantCluster(h), tenantPolicy(h)
	arrs := tenantArrivals(tr)
	plainCat := serve.DefaultCatalog(h.PhysBudget)
	tracer := newTracer()
	kt := newKernelTimer()
	var builds []*buildRecord
	parent := -1 // the traced run's span: builds run inside it
	timedCat := wrapCatalog(plainCat, func(r *buildRecord) core.Runnable {
		builds = append(builds, r)
		tracer.add("apps.build", r.Start, r.Built, parent, r.Name)
		return r.Run
	})
	var plain, traced, allocs, runMs, kernelMs, buildMs, arriveMs, arriveUs, dispatched, launches []float64
	var dicts [][]string
	deadline := time.Now().Add(opt.Seconds)
	for time.Now().Before(deadline) || len(traced) == 0 {
		var run *schedRun
		alloc, err := memDelta(func() (err error) {
			run, err = runSchedComposed(cc, pol, plainCat, arrs, nil, nil, false)
			return err
		})
		if err != nil {
			return err
		}
		allocs = append(allocs, alloc)
		plain = append(plain, run.Wall.Seconds())
		res.Attempted += len(arrs)
		res.Failed += tenantCheck(run, refs)

		builds = builds[:0]
		k0, n0 := kt.total()
		parent = tracer.begin("sched.run", -1, "")
		run, err = runSchedComposed(cc, pol, timedCat, arrs, kt, nil, false)
		tracer.end(parent)
		if err != nil {
			return err
		}
		k1, n1 := kt.total()
		res.Attempted += len(arrs)
		res.Failed += tenantCheck(run, refs)
		traced = append(traced, run.Wall.Seconds())
		var build, arrive time.Duration
		for _, r := range builds {
			build += r.Built.Sub(r.Start)
			if r.Kind == "wo" && len(traced) == 1 {
				// The same dictionaries the catalog built, for re-timing
				// mph.Build on its own.
				dicts = append(dicts, workload.Dictionary(uint64(r.Params["seed"]), int(r.Params["dict"])))
			}
		}
		for _, d := range run.Arrive {
			arrive += d
			arriveUs = append(arriveUs, float64(d)/1e3)
		}
		runMs = append(runMs, ms(run.Wall))
		kernelMs = append(kernelMs, ms(k1-k0))
		buildMs = append(buildMs, ms(build))
		dispatched = append(dispatched, float64(run.Dispatch))
		launches = append(launches, float64(n1-n0))
		arriveMs = append(arriveMs, ms(arrive))
	}
	res.Correct = res.Failed == 0
	m := res.Metrics
	byKind := make(map[string][]float64)
	for _, s := range spansNamed(tracer, "apps.build") {
		kind := kindOf(s.Req)
		byKind[kind] = append(byKind[kind], float64(s.End-s.Start)/1e6)
	}
	for kind, v := range byKind {
		m.set("apps.build_ms."+kind, "ms", median(v))
	}
	m.set("apps.build_share", "fraction", median(buildMs)/median(runMs))
	var mphMs []float64
	for _, d := range dicts {
		t0 := time.Now()
		if _, err := mph.Build(d); err != nil {
			return err
		}
		mphMs = append(mphMs, ms(time.Since(t0)))
	}
	m.set("mph.build_ms", "ms", median(mphMs))
	setKernelMetrics(m, kt, float64(len(traced)), median(kernelMs), median(runMs), median(launches))
	// Engine time not spent in kernels, job builds or scheduler arrivals:
	// DES dispatch, pipeline code and completion-time admission passes.
	nonkernel := median(runMs) - median(kernelMs) - median(buildMs) - median(arriveMs)
	m.set("core.run_ms", "ms", median(runMs))
	m.set("core.nonkernel_ms", "ms", nonkernel)
	m.set("des.dispatched", "count", median(dispatched))
	m.set("des.nonkernel_ns_per_event", "ns", nonkernel*1e6/median(dispatched))
	m.set("sched.arrive_us", "us", median(arriveUs))
	if err := tenantCounts(tr, m); err != nil {
		return err
	}
	if err := tenantSubmit(tr, tracer, m); err != nil {
		return err
	}
	m.set("obs.trace_overhead_frac", "fraction", median(traced)/median(plain)-1)
	m.set("runtime.alloc_mb", "MB", median(allocs))
	m.set("runtime.gc_cpu_frac", "fraction", gcCPUFraction())
	fillLayers(m)
	return writeSpans(opt, tracer, "tenant-stream")
}

// kindOf extracts the kind from a catalog job name (tenant-kind-id).
func kindOf(name string) string {
	parts := strings.Split(name, "-")
	if len(parts) < 3 {
		return name
	}
	return parts[len(parts)-2]
}

// tenantCheck checks every completed job of a composed run and returns
// the number that failed.
func tenantCheck(run *schedRun, refs []reference) int {
	failed := 0
	for i, job := range run.Jobs {
		if job == nil {
			continue
		}
		got, err := runnableMap(job)
		if err != nil {
			continue // rejected at arrival: never ran
		}
		if err := refs[i].check(got); err != nil {
			fmt.Fprintf(os.Stderr, "tenant-stream: job %s: %v\n", job.RunName(), err)
			failed++
		}
	}
	return failed
}

// tenantCounts replays the trace once with the program's flight recorder
// on and counts the scheduler's decisions from it.
func tenantCounts(tr *serve.Trace, m metricSet) error {
	rec := obs.New()
	rep, err := serve.Replay(tr, serve.ReplayOptions{Obs: rec})
	if err != nil {
		return err
	}
	var place, backfill, preempt, requeue float64
	for _, e := range rec.Events() {
		switch e.Kind {
		case "place":
			place++
			if e.Attr("backfill") == "true" {
				backfill++
			}
		case "preempt":
			preempt++
		case "requeue":
			requeue++
		}
	}
	s := rep.Stats
	m.set("sched.placements", "count", place)
	m.set("sched.backfills", "count", backfill)
	m.set("sched.preempts", "count", preempt)
	m.set("sched.requeues", "count", requeue)
	m.set("serve.rejects", "count", float64(s.RejectedShed+s.RejectedQuota+s.RejectedInvalid+s.RejectedSLO))
	return nil
}

// tenantSubmit submits the trace's arrivals, back to back, to a live
// in-process server built like the replay's. Each Server.Submit is a
// span; the job build inside it, on the engine goroutine, is its child,
// so the submit's self time is the wait for the engine.
func tenantSubmit(tr *serve.Trace, tracer *tracer, m metricSet) error {
	h := tr.Header
	var open atomic.Int64 // the submit span a build belongs to
	cat := wrapCatalog(serve.DefaultCatalog(h.PhysBudget), func(r *buildRecord) core.Runnable {
		tracer.add("apps.build", r.Start, r.Built, int(open.Load()), r.Name)
		return r.Run
	})
	sv, err := serve.Start(serve.Config{Cluster: tenantCluster(h), Policy: tenantPolicy(h), Catalog: cat, MaxQueue: h.MaxQueue})
	if err != nil {
		return err
	}
	for i, ev := range tr.Events {
		a := ev.Arrive
		sp := tracer.begin("serve.submit", -1, fmt.Sprintf("%s-%s-%d", a.Tenant, a.Kind, i))
		open.Store(int64(sp))
		_, err := sv.Submit(serve.Request{Tenant: a.Tenant, Kind: a.Kind, Params: a.Params, Weight: a.Weight,
			MinGang: a.MinGang, Class: a.Class, Deadline: a.Deadline, Downgrade: a.Downgrade, Elastic: a.Elastic})
		tracer.end(sp)
		if err != nil {
			sv.Drain()
			return err
		}
	}
	if _, err := sv.Drain(); err != nil {
		return err
	}
	m.set("serve.submit_ms", "ms", median(tracer.durations()["serve.submit"]))
	m.set("serve.inject_wait_ms", "ms", median(tracer.selfTimes()["serve.submit"]))
	return nil
}
