package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps/kmc"
	"repro/internal/apps/lr"
	"repro/internal/apps/mm"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/core"
	"repro/internal/mph"
	"repro/internal/obs"
)

// paper-scaling: the paper's five apps at their largest Table-1 size, at
// 1, 8 and 64 GPUs, each an exclusive job on its own simulated cluster.

var (
	paperApps = []string{"mm", "sio", "wo", "kmc", "lr"}
	paperGPUs = []int{1, 8, 64}
	// paperSizes are the largest Table-1 inputs (Figure 2's): MM matrix
	// edge, WO corpus bytes, element counts for the rest.
	paperSizes = map[string]int64{"mm": 16384, "sio": 128 << 20, "wo": 512 << 20, "kmc": 512 << 20, "lr": 512 << 20}
)

const paperPhys = 1 << 16

type cell struct {
	app  string
	gpus int
}

func (c cell) String() string { return fmt.Sprintf("%s@%d", c.app, c.gpus) }

func paperCells() []cell {
	var cs []cell
	for _, g := range paperGPUs {
		for _, a := range paperApps {
			cs = append(cs, cell{a, g})
		}
	}
	return cs
}

// cellTimes is one cell's host cost.
type cellTimes struct {
	build, run time.Duration
}

// paperTracing holds the traced pass's instruments; nil means untraced.
type paperTracing struct {
	tr       *tracer
	kt       *kernelTimer
	pass     int     // current pass span
	runMs    float64 // composed engine runs this pass (mm excluded)
	dispatch int64
	dicts    [][]string // WO dictionaries built this pass
}

// paperCell builds and runs one cell, checks its output, and returns its
// host cost. With tracing, the build and the engine run are spans, the
// run goes through the composed engine with the kernel timer, and WO's
// dictionary is kept for the mph re-timing.
func paperCell(c cell, seed uint64, ref reference, pt *paperTracing) (cellTimes, error) {
	size := paperSizes[c.app]
	var ct cellTimes
	var tr *tracer
	parent := -1
	if pt != nil {
		tr = pt.tr
		parent = tr.begin("paper.cell", pt.pass, c.String())
		defer tr.end(parent)
	}
	t0 := time.Now()
	bs := tr.begin("apps.build", parent, c.String())
	var got map[uint32]float64
	var run func() error
	switch c.app {
	case "mm":
		b, err := mm.New(mm.Params{Dim: size, GPUs: c.gpus, Seed: seed})
		if err != nil {
			return ct, err
		}
		run = func() error {
			perRank, _, _, err := b.Run()
			if err == nil {
				got = mmGot(b.Reassemble(perRank))
			}
			return err
		}
	case "sio":
		job, _ := sio.NewJob(sio.Params{Elements: size, GPUs: c.gpus, Seed: seed, PhysMax: paperPhys})
		run = func() error { return runInto(job, pt, &got) }
	case "wo":
		b := wo.NewJob(wo.Params{Bytes: size, GPUs: c.gpus, Seed: seed, PhysMax: paperPhys})
		if pt != nil && c.gpus == paperGPUs[0] {
			pt.dicts = append(pt.dicts, b.Dict)
		}
		run = func() error { return runInto(b.Job, pt, &got) }
	case "kmc":
		b := kmc.NewJob(kmc.Params{Points: size, GPUs: c.gpus, Seed: seed, PhysMax: paperPhys})
		run = func() error { return runInto(b.Job, pt, &got) }
	case "lr":
		b := lr.NewJob(lr.Params{Points: size, GPUs: c.gpus, Seed: seed, PhysMax: paperPhys})
		run = func() error { return runInto(b.Job, pt, &got) }
	}
	tr.end(bs)
	t1 := time.Now()
	rs := tr.begin("core.run", parent, c.String())
	err := run()
	tr.end(rs)
	ct.build, ct.run = t1.Sub(t0), time.Since(t1)
	if err != nil {
		return ct, fmt.Errorf("%v: %w", c, err)
	}
	if err := ref.check(got); err != nil {
		return ct, fmt.Errorf("%v output: %w", c, err)
	}
	return ct, nil
}

// paperRefs computes every cell's sequential reference. MM's inputs
// depend on the GPU count (tile planning), the other apps' only on size
// and seed.
func paperRefs(seed uint64) map[cell]reference {
	refs := make(map[cell]reference)
	for _, c := range paperCells() {
		size := paperSizes[c.app]
		if c.app != "mm" {
			if r, ok := refs[cell{c.app, paperGPUs[0]}]; ok {
				refs[c] = r
				continue
			}
		}
		switch c.app {
		case "mm":
			b, err := mm.New(mm.Params{Dim: size, GPUs: c.gpus, Seed: seed})
			if err == nil {
				refs[c] = mmRef(b.Reference())
			}
		case "sio":
			_, data := sio.NewJob(sio.Params{Elements: size, GPUs: c.gpus, Seed: seed, PhysMax: paperPhys})
			refs[c] = sioRef(data)
		case "wo":
			refs[c] = woRef(wo.NewJob(wo.Params{Bytes: size, GPUs: c.gpus, Seed: seed, PhysMax: paperPhys}))
		case "kmc":
			refs[c] = kmcRef(kmc.NewJob(kmc.Params{Points: size, GPUs: c.gpus, Seed: seed, PhysMax: paperPhys}))
		case "lr":
			refs[c] = lrRef(lr.NewJob(lr.Params{Points: size, GPUs: c.gpus, Seed: seed, PhysMax: paperPhys}))
		}
	}
	return refs
}

// paperPass runs every cell once; it returns the per-cell costs and the
// number of cells whose output failed its check.
func paperPass(seed uint64, refs map[cell]reference, pt *paperTracing) ([]cellTimes, int) {
	var out []cellTimes
	failed := 0
	for _, c := range paperCells() {
		ct, err := paperCell(c, seed, refs[c], pt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper-scaling: %v\n", err)
			failed++
		}
		out = append(out, ct)
	}
	return out, failed
}

func passWall(cts []cellTimes) time.Duration {
	var d time.Duration
	for _, ct := range cts {
		d += ct.build + ct.run
	}
	return d
}

func runPaper(opt options) (*result, error) {
	seed := opt.Seed + 1 // the apps treat seed 0 as 1
	// Set-up is the work no pass repeats: generating every cell's inputs
	// and computing their references. The warm-up pass after it is the
	// same work every measured pass does, so wall_s already carries it.
	var refs map[cell]reference
	setup, err := repeatSetup(9, func() error {
		refs = paperRefs(seed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, failed := paperPass(seed, refs, nil); failed > 0 {
		return nil, fmt.Errorf("%d cells failed their check during warm-up", failed)
	}
	fmt.Fprintf(os.Stderr, "paper-scaling: set-up %v, warm-up pass %v\n", setup, time.Since(t0))
	res := &result{Metrics: metricSet{}}
	if opt.Trace {
		return res, paperTraced(opt, seed, refs, res)
	}
	var walls, submit, done []float64
	perCell := make([][]float64, len(paperCells()))
	var cells int
	var total time.Duration
	deadline := time.Now().Add(opt.Seconds)
	for time.Now().Before(deadline) || len(walls) == 0 {
		cts, failed := paperPass(seed, refs, nil)
		res.Failed += failed
		for i, ct := range cts {
			submit = append(submit, ms(ct.build))
			done = append(done, ms(ct.build+ct.run))
			perCell[i] = append(perCell[i], ms(ct.build+ct.run))
		}
		cells += len(cts)
		w := passWall(cts)
		total += w
		walls = append(walls, w.Seconds())
	}
	res.Attempted = cells
	res.Correct = res.Failed == 0
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	st, dt := summarize(submit), summarize(done)
	fmt.Fprintf(os.Stderr, "paper-scaling: %d passes, wall %v\n", len(walls), walls)
	fmt.Fprintf(os.Stderr, "paper-scaling: submit (build) ms %v\n", st)
	fmt.Fprintf(os.Stderr, "paper-scaling: done (build+run) ms %v\n", dt)
	for i, c := range paperCells() {
		fmt.Fprintf(os.Stderr, "paper-scaling: cell %-7v median %9.3f ms  [%9.3f, %9.3f]\n",
			c, median(perCell[i]), quantile(perCell[i], 0), quantile(perCell[i], 1))
	}
	m := res.Metrics
	m.set("wall_s", "s", median(walls))
	m.set("setup_s", "s", setup.Seconds())
	m.set("peak_rss_mb", "MB", rss)
	m.set("capacity_jps", "1/s", float64(cells)/total.Seconds())
	res.setLatency(st, dt)
	return res, nil
}

// paperTraced alternates untraced and traced passes for the measured
// time and reports the per-layer metrics of the traced ones.
func paperTraced(opt options, seed uint64, refs map[cell]reference, res *result) error {
	tr := newTracer()
	kt := newKernelTimer()
	var plain, traced, allocs, mphMs []float64
	var runMs, kernelMs, buildShare []float64
	var dispatched, launches []float64
	deadline := time.Now().Add(opt.Seconds)
	for time.Now().Before(deadline) || len(traced) == 0 {
		var cts []cellTimes
		var failed int
		alloc, _ := memDelta(func() error {
			cts, failed = paperPass(seed, refs, nil)
			return nil
		})
		allocs = append(allocs, alloc)
		plain = append(plain, passWall(cts).Seconds())
		res.Failed += failed
		res.Attempted += len(cts)

		pt := &paperTracing{tr: tr, kt: kt}
		pt.pass = tr.begin("paper.pass", -1, "")
		k0, n0 := kt.total()
		cts, failed = paperPass(seed, refs, pt)
		tr.end(pt.pass)
		k1, n1 := kt.total()
		res.Failed += failed
		res.Attempted += len(cts)
		w := passWall(cts)
		traced = append(traced, w.Seconds())
		runMs = append(runMs, pt.runMs)
		kernelMs = append(kernelMs, ms(k1-k0))
		dispatched = append(dispatched, float64(pt.dispatch))
		launches = append(launches, float64(n1-n0))
		var build time.Duration
		for _, ct := range cts {
			build += ct.build
		}
		buildShare = append(buildShare, build.Seconds()/w.Seconds())
		for _, d := range pt.dicts {
			t0 := time.Now()
			if _, err := mph.Build(d); err != nil {
				return err
			}
			mphMs = append(mphMs, ms(time.Since(t0)))
		}
	}
	res.Correct = res.Failed == 0
	m := res.Metrics
	builds := make(map[string][]float64)
	for _, s := range spansNamed(tr, "apps.build") {
		app, _, _ := strings.Cut(s.Req, "@")
		builds[app] = append(builds[app], float64(s.End-s.Start)/1e6)
	}
	for _, app := range paperApps {
		m.set("apps.build_ms."+app, "ms", median(builds[app]))
	}
	m.set("apps.build_share", "fraction", median(buildShare))
	m.set("mph.build_ms", "ms", median(mphMs))
	setKernelMetrics(m, kt, float64(len(traced)), median(kernelMs), median(runMs), median(launches))
	m.set("core.run_ms", "ms", median(runMs))
	m.set("core.nonkernel_ms", "ms", median(runMs)-median(kernelMs))
	m.set("des.dispatched", "count", median(dispatched))
	m.set("des.nonkernel_ns_per_event", "ns", (median(runMs)-median(kernelMs))*1e6/median(dispatched))
	m.set("obs.trace_overhead_frac", "fraction", median(traced)/median(plain)-1)
	m.set("runtime.alloc_mb", "MB", median(allocs))
	m.set("runtime.gc_cpu_frac", "fraction", gcCPUFraction())
	fillLayers(m)
	return writeSpans(opt, tr, "paper-scaling")
}

// runJob runs an exclusive job: through core.Job.Run when untraced, and
// through the composed engine with the kernel timer when traced.
func runJob[V uint32 | float64](j *core.Job[V], pt *paperTracing) (*core.Result[V], error) {
	if pt == nil {
		return j.Run()
	}
	rec := obs.New()
	res, d, err := runComposed(j, pt.kt, rec, false)
	pt.runMs += ms(d)
	pt.dispatch += engineDispatched(rec)
	return res, err
}

// runInto runs an exclusive job with runJob and folds its output into got.
func runInto[V uint32 | float64](j *core.Job[V], pt *paperTracing, got *map[uint32]float64) error {
	res, err := runJob(j, pt)
	if err == nil {
		*got = pairsMap(res)
	}
	return err
}

// spansNamed returns a copy of the closed spans with the given name.
func spansNamed(tr *tracer, name string) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}
