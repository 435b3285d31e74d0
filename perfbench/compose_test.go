package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/apps/kmc"
	"repro/internal/apps/lr"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// The traced runs rebuild engine, cluster, timing backend and scheduler
// from public parts. These tests prove that composition is the program
// the end-to-end runs measure: same virtual-time recording, same traces,
// same outputs.

func jsonl(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameRun compares an exclusive core.Job.Run against the composed run
// with the kernel timer, both recorded.
func sameRun[V uint32 | float64](t *testing.T, name string, build func() *core.Job[V]) {
	t.Helper()
	ref := build()
	recA := obs.New()
	ref.Config.Obs = recA
	want, err := ref.Run()
	if err != nil {
		t.Fatalf("%s: Job.Run: %v", name, err)
	}
	recB := obs.New()
	kt := newKernelTimer()
	got, _, err := runComposed(build(), kt, recB, true)
	if err != nil {
		t.Fatalf("%s: composed: %v", name, err)
	}
	if a, b := jsonl(t, recA), jsonl(t, recB); !bytes.Equal(a, b) {
		t.Errorf("%s: virtual-time recordings differ (%d vs %d bytes)", name, len(a), len(b))
	}
	if a, b := want.Trace.String(), got.Trace.String(); a != b {
		t.Errorf("%s: traces differ:\n%s\nvs\n%s", name, a, b)
	}
	if want.Digest() != got.Digest() {
		t.Errorf("%s: output digests differ", name)
	}
	if _, n := kt.total(); n == 0 {
		t.Errorf("%s: the kernel timer saw no launches", name)
	}
	// Untraced composition (engine recorder only) matches too.
	plain, _, err := runComposed(build(), nil, obs.New(), false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace.String() != want.Trace.String() || plain.Digest() != want.Digest() {
		t.Errorf("%s: untimed composition differs from Job.Run", name)
	}
}

func TestComposedExclusiveMatchesJobRun(t *testing.T) {
	for _, g := range paperGPUs {
		const phys = 1 << 12
		sameRun(t, fmt.Sprintf("sio@%d", g), func() *core.Job[uint32] {
			j, _ := sio.NewJob(sio.Params{Elements: 32 << 20, GPUs: g, Seed: 3, PhysMax: phys})
			return j
		})
		sameRun(t, fmt.Sprintf("wo@%d", g), func() *core.Job[uint32] {
			return wo.NewJob(wo.Params{Bytes: 64 << 20, GPUs: g, Seed: 3, PhysMax: phys, DictSize: 600}).Job
		})
		sameRun(t, fmt.Sprintf("kmc@%d", g), func() *core.Job[float64] {
			return kmc.NewJob(kmc.Params{Points: 32 << 20, GPUs: g, Seed: 3, PhysMax: phys}).Job
		})
		sameRun(t, fmt.Sprintf("lr@%d", g), func() *core.Job[float64] {
			return lr.NewJob(lr.Params{Points: 64 << 20, GPUs: g, Seed: 3, PhysMax: phys}).Job
		})
	}
}

// TestComposedPaperCellMatchesJobRun checks one cell at its benchmark
// size and physical budget.
func TestComposedPaperCellMatchesJobRun(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size cell")
	}
	sameRun(t, "sio@64", func() *core.Job[uint32] {
		j, _ := sio.NewJob(sio.Params{Elements: paperSizes["sio"], GPUs: 64, Seed: 2, PhysMax: paperPhys})
		return j
	})
}

func TestComposedSchedulerMatchesSchedRunAndReplay(t *testing.T) {
	tr := tenantStream(4)
	h := tr.Header
	cc, pol := tenantCluster(h), tenantPolicy(h)
	arrs := tenantArrivals(tr)
	cat := serve.DefaultCatalog(h.PhysBudget)

	recB := obs.New()
	kt := newKernelTimer()
	got, err := runSchedComposed(cc, pol, wrapCatalog(cat, func(r *buildRecord) core.Runnable { return r.Run }),
		arrs, kt, recB, true)
	if err != nil {
		t.Fatal(err)
	}

	// sched.Run over the same jobs, built up front.
	specs := make([]sched.JobSpec, len(arrs))
	for i, a := range arrs {
		run, err := cat.Build(a.Kind, fmt.Sprintf("%s-%s-%d", a.Tenant, a.Kind, i), a.Params)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = a.Spec
		specs[i].At, specs[i].Job = a.At, run
	}
	recA := obs.New()
	ccA := cc
	ccA.Obs = recA
	want, err := sched.Run(ccA, pol, specs)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := want.String(), got.Trace.String(); a != b {
		t.Errorf("cluster traces differ from sched.Run:\n%s\nvs\n%s", a, b)
	}
	if a, b := jsonl(t, recA), jsonl(t, recB); !bytes.Equal(a, b) {
		t.Errorf("virtual-time recordings differ from sched.Run (%d vs %d bytes)", len(a), len(b))
	}
	for i, run := range got.Jobs {
		a, aok := run.(core.OutputDigester).OutputDigest()
		b, bok := specs[i].Job.(core.OutputDigester).OutputDigest()
		if a != b || aok != bok {
			t.Errorf("job %d: output digest differs from sched.Run", i)
		}
	}

	// The stream exercises every scheduler path tenant-stream claims to.
	seen := make(map[string]int)
	for _, e := range recA.Events() {
		seen[e.Kind]++
		if e.Kind == "place" && e.Attr("backfill") == "true" {
			seen["backfill"]++
		}
	}
	for _, kind := range []string{"backfill", "preempt", "slo.reject"} {
		if seen[kind] == 0 {
			t.Errorf("the stream never produced a %s", kind)
		}
	}

	// And the end-to-end program, serve.Replay, schedules identically.
	rep, err := serve.Replay(tr, serve.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := rep.Cluster.String(), got.Trace.String(); a != b {
		t.Errorf("cluster traces differ from serve.Replay:\n%s\nvs\n%s", a, b)
	}
	if len(got.Trace.Jobs) == 0 || got.Dispatch == 0 {
		t.Errorf("composed run did no work: %d jobs, %d dispatches", len(got.Trace.Jobs), got.Dispatch)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the runs print in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, have, want []metricDef) {
		if len(have) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the benchmark reports %v", what, i, have[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
