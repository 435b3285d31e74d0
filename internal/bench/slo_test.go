package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func sloOpts() Options { return Options{PhysBudget: 2048, Seed: 1} }

// TestSLODeterminism: the sweep is a pure function of the options — two
// runs produce identical rows (attainment counts, latencies, rejects).
func TestSLODeterminism(t *testing.T) {
	a, err := SLO(sloOpts())
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	b, err := SLO(sloOpts())
	if err != nil {
		t.Fatalf("SLO (second run): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("slo sweep not deterministic:\n%v\nvs\n%v", a, b)
	}
}

// TestSLOInvariance: the sweep's rows do not depend on the kernel
// execution backend, on either scheduling model — the SLO machinery
// (admission prediction, reservation, checkpoint-preemption) is part of
// the simulation, not the harness. The two models are each their own
// reference: the node-leased model's modeled launch/done latencies
// legitimately shift the schedule.
func TestSLOInvariance(t *testing.T) {
	run := func(workers, shards int) []SLORow {
		got, err := SLO(Options{PhysBudget: 2048, Seed: 1, Workers: workers, Shards: shards})
		if err != nil {
			t.Fatalf("SLO(workers=%d shards=%d): %v", workers, shards, err)
		}
		return got
	}
	for _, shards := range []int{0, 1} {
		want := run(0, shards)
		if got := run(4, shards); !reflect.DeepEqual(got, want) {
			t.Errorf("slo sweep depends on the kernel backend (workers=4, shards=%d):\n%v\nvs\n%v", shards, got, want)
		}
	}
}

// TestSLOScenario sanity-checks the sweep's shape: accounting adds up
// per cell, the admission predictor actually bites somewhere (rejects or
// downgrades fire), preemption only runs in the +slo cell, and the SLO
// cell never serves interactive jobs worse than plain weighted-fair.
func TestSLOScenario(t *testing.T) {
	rows, err := SLO(sloOpts())
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	if len(rows) != len(sloGapsMs)*len(sloConfigs()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(sloGapsMs)*len(sloConfigs()))
	}
	var rejects, downs int64
	p95 := map[string]map[float64]int64{}
	for _, r := range rows {
		if r.Admitted+r.Shed+r.SLORej != SLOJobs {
			t.Errorf("%s@%vms: admit %d + shed %d + rej %d != %d offered",
				r.Config, r.GapMs, r.Admitted, r.Shed, r.SLORej, SLOJobs)
		}
		if r.Config != "weighted-fair+slo" && r.Preempts > 0 {
			t.Errorf("%s@%vms: %d preempts without the preempt policy", r.Config, r.GapMs, r.Preempts)
		}
		rejects += r.SLORej
		downs += r.Downgraded
		if p95[r.Config] == nil {
			p95[r.Config] = map[float64]int64{}
		}
		p95[r.Config][r.GapMs] = int64(r.P95Int)
	}
	if rejects == 0 {
		t.Error("no predicted-miss rejects anywhere in the sweep — admission prediction never engaged")
	}
	if downs == 0 {
		t.Error("no predicted-miss downgrades anywhere in the sweep")
	}
	for _, gap := range sloGapsMs {
		if slo, wf := p95["weighted-fair+slo"][gap], p95["weighted-fair"][gap]; slo > wf {
			t.Errorf("gap %vms: +slo interactive p95 %d worse than plain weighted-fair %d", gap, slo, wf)
		}
	}
}

// TestRenderSLO smoke-checks the table renderer.
func TestRenderSLO(t *testing.T) {
	rows, err := SLO(sloOpts())
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	var sb strings.Builder
	RenderSLO(&sb, rows)
	out := sb.String()
	for _, want := range []string{"SLO scheduling", "fifo-exclusive", "weighted-fair+slo",
		"int met", "p95 int", fmt.Sprintf("%v", sloInteractiveDeadline)} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
