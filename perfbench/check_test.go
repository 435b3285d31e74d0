package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The fleet check parses served text and the tenant check reads results
// in process; both must see the same map, and a wrong value must fail.
func TestOutputChecks(t *testing.T) {
	cat := serve.DefaultCatalog(fleetPhys)
	for _, tc := range []struct {
		kind string
		p    serve.Params
	}{
		{"wo", serve.Params{"bytes": 1 << 20, "gpus": 2, "seed": 5, "dict": 300}},
		{"kmc", serve.Params{"points": 1 << 20, "gpus": 3, "seed": 5}},
		{"sio", serve.Params{"elements": 1 << 20, "gpus": 4, "seed": 5}},
	} {
		run, err := cat.Build(tc.kind, "t-"+tc.kind+"-0", tc.p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := catalogRef(tc.kind, tc.p, fleetPhys)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		switch s := run.(type) {
		case *core.Scheduled[uint32]:
			s.Result = s.Job.MustRun()
		case *core.Scheduled[float64]:
			s.Result = s.Job.MustRun()
		}
		if err := run.(core.OutputRenderer).RenderOutput(&text); err != nil {
			t.Fatal(err)
		}
		direct, err := runnableMap(run)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := parseOutput(text.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.check(direct); err != nil {
			t.Errorf("%s: in-process result fails its reference: %v", tc.kind, err)
		}
		if err := ref.check(parsed); err != nil {
			t.Errorf("%s: served text fails its reference: %v", tc.kind, err)
		}
		for k := range parsed {
			parsed[k] = parsed[k]*1.01 + 1
			break
		}
		if ref.check(parsed) == nil {
			t.Errorf("%s: a wrong value passed the check", tc.kind)
		}
	}
}

func TestDivergenceComparesJobRecords(t *testing.T) {
	live := "=== shard s0 epoch 1 ===\n" +
		"  job  0 a-wo-0     want  2 got  2  ranks [0 1]\n" +
		"  job  1 b-sio-1    want  2 got  2  ranks [2 3]\n" +
		"  sjob   0 done      a-wo-0   dig 1\n" +
		"  sjob   1 done      b-sio-1  dig 2\n" +
		"=== shard s1 epoch 1 ===\n" +
		"  job  0 a-wo-0     want  2 got  2  ranks [0 1]\n"
	replay := strings.Replace(live, "ranks [2 3]", "ranks [4 5]", 1)
	if n, _ := divergence(live, live); n != 0 {
		t.Fatalf("identical reports: %d divergent jobs", n)
	}
	n, first := divergence(live, replay)
	if n != 1 || !strings.HasPrefix(first, "s0/b-sio-1") {
		t.Fatalf("got %d divergent jobs, first %q; want 1, s0/b-sio-1", n, first)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	p := tr.add("parent", at(0), at(10), -1, "r")
	tr.add("child", at(1), at(4), p, "r")
	tr.add("child", at(3), at(6), p, "r")  // overlaps the first child
	tr.add("child", at(8), at(12), p, "r") // runs past the parent's end
	if got := tr.selfTimes()["parent"][0]; got != 3 {
		t.Fatalf("parent self time %v ms, want 3", got)
	}
}
