package serve

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/des"
)

func TestTraceRoundTrip(t *testing.T) {
	h := Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 8, GPUsPerNode: 4,
		MaxQueue: 16, Quota: 4, Quotas: map[string]int{"vip": 8}, PhysBudget: 4096}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, h)
	w.Arrive(Arrival{Seq: 0, At: 5, Tenant: "a", Kind: "wo", Params: Params{"bytes": 1024}, Weight: 2})
	w.Arrive(Arrival{Seq: 1, At: 9, Tenant: "b", Kind: "sio", MinGang: 2})
	w.Cancel(Cancel{Seq: 0, At: 12})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Header.Policy != "weighted-fair" || tr.Header.Quotas["vip"] != 8 || tr.Header.PhysBudget != 4096 {
		t.Fatalf("header mangled: %+v", tr.Header)
	}
	if len(tr.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(tr.Events))
	}
	a := tr.Events[0].Arrive
	if a == nil || a.Tenant != "a" || a.Params["bytes"] != 1024 || a.Weight != 2 {
		t.Fatalf("arrival 0 mangled: %+v", a)
	}
	if c := tr.Events[2].Cancel; c == nil || c.Seq != 0 || c.At != 12 {
		t.Fatalf("cancel mangled: %+v", tr.Events[2])
	}
}

func TestTraceReadRejects(t *testing.T) {
	head := `{"version":1,"policy":"weighted-fair","gpus":4,"gpusPerNode":4,"maxQueue":8,"physBudget":64}` + "\n"
	cases := map[string]string{
		"bad version":    strings.Replace(head, `"version":1`, `"version":99`, 1),
		"backwards time": head + `{"arrive":{"seq":0,"at":10,"tenant":"a","kind":"wo"}}` + "\n" + `{"arrive":{"seq":1,"at":5,"tenant":"a","kind":"wo"}}` + "\n",
		"seq gap":        head + `{"arrive":{"seq":1,"at":0,"tenant":"a","kind":"wo"}}` + "\n",
		"unknown cancel": head + `{"cancel":{"seq":3,"at":1}}` + "\n",
		"empty event":    head + `{}` + "\n",
		"double event":   head + `{"arrive":{"seq":0,"at":1,"tenant":"a","kind":"wo"},"cancel":{"seq":0,"at":1}}` + "\n",
		"garbage":        head + `not json` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted bad input", name)
		}
	}
	if _, err := ReadTrace(strings.NewReader(head)); err != nil {
		t.Errorf("event-free trace rejected: %v", err)
	}
}

// TestReplayRejectsUnknownPolicy pins the header policy check.
func TestReplayRejectsUnknownPolicy(t *testing.T) {
	tr := &Trace{Header: Header{Version: TraceVersion, Policy: "round-robin", GPUs: 4, GPUsPerNode: 4, PhysBudget: 64}}
	if _, err := Replay(tr, ReplayOptions{}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("err = %v, want unknown policy", err)
	}
}

// TestHeaderTimes sanity-checks des.Time JSON round-tripping (int64 ns).
func TestHeaderTimes(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 1, GPUsPerNode: 1, PhysBudget: 1})
	at := 3*des.Second + 141*des.Millisecond
	w.Arrive(Arrival{Seq: 0, At: at, Tenant: "x", Kind: "wo"})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got := tr.Events[0].Arrive.At; got != at {
		t.Fatalf("time round-trip: %v != %v", got, at)
	}
}

// writeTrace re-records tr through a TraceWriter.
func writeTrace(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, tr.Header)
	for _, ev := range tr.Events {
		if ev.Arrive != nil {
			w.Arrive(*ev.Arrive)
		} else {
			w.Cancel(*ev.Cancel)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadTrace: ReadTrace returns an error, never panics, on any input,
// and every trace it accepts round-trips through TraceWriter — written
// out, read back and written again, the bytes do not change. The seed
// corpus starts from a trace recorded by a live gpmrd, which must
// round-trip to its own bytes.
func FuzzReadTrace(f *testing.F) {
	smoke, err := os.ReadFile("testdata/smoke_trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	tr, err := ReadTrace(bytes.NewReader(smoke))
	if err != nil {
		f.Fatalf("recorded trace rejected: %v", err)
	}
	if got := writeTrace(f, tr); !bytes.Equal(got, smoke) {
		f.Fatalf("recorded trace does not round-trip:\n--- recorded\n%s--- rewritten\n%s", smoke, got)
	}
	f.Add(smoke)
	f.Add(append(smoke, `{"cancel":{"seq":2,"at":1710293000}}`+"\n"...))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		first := writeTrace(t, tr)
		again, err := ReadTrace(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("rewritten trace rejected: %v\n%s", err, first)
		}
		if second := writeTrace(t, again); !bytes.Equal(first, second) {
			t.Fatalf("trace does not round-trip:\n--- first\n%s--- second\n%s", first, second)
		}
	})
}
