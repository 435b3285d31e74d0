package wo

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/mph"
	"repro/internal/workload"
)

// TestDictionarySharedAcrossJobs builds many jobs on one (seed, size)
// concurrently: they must all share one table and one word slice (run it
// under -race to check the memo's locking).
func TestDictionarySharedAcrossJobs(t *testing.T) {
	const jobs = 8
	built := make([]*Built, jobs)
	var wg sync.WaitGroup
	for i := range built {
		wg.Add(1)
		go func() {
			defer wg.Done()
			built[i] = NewJob(Params{Bytes: 1 << 14, GPUs: 2, Seed: 9001, PhysMax: 1 << 12, DictSize: 300})
		}()
	}
	wg.Wait()
	for _, b := range built[1:] {
		if b.Table != built[0].Table || &b.Dict[0] != &built[0].Dict[0] {
			t.Fatal("jobs on one (seed, size) got different dictionary copies")
		}
	}
	if want := workload.Dictionary(9001, 300); !reflect.DeepEqual(built[0].Dict, want) {
		t.Fatal("memoised dictionary differs from workload.Dictionary")
	}
	want, err := mph.Build(built[0].Dict)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built[0].Table, want) {
		t.Fatal("memoised table differs from a fresh mph.Build")
	}
}

func TestDictMemoEvictsWithinBudget(t *testing.T) {
	d := newDictMemo(250)
	for seed := uint64(1); seed <= 10; seed++ {
		d.get(seed, 100)
		if d.words > d.budget {
			t.Fatalf("after seed %d: %d cached words, budget %d", seed, d.words, d.budget)
		}
	}
	if len(d.m) != 2 || len(d.fifo) != 2 {
		t.Fatalf("cached %d dictionaries (fifo %d), want the newest 2", len(d.m), len(d.fifo))
	}
	// FIFO: the two newest survive.
	for _, seed := range []uint64{9, 10} {
		if _, ok := d.m[dictKey{seed, 100}]; !ok {
			t.Errorf("seed %d evicted, want it cached", seed)
		}
	}
	// A hit returns the cached copy.
	w1, t1 := d.get(10, 100)
	w2, t2 := d.get(10, 100)
	if t1 != t2 || &w1[0] != &w2[0] {
		t.Error("repeat lookup rebuilt a cached dictionary")
	}
}

func TestDictMemoSkipsOversized(t *testing.T) {
	d := newDictMemo(100)
	d.get(1, 60)
	w1, t1 := d.get(2, 101)
	w2, t2 := d.get(2, 101)
	if len(w1) != 101 || t1.Len() != 101 {
		t.Fatalf("oversized dictionary: %d words, table %d", len(w1), t1.Len())
	}
	if t1 == t2 || &w1[0] == &w2[0] {
		t.Error("oversized dictionary was cached")
	}
	if _, ok := d.m[dictKey{1, 60}]; !ok || d.words != 60 {
		t.Errorf("oversized build disturbed the cache: %d words cached", d.words)
	}
}
