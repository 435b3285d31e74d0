package mph

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/workload"
)

func TestBuildSmall(t *testing.T) {
	words := []string{"the", "quick", "brown", "fox", "jumps"}
	tab, err := Build(words)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]string)
	for _, w := range words {
		slot := tab.Lookup(w)
		if slot >= uint32(len(words)) {
			t.Errorf("%q -> %d out of range", w, slot)
		}
		if prev, dup := seen[slot]; dup {
			t.Errorf("collision: %q and %q both -> %d", prev, w, slot)
		}
		seen[slot] = w
	}
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("expected error for empty dictionary")
	}
}

func TestBuildSingleWord(t *testing.T) {
	tab, err := Build([]string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Lookup("solo") != 0 {
		t.Errorf("single word -> %d, want 0", tab.Lookup("solo"))
	}
}

func TestBuildDuplicateFails(t *testing.T) {
	if _, err := Build([]string{"dup", "dup"}); err == nil {
		t.Error("expected error for duplicate words")
	}
}

func TestMinimalPerfectOnPaperDictionary(t *testing.T) {
	// The paper's WO uses a 43k-word dictionary; the hash must be a
	// bijection onto [0, 43000).
	if testing.Short() {
		t.Skip("full dictionary build in -short mode")
	}
	words := workload.Dictionary(42, workload.DictionarySize)
	tab, err := Build(words)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != len(words) {
		t.Fatalf("table size %d, want %d", tab.Len(), len(words))
	}
	hit := make([]bool, len(words))
	for _, w := range words {
		slot := tab.Lookup(w)
		if slot >= uint32(len(words)) {
			t.Fatalf("%q -> %d out of range", w, slot)
		}
		if hit[slot] {
			t.Fatalf("slot %d assigned twice", slot)
		}
		hit[slot] = true
	}
}

func TestLookupDeterministic(t *testing.T) {
	words := workload.Dictionary(1, 100)
	tab, err := Build(words)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		if tab.Lookup(w) != tab.Lookup(w) {
			t.Fatalf("nondeterministic lookup for %q", w)
		}
	}
}

func TestLookupCostGrowsWithLength(t *testing.T) {
	if LookupCostFlops(10) <= LookupCostFlops(3) {
		t.Error("lookup cost should grow with word length")
	}
}

// TestBuildGolden pins the displacement seeds Build chooses: WO's word
// slots, and with them every table, trace and report, depend on them. The
// digests were taken from the original insertion-sort construction.
func TestBuildGolden(t *testing.T) {
	for _, c := range []struct {
		seed   uint64
		n      int
		digest uint64
	}{
		{42, workload.DictionarySize, 0xea00c8aecd2aee50},
		{1, 2048, 0x6bf3b6e06b4feb97},
	} {
		tab, err := Build(workload.Dictionary(c.seed, c.n))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		if err := binary.Write(h, binary.LittleEndian, tab.seeds); err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != c.digest {
			t.Errorf("Dictionary(%d, %d): seeds digest %#016x, want %#016x", c.seed, c.n, got, c.digest)
		}
	}
}

// TestBucketOrderStable checks the counting sort against a stable
// comparison sort: descending size, ties in index order.
func TestBucketOrderStable(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	for _, nb := range []int{1, 2, 7, 100, 1000} {
		start := make([]int, nb+1)
		maxSize := 0
		for b := 0; b < nb; b++ {
			sz := r.IntN(9)
			maxSize = max(maxSize, sz)
			start[b+1] = start[b] + sz
		}
		size := func(b int) int { return start[b+1] - start[b] }
		want := make([]int, nb)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return size(b) - size(a) })
		if got := bucketOrder(start, maxSize); !slices.Equal(got, want) {
			t.Fatalf("%d buckets: order %v, want %v", nb, got, want)
		}
	}
}

// TestBuildAllocs bounds Build's allocations: a fixed handful of slices,
// nothing per word, bucket or seed attempt.
func TestBuildAllocs(t *testing.T) {
	words := workload.Dictionary(1, 2048)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Build(words); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("Build of %d words: %.0f allocations, want <= 16", len(words), allocs)
	}
}

func BenchmarkBuild1k(b *testing.B) {
	words := workload.Dictionary(9, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(words); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild43k(b *testing.B) {
	words := workload.Dictionary(42, workload.DictionarySize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(words); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	words := workload.Dictionary(9, 1000)
	tab, err := Build(words)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(words[i%len(words)])
	}
}
