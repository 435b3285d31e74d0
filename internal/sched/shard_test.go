package sched

import (
	"errors"
	"testing"

	"repro/internal/cluster"
)

// shardSpecs is a mixed stream: staggered arrivals, different gang sizes,
// enough jobs that several run concurrently under the sharing policies.
func shardSpecs() []JobSpec {
	return []JobSpec{
		{At: 0, Job: makeJob("a", 4, 8, 256)},
		{At: 0, Job: makeJob("b", 2, 4, 256)},
		{At: 1 << 20, Job: makeJob("c", 8, 8, 256)},
		{At: 1 << 21, Job: makeJob("d", 4, 6, 256)},
		{At: 1 << 21, Job: makeJob("e", 2, 4, 256), Weight: 2},
		{At: 1 << 22, Job: makeJob("f", 12, 8, 256), MinGang: 4},
	}
}

// TestShardedRunIsReproducible reruns the same node-leased configuration
// under both sharing policies and demands bit-identical traces: host
// scheduling must not leak into the simulation.
func TestShardedRunIsReproducible(t *testing.T) {
	cc := cc16()
	cc.Shards = 1
	for _, pol := range []Policy{
		{Kind: FixedShare, Share: 4},
		{Kind: WeightedFair},
	} {
		var base string
		for rep := 0; rep < 3; rep++ {
			ct, err := Run(cc, pol, shardSpecs())
			if err != nil {
				t.Fatal(err)
			}
			if got := ct.String(); rep == 0 {
				base = got
			} else if got != base {
				t.Fatalf("%v rep %d diverged:\n%s\n---\n%s", pol, rep, base, got)
			}
		}
	}
}

// TestShardedTraceInvariantAcrossShardCounts checks that the node-leased
// trace does not depend on how the host splits the work: with one engine
// left, the remaining host-side partition is the kernel backend's worker
// count, and serial, two- and three-worker runs must agree byte for byte
// under both sharing policies.
func TestShardedTraceInvariantAcrossShardCounts(t *testing.T) {
	for _, pol := range []Policy{
		{Kind: FixedShare, Share: 4},
		{Kind: WeightedFair},
	} {
		var base string
		for _, workers := range []int{0, 2, 3} {
			cc := cc16()
			cc.Shards = 1
			cc.Workers = workers
			ct, err := Run(cc, pol, shardSpecs())
			if err != nil {
				t.Fatalf("%v workers=%d: %v", pol, workers, err)
			}
			got := ct.String()
			if workers == 0 {
				base = got
				continue
			}
			if got != base {
				t.Errorf("%v: workers=%d trace diverges from serial:\n--- serial\n%s\n--- workers=%d\n%s",
					pol, workers, base, workers, got)
			}
		}
	}
}

// TestRemovedShardValuesRejected: Shards is the scheduling-model switch,
// 0 or 1; any other value is a named error, not a silent fallback.
func TestRemovedShardValuesRejected(t *testing.T) {
	for _, shards := range []int{2, -1} {
		cc := cc16()
		cc.Shards = shards
		_, err := Run(cc, Policy{Kind: WeightedFair}, shardSpecs())
		if !errors.Is(err, cluster.ErrBadShards) || !errors.Is(err, ErrBadCluster) {
			t.Errorf("Shards=%d: err %v, want ErrBadShards wrapped in ErrBadCluster", shards, err)
		}
	}
}

// TestShardedLeasesWholeNodes checks the node-leased model's isolation
// rule: two concurrent gangs never split a node, even when their sizes
// would pack onto one.
func TestShardedLeasesWholeNodes(t *testing.T) {
	cc := cluster.DefaultConfig(8) // two nodes of four
	cc.Shards = 1
	specs := []JobSpec{
		{At: 0, Job: makeJob("a", 2, 6, 256)},
		{At: 0, Job: makeJob("b", 2, 6, 256)},
	}
	ct, err := Run(cc, Policy{Kind: FixedShare, Share: 2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := jobByID(ct, 0), jobByID(ct, 1)
	if b.Admit >= a.Finish {
		t.Fatalf("expected overlap on two nodes: b admitted %v, a finished %v", b.Admit, a.Finish)
	}
	nodeOf := func(r int) int { return r / 4 }
	for _, ra := range a.Gang {
		for _, rb := range b.Gang {
			if nodeOf(ra) == nodeOf(rb) {
				t.Fatalf("concurrent node-leased gangs share node %d: %v vs %v", nodeOf(ra), a.Gang, b.Gang)
			}
		}
	}
}
