package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/apps/kmc"
	"repro/internal/apps/lr"
	"repro/internal/apps/mm"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/serve"
)

// shardPoints are the engine configurations the sharded differential
// tests pit against each other: 1 (a one-shard set — the gang shares the
// hub engine), 2 (the gang on a non-hub shard, launches and completions
// crossing shards as posts), and -1 (one shard per node plus the hub, the
// widest decomposition).
func shardPoints() []int { return []int{1, 2, -1} }

func shardPointName(shards int) string {
	if shards < 0 {
		return "per-node"
	}
	return fmt.Sprintf("shards(%d)", shards)
}

// scheduled wraps a job for the scheduler (a generic call, so callers need
// not name the value type).
func scheduled[V any](j *core.Job[V]) *core.Scheduled[V] { return &core.Scheduled[V]{Job: j} }

// shardApps builds each app's job for the sharded matrix. MM contributes
// its first pass, the one that does the multiply.
var shardApps = []struct {
	name string
	job  func(gpus int) core.Runnable
}{
	{"wo", func(gpus int) core.Runnable {
		return scheduled(wo.NewJob(wo.Params{Bytes: 4 << 20, GPUs: gpus, Seed: 1, PhysMax: 1 << 14, DictSize: 1000, ChunkCap: 1 << 18}).Job)
	}},
	{"sio", func(gpus int) core.Runnable {
		job, _ := sio.NewJob(sio.Params{Elements: 4 << 20, GPUs: gpus, Seed: 1, PhysMax: 1 << 14, ChunkCap: 1 << 19})
		return scheduled(job)
	}},
	{"kmc", func(gpus int) core.Runnable {
		return scheduled(kmc.NewJob(kmc.Params{Points: 4 << 20, GPUs: gpus, Seed: 1, PhysMax: 1 << 12}).Job)
	}},
	{"lr", func(gpus int) core.Runnable {
		return scheduled(lr.NewJob(lr.Params{Points: 4 << 20, GPUs: gpus, Seed: 1, PhysMax: 1 << 12}).Job)
	}},
	{"mm", func(gpus int) core.Runnable {
		b, err := mm.New(mm.Params{Dim: 1024, GPUs: gpus, Seed: 1})
		if err != nil {
			panic(err)
		}
		return scheduled(b.Job1)
	}},
}

// runScheduled runs job alone on a cluster of its own size through the
// scheduler at the given shard count and returns its observables: the
// cluster trace, the job's own pipeline trace, and its output digest.
// Above one shard the gang is homed off the hub, so its launch and
// completion cross shards as posts.
func runScheduled(t *testing.T, job core.Runnable, shards int) string {
	t.Helper()
	cc := cluster.DefaultConfig(job.GangWant())
	cc.Shards = shards
	ct, err := sched.Run(cc, sched.Policy{Kind: sched.FIFOExclusive}, []sched.JobSpec{{Job: job}})
	if err != nil {
		t.Fatalf("%s %s: %v", job.RunName(), shardPointName(shards), err)
	}
	digest, ok := job.(core.OutputDigester).OutputDigest()
	if !ok {
		t.Fatalf("%s %s: job never completed", job.RunName(), shardPointName(shards))
	}
	return fmt.Sprintf("%s%s\noutput digest %016x\n", ct, ct.Jobs[0].Trace, digest)
}

// TestShardDifferentialMatrix is the engine-layer counterpart of
// TestBackendDifferentialMatrix: every app at 1, 4, and 8 GPUs, run as a
// scheduled single job, must produce identical cluster and golden traces
// and an identical output digest whether its gang shares the hub engine
// or runs on a shard of its own. Exclusive runs (Job.Run) always use one
// engine, so the scheduler is where the shard count reaches an app.
func TestShardDifferentialMatrix(t *testing.T) {
	for _, app := range shardApps {
		t.Run(app.name, func(t *testing.T) {
			for _, gpus := range []int{1, 4, 8} {
				want := runScheduled(t, app.job(gpus), 1)
				for _, shards := range shardPoints()[1:] {
					if got := runScheduled(t, app.job(gpus), shards); got != want {
						t.Errorf("%d GPUs: %s diverges from the one-shard set:\n--- shards(1)\n%s\n--- %s\n%s",
							gpus, shardPointName(shards), want, shardPointName(shards), got)
					}
				}
			}
		})
	}
}

// TestShardDifferentialFaults reruns the fault-injection scenario (a
// fail-stop mid-map plus a derated straggler with speculation) as a
// scheduled single job across shard counts: recovery requeues, relays,
// and twin races must be schedule-identical with the gang on the hub and
// on a non-hub shard.
func TestShardDifferentialFaults(t *testing.T) {
	job := func() core.Runnable {
		job, _ := sio.NewJob(sio.Params{Elements: 8 << 20, GPUs: 8, Seed: 2, PhysMax: 1 << 13, ChunkCap: 1 << 20})
		job.Config.GatherOutput = true
		job.Config.Speculate = true
		job.Config.Faults = &fault.Plan{Events: []fault.Event{
			fault.FailAfterChunks(2, 2),
			fault.SlowdownAfterChunks(5, 1, 8),
		}}
		return scheduled(job)
	}
	want := runScheduled(t, job(), 1)
	for _, shards := range shardPoints()[1:] {
		if got := runScheduled(t, job(), shards); got != want {
			t.Errorf("%s fault run diverges from the one-shard set:\n--- shards(1)\n%s\n--- got\n%s",
				shardPointName(shards), want, got)
		}
	}
}

// TestShardDifferentialMultijob is where sharding actually changes the
// execution shape: concurrent tenants run on different engine goroutines,
// launches and completions cross shard boundaries as ordered posts, and
// gangs lease whole nodes. Unlike exclusive runs, the sharded scheduler's
// schedule legitimately differs from the legacy engine's (launch and
// completion latencies become modeled posts, gangs lease whole nodes), so
// the invariant here is SHARD-COUNT invariance: every shard count >= 1,
// crossed with both kernel backends, must reproduce the one-shard serial
// traces byte-for-byte. Pooled kernels under per-node shards is the
// maximally concurrent configuration the engine supports.
func TestShardDifferentialMultijob(t *testing.T) {
	run := func(workers, shards int) string {
		_, traces, err := Multijob(Options{PhysBudget: 4096, Seed: 1, Workers: workers, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var all bytes.Buffer
		for _, ct := range traces {
			all.WriteString(ct.String())
			all.WriteByte('\n')
		}
		return all.String()
	}
	want := run(0, 1)
	for _, workers := range []int{0, -1} {
		for _, shards := range shardPoints() {
			if workers == 0 && shards == 1 {
				continue
			}
			if got := run(workers, shards); got != want {
				t.Errorf("workers=%d %s multijob cluster traces diverge from one-shard serial:\n--- shards(1)\n%s\n--- got\n%s",
					workers, shardPointName(shards), want, got)
			}
		}
	}
}

// TestShardDifferentialReplay closes the matrix at the serving layer: the
// same recorded arrival trace replayed through serve at every shard count
// must produce an identical full report (cluster trace, admission
// counters, per-tenant stats, job table). This covers the injector-fed
// session path rather than sched.Run's pre-batched one. As with
// multijob, the baseline is the one-shard set, not the legacy engine:
// the sharded scheduler's modeled launch/done latencies shift the
// schedule, but never differently for different shard counts.
func TestShardDifferentialReplay(t *testing.T) {
	o := Options{PhysBudget: 4096, Seed: 1}.withDefaults()
	evs := onlineStream(o, 8)
	h := serve.Header{
		Version:     serve.TraceVersion,
		Policy:      "weighted-fair",
		GPUs:        OnlineGPUs,
		GPUsPerNode: 4,
		MaxQueue:    OnlineMaxQueue,
		Quota:       OnlineQuota,
		PhysBudget:  o.PhysBudget,
	}
	run := func(shards int) string {
		rep, err := serve.Replay(&serve.Trace{Header: h, Events: evs}, serve.ReplayOptions{Shards: shards})
		if err != nil {
			t.Fatalf("%s replay: %v", shardPointName(shards), err)
		}
		return rep.String()
	}
	want := run(1)
	for _, shards := range []int{2, -1} {
		if got := run(shards); got != want {
			t.Errorf("%s replay report diverges from the one-shard set:\n--- shards(1)\n%s\n--- got\n%s",
				shardPointName(shards), want, got)
		}
	}
}
