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

// scheduled wraps a job for the scheduler (a generic call, so callers need
// not name the value type).
func scheduled[V any](j *core.Job[V]) *core.Scheduled[V] { return &core.Scheduled[V]{Job: j} }

// shardApps builds each app's job for the node-leased matrix. MM contributes
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
// node-leased scheduler (Shards = 1) on the given kernel backend and
// returns its observables: the cluster trace, the job's own pipeline
// trace, and its output digest.
func runScheduled(t *testing.T, job core.Runnable, workers int) string {
	t.Helper()
	cc := cluster.DefaultConfig(job.GangWant())
	cc.Shards = 1
	cc.Workers = workers
	ct, err := sched.Run(cc, sched.Policy{Kind: sched.FIFOExclusive}, []sched.JobSpec{{Job: job}})
	if err != nil {
		t.Fatalf("%s %s: %v", job.RunName(), backendName(workers), err)
	}
	digest, ok := job.(core.OutputDigester).OutputDigest()
	if !ok {
		t.Fatalf("%s %s: job never completed", job.RunName(), backendName(workers))
	}
	return fmt.Sprintf("%s%s\noutput digest %016x\n", ct, ct.Jobs[0].Trace, digest)
}

// TestShardDifferentialMatrix is the node-leased counterpart of
// TestBackendDifferentialMatrix: every app at 1, 4, and 8 GPUs, run as a
// scheduled single job whose launch and completion are modeled posts,
// must produce identical cluster and golden traces and an identical
// output digest on every kernel backend.
func TestShardDifferentialMatrix(t *testing.T) {
	for _, app := range shardApps {
		t.Run(app.name, func(t *testing.T) {
			for _, gpus := range []int{1, 4, 8} {
				want := runScheduled(t, app.job(gpus), 0)
				for _, workers := range backendPoints()[1:] {
					if got := runScheduled(t, app.job(gpus), workers); got != want {
						t.Errorf("%d GPUs: %s diverges from serial:\n--- serial\n%s\n--- %s\n%s",
							gpus, backendName(workers), want, backendName(workers), got)
					}
				}
			}
		})
	}
}

// TestShardDifferentialFaults reruns the fault-injection scenario (a
// fail-stop mid-map plus a derated straggler with speculation) as a
// node-leased scheduled single job on every kernel backend: recovery
// requeues, relays, and twin races must be schedule-identical.
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
	want := runScheduled(t, job(), 0)
	for _, workers := range backendPoints()[1:] {
		if got := runScheduled(t, job(), workers); got != want {
			t.Errorf("%s fault run diverges from serial:\n--- serial\n%s\n--- got\n%s",
				backendName(workers), want, got)
		}
	}
}

// TestShardDifferentialMultijob runs the multi-tenant stream on the
// node-leased model, where launches and completions are ordered posts and
// gangs lease whole nodes. Its schedule legitimately differs from the
// legacy model's, so the invariant is backend invariance at Shards = 1:
// pooled kernels from co-resident tenants must reproduce the serial
// cluster traces byte for byte.
func TestShardDifferentialMultijob(t *testing.T) {
	run := func(workers int) string {
		_, traces, err := Multijob(Options{PhysBudget: 4096, Seed: 1, Workers: workers, Shards: 1})
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
	want := run(0)
	if got := run(-1); got != want {
		t.Errorf("pool(numcpu) node-leased multijob cluster traces diverge from serial:\n--- serial\n%s\n--- got\n%s",
			want, got)
	}
}

// TestShardDifferentialReplay closes the matrix at the serving layer: the
// same recorded arrival trace replayed through serve on the node-leased
// model must produce an identical full report (cluster trace, admission
// counters, per-tenant stats, job table) on every kernel backend. This
// covers the injector-fed session path rather than sched.Run's
// pre-batched one.
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
	run := func(workers int) string {
		rep, err := serve.Replay(&serve.Trace{Header: h, Events: evs}, serve.ReplayOptions{Shards: 1, Workers: workers})
		if err != nil {
			t.Fatalf("%s replay: %v", backendName(workers), err)
		}
		return rep.String()
	}
	want := run(0)
	if got := run(-1); got != want {
		t.Errorf("pool(numcpu) replay report diverges from serial:\n--- serial\n%s\n--- got\n%s", want, got)
	}
}
