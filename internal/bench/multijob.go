package bench

import (
	"fmt"
	"io"
	"math"

	"repro/internal/apps/kmc"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sched"
	"repro/internal/workload"
)

// MultijobGPUs is the shared cluster for the multi-tenant scenario: 16
// ranks packed four per node — four S1070 nodes serving a stream of jobs.
const MultijobGPUs = 16

// MultijobSmallWant is the gang-size threshold below or at which a job
// counts as "small" for the tail-latency comparison.
const MultijobSmallWant = 4

// MultijobJobs is the length of the arrival stream.
const MultijobJobs = 12

// multijobPolicies are the admission policies the experiment compares.
func multijobPolicies() []sched.Policy {
	return []sched.Policy{
		{Kind: sched.FIFOExclusive},
		{Kind: sched.FixedShare, Share: 4},
		{Kind: sched.WeightedFair},
	}
}

// multijobStream builds the seeded Poisson-ish arrival stream: exponential
// inter-arrival gaps and a deterministic job-kind draw per slot, mixing
// small WO and KMC queries with medium and large SIO scans. The stream is
// a pure function of the options, so every policy sees byte-identical
// submissions and two runs of the experiment are bit-identical.
func multijobStream(o Options) []sched.JobSpec {
	rng := workload.NewRNG(o.Seed + 0x9e3779b9)
	// Mean inter-arrival: a fraction of a typical small job's service
	// time, so the queue actually builds and policies differ.
	const meanGapMs = 8.0
	var specs []sched.JobSpec
	var at des.Time
	for i := 0; i < MultijobJobs; i++ {
		u := rng.Float64()
		gap := des.FromSeconds(meanGapMs / 1e3 * -math.Log(1-u))
		at += gap
		specs = append(specs, multijobJob(i, rng.Intn(4), at, o))
	}
	return specs
}

// multijobJob builds one submission. kind picks from the mix; the job
// seed varies per slot so inputs differ across the stream.
func multijobJob(i, kind int, at des.Time, o Options) sched.JobSpec {
	seed := o.Seed + uint64(i)*1000
	switch kind {
	case 0: // small word-occurrence query
		b := wo.NewJob(wo.Params{Bytes: 4 << 20, GPUs: 2, Seed: seed, PhysMax: o.PhysBudget, DictSize: woDict(o)})
		b.Job.Config.Name = fmt.Sprintf("wo-s%d", i)
		return sched.JobSpec{At: at, Job: &core.Scheduled[uint32]{Job: b.Job}}
	case 1: // small k-means iteration
		b := kmc.NewJob(kmc.Params{Points: 4 << 20, GPUs: 2, Seed: seed, PhysMax: o.PhysBudget})
		b.Job.Config.Name = fmt.Sprintf("kmc-s%d", i)
		return sched.JobSpec{At: at, Job: &core.Scheduled[float64]{Job: b.Job}}
	case 2: // medium sparse-integer scan
		job, _ := sio.NewJob(sio.Params{Elements: 8 << 20, GPUs: 4, Seed: seed, PhysMax: o.PhysBudget, ChunkCap: 1 << 20})
		job.Config.Name = fmt.Sprintf("sio-m%d", i)
		return sched.JobSpec{At: at, Job: &core.Scheduled[uint32]{Job: job}}
	default: // large sparse-integer scan — the gang that makes others queue
		job, _ := sio.NewJob(sio.Params{Elements: 32 << 20, GPUs: 12, Seed: seed, PhysMax: o.PhysBudget, ChunkCap: 1 << 20})
		job.Config.Name = fmt.Sprintf("sio-l%d", i)
		return sched.JobSpec{At: at, Job: &core.Scheduled[uint32]{Job: job}}
	}
}

// MultijobRow summarizes one policy's run over the shared stream.
type MultijobRow struct {
	Policy     string
	Jobs       int
	Makespan   des.Time
	Throughput float64 // jobs per simulated second
	P50        des.Time
	P95        des.Time
	P95Small   des.Time // tail latency of jobs wanting <= MultijobSmallWant ranks
	MeanWait   des.Time
	Jain       float64
	WireBytes  int64
}

// Multijob runs the same seeded arrival stream under each admission policy
// on one shared 16-rank cluster and reports per-policy throughput, latency
// percentiles, queue wait, and Jain's fairness index. The returned traces
// parallel the rows (for golden-trace diffing and deeper inspection).
func Multijob(o Options) ([]MultijobRow, []*sched.ClusterTrace, error) {
	o = o.withDefaults()
	cc := cluster.DefaultConfig(MultijobGPUs)
	// The shared machine's kernel-execution backend: with a pool, kernels
	// from co-resident tenants occupy real host cores concurrently. Shards
	// selects the scheduling model (0 legacy, 1 node-leased).
	cc.Workers = o.Workers
	cc.Shards = o.Shards
	cc.Obs = o.Obs
	var rows []MultijobRow
	var traces []*sched.ClusterTrace
	for _, pol := range multijobPolicies() {
		// Each policy replays the same stream on a fresh cluster; prefix
		// its flight-recorder streams so the three runs stay distinct in
		// one trace file.
		o.Obs.SetPrefix(pol.Kind.String() + "/")
		ct, err := sched.Run(cc, pol, multijobStream(o))
		if err != nil {
			o.Obs.SetPrefix("")
			return nil, nil, err
		}
		small := func(j *sched.JobTrace) bool { return j.Want <= MultijobSmallWant }
		rows = append(rows, MultijobRow{
			Policy:     pol.Kind.String(),
			Jobs:       len(ct.Jobs),
			Makespan:   ct.Makespan,
			Throughput: ct.Throughput(),
			P50:        ct.LatencyPercentile(50, nil),
			P95:        ct.LatencyPercentile(95, nil),
			P95Small:   ct.LatencyPercentile(95, small),
			MeanWait:   ct.MeanWait(),
			Jain:       ct.Jain(),
			WireBytes:  ct.WireBytes(),
		})
		traces = append(traces, ct)
	}
	o.Obs.SetPrefix("")
	return rows, traces, nil
}

// RenderMultijob writes the policy comparison and each run's job table.
func RenderMultijob(w io.Writer, rows []MultijobRow, traces []*sched.ClusterTrace) {
	fmt.Fprintf(w, "Multi-tenant scheduling — %d-job mixed stream on %d shared GPUs (4 per node)\n",
		MultijobJobs, MultijobGPUs)
	fmt.Fprintf(w, "%-15s %12s %9s %12s %12s %12s %12s %6s %9s\n",
		"policy", "makespan", "jobs/s", "p50 lat", "p95 lat", "p95 small", "mean wait", "jain", "wire MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %12v %9.2f %12v %12v %12v %12v %6.3f %9.1f\n",
			r.Policy, r.Makespan, r.Throughput, r.P50, r.P95, r.P95Small, r.MeanWait,
			r.Jain, float64(r.WireBytes)/1e6)
	}
	for _, ct := range traces {
		fmt.Fprintln(w)
		fmt.Fprint(w, ct.String())
	}
}
