package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// name and unit of one reported metric.
type metricDef struct{ Name, Unit string }

// endToEnd is what every workload reports with tracing off, each with a
// regression bound in BENCHMARK.json. Each is defined per workload in
// README.md.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"capacity_jps", "1/s"},
}

// setLatency records the per-job latency percentiles. They are printed
// with the end-to-end metrics but carry no bound: on a small shared host
// their run-to-run spread is wider than any bound a regression gate could
// use (see README.md).
func (r *result) setLatency(submit, done timing) {
	r.Latency = metricSet{}
	r.Latency.set("submit_p50_ms", "ms", submit.P50)
	r.Latency.set("submit_p95_ms", "ms", submit.P95)
	r.Latency.set("done_p50_ms", "ms", done.P50)
	r.Latency.set("done_p95_ms", "ms", done.P95)
}

// topKernels are the kernels reported by name; the rest add up to
// gpu.kernel_ms.other.
var topKernels = []string{"gpmr.sort", "gpmr.partition", "gpmr.segments", "kmc.map", "wo.init", "wo.map", "wo.reduce", "sio.map", "sio.reduce", "lr.map"}

// perLayer is what every traced run reports. A layer the workload does
// not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{}
	for _, app := range paperApps {
		defs = append(defs, metricDef{"apps.build_ms." + app, "ms"})
	}
	defs = append(defs, metricDef{"apps.build_share", "fraction"}, metricDef{"mph.build_ms", "ms"})
	for _, k := range topKernels {
		defs = append(defs, metricDef{"gpu.kernel_ms." + k, "ms"})
	}
	defs = append(defs,
		metricDef{"gpu.kernel_ms.other", "ms"},
		metricDef{"gpu.kernel_share", "fraction"},
		metricDef{"gpu.launches", "count"},
		metricDef{"core.run_ms", "ms"},
		metricDef{"core.nonkernel_ms", "ms"},
		metricDef{"des.dispatched", "count"},
		metricDef{"des.nonkernel_ns_per_event", "ns"},
		metricDef{"sched.arrive_us", "us"},
		metricDef{"sched.placements", "count"},
		metricDef{"sched.backfills", "count"},
		metricDef{"sched.preempts", "count"},
		metricDef{"sched.requeues", "count"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.inject_wait_ms", "ms"},
		metricDef{"serve.http.submit_ms", "ms"},
		metricDef{"serve.http.output_ms", "ms"},
		metricDef{"serve.rejects", "count"},
		metricDef{"serve.replay_divergent_jobs", "count"},
		metricDef{"fleet.hop_ms", "ms"},
		metricDef{"fleet.proxy_ms", "ms"},
		metricDef{"fleet.retries", "count"},
		metricDef{"obs.trace_overhead_frac", "fraction"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cpu_frac", "fraction"},
		metricDef{"loadgen.late_p95_ms", "ms"},
		metricDef{"loadgen.batch_late_p95_ms", "ms"},
		metricDef{"loadgen.polls", "count"},
	)
	return defs
}

// fillLayers adds every per-layer metric the run did not measure, as 0.
func fillLayers(m metricSet) {
	for _, d := range perLayer() {
		if _, ok := m[d.Name]; !ok {
			m.set(d.Name, d.Unit, 0)
		}
	}
}

// setKernelMetrics reports the kernel timer's totals per pass: the top
// kernels by name, the rest as other, the kernel share of the engine runs
// and the launch count. The full per-kernel table goes to stderr.
func setKernelMetrics(m metricSet, kt *kernelTimer, passes, kernelMs, runMs, launches float64) {
	snap := kt.snapshot()
	top := make(map[string]bool, len(topKernels))
	for _, k := range topKernels {
		top[k] = true
		m.set("gpu.kernel_ms."+k, "ms", snap[k]/passes)
	}
	other := 0.0
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		names = append(names, name)
		if !top[name] {
			other += v
		}
	}
	m.set("gpu.kernel_ms.other", "ms", other/passes)
	m.set("gpu.kernel_share", "fraction", kernelMs/runMs)
	m.set("gpu.launches", "count", launches)
	sort.Slice(names, func(i, j int) bool { return snap[names[i]] > snap[names[j]] })
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "kernel: %-24s %10.3f ms/pass\n", name, snap[name]/passes)
	}
}

// writeSpans saves the run's spans beside the build outputs and prints
// the per-name self-time table.
func writeSpans(opt options, tr *tracer, workload string) error {
	tr.report(os.Stderr)
	dir := filepath.Join(filepath.Dir(opt.Bin), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, opt.Seed))
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return tr.write(path)
}
