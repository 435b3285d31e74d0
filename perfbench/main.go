// Command perfbench is the repository's benchmark: it runs one named
// workload against the program for a fixed time, checks every job's
// output against its app's sequential reference, and prints the metrics
// as one JSON line on standard output. With -trace 0 the line carries the
// end-to-end metrics; with -trace 1 a separate, traced run gives the
// per-layer metrics. A human-readable report, the host stamp, and the
// per-layer span table go to standard error.
//
//	perfbench -workload paper-scaling -seed 1 -seconds 10 -trace 0 -root . -bin .bench_build/bin
//
// run.py builds the binaries and invokes this command; see README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// result is what one run reports.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Latency holds the per-job latency percentiles, printed but ungated.
	Latency metricSet `json:"-"`
}

// options are the run's settings, shared by every workload.
type options struct {
	Seed    uint64
	Seconds time.Duration
	Trace   bool
	Root    string // checkout root (where the program's sources are)
	Bin     string // directory holding the built gpmrd and gpmrfleet
	Tmp     string // working directory for this run, removed at exit
}

var workloads = map[string]func(options) (*result, error){
	"paper-scaling": runPaper,
	"tenant-stream": runTenant,
	"fleet-serve":   runFleet,
}

func main() {
	name := flag.String("workload", "", "workload: paper-scaling, tenant-stream or fleet-serve")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	bin := flag.String("bin", ".bench_build/bin", "directory of the built daemons")
	source := flag.String("source", "", "content hash of the sources under test (host stamp)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload paper-scaling|tenant-stream|fleet-serve, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp(*bin, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	opt := options{Seed: *seed, Seconds: time.Duration(*seconds * float64(time.Second)),
		Trace: *trace == 1, Root: *root, Bin: *bin, Tmp: tmp}
	stamp := hostStamp(*root, *source)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %v measured, trace %d\n", *name, *seed, opt.Seconds, *trace)
	res, err := run(opt)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.Metrics.text(os.Stderr, "metric")
	res.Latency.text(os.Stderr, "latency")
	hs, _ := json.Marshal(stamp)
	fmt.Printf("host %s\n", hs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check FAILED")
		os.Exit(1)
	}
}

// hostStamp identifies the host and the code a result came from. Results
// whose stamps differ in anything but commit and source were measured on
// different hosts or toolchains and must not be compared.
func hostStamp(root, source string) map[string]string {
	// Only a checkout's own .git counts: git would otherwise report the
	// commit of whatever repository encloses the directory.
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]string{
		"commit":     commit,
		"source":     source,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// repeatSetup runs a set-up step n times and returns the median duration;
// the last run's state is the one the measurement uses.
func repeatSetup(n int, step func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		// Every set-up starts from a collected heap, so none pays for
		// garbage an earlier one left.
		runtime.GC()
		t0 := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// memDelta measures what a function allocates, in MB.
func memDelta(fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), err
}

func gcCPUFraction() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.GCCPUFraction
}
