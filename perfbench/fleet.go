package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/workload"
)

// fleet-serve: two gpmrd shards behind a gpmrfleet router on loopback,
// driven by one open-loop load generator. Jobs are small wo/kmc/sio
// submissions drawn from a small pool, so inputs repeat.

const (
	fleetShards = 2
	fleetGPUs   = 16
	fleetPhys   = 4096
	fleetQueue  = 512     // admission bound per shard, far above what a batch can queue
	fleetKeep   = 1 << 20 // retained outputs per shard: none is evicted before it is read
	// fleetRate is the operating phase's offered load: about half the
	// ~124 jobs/s a 2-shard fleet completed on the seed commit when
	// offered 150/s.
	fleetRate  = 60.0
	fleetBatch = 100 // jobs per saturating batch, all due at once
	// fleetWarmRounds is how many times set-up sends every pool entry.
	fleetWarmRounds = 3
)

// saturatingBatches is the saturating phase's length. It is a job count,
// not a time, so every run leaves the daemons with the same number of
// jobs behind them (their job tables and recordings grow with every
// job); one batch per measured second takes about two fifths of the
// measured time at the ~240 jobs/s the seed commit completes in batches
// on a 2-vCPU host, and gives wall_s twenty batches to take a median of.
func saturatingBatches(opt options) int {
	return max(4, int(opt.Seconds.Seconds()))
}

var fleetTenants = []string{"ana", "bo", "cy", "di", "ed", "fa", "gu", "hy"}

type poolEntry struct {
	Kind   string
	Params serve.Params
	ref    reference
}

// fleetPool is the small set of (kind, params) every submission draws
// from: four each of WO, KMC and SIO, small enough at phys 4096 that
// kernels and DES stay light.
func fleetPool(seed uint64) ([]poolEntry, error) {
	s := int64(seed) * 16
	var pool []poolEntry
	for i, shape := range [][2]int64{{4 << 20, 2}, {1 << 20, 1}, {2 << 20, 2}, {4 << 20, 4}} {
		pool = append(pool,
			poolEntry{Kind: "wo", Params: serve.Params{"bytes": shape[0], "gpus": shape[1], "seed": s + int64(i), "dict": 2048}},
			poolEntry{Kind: "kmc", Params: serve.Params{"points": shape[0], "gpus": shape[1], "seed": s + int64(i)}},
			poolEntry{Kind: "sio", Params: serve.Params{"elements": 2 * shape[0], "gpus": 2 * shape[1], "seed": s + int64(i)}})
	}
	for i := range pool {
		r, err := catalogRef(pool[i].Kind, pool[i].Params, fleetPhys)
		if err != nil {
			return nil, err
		}
		pool[i].ref = r
	}
	return pool, nil
}

// outcome is one submission's life as the load generator saw it.
type outcome struct {
	tag       string
	entry     int
	due       time.Time
	late      time.Duration // from due until the POST held a generator connection
	submitted time.Time     // POST answered
	done      time.Time     // output retrieved
	code      int
	polls     int
	err       error
	output    string
}

// loadgen is the open-loop client: requests are sent when due, whatever
// the state of earlier ones, over at most nproc connections.
type loadgen struct {
	url    string
	client *http.Client
	conns  chan struct{}
	pool   []poolEntry
	rng    *workload.RNG
	block  []int // pool entries still to send in this round: every entry once per round
	n      int
	// onAccept, when set, learns where the router placed each job.
	onAccept func(tag, shard string, shardJob int)
}

func newLoadgen(url string, pool []poolEntry, seed uint64, conns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &loadgen{url: url, client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		conns: make(chan struct{}, conns), pool: pool, rng: workload.NewRNG(seed*0x51ed27 + 0x9f)}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// phase sends n requests, the i-th due at start + i/rate (rate <= 0: all
// due at start), and waits until every one has an answer and, when
// accepted, its output.
func (g *loadgen) phase(start time.Time, n int, rate float64) []*outcome {
	outs := make([]*outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		}
		if len(g.block) == 0 {
			g.block = shuffled(g.rng, identityRanks(len(g.pool)))
		}
		o := &outcome{tag: fmt.Sprintf("g%d", g.n), entry: g.block[0], due: due}
		g.block = g.block[1:]
		tenant := fleetTenants[g.rng.Intn(len(fleetTenants))]
		g.n++
		outs[i] = o
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.run(o, tenant)
		}()
	}
	wg.Wait()
	return outs
}

// do issues one request over a generator connection. sent is when it
// got the connection, after any wait behind the generator's other
// requests and polls.
func (g *loadgen) do(method, path, tag string, body []byte) (sent time.Time, code int, data []byte, err error) {
	g.conns <- struct{}{}
	defer func() { <-g.conns }()
	sent = time.Now()
	req, err := http.NewRequest(method, g.url+path, bytes.NewReader(body))
	if err != nil {
		return sent, 0, nil, err
	}
	req.Header.Set("X-Request-Id", tag)
	resp, err := g.client.Do(req)
	if err != nil {
		return sent, 0, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return sent, resp.StatusCode, data, err
}

func (g *loadgen) run(o *outcome, tenant string) {
	time.Sleep(time.Until(o.due))
	e := g.pool[o.entry]
	body, err := json.Marshal(serve.Request{Tenant: tenant, Kind: e.Kind, Params: e.Params, Tag: o.tag})
	if err != nil {
		o.err = err
		return
	}
	sent, code, data, err := g.do(http.MethodPost, "/jobs", o.tag, body)
	o.late, o.submitted, o.code = sent.Sub(o.due), time.Now(), code
	if err != nil || code != http.StatusAccepted {
		o.err = err
		return
	}
	var fj fleet.FleetJob
	if err := json.Unmarshal(data, &fj); err != nil {
		o.err = fmt.Errorf("decoding submit answer: %w", err)
		return
	}
	if g.onAccept != nil {
		g.onAccept(o.tag, fj.Shard, fj.ShardJob)
	}
	// Polls go out every millisecond: coarser steps would quantize the
	// done latency they measure.
	path := fmt.Sprintf("/jobs/%d/output", fj.ID)
	for {
		_, code, data, err := g.do(http.MethodGet, path, o.tag, nil)
		o.polls++
		switch {
		case err != nil:
			o.err = err
			return
		case code == http.StatusOK:
			o.done, o.output = time.Now(), string(data)
			return
		case code != http.StatusConflict:
			o.err = fmt.Errorf("output poll answered %d: %s", code, strings.TrimSpace(string(data)))
			return
		case time.Since(o.due) > time.Minute:
			o.err = errors.New("output never became available")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// fleetTally is what the load generator measured over a run.
type fleetTally struct {
	submit, done, late []float64 // operating phase, ms from due
	batchLate          []float64 // saturating phase, ms from due
	batchWalls         []float64 // s
	batchDone          int
	batchTime          time.Duration
	attempted, failed  int
	polls, accepted    int
	outs               []*outcome
}

// operate runs the fixed-rate phase.
func (t *fleetTally) operate(g *loadgen, d time.Duration) {
	n := int(fleetRate * d.Seconds())
	outs := g.phase(time.Now().Add(10*time.Millisecond), n, fleetRate)
	for _, o := range outs {
		t.attempted++
		t.late = append(t.late, ms(o.late))
		if o.err != nil || o.code != http.StatusAccepted {
			fmt.Fprintf(os.Stderr, "fleet-serve: %s: code %d err %v\n", o.tag, o.code, o.err)
			t.failed++
			continue
		}
		t.submit = append(t.submit, ms(o.submitted.Sub(o.due)))
		t.done = append(t.done, ms(o.done.Sub(o.due)))
	}
	t.keep(outs)
}

// saturate runs one batch offered all at once and returns its wall time.
func (t *fleetTally) saturate(g *loadgen) time.Duration {
	start := time.Now()
	outs := g.phase(start, fleetBatch, 0)
	var last time.Time
	for _, o := range outs {
		t.attempted++
		t.batchLate = append(t.batchLate, ms(o.late))
		switch {
		case o.err != nil:
			fmt.Fprintf(os.Stderr, "fleet-serve: %s: %v\n", o.tag, o.err)
			t.failed++
		case o.code == http.StatusAccepted:
			t.batchDone++
			if o.done.After(last) {
				last = o.done
			}
		}
	}
	if last.IsZero() {
		last = time.Now()
	}
	w := last.Sub(start)
	t.batchWalls = append(t.batchWalls, w.Seconds())
	t.batchTime += w
	t.keep(outs)
	return w
}

func (t *fleetTally) keep(outs []*outcome) {
	for _, o := range outs {
		t.polls += o.polls
		if o.code == http.StatusAccepted && o.err == nil {
			t.accepted++
			t.outs = append(t.outs, o)
		}
	}
}

// check compares every retrieved output with its pool entry's reference.
// Identical texts are checked once.
func (t *fleetTally) check(pool []poolEntry) int {
	seen := make(map[string]error)
	failed := 0
	for _, o := range t.outs {
		key := strconv.Itoa(o.entry) + "\x00" + o.output
		err, ok := seen[key]
		if !ok {
			var got map[uint32]float64
			got, err = parseOutput(o.output)
			if err == nil {
				err = pool[o.entry].ref.check(got)
			}
			seen[key] = err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet-serve: %s (%s) output: %v\n", o.tag, pool[o.entry].Kind, err)
			failed++
		}
	}
	return failed
}

// warmUp sends every pool entry fleetWarmRounds times, one at a time,
// and waits for each output.
func warmUp(g *loadgen) error {
	for i := 0; i < fleetWarmRounds*len(g.pool); i++ {
		o := &outcome{tag: fmt.Sprintf("w%d", g.n), entry: i % len(g.pool), due: time.Now()}
		g.n++
		g.run(o, fleetTenants[i%len(fleetTenants)])
		if o.err != nil || o.code != http.StatusAccepted {
			return fmt.Errorf("warm-up job %s: code %d: %v", o.tag, o.code, o.err)
		}
	}
	return nil
}

// freeAddr reserves a loopback port for a daemon to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemonFleet is a running gpmrd ×2 + gpmrfleet set of processes.
type daemonFleet struct {
	url   string
	dir   string // shard arrival traces
	procs []*exec.Cmd
}

func startDaemonFleet(opt options, dir string) (*daemonFleet, error) {
	f := &daemonFleet{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var shardArgs []string
	for i := 0; i < fleetShards; i++ {
		addr, err := freeAddr()
		if err != nil {
			return f, err
		}
		id := fmt.Sprintf("s%d", i)
		if err := f.spawn(opt, "gpmrd", "-addr", addr, "-gpus", strconv.Itoa(fleetGPUs),
			"-phys", strconv.Itoa(fleetPhys), "-queue", strconv.Itoa(fleetQueue),
			"-keep-outputs", strconv.Itoa(fleetKeep), "-trace", filepath.Join(dir, id+".jsonl")); err != nil {
			return f, err
		}
		if err := waitHealthy("http://" + addr); err != nil {
			return f, err
		}
		shardArgs = append(shardArgs, "-shard", id+"=http://"+addr)
	}
	addr, err := freeAddr()
	if err != nil {
		return f, err
	}
	if err := f.spawn(opt, "gpmrfleet", append([]string{"-addr", addr}, shardArgs...)...); err != nil {
		return f, err
	}
	f.url = "http://" + addr
	return f, waitHealthy(f.url)
}

// spawn starts one daemon; its report and log output are discarded.
func (f *daemonFleet) spawn(opt options, prog string, args ...string) error {
	cmd := exec.Command(filepath.Join(opt.Bin, prog), args...)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", prog, err)
	}
	f.procs = append(f.procs, cmd)
	return nil
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSS sums the daemons' peak resident sets.
func (f *daemonFleet) peakRSS() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		mb, err := peakRSSMB(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// drain asks the router to drain the fleet, then waits for every daemon
// to exit. It returns the router's merged live report.
func (f *daemonFleet) drain() (string, error) {
	resp, err := http.Post(f.url+"/drain", "application/json", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var sum fleet.DrainSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return "", fmt.Errorf("decoding drain answer: %w", err)
	}
	return sum.Report, f.wait(30 * time.Second)
}

// wait waits for every daemon to exit, killing any still running after
// the grace period.
func (f *daemonFleet) wait(grace time.Duration) error {
	var first error
	for i, p := range f.procs {
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil && first == nil {
				first = fmt.Errorf("daemon %d: %w", i, err)
			}
		case <-time.After(grace):
			p.Process.Kill()
			<-done
			if first == nil {
				first = fmt.Errorf("daemon %d did not exit after draining", i)
			}
		}
	}
	f.procs = nil
	return first
}

// kill stops every daemon still running (error paths).
func (f *daemonFleet) kill() {
	if f == nil {
		return
	}
	for _, p := range f.procs {
		p.Process.Signal(syscall.SIGKILL)
	}
	f.wait(5 * time.Second)
}

// divergence compares the live merged report with the replay of the shard
// traces job by job. A job's record is every report line that names it;
// it returns how many jobs' records differ and a description of the
// first.
func divergence(live, replay string) (int, string) {
	lr, rr := jobRecords(live), jobRecords(replay)
	var keys []string
	for k := range lr {
		keys = append(keys, k)
	}
	for k := range rr {
		if _, ok := lr[k]; !ok {
			keys = append(keys, k)
		}
	}
	sortJobKeys(keys)
	n, first := 0, ""
	for _, k := range keys {
		if lr[k] != rr[k] {
			n++
			if first == "" {
				first = fmt.Sprintf("%s\n  live:\n%s  replay:\n%s", k, lr[k], rr[k])
			}
		}
	}
	return n, first
}

// jobRecords groups a merged fleet report's job lines by shard and job
// name (tenant-kind-id).
func jobRecords(report string) map[string]string {
	out := make(map[string]string)
	shard := ""
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== shard "); ok {
			shard = strings.Fields(rest)[0]
			continue
		}
		f := strings.Fields(line)
		var name string
		switch {
		case len(f) > 3 && (f[0] == "job" || f[0] == "sjob"):
			if f[0] == "job" {
				name = f[2]
			} else {
				name = f[3]
			}
		default:
			continue
		}
		key := shard + "/" + name
		out[key] += "    " + strings.TrimSpace(line) + "\n"
	}
	return out
}

// sortJobKeys orders shard/tenant-kind-id keys by shard, then job id.
func sortJobKeys(ks []string) {
	id := func(k string) (string, int) {
		n, _ := strconv.Atoi(k[strings.LastIndexByte(k, '-')+1:])
		return k[:strings.IndexByte(k, '/')], n
	}
	sort.Slice(ks, func(a, b int) bool {
		sa, na := id(ks[a])
		sb, nb := id(ks[b])
		return sa < sb || (sa == sb && na < nb)
	})
}

// replayDivergence replays a drained fleet's shard traces and reports
// the live-vs-replay divergence.
func replayDivergence(dir, live string) (int, error) {
	rep, err := fleet.ReplayDir(dir, serve.ReplayOptions{})
	if err != nil {
		return 0, err
	}
	n, first := divergence(live, rep)
	fmt.Fprintf(os.Stderr, "fleet-serve: serve.replay_divergent_jobs %d (live drained report vs fleet.ReplayDir)\n", n)
	if n > 0 {
		fmt.Fprintf(os.Stderr, "fleet-serve: first divergent job %s", first)
	}
	return n, nil
}

func runFleet(opt options) (*result, error) {
	if opt.Trace {
		return runFleetTraced(opt)
	}
	pool, err := fleetPool(opt.Seed)
	if err != nil {
		return nil, err
	}
	conns := nprocConns()
	var f *daemonFleet
	defer func() { f.kill() }()
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f, err = startDaemonFleet(opt, filepath.Join(opt.Tmp, fmt.Sprintf("fleet%d", i)))
		if err != nil {
			return nil, err
		}
		g := newLoadgen(f.url, pool, opt.Seed, conns)
		err = warmUp(g)
		g.close()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < 2 {
			if _, err := f.drain(); err != nil {
				return nil, err
			}
		}
	}
	g := newLoadgen(f.url, pool, opt.Seed, conns)
	defer g.close()
	var t fleetTally
	t.operate(g, opt.Seconds/2)
	for i := 0; i < saturatingBatches(opt); i++ {
		t.saturate(g)
	}
	rss, err := f.peakRSS()
	if err != nil {
		return nil, err
	}
	live, err := f.drain()
	if err != nil {
		return nil, err
	}
	if _, err := replayDivergence(f.dir, live); err != nil {
		return nil, err
	}
	bad := t.check(pool)
	res := &result{Attempted: t.attempted, Failed: t.failed + bad, Correct: bad == 0, Metrics: metricSet{}}
	t.print()
	m := res.Metrics
	st, dt := summarize(t.submit), summarize(t.done)
	m.set("wall_s", "s", median(t.batchWalls))
	m.set("setup_s", "s", median(setups))
	m.set("peak_rss_mb", "MB", rss)
	m.set("capacity_jps", "1/s", float64(t.batchDone)/t.batchTime.Seconds())
	res.setLatency(st, dt)
	return res, nil
}

func (t *fleetTally) print() {
	fmt.Fprintf(os.Stderr, "fleet-serve: operating phase %.0f jobs/s: submit ms %v\n", fleetRate, summarize(t.submit))
	fmt.Fprintf(os.Stderr, "fleet-serve: operating phase %.0f jobs/s: done ms %v\n", fleetRate, summarize(t.done))
	fmt.Fprintf(os.Stderr, "fleet-serve: generator late ms: operating %v, saturating %v\n", summarize(t.late), summarize(t.batchLate))
	fmt.Fprintf(os.Stderr, "fleet-serve: saturating batches of %d: wall s %v, %d completed in %v\n",
		fleetBatch, t.batchWalls, t.batchDone, t.batchTime)
	fmt.Fprintf(os.Stderr, "fleet-serve: %d attempted, %d failed, %d polls\n", t.attempted, t.failed, t.polls)
}

// nprocConns is the load generator's connection budget: one per CPU.
func nprocConns() int { return runtime.NumCPU() }
