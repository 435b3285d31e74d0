package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The traced fleet-serve run assembles the fleet in this process from the
// same public parts cmd/gpmrd and cmd/gpmrfleet wire together, so handler
// middleware, a timing HTTP transport under the router, and a timing
// catalog under each shard can see every layer boundary.

// httpTracing holds the fleet run's instruments. on switches them; with
// it off every wrapper passes straight through.
type httpTracing struct {
	on atomic.Bool
	tr *tracer

	mu     sync.Mutex
	open   map[string]int    // request id -> open router span
	placed map[string]string // "shardURL/jobs/N" -> request id
	builds []*buildRecord
}

func newHTTPTracing() *httpTracing {
	return &httpTracing{tr: newTracer(), open: make(map[string]int), placed: make(map[string]string)}
}

// spanName names the request kinds that are timed: job submissions and
// output reads.
func spanName(layer string, r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		return layer + ".submit"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/output"):
		return layer + ".output"
	}
	return ""
}

// requestTag reads the submission's tag from a copy of a POST /jobs
// body.
func requestTag(r *http.Request) string {
	if r.GetBody == nil {
		return ""
	}
	body, err := r.GetBody()
	if err != nil {
		return ""
	}
	defer body.Close()
	var req struct{ Tag string }
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return ""
	}
	return req.Tag
}

// routerMiddleware times the router's handler. The load generator's
// X-Request-Id names the request.
func (h *httpTracing) routerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := spanName("fleet", r)
		if !h.on.Load() || name == "" {
			next.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get("X-Request-Id")
		id := h.tr.begin(name, -1, req)
		h.mu.Lock()
		h.open[req] = id
		h.mu.Unlock()
		next.ServeHTTP(w, r)
		h.mu.Lock()
		delete(h.open, req)
		h.mu.Unlock()
		h.tr.end(id)
	})
}

// shardMiddleware times a shard's handler.
func (h *httpTracing) shardMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := spanName("serve.http", r)
		if !h.on.Load() || name == "" {
			next.ServeHTTP(w, r)
			return
		}
		id := h.tr.begin(name, -1, "")
		next.ServeHTTP(w, r)
		h.tr.end(id)
	})
}

// RoundTrip times the router's requests to its shards, as children of
// the router span serving the same request.
func (h *httpTracing) RoundTrip(r *http.Request) (*http.Response, error) {
	name := spanName("fleet.shard_rt", r)
	if !h.on.Load() || name == "" {
		return http.DefaultTransport.RoundTrip(r)
	}
	var req string
	if r.Method == http.MethodPost {
		req = requestTag(r)
	} else {
		h.mu.Lock()
		req = h.placed[r.URL.Scheme+"://"+r.URL.Host+strings.TrimSuffix(r.URL.Path, "/output")]
		h.mu.Unlock()
	}
	h.mu.Lock()
	parent, ok := h.open[req]
	h.mu.Unlock()
	if !ok {
		parent = -1
	}
	id := h.tr.begin(name, parent, req)
	resp, err := http.DefaultTransport.RoundTrip(r)
	h.tr.end(id)
	return resp, err
}

// inprocFleet is the fleet assembled in this process.
type inprocFleet struct {
	url     string
	dir     string
	rt      *fleet.Router
	servers []*http.Server
	svs     []*serve.Server
	traces  []*os.File
	urls    map[string]string // shard id -> base URL
}

func serveOn(h http.Handler) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	go srv.Serve(l)
	return srv, "http://" + l.Addr().String(), nil
}

// startInprocFleet wires two shards and a router the way gpmrd and
// gpmrfleet do with the flags the daemon fleet uses.
func startInprocFleet(dir string, ht *httpTracing) (*inprocFleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &inprocFleet{dir: dir, urls: make(map[string]string)}
	cat := wrapCatalog(serve.DefaultCatalog(fleetPhys), func(r *buildRecord) core.Runnable {
		if ht.on.Load() {
			ht.mu.Lock()
			ht.builds = append(ht.builds, r)
			ht.mu.Unlock()
			ht.tr.add("apps.build", r.Start, r.Built, -1, r.Name)
		}
		return r.Run
	})
	var shards []fleet.Shard
	for i := 0; i < fleetShards; i++ {
		id := fmt.Sprintf("s%d", i)
		tf, err := os.Create(filepath.Join(dir, id+".jsonl"))
		if err != nil {
			return f, err
		}
		f.traces = append(f.traces, tf)
		cc := cluster.DefaultConfig(fleetGPUs)
		cc.Obs = obs.New()
		sv, err := serve.Start(serve.Config{Cluster: cc, Policy: sched.Policy{Kind: sched.WeightedFair, Share: 4},
			Catalog: cat, MaxQueue: fleetQueue, TimeScale: 1, KeepOutputs: fleetKeep, TraceW: tf})
		if err != nil {
			return f, err
		}
		f.svs = append(f.svs, sv)
		h := serve.NewHandler(sv, serve.HandlerConfig{Logf: func(string, ...any) {}})
		srv, url, err := serveOn(ht.shardMiddleware(h))
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, srv)
		f.urls[id] = url
		shards = append(shards, fleet.Shard{ID: id, URL: url})
	}
	rt, err := fleet.New(fleet.Config{Shards: shards, Client: &http.Client{Transport: ht},
		Obs: obs.New(), Logf: func(string, ...any) {}})
	if err != nil {
		return f, err
	}
	rt.Start()
	f.rt = rt
	srv, url, err := serveOn(ht.routerMiddleware(fleet.NewHandler(rt, fleet.HandlerConfig{Logf: func(string, ...any) {}})))
	if err != nil {
		return f, err
	}
	f.servers = append(f.servers, srv)
	f.url = url
	return f, waitHealthy(url)
}

// drain drains the shards through the router and shuts everything down;
// it returns the merged live report.
func (f *inprocFleet) drain() (string, error) {
	resps, err := f.rt.Drain()
	f.stop()
	if err != nil {
		return "", err
	}
	return fleet.Merge(resps), nil
}

// stop shuts the router and listeners down; idempotent.
func (f *inprocFleet) stop() {
	if f == nil {
		return
	}
	if f.rt != nil {
		f.rt.Stop()
		f.rt = nil
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.servers = nil
	for _, sv := range f.svs {
		sv.Drain()
	}
	f.svs = nil
	for _, t := range f.traces {
		t.Close()
	}
	f.traces = nil
}

func runFleetTraced(opt options) (*result, error) {
	pool, err := fleetPool(opt.Seed)
	if err != nil {
		return nil, err
	}
	ht := newHTTPTracing()
	var f *inprocFleet
	defer func() { f.stop() }()
	if f, err = startInprocFleet(filepath.Join(opt.Tmp, "fleet"), ht); err != nil {
		return nil, err
	}
	g := newLoadgen(f.url, pool, opt.Seed, nprocConns())
	defer g.close()
	if err := warmUp(g); err != nil {
		return nil, err
	}
	g.onAccept = func(tag, shard string, shardJob int) {
		ht.mu.Lock()
		ht.placed[fmt.Sprintf("%s/jobs/%d", f.urls[shard], shardJob)] = tag
		ht.mu.Unlock()
	}
	var t fleetTally
	ht.on.Store(true)
	phase0 := time.Now()
	t.operate(g, opt.Seconds/2)
	opWall := time.Since(phase0)
	// Saturating batches alternate instruments off and on, for the
	// tracing overhead.
	var plain, traced, allocs []float64
	for len(traced)+len(plain) < saturatingBatches(opt) {
		ht.on.Store(false)
		var w time.Duration
		a, _ := memDelta(func() error { w = t.saturate(g); return nil })
		allocs = append(allocs, a)
		plain = append(plain, w.Seconds())
		ht.on.Store(true)
		traced = append(traced, t.saturate(g).Seconds())
	}
	ht.on.Store(false)
	var rejects int64
	for _, sv := range f.svs {
		s := sv.Stats()
		rejects += s.RejectedShed + s.RejectedQuota + s.RejectedInvalid + s.RejectedSLO
	}
	retries := f.rt.Stats().Retries
	live, err := f.drain()
	if err != nil {
		return nil, err
	}
	divergent, err := replayDivergence(f.dir, live)
	if err != nil {
		return nil, err
	}
	bad := t.check(pool)
	res := &result{Attempted: t.attempted, Failed: t.failed + bad, Correct: bad == 0, Metrics: metricSet{}}
	t.print()
	m := res.Metrics
	self, durs := ht.tr.selfTimes(), ht.tr.durations()
	byKind := make(map[string][]float64)
	var buildTotal float64
	for _, r := range ht.builds {
		d := ms(r.Built.Sub(r.Start))
		byKind[r.Kind] = append(byKind[r.Kind], d)
		buildTotal += d
	}
	for kind, v := range byKind {
		m.set("apps.build_ms."+kind, "ms", median(v))
	}
	// Builds run on the shards' engine goroutines, where submissions wait
	// behind them: their share of the traced wall time.
	tracedWall := opWall.Seconds() + sum(traced)
	m.set("apps.build_share", "fraction", buildTotal/1e3/tracedWall)
	var mphMs []float64
	for _, e := range pool {
		if e.Kind != "wo" {
			continue
		}
		dict := workload.Dictionary(uint64(e.Params["seed"]), int(e.Params["dict"]))
		t0 := time.Now()
		if _, err := mph.Build(dict); err != nil {
			return nil, err
		}
		mphMs = append(mphMs, ms(time.Since(t0)))
	}
	m.set("mph.build_ms", "ms", median(mphMs))
	m.set("serve.http.submit_ms", "ms", median(durs["serve.http.submit"]))
	m.set("serve.http.output_ms", "ms", median(durs["serve.http.output"]))
	m.set("serve.rejects", "count", float64(rejects))
	m.set("serve.replay_divergent_jobs", "count", float64(divergent))
	m.set("fleet.hop_ms", "ms", median(self["fleet.submit"]))
	m.set("fleet.proxy_ms", "ms", median(self["fleet.output"]))
	m.set("fleet.retries", "count", float64(retries))
	m.set("obs.trace_overhead_frac", "fraction", median(traced)/median(plain)-1)
	m.set("runtime.alloc_mb", "MB", median(allocs))
	m.set("runtime.gc_cpu_frac", "fraction", gcCPUFraction())
	m.set("loadgen.late_p95_ms", "ms", quantile(t.late, 0.95))
	m.set("loadgen.batch_late_p95_ms", "ms", quantile(t.batchLate, 0.95))
	m.set("loadgen.polls", "count", float64(t.polls)/float64(max(t.accepted, 1)))
	fillLayers(m)
	if err := writeSpans(opt, ht.tr, "fleet-serve"); err != nil {
		return nil, err
	}
	return res, nil
}
