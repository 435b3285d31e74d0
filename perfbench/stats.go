package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics (Hyndman-Fan type 7). NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timing summarises one latency sample set: median, p95, the sample
// count, and how many samples lie above the p95 (a tail percentile should
// have at least ten).
type timing struct {
	N      int
	P50    float64
	P95    float64
	Beyond int
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), P50: median(xs), P95: quantile(xs, 0.95)}
	for _, x := range xs {
		if x > t.P95 {
			t.Beyond++
		}
	}
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("p50 %.3f  p95 %.3f  (n=%d, %d beyond p95)", t.P50, t.P95, t.N, t.Beyond)
}

// span is one timed interval recorded by the benchmark's own code around
// a call into a layer of the program. Times are offsets from the tracer's
// start. Parent is the index of the enclosing span (-1 for a root); Req
// ties the spans of one request or job together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. The zero value is not
// usable; a nil *tracer records nothing, so untraced code paths call the
// same methods.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval.
func (t *tracer) add(name string, start, end time.Time, parent int, req string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// selfTimes returns every closed span's self time in milliseconds, keyed
// by span name: its duration minus the part of its interval that its
// children's intervals cover (overlapping children count once).
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, k := range kids[i] {
			c := t.spans[k]
			if c.End < 0 {
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for _, v := range iv {
			if v[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		covered += curHi - curLo
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// durations returns every closed span's full duration in milliseconds,
// keyed by name.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64)
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints a per-name table of span counts, total and self time.
func (t *tracer) report(w io.Writer) {
	self, dur := t.selfTimes(), t.durations()
	names := make([]string, 0, len(dur))
	for n := range dur {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %-22s %8s %12s %12s %12s\n", "name", "count", "total ms", "self ms", "self p50 ms")
	for _, n := range names {
		fmt.Fprintf(w, "spans: %-22s %8d %12.3f %12.3f %12.4f\n", n, len(dur[n]), sum(dur[n]), sum(self[n]), median(self[n]))
	}
}

// metricSet is the named-metric half of the result line.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// text renders the metrics one per line, sorted by name.
func (m metricSet) text(w io.Writer, label string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s: %-32s %14.6g %s\n", label, n, m[n].Value, m[n].Unit)
	}
}
