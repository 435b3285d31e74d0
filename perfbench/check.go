package main

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/apps/kmc"
	"repro/internal/apps/lr"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/core"
	"repro/internal/keyval"
	"repro/internal/serve"
)

// reference is an app's sequential answer for one input, as a key→value
// map, with the comparison the app's own tests use: exact for the integer
// counts (sio, wo), relative tolerance for float sums (kmc, lr 1e-6; mm
// 1e-3 per element).
type reference struct {
	vals map[uint32]float64
	tol  float64
}

// check compares a job's output map against the reference. Placement
// never enters: keys are matched by value, not by the rank that reduced
// them, so any gang the scheduler granted gives the same verdict.
func (r reference) check(got map[uint32]float64) error {
	if len(got) != len(r.vals) {
		return fmt.Errorf("%d keys, want %d", len(got), len(r.vals))
	}
	for k, want := range r.vals {
		g, ok := got[k]
		switch {
		case !ok:
			return fmt.Errorf("key %d missing", k)
		case r.tol == 0 && g != want:
			return fmt.Errorf("key %d: %v, want %v", k, g, want)
		case r.tol > 0 && math.Abs(g-want) > r.tol*(math.Abs(want)+1):
			return fmt.Errorf("key %d: %v, want %v (tolerance %g)", k, g, want, r.tol)
		}
	}
	return nil
}

func countsRef[V uint32 | float64](m map[uint32]V, tol float64) reference {
	r := reference{vals: make(map[uint32]float64, len(m)), tol: tol}
	for k, v := range m {
		r.vals[k] = float64(v)
	}
	return r
}

// woRef is WO's reference: every dictionary slot appears in the output
// (the initial map emits all of them with count 0), so unseen words are
// expected zeros.
func woRef(b *wo.Built) reference {
	r := countsRef(b.Reference(), 0)
	for k := 0; k < len(b.Dict); k++ {
		if _, ok := r.vals[uint32(k)]; !ok {
			r.vals[uint32(k)] = 0
		}
	}
	return r
}

func kmcRef(b *kmc.Built) reference {
	return countsRef(b.Reference(b.Job.Config.VirtFactor), 1e-6)
}

func lrRef(b *lr.Built) reference {
	return countsRef(b.Reference(b.Job.Config.VirtFactor), 1e-6)
}

func sioRef(data []uint32) reference { return countsRef(sio.Reference(data), 0) }

// mmRef indexes the physical product matrix by element.
func mmRef(c []float32) reference {
	r := reference{vals: make(map[uint32]float64, len(c)), tol: 1e-3}
	for i, v := range c {
		r.vals[uint32(i)] = float64(v)
	}
	return r
}

func mmGot(c []float32) map[uint32]float64 { return mmRef(c).vals }

// catalogRef computes the reference for one catalog submission by building
// the same app input the catalog builds (same defaults, same physical
// budget) and running the app's sequential reference over it.
func catalogRef(kind string, p serve.Params, phys int) (reference, error) {
	get := func(k string, def int64) int64 {
		if v, ok := p[k]; ok {
			return v
		}
		return def
	}
	switch kind {
	case "wo":
		return woRef(wo.NewJob(wo.Params{Bytes: get("bytes", 4<<20), GPUs: int(get("gpus", 2)),
			Seed: uint64(get("seed", 1)), PhysMax: phys, DictSize: int(get("dict", 2048))})), nil
	case "kmc":
		return kmcRef(kmc.NewJob(kmc.Params{Points: get("points", 4<<20), GPUs: int(get("gpus", 2)),
			Seed: uint64(get("seed", 1)), Centers: int(get("centers", 0)), PhysMax: phys})), nil
	case "sio":
		_, data := sio.NewJob(sio.Params{Elements: get("elements", 8<<20), GPUs: int(get("gpus", 4)),
			Seed: uint64(get("seed", 1)), PhysMax: phys, ChunkCap: get("chunkcap", 0)})
		return sioRef(data), nil
	}
	return reference{}, fmt.Errorf("no reference for kind %q", kind)
}

// pairsMap folds a job's result into a key→value map the way the apps'
// tests do: the gathered output when the job gathers, otherwise every
// reduce partition; like keys are summed.
func pairsMap[V uint32 | float64](res *core.Result[V]) map[uint32]float64 {
	got := make(map[uint32]float64)
	add := func(p *keyval.Pairs[V]) {
		for i, k := range p.Keys {
			got[k] += float64(p.Vals[i])
		}
	}
	if res.Output.Len() > 0 {
		add(&res.Output)
		return got
	}
	for i := range res.PerRank {
		add(&res.PerRank[i])
	}
	return got
}

// runnableMap extracts the output map of a completed catalog job.
func runnableMap(run core.Runnable) (map[uint32]float64, error) {
	switch s := run.(type) {
	case *core.Scheduled[uint32]:
		if s.Result == nil {
			return nil, fmt.Errorf("job %s has no result", s.RunName())
		}
		return pairsMap(s.Result), nil
	case *core.Scheduled[float64]:
		if s.Result == nil {
			return nil, fmt.Errorf("job %s has no result", s.RunName())
		}
		return pairsMap(s.Result), nil
	}
	return nil, fmt.Errorf("unexpected runnable type %T", run)
}

// parseOutput reads the canonical output text a shard serves
// (core.Scheduled.RenderOutput: "out <key> <value>" lines for the gathered
// output, then "r<i> <key> <value>" per partition) into the same map
// pairsMap builds.
func parseOutput(text string) (map[uint32]float64, error) {
	gathered := make(map[uint32]float64)
	parts := make(map[uint32]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			return nil, fmt.Errorf("malformed output line %q", sc.Text())
		}
		k, err := strconv.ParseUint(f[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("output key: %w", err)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("output value: %w", err)
		}
		if f[0] == "out" {
			gathered[uint32(k)] += v
		} else {
			parts[uint32(k)] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(gathered) > 0 {
		return gathered, nil
	}
	return parts, nil
}
