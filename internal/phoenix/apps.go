package phoenix

import (
	"strings"

	"repro/internal/apps/apputil"
	"repro/internal/apps/wo"
	"repro/internal/des"
	"repro/internal/mph"
	"repro/internal/workload"
)

// Per-pair and per-value constants for the 2.4 GHz Opterons, from
// Phoenix's published per-operation overheads (hash insert + buffer
// management ≈ 140 cycles; value visits ≈ 35 cycles).
const (
	emitOverhead   = 60 * des.Nanosecond
	reducePerValue = 15 * des.Nanosecond
)

// SIO is the Phoenix Sparse Integer Occurrence app over virtual `elements`
// integers (physical data capped at physMax).
func SIO(elements int64, physMax int, seed uint64) (App[uint32], []uint32) {
	sc := apputil.PlanScale(elements, physMax)
	data := workload.SparseInts(seed, sc.PhysElems)
	tasks := 64
	offs := workload.SplitEven(len(data), tasks)
	app := App[uint32]{
		Name:     "sio",
		Tasks:    tasks,
		Elements: sc.VirtElems,
		Costs: Costs{
			MapFlops:        4,
			MapBytes:        4,
			EmitOverhead:    emitOverhead, // hash-table insert per integer
			EmitsPerElement: 1,
			ReducePerValue:  reducePerValue,
		},
		MapTask: func(t int, emit func(uint32, uint32)) {
			for _, v := range data[offs[t]:offs[t+1]] {
				emit(v, 1)
			}
		},
		Reduce: func(_ uint32, vals []uint32) uint32 {
			var s uint32
			for _, v := range vals {
				s += v
			}
			return s
		},
	}
	return app, data
}

// WO is the Phoenix Word Occurrence app over a virtual `bytes`-sized corpus.
// Unlike GPMR, Phoenix hashes raw string keys and keeps per-worker hash
// tables; words emit one pair each.
func WO(bytes int64, physMax int, dictSize int, seed uint64) (App[uint32], []string, *mph.Table) {
	if dictSize <= 0 {
		dictSize = workload.DictionarySize
	}
	dict, table := wo.Dictionary(seed, dictSize)
	sc := apputil.PlanScale(bytes, physMax)
	lines := workload.Text(seed+1, dict, sc.PhysElems)
	tasks := 64
	offs := workload.SplitEven(len(lines), tasks)
	app := App[uint32]{
		Name:     "wo",
		Tasks:    tasks,
		Elements: sc.VirtElems, // element = one corpus byte
		Costs: Costs{
			MapFlops:        12, // scan + hash per byte
			MapBytes:        1,
			EmitOverhead:    150 * des.Nanosecond, // string key: strtok+hash+compare+copy
			EmitsPerElement: 1.0 / 7.8,            // mean word+separator length
			ReducePerValue:  reducePerValue,
		},
		MapTask: func(t int, emit func(uint32, uint32)) {
			for _, ln := range lines[offs[t]:offs[t+1]] {
				for _, w := range strings.Fields(ln) {
					emit(table.Lookup(w), 1)
				}
			}
		},
		Reduce: func(_ uint32, vals []uint32) uint32 {
			var s uint32
			for _, v := range vals {
				s += v
			}
			return s
		},
	}
	return app, lines, table
}

// KMC is the Phoenix K-Means app: the classic CPU formulation emits
// ⟨closest-center, point⟩ for every point, so the intermediate state is
// the whole dataset.
func KMC(points int64, physMax, centers, dim int, seed uint64) (App[float64], []float32, [][]float32) {
	sc := apputil.PlanScale(points, physMax)
	pts := workload.Points(seed, sc.PhysElems, dim)
	ctrs := make([][]float32, centers)
	crng := workload.NewRNG(seed + 7)
	for i := range ctrs {
		c := make([]float32, dim)
		for d := range c {
			c[d] = crng.Float32() * 100
		}
		ctrs[i] = c
	}
	tasks := 64
	offs := workload.SplitEven(sc.PhysElems, tasks)
	scale := float64(sc.Factor)
	app := App[float64]{
		Name:     "kmc",
		Tasks:    tasks,
		Elements: sc.VirtElems,
		Costs: Costs{
			// The distance loop vectorizes cleanly with SSE (4-wide singles).
			MapFlops:        float64(3*dim*centers+dim) / 4,
			MapBytes:        float64(dim * 4),
			EmitOverhead:    30*des.Nanosecond + des.FromSeconds(float64(dim*4)/2.5e9), // array slot + point copy
			EmitsPerElement: 1,                                                         // one <center, point> pair per point
			ReducePerValue:  reducePerValue,
		},
		MapTask: func(t int, emit func(uint32, float64)) {
			for i := offs[t]; i < offs[t+1]; i++ {
				pt := pts[i*dim : (i+1)*dim]
				best, bestD := 0, float32(0)
				for ci, ctr := range ctrs {
					var d float32
					for d2 := 0; d2 < dim; d2++ {
						diff := pt[d2] - ctr[d2]
						d += diff * diff
					}
					if ci == 0 || d < bestD {
						best, bestD = ci, d
					}
				}
				for d2 := 0; d2 < dim; d2++ {
					emit(uint32(best*(dim+1)+d2), float64(pt[d2])*scale)
				}
				emit(uint32(best*(dim+1)+dim), scale)
			}
		},
		Reduce: func(_ uint32, vals []float64) float64 {
			var s float64
			for _, v := range vals {
				s += v
			}
			return s
		},
	}
	return app, pts, ctrs
}

// LR is the Phoenix Linear Regression app: maps compute per-task partial
// sums (Phoenix's distributed implementation) and emit six keys per task.
func LR(points int64, physMax int, seed uint64, a, b, noise float64) (App[float64], []float64) {
	sc := apputil.PlanScale(points, physMax)
	xy := workload.XYPairs(seed, sc.PhysElems, a, b, noise)
	tasks := 64
	offs := workload.SplitEven(sc.PhysElems, tasks)
	scale := float64(sc.Factor)
	app := App[float64]{
		Name:     "lr",
		Tasks:    tasks,
		Elements: sc.VirtElems,
		Costs: Costs{
			MapFlops:        10,
			MapBytes:        8,
			PerElement:      2 * des.Nanosecond, // map fn-pointer call per point
			EmitOverhead:    emitOverhead,
			EmitsPerElement: 6.0 / (float64(sc.VirtElems) / float64(tasks)),
			ReducePerValue:  reducePerValue,
		},
		MapTask: func(t int, emit func(uint32, float64)) {
			var n, sx, sy, sxx, sxy, syy float64
			for i := offs[t]; i < offs[t+1]; i++ {
				x, y := xy[2*i], xy[2*i+1]
				n++
				sx += x
				sy += y
				sxx += x * x
				sxy += x * y
				syy += y * y
			}
			emit(0, n*scale)
			emit(1, sx*scale)
			emit(2, sy*scale)
			emit(3, sxx*scale)
			emit(4, sxy*scale)
			emit(5, syy*scale)
		},
		Reduce: func(_ uint32, vals []float64) float64 {
			var s float64
			for _, v := range vals {
				s += v
			}
			return s
		},
	}
	return app, xy
}

// MM is the Phoenix Matrix Multiplication app: the common CPU MapReduce
// formulation with one vector–vector product per output element. Column
// accesses stride through B, costing ~8× effective bandwidth — the reason
// the paper measured almost twenty seconds for a 1024² multiply.
func MM(dim int64, physDim int, seed uint64) (App[float64], []float32, []float32, int) {
	if physDim <= 0 || int64(physDim) > dim {
		physDim = 64
	}
	a := workload.Matrix(seed, physDim)
	b := workload.Matrix(seed+1, physDim)
	tasks := 64
	rows := workload.SplitEven(physDim, tasks)
	app := App[float64]{
		Name:     "mm",
		Tasks:    tasks,
		Elements: dim * dim, // element = one output cell
		Costs: Costs{
			MapFlops:        float64(2 * dim),
			MapBytes:        float64(dim * 4 * 8), // strided column reads
			EmitOverhead:    emitOverhead,
			EmitsPerElement: 1,
			ReducePerValue:  reducePerValue,
		},
		MapTask: func(t int, emit func(uint32, float64)) {
			for i := rows[t]; i < rows[t+1]; i++ {
				for j := 0; j < physDim; j++ {
					var s float64
					for k := 0; k < physDim; k++ {
						s += float64(a[i*physDim+k]) * float64(b[k*physDim+j])
					}
					emit(uint32(i*physDim+j), s)
				}
			}
		},
		Reduce: nil, // identity: one value per key
	}
	return app, a, b, physDim
}
