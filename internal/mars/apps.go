package mars

import (
	"strings"

	"repro/internal/apps/apputil"
	"repro/internal/apps/wo"
	"repro/internal/mph"
	"repro/internal/workload"
)

// MM is Mars's matrix multiplication: one thread per output element
// computing a row–column inner product without shared-memory tiling —
// memory-bound where GPMR's tiled kernel is compute-bound.
func MM(dim int64, physDim int, seed uint64) (App[float64], []float32, []float32, int) {
	if physDim <= 0 || int64(physDim) > dim {
		physDim = 64
	}
	a := workload.Matrix(seed, physDim)
	b := workload.Matrix(seed+1, physDim)
	app := App[float64]{
		Name:       "mm",
		InputBytes: 2 * dim * dim * 4,
		Elements:   dim * dim,
		Pairs:      dim * dim,
		ValBytes:   4,
		NoSort:     true, // output keys are unique; Mars disables its sort
		// Row reads broadcast across the warp (1/32 each); column reads
		// stride, with the texture cache absorbing ~7/8 of them.
		MapFlopsPerElem: float64(2 * dim),
		MapBytesPerElem: float64(dim*4)/32 + float64(dim*4)/8,
		UncoalescedFrac: 0.1,
		MapTask: func(emit func(uint32, float64)) {
			for i := 0; i < physDim; i++ {
				for j := 0; j < physDim; j++ {
					var s float64
					for k := 0; k < physDim; k++ {
						s += float64(a[i*physDim+k]) * float64(b[k*physDim+j])
					}
					emit(uint32(i*physDim+j), s)
				}
			}
		},
	}
	return app, a, b, physDim
}

// KMC is Mars's k-means: every point emits ⟨closest-center, point⟩, so the
// whole dataset becomes intermediate pairs that the monolithic sort must
// order — the cost GPMR's Accumulation removes.
func KMC(points int64, physMax, centers, dim int, seed uint64) (App[float64], []float32, [][]float32, int64) {
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
	scale := float64(sc.Factor)
	app := App[float64]{
		Name:              "kmc",
		InputBytes:        sc.VirtElems * int64(dim) * 4,
		Elements:          sc.VirtElems,
		Pairs:             sc.VirtElems, // one <center, point> pair per point
		ValBytes:          int64(dim) * 4,
		MapFlopsPerElem:   float64(3 * dim * centers),
		MapBytesPerElem:   float64(dim * 4),
		UncoalescedFrac:   0.3, // one thread per point, unaligned point loads
		ReduceFlopsPerVal: 1,
		MapTask: func(emit func(uint32, float64)) {
			n := len(pts) / dim
			for i := 0; i < n; i++ {
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
	return app, pts, ctrs, sc.Factor
}

// WO is Mars's word occurrence: every word instance becomes a pair that
// the monolithic sort orders (no accumulation); keys are hashed word ids
// as in the GPMR build so outputs are comparable.
func WO(bytes int64, physMax, dictSize int, seed uint64) (App[uint32], []string, *mph.Table) {
	if dictSize <= 0 {
		dictSize = workload.DictionarySize
	}
	dict, table := wo.Dictionary(seed, dictSize)
	sc := apputil.PlanScale(bytes, physMax)
	lines := workload.Text(seed+1, dict, sc.PhysElems)
	// Each map thread pre-aggregates repeats within its line (Mars's WO
	// keeps a per-thread table), so ~1/8 of word instances become pairs.
	words := sc.VirtElems / 8 / 8
	app := App[uint32]{
		Name:            "wo",
		InputBytes:      sc.VirtElems,
		Elements:        sc.VirtElems / 80, // one thread per line
		Pairs:           words,
		ValBytes:        4,
		MapFlopsPerElem: 80 * 5, // scan + hash each byte of the line
		MapBytesPerElem: 80,
		UncoalescedFrac: 0.5, // per-thread line pointers scatter reads
		MapTask: func(emit func(uint32, uint32)) {
			for _, ln := range lines {
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
