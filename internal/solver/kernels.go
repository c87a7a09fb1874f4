package solver

import (
	"math"

	"thermalscaffold/internal/parallel"
)

// kern bundles the worker pool and reduction scratch behind one
// solve's parallel kernels. Every kernel keeps the determinism
// contract of internal/parallel: fixed chunk boundaries, partial sums
// combined in chunk order — so a solve is bit-reproducible and
// identical at every worker count, 1 included (one worker runs the
// same chunks inline).
//
// The hot-path kernels are fused: each one makes a single sweep over
// the vectors where the pre-fusion solver made two or three (SpMV
// then dot, update then norm). Fusion never reorders floating-point
// arithmetic — each fused loop evaluates the same per-element
// expressions in the same order and accumulates the same chunk
// partials as the separate passes did, so fused results are bitwise
// identical to the unfused sequence (pinned by the equivalence
// suite). The streaming per-chunk loops (dotRange, subNormRange,
// updateNormRange) take resliced chunk ranges, so the compiler drops
// their bounds checks.
type kern struct {
	pool     *parallel.Pool
	owned    bool      // close() releases the pool only if we created it
	partials []float64 // chunk partial sums for deterministic reductions
}

// newKern builds the kernel set for an n-cell solve. When
// opts.Engine is set its persistent pool is shared (and left open on
// close); otherwise a pool with opts.Workers workers is created for
// this kern and released by close(). opts must already have defaults
// resolved (withDefaults), so opts.Workers reflects the pool size
// either way.
func newKern(opts Options, n int) *kern {
	k := &kern{partials: make([]float64, parallel.NumChunks(n))}
	if opts.Engine != nil {
		k.pool = opts.Engine.pool
	} else {
		// Affine (statically owned) chunks: solver kernels sweep the
		// same vectors every iteration with near-uniform per-chunk
		// cost, so pinning each chunk to one worker keeps its pages
		// and cache lines on that worker across the whole solve
		// (first-touch locality) at no load-balance cost. Placement
		// only — results are bitwise identical to a dynamic pool.
		k.pool = parallel.NewAffinePool(opts.Workers)
		k.owned = true
	}
	return k
}

// close releases the pool's helper goroutines (no-op for a shared
// Engine pool, which outlives individual solves).
func (k *kern) close() {
	if k.owned {
		k.pool.Close()
	}
}

func (k *kern) workers() int { return k.pool.Workers() }

// reduce is the pool's chunk-ordered ReduceSum over n cells with the
// kern's partial-sum scratch.
func (k *kern) reduce(n int, body func(s, e int) float64) float64 {
	return k.pool.ReduceSum(n, k.partials, body)
}

// apply computes y = A·x, chunked across the pool. Each chunk writes
// a disjoint range of y and only reads x, so the result is bitwise
// identical at any worker count.
func (k *kern) apply(op *operator, x, y []float64) {
	k.pool.For(len(x), func(s, e int) { op.applyRange(x, y, s, e) })
}

// applyDot fuses the SpMV with the PCG curvature reduction: one sweep
// computes ap = A·p and returns pᵀ·ap. The per-chunk partial is
// Σ p[c]·ap[c] in index order — the same partials kern.dot produces.
func (k *kern) applyDot(op *operator, p, ap []float64) float64 {
	return k.reduce(len(p), func(s, e int) float64 {
		op.applyRange(p, ap, s, e)
		return dotRange(p[s:e], ap[s:e])
	})
}

// applyDirDot folds the direction update into the next SpMV: one
// sweep computes pn = z + β·p, ap = A·pn and returns pnᵀ·ap, saving
// the separate read-modify-write direction pass over p. Neighbor
// values of pn are recomputed as z[nb] + β·p[nb] — the identical
// expression that produces pn[nb] — so every operand is bit-equal to
// what a materialized direction pass followed by applyDot would have
// read. Requires the stencil (callers go through pcg, which builds
// it).
func (k *kern) applyDirDot(op *operator, z, p, pn, ap []float64, beta float64) float64 {
	return k.reduce(len(p), func(s, e int) float64 {
		return op.dirDotRange(z, p, pn, ap, beta, s, e)
	})
}

// dirDotRange is applyDirDot's per-chunk body over cells [s, e).
func (op *operator) dirDotRange(z, p, pn, ap []float64, beta float64, s, e int) float64 {
	st := op.st
	sy, sz := op.sy, op.sz
	sum := 0.0
	for c := s; c < e; c++ {
		o := stencilStride * c
		pc := z[c] + beta*p[c]
		v := st[o] * pc
		if g := st[o+1]; g != 0 {
			v -= g * (z[c+1] + beta*p[c+1])
		}
		if g := st[o+2]; g != 0 {
			v -= g * (z[c-1] + beta*p[c-1])
		}
		if g := st[o+3]; g != 0 {
			v -= g * (z[c+sy] + beta*p[c+sy])
		}
		if g := st[o+4]; g != 0 {
			v -= g * (z[c-sy] + beta*p[c-sy])
		}
		if g := st[o+5]; g != 0 {
			v -= g * (z[c+sz] + beta*p[c+sz])
		}
		if g := st[o+6]; g != 0 {
			v -= g * (z[c-sz] + beta*p[c-sz])
		}
		pn[c] = pc
		ap[c] = v
		sum += pc * v
	}
	return sum
}

// residual computes r = b − A·x and returns ‖r‖₂ in one fused sweep
// per chunk (SpMV, subtraction, and the norm partial together).
func (k *kern) residual(op *operator, x, b, r []float64) float64 {
	return math.Sqrt(k.reduce(len(x), func(s, e int) float64 {
		op.applyRange(x, r, s, e)
		return subNormRange(b[s:e], r[s:e])
	}))
}

// dot returns aᵀb with the deterministic chunked reduction.
func (k *kern) dot(a, b []float64) float64 {
	return k.reduce(len(a), func(s, e int) float64 {
		return dotRange(a[s:e], b[s:e])
	})
}

func (k *kern) norm2(a []float64) float64 { return math.Sqrt(k.dot(a, a)) }

// updateNorm performs the fused PCG update x += α·p, r −= α·ap and
// returns ‖r‖₂ from the same sweep (the residual-norm partials
// accumulate the freshly written r values in index order, exactly as
// a separate norm pass would read them back).
func (k *kern) updateNorm(x, r, p, ap []float64, alpha float64) float64 {
	return math.Sqrt(k.reduce(len(x), func(s, e int) float64 {
		return updateNormRange(x[s:e], r[s:e], p[s:e], ap[s:e], alpha)
	}))
}

// dotRange returns Σ a[i]·b[i] in index order.
func dotRange(a, b []float64) float64 {
	b = b[:len(a)]
	sum := 0.0
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// subNormRange overwrites r with b − r and returns Σ r[i]² of the new
// values in index order.
func subNormRange(b, r []float64) float64 {
	b = b[:len(r)]
	sum := 0.0
	for i := range r {
		rc := b[i] - r[i]
		r[i] = rc
		sum += rc * rc
	}
	return sum
}

// updateNormRange applies x += α·p, r −= α·ap and returns Σ r[i]² of
// the updated r in index order.
func updateNormRange(x, r, p, ap []float64, alpha float64) float64 {
	r, p, ap = r[:len(x)], p[:len(x)], ap[:len(x)]
	sum := 0.0
	for i := range x {
		x[i] += alpha * p[i]
		rc := r[i] - alpha*ap[i]
		r[i] = rc
		sum += rc * rc
	}
	return sum
}
