package solver

// Worker-count equivalence and determinism suite. The kernels promise
// one arithmetic path at every Options.Workers value:
//
//  1. bit-identical results run-to-run at a fixed worker count,
//  2. bit-identical results across every worker count, 1 included —
//     chunk boundaries depend only on problem size, reductions combine
//     chunk partials in ascending chunk order, and one worker runs the
//     same chunks inline.
//
// Run with `go test -run Equivalence -count=2 -race` (the Makefile
// `equivalence` target) to catch scheduling-dependent nondeterminism.

import (
	"math"
	"testing"

	"thermalscaffold/internal/mesh"
	"thermalscaffold/internal/parallel"
)

// eqRNG is a splitmix64-style deterministic generator so the
// randomized problems are reproducible across runs and platforms.
type eqRNG struct{ s uint64 }

func (r *eqRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *eqRNG) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *eqRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomGrid builds a non-uniform rectilinear grid with the given
// cell counts and randomized spacings (0.5–1.5× the nominal pitch).
func randomGrid(t *testing.T, rng *eqRNG, nx, ny, nz int) *mesh.Grid {
	t.Helper()
	axis := func(n int, pitch float64) []float64 {
		xs := make([]float64, n+1)
		for i := 1; i <= n; i++ {
			xs[i] = xs[i-1] + pitch*(0.5+rng.float())
		}
		return xs
	}
	g, err := mesh.New(axis(nx, 1e-4), axis(ny, 1e-4), axis(nz, 2e-5))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomProblem builds an anchored conduction problem with random
// anisotropic conductivity (0.5–50 W/m/K), random sources, a random
// mix of boundary conditions, and (half the time) random z-interface
// TBR — the input classes the paper's stacks exercise.
func randomProblem(t *testing.T, rng *eqRNG, nx, ny, nz int) *Problem {
	t.Helper()
	g := randomGrid(t, rng, nx, ny, nz)
	p := NewProblem(g)
	for c := range p.KX {
		p.KX[c] = 0.5 * math.Pow(10, 2*rng.float())
		p.KY[c] = 0.5 * math.Pow(10, 2*rng.float())
		p.KZ[c] = 0.5 * math.Pow(10, 2*rng.float())
		p.Q[c] = rng.float() * 2e9
		p.Cv[c] = 1e6 * (0.5 + rng.float())
	}
	for f := Face(0); f < numFaces; f++ {
		switch rng.intn(3) {
		case 0:
			p.Bounds[f] = AdiabaticBC()
		case 1:
			p.Bounds[f] = DirichletBC(280 + 100*rng.float())
		case 2:
			p.Bounds[f] = ConvectiveBC(math.Pow(10, 4+2*rng.float()), 280+100*rng.float())
		}
	}
	// Guarantee the steady problem is anchored.
	if p.Bounds[ZMin].Kind == Adiabatic && p.Bounds[ZMax].Kind == Adiabatic {
		p.Bounds[ZMin] = DirichletBC(300 + 50*rng.float())
	}
	if rng.intn(2) == 0 {
		tbr := make([]float64, nz-1)
		for k := range tbr {
			tbr[k] = rng.float() * 1e-7
		}
		p.ZPlaneTBR = tbr
	}
	return p
}

// relDiff returns max|a−b| normalized by max|a|.
func relDiff(a, b []float64) float64 {
	scale, diff := 0.0, 0.0
	for c := range a {
		if v := math.Abs(a[c]); v > scale {
			scale = v
		}
		if d := math.Abs(a[c] - b[c]); d > diff {
			diff = d
		}
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// bitIdentical reports whether two fields agree in every bit.
func bitIdentical(a, b []float64) bool {
	for c := range a {
		if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
			return false
		}
	}
	return true
}

// equivalenceSizes mixes problems below the reduction chunk size with
// larger ones that genuinely exercise the chunked deterministic
// reductions.
var equivalenceSizes = [][3]int{
	{3, 4, 5},
	{7, 6, 4},
	{8, 8, 9},    // 576 cells, single reduction chunk
	{14, 12, 10}, // 1680 cells, 2 chunks
	{20, 18, 8},  // 2880 cells, 3 chunks
	{24, 20, 12}, // 5760 cells, 6 chunks
}

// equivalenceWorkers are the worker counts every bitwise equivalence
// test compares: the inline single-worker path plus dispatched pools.
var equivalenceWorkers = []int{1, 2, 4, 8}

// TestEquivalenceSteady: for randomized problems, every preconditioner
// and both precision tiers, the steady solve is bitwise identical at
// Workers 1, 2, 4 and 8.
func TestEquivalenceSteady(t *testing.T) {
	rng := &eqRNG{s: 0xA11CE}
	for round, size := range equivalenceSizes {
		p := randomProblem(t, rng, size[0], size[1], size[2])
		for _, pc := range []Preconditioner{Jacobi, ZLine, Multigrid} {
			for _, prec := range []Precision{F64, F32} {
				var ref *Result
				for _, w := range equivalenceWorkers {
					r, err := SolveSteady(p, Options{Tol: 1e-13, MaxIter: 100000, Precond: pc, Precision: prec, Workers: w})
					if err != nil {
						t.Fatalf("round %d %v/%v workers=%d: %v", round, pc, prec, w, err)
					}
					if ref == nil {
						ref = r
					} else if !bitIdentical(ref.T, r.T) || ref.Iterations != r.Iterations {
						t.Errorf("round %d %v/%v: workers=%d differs bitwise from workers=1 (rel %g, iterations %d vs %d)",
							round, pc, prec, w, relDiff(ref.T, r.T), r.Iterations, ref.Iterations)
					}
				}
			}
		}
	}
}

// TestEquivalenceDeterminism: repeated solves are bitwise identical at
// a fixed worker count, and — the stronger property the fixed-chunk
// reductions buy — across different worker counts.
func TestEquivalenceDeterminism(t *testing.T) {
	rng := &eqRNG{s: 0xD37E12}
	p := randomProblem(t, rng, 20, 16, 12) // 3840 cells, 4 reduction chunks
	var ref []float64
	for _, w := range []int{1, 1, 2, 3, 4, 8} {
		r, err := SolveSteady(p, Options{Tol: 1e-13, MaxIter: 100000, Precond: ZLine, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = r.T
		} else if !bitIdentical(ref, r.T) {
			t.Errorf("workers=%d: field differs bitwise from workers=1 reference (rel %g)", w, relDiff(ref, r.T))
		}
	}
}

// TestEquivalenceTransient: a multi-step backward-Euler integration is
// bitwise reproducible and bitwise identical across worker counts.
func TestEquivalenceTransient(t *testing.T) {
	rng := &eqRNG{s: 0x7145}
	p := randomProblem(t, rng, 12, 10, 12) // 1440 cells, 2 reduction chunks
	init := make([]float64, p.Grid.NumCells())
	for c := range init {
		init[c] = 300 + 20*rng.float()
	}
	run := func(workers int) []float64 {
		tr, err := NewTransient(p, init, Options{Tol: 1e-13, MaxIter: 100000, Precond: ZLine, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		out, err := tr.Run(5, 2e-4)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), out...)
	}
	ref := run(1)
	if !bitIdentical(ref, run(1)) {
		t.Error("transient run not reproducible")
	}
	for _, w := range []int{2, 4} {
		if got := run(w); !bitIdentical(ref, got) {
			t.Errorf("transient workers=%d differs bitwise from workers=1 (rel %g)", w, relDiff(ref, got))
		}
	}
}

// TestEquivalenceNonlinear: the Picard iteration over
// temperature-dependent conductivity is bitwise identical across
// worker counts — every inner solve is, so the outer loop has no
// difference to amplify.
func TestEquivalenceNonlinear(t *testing.T) {
	rng := &eqRNG{s: 0x40212E42}
	p := randomProblem(t, rng, 12, 12, 10) // 1440 cells
	update := func(cell int, tempK float64) (kx, ky, kz float64) {
		s := SiliconKScale(tempK)
		return p.KX[cell] * s, p.KY[cell] * s, p.KZ[cell] * s
	}
	run := func(workers int) []float64 {
		r, err := SolveSteadyNonlinear(p, update, NonlinearOptions{
			TolK:  1e-6,
			Inner: Options{Tol: 1e-13, MaxIter: 100000, Precond: ZLine, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.T
	}
	ref := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); !bitIdentical(ref, got) {
			t.Errorf("nonlinear workers=%d differs bitwise from workers=1 (rel %g)", w, relDiff(ref, got))
		}
	}
}

// TestEquivalenceEntryPoints: the batch, family-cached and trace
// entry points are bitwise identical at Workers 1 and 4 — the worker
// count is a throughput knob only, whichever path a solve takes.
func TestEquivalenceEntryPoints(t *testing.T) {
	rng := &eqRNG{s: 0x0E4A11}
	p := randomProblem(t, rng, 20, 16, 10) // 3200 cells, 4 reduction chunks
	qs := batchSources(p, 3)
	t0 := make([]float64, p.Grid.NumCells())
	for c := range t0 {
		t0[c] = 300
	}
	segs := []TraceSegment{{Dt: 1e-4, Steps: 2, Q: qs[0]}, {Dt: 5e-5, Steps: 2, Q: qs[1]}}
	type outcome struct{ batch, family, trace [][]float64 }
	run := func(w int) outcome {
		var o outcome
		opts := Options{Tol: 1e-11, MaxIter: 100000, Precond: Multigrid, Workers: w}
		batch, err := SolveSteadyBatch(p, qs, opts)
		if err != nil {
			t.Fatalf("workers %d batch: %v", w, err)
		}
		for _, r := range batch {
			o.batch = append(o.batch, r.T)
		}
		eng := NewEngine(w)
		defer eng.Close()
		for _, prec := range []Precision{F64, F32} {
			for _, q := range qs {
				r, err := SolveSteady(withQ(p, q), famOpts(eng, "fam-"+prec.String(), prec))
				if err != nil {
					t.Fatalf("workers %d family %v: %v", w, prec, err)
				}
				o.family = append(o.family, r.T)
			}
			tr, err := SolveTrace(p, t0, segs, Options{Tol: 1e-10, MaxIter: 100000, Precond: ZLine, Precision: prec, Workers: w}, TraceOptions{})
			if err != nil {
				t.Fatalf("workers %d trace %v: %v", w, prec, err)
			}
			o.trace = append(o.trace, tr.T)
		}
		return o
	}
	ref, got := run(1), run(4)
	for name, pair := range map[string][2][][]float64{
		"batch": {ref.batch, got.batch}, "family": {ref.family, got.family}, "trace": {ref.trace, got.trace},
	} {
		for i := range pair[0] {
			if !bitIdentical(pair[0][i], pair[1][i]) {
				t.Errorf("%s item %d: workers=4 differs bitwise from workers=1 (rel %g)", name, i, relDiff(pair[0][i], pair[1][i]))
			}
		}
	}
}

// refReduce replicates the deterministic reduction the kernels
// promise at every worker count: chunk-ordered partial sums.
func refReduce(n int, f func(c int) float64) float64 {
	total := 0.0
	for s := 0; s < n; s += parallel.Grain {
		e := min(s+parallel.Grain, n)
		part := 0.0
		for c := s; c < e; c++ {
			part += f(c)
		}
		total += part
	}
	return total
}

// TestEquivalenceFusedKernels pins each fused kernel bitwise against
// the unfused two-pass sequence it replaced: applyDot vs apply+dot,
// residual vs apply+subtract+norm, updateNorm vs update+norm, and
// applyDirDot vs a materialized direction update followed by
// apply+dot. This is the direct statement of the fusion contract —
// fusing passes must not change a single bit — checked at the inline
// single-worker path and at two dispatched worker counts.
func TestEquivalenceFusedKernels(t *testing.T) {
	rng := &eqRNG{s: 0xF05ED}
	p := randomProblem(t, rng, 15, 11, 13) // 2145 cells, 3 reduction chunks
	op := assemble(p)
	op.ensureStencil()
	n := len(op.b)
	zv := mgRandVec(rng, n)
	pv := mgRandVec(rng, n)
	xv := mgRandVec(rng, n)
	const beta, alpha = 0.37, 1.13

	for _, w := range []int{1, 4, 8} {
		kr := newKern(Options{Workers: w}, n)

		// applyDot vs apply + dot.
		ap := make([]float64, n)
		got := kr.applyDot(op, pv, ap)
		apRef := make([]float64, n)
		kr.apply(op, pv, apRef)
		if !bitIdentical(ap, apRef) {
			t.Errorf("workers=%d: applyDot SpMV output differs from apply", w)
		}
		want := refReduce(n, func(c int) float64 { return pv[c] * apRef[c] })
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("workers=%d: applyDot sum %x differs from unfused reference %x", w, math.Float64bits(got), math.Float64bits(want))
		}

		// residual vs apply + subtract + norm.
		r := make([]float64, n)
		rn := kr.residual(op, xv, op.b, r)
		rRef := make([]float64, n)
		kr.apply(op, xv, rRef)
		for c := range rRef {
			rRef[c] = op.b[c] - rRef[c]
		}
		if !bitIdentical(r, rRef) {
			t.Errorf("workers=%d: fused residual field differs from unfused", w)
		}
		wantN := math.Sqrt(refReduce(n, func(c int) float64 { return rRef[c] * rRef[c] }))
		if math.Float64bits(rn) != math.Float64bits(wantN) {
			t.Errorf("workers=%d: fused residual norm differs from unfused reference", w)
		}

		// updateNorm vs separate update passes + norm.
		x1 := append([]float64(nil), xv...)
		r1 := append([]float64(nil), rRef...)
		gotN := kr.updateNorm(x1, r1, pv, ap, alpha)
		x2 := append([]float64(nil), xv...)
		r2 := append([]float64(nil), rRef...)
		for c := 0; c < n; c++ {
			x2[c] += alpha * pv[c]
			r2[c] = r2[c] - alpha*ap[c]
		}
		if !bitIdentical(x1, x2) || !bitIdentical(r1, r2) {
			t.Errorf("workers=%d: fused update vectors differ from unfused", w)
		}
		wantN = math.Sqrt(refReduce(n, func(c int) float64 { return r2[c] * r2[c] }))
		if math.Float64bits(gotN) != math.Float64bits(wantN) {
			t.Errorf("workers=%d: fused update norm differs from unfused reference", w)
		}

		// applyDirDot vs materialized direction + apply + dot. The
		// fused kernel recomputes neighbor direction values as
		// z[nb]+β·p[nb] — the same expression that materialization
		// writes — so both the direction vector and the SpMV must
		// agree bitwise.
		pn := make([]float64, n)
		apd := make([]float64, n)
		gotD := kr.applyDirDot(op, zv, pv, pn, apd, beta)
		pnRef := make([]float64, n)
		for c := 0; c < n; c++ {
			pnRef[c] = zv[c] + beta*pv[c]
		}
		apdRef := make([]float64, n)
		kr.apply(op, pnRef, apdRef)
		if !bitIdentical(pn, pnRef) {
			t.Errorf("workers=%d: applyDirDot direction differs from materialized z+β·p", w)
		}
		if !bitIdentical(apd, apdRef) {
			t.Errorf("workers=%d: applyDirDot SpMV differs from apply on materialized direction", w)
		}
		wantD := refReduce(n, func(c int) float64 { return pnRef[c] * apdRef[c] })
		if math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Errorf("workers=%d: applyDirDot sum differs from unfused reference", w)
		}

		kr.close()
	}
}

// TestStencilMatchesSliceApply pins the structure-of-arrays stencil
// SpMV against the legacy slice-walking path bitwise — same operator,
// same input, both execution strategies.
func TestStencilMatchesSliceApply(t *testing.T) {
	rng := &eqRNG{s: 0x57E9C}
	for _, size := range [][3]int{{1, 1, 6}, {5, 1, 3}, {12, 10, 8}, {17, 13, 7}} {
		p := randomProblem(t, rng, size[0], size[1], size[2])
		op := assemble(p)
		n := len(op.b)
		x := mgRandVec(rng, n)
		yLegacy := make([]float64, n)
		op.applyRange(x, yLegacy, 0, n) // st == nil: slice path
		op.ensureStencil()
		ySt := make([]float64, n)
		op.applyRange(x, ySt, 0, n)
		if !bitIdentical(yLegacy, ySt) {
			t.Errorf("size %v: stencil SpMV differs bitwise from slice SpMV", size)
		}
	}
}

// TestEnergyBalanceRandomized: for random problems, the total
// boundary outflow under the solved field equals the total injected
// power — a global property that catches operator-assembly sign
// errors which temperature-only comparisons can miss.
func TestEnergyBalanceRandomized(t *testing.T) {
	rng := &eqRNG{s: 0xE6E26}
	for round := 0; round < 8; round++ {
		nx, ny, nz := 3+rng.intn(8), 3+rng.intn(8), 3+rng.intn(8)
		p := randomProblem(t, rng, nx, ny, nz)
		for _, workers := range []int{1, 4} {
			r, err := SolveSteady(p, Options{Tol: 1e-12, MaxIter: 100000, Precond: ZLine, Workers: workers})
			if err != nil {
				t.Fatalf("round %d workers %d: %v", round, workers, err)
			}
			out := 0.0
			for f := Face(0); f < numFaces; f++ {
				out += BoundaryFlux(p, r, f)
			}
			total := p.TotalSourcePower()
			// With fixed-T boundaries at different temperatures heat
			// can also flow between faces, but the NET outflow must
			// equal the injected power. Tolerance scales with the
			// gross boundary traffic, which bounds the cancellation.
			gross := math.Abs(total)
			for f := Face(0); f < numFaces; f++ {
				gross += math.Abs(BoundaryFlux(p, r, f))
			}
			if math.Abs(out-total) > 1e-7*gross+1e-9 {
				t.Errorf("round %d workers %d: net outflow %g W vs injected %g W (gross %g)", round, workers, out, total, gross)
			}
		}
	}
}
