package parallel

import (
	"fmt"
	"testing"
	"time"
)

// TestSmallRegionRunsInline: at or below the serial cutoff the region
// executes on the caller (worker 0) in ascending chunk order — no
// helper wakeups, and chunk-ordered reductions see the exact same
// order as the dispatched path.
func TestSmallRegionRunsInline(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	for chunks := 0; chunks <= serialCutoffChunks; chunks++ {
		var order []int
		p.Run(chunks, func(worker, c int) {
			if worker != 0 {
				t.Errorf("chunks=%d: chunk %d ran on worker %d, want inline worker 0", chunks, c, worker)
			}
			order = append(order, c) // safe: inline path is single-goroutine
		})
		for i, c := range order {
			if c != i {
				t.Errorf("chunks=%d: position %d ran chunk %d, want ascending order", chunks, i, c)
			}
		}
		if len(order) != chunks {
			t.Errorf("chunks=%d: %d chunks ran", chunks, len(order))
		}
	}
}

// TestSmallReduceBitIdentical: the scratch-free small-n ReduceSum path
// is bit-identical to a large pool's result and to the explicit
// chunk-ordered reference, and no scratch is needed.
func TestSmallReduceBitIdentical(t *testing.T) {
	a := make([]float64, serialCutoffChunks*Grain)
	rng := uint64(7)
	for i := range a {
		rng = rng*6364136223846793005 + 1442695040888963407
		a[i] = float64(rng>>40)/float64(1<<24) - 0.5
	}
	sumRange := func(s, e int) float64 {
		v := 0.0
		for i := s; i < e; i++ {
			v += a[i] * a[i]
		}
		return v
	}
	for _, n := range []int{1, Grain, Grain + 1, 2 * Grain, serialCutoffChunks * Grain} {
		p2 := NewPool(2)
		p8 := NewPool(8)
		got2 := p2.ReduceSum(n, nil, sumRange)
		got8 := p8.ReduceSum(n, nil, sumRange)
		p2.Close()
		p8.Close()
		if got2 != got8 {
			t.Errorf("n=%d: workers=2 sum %v != workers=8 sum %v", n, got2, got8)
		}
		// Reference: explicit chunk-ordered accumulation, the
		// documented parallel reduction order.
		want := 0.0
		for c := 0; c < NumChunks(n); c++ {
			s, e := c*Grain, (c+1)*Grain
			if e > n {
				e = n
			}
			want += sumRange(s, e)
		}
		if got2 != want {
			t.Errorf("n=%d: small-n reduce %v differs from chunk-ordered reference %v", n, got2, want)
		}
	}
}

// TestSmallNParallelOverheadRegression pins the workers=2 small-n
// regression fix: below the dispatch cutoff a multi-worker pool must
// cost no more than ~1.1× the serial pool on the same kernel, because
// both run the identical inline loop. Uses min-of-5 timings to shed
// scheduler noise.
func TestSmallNParallelOverheadRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short")
	}
	const n = 2 * Grain // 2 chunks: under the cutoff, over the single-chunk trivial case
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i%17) * 0.25
	}
	kernel := func(s, e int) float64 {
		v := 0.0
		for i := s; i < e; i++ {
			v += a[i] * a[i]
		}
		return v
	}
	timePool := func(workers int) time.Duration {
		p := NewPool(workers)
		defer p.Close()
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = p.ReduceSum(n, nil, kernel)
				}
			})
			if d := time.Duration(r.NsPerOp()); d < best {
				best = d
			}
		}
		return best
	}
	serial := timePool(1)
	par := timePool(2)
	if float64(par) > 1.1*float64(serial) {
		t.Errorf("workers=2 small-n ReduceSum %v exceeds 1.1× serial %v", par, serial)
	}
}

// BenchmarkSmallNReduce tracks the small-n dispatch overhead directly:
// with the inline cutoff the two variants should be indistinguishable.
func BenchmarkSmallNReduce(b *testing.B) {
	const n = 2 * Grain
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i%17) * 0.25
	}
	kernel := func(s, e int) float64 {
		v := 0.0
		for i := s; i < e; i++ {
			v += a[i] * a[i]
		}
		return v
	}
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			for i := 0; i < b.N; i++ {
				_ = p.ReduceSum(n, nil, kernel)
			}
		})
	}
}
