package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNumChunks(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-5, 0}, {1, 1}, {Grain, 1}, {Grain + 1, 2},
		{3*Grain - 1, 3}, {3 * Grain, 3},
	}
	for _, c := range cases {
		if got := NumChunks(c.n); got != c.want {
			t.Errorf("NumChunks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPoolDefaults(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", p.Workers(), runtime.GOMAXPROCS(0))
	}
	s := NewPool(1)
	defer s.Close()
	if s.Workers() != 1 {
		t.Errorf("1-worker pool has %d workers", s.Workers())
	}
	neg := NewPool(-3)
	defer neg.Close()
	if neg.Workers() < 1 {
		t.Error("negative worker count not defaulted")
	}
}

// TestRunCoversEveryChunkOnce: each chunk index executes exactly once
// regardless of worker count.
func TestRunCoversEveryChunkOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		p := NewPool(w)
		const chunks = 137
		counts := make([]int64, chunks)
		p.Run(chunks, func(worker, c int) {
			if worker < 0 || worker >= p.Workers() {
				t.Errorf("worker id %d out of range [0,%d)", worker, p.Workers())
			}
			atomic.AddInt64(&counts[c], 1)
		})
		for c, n := range counts {
			if n != 1 {
				t.Errorf("workers=%d: chunk %d ran %d times", w, c, n)
			}
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestForCoversRange: the fixed-grain chunking tiles [0, n) exactly.
func TestForCoversRange(t *testing.T) {
	for _, w := range []int{1, 4} {
		p := NewPool(w)
		for _, n := range []int{0, 1, Grain - 1, Grain, Grain + 1, 5*Grain + 17} {
			hit := make([]int32, n)
			p.For(n, func(s, e int) {
				if e-s > Grain && w > 1 {
					t.Errorf("chunk [%d,%d) exceeds grain", s, e)
				}
				for i := s; i < e; i++ {
					atomic.AddInt32(&hit[i], 1)
				}
			})
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestForGrain(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const n, grain = 1000, 7
	var visited int64
	p.ForGrain(n, grain, func(worker, s, e int) {
		if worker < 0 || worker >= 3 {
			t.Errorf("bad worker id %d", worker)
		}
		atomic.AddInt64(&visited, int64(e-s))
	})
	if visited != n {
		t.Errorf("visited %d of %d", visited, n)
	}
	// Degenerate grain defaults to 1.
	var once int64
	p.ForGrain(3, 0, func(_, s, e int) { atomic.AddInt64(&once, int64(e-s)) })
	if once != 3 {
		t.Errorf("grain 0: visited %d of 3", once)
	}
}

// TestReduceSumDeterministic: the chunked reduction is bit-identical
// across repeated runs and across every worker count — the 1-worker
// pool runs the same chunks inline, in the same order.
func TestReduceSumDeterministic(t *testing.T) {
	const n = 10*Grain + 321
	a := make([]float64, n)
	rng := uint64(42)
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
	serialPool := NewPool(1)
	defer serialPool.Close()
	ref := serialPool.ReduceSum(n, nil, sumRange)
	for _, w := range []int{1, 2, 2, 3, 4, 5, 6, 7, 8, 16} {
		p := NewPool(w)
		got := p.ReduceSum(n, make([]float64, NumChunks(n)), sumRange)
		p.Close()
		if got != ref {
			t.Errorf("workers=%d: sum %v differs bitwise from workers=1 %v", w, got, ref)
		}
	}
	// Small scratch is replaced, not overflowed.
	p := NewPool(2)
	defer p.Close()
	if got := p.ReduceSum(n, make([]float64, 1), sumRange); got != ref {
		t.Error("short scratch changed the result")
	}
	if got := p.ReduceSum(0, nil, sumRange); got != 0 {
		t.Errorf("empty reduction = %v", got)
	}
}

// TestConcurrentUse: one pool serving parallel regions from several
// goroutines at once stays correct (the solver shares a pool across
// kernel invocations, and tests run solvers concurrently).
func TestConcurrentUse(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				var sum int64
				p.Run(23, func(_, c int) { atomic.AddInt64(&sum, int64(c)) })
				if sum != 23*22/2 {
					t.Errorf("region sum %d", sum)
				}
			}
		}()
	}
	wg.Wait()
}
