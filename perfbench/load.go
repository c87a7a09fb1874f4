package main

// Load generation: a closed loop of waiting callers and an open loop
// on a fixed arrival schedule.
// Load comes from this one process; the number of workers per target
// is capped at nproc, the same cap the HTTP transport puts on
// connections per target.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// system executes one generated request and reports whether it
// succeeded (a 200 with an answer that passes the response checks).
type system interface {
	do(j *job) bool
}

// sample is the timing of one open-loop request.
type sample struct {
	due, start, end time.Time
	ok              bool
}

// latency is the request's time from the instant it was due.
func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// openResult is one open-loop phase.
type openResult struct {
	samples []sample
	// late is, per request, how far after its due instant the
	// generator handed it to a worker.
	late []time.Duration
}

// openLoop sends jobs[i] at start + i/rate for dur (at most len(jobs)
// requests), each to its node's workers. Every request is timed from
// its due instant, so a stall is charged to every request due during
// it.
func openLoop(sys system, jobs []job, nodes, workers int, rate float64, dur time.Duration) openResult {
	n := int(math.Ceil(rate * dur.Seconds()))
	if n > len(jobs) {
		n = len(jobs)
	}
	res := openResult{samples: make([]sample, n), late: make([]time.Duration, n)}
	// Each node's queue holds every request of the phase, so handing
	// out a request never blocks the schedule: a slow system shows as
	// a backlog and as latency, never as a slower generator.
	queues := make([]chan int, nodes)
	for i := range queues {
		queues[i] = make(chan int, n)
	}
	var wg sync.WaitGroup
	for q := range queues {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(q chan int) {
				defer wg.Done()
				for i := range q {
					s := &res.samples[i]
					s.start = time.Now()
					s.ok = sys.do(&jobs[i])
					s.end = time.Now()
				}
			}(queues[q])
		}
	}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			// Runtime timers wake an idle process up to about a
			// millisecond late; that lateness is the generator's, is
			// charged to the request and is reported as gen.late_ms.
			time.Sleep(d)
		}
		res.samples[i].due = due
		res.late[i] = time.Since(due)
		queues[jobs[i].node%nodes] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return res
}

// latencyMS is a request's latency from due; a failed request counts
// as missing every limit, so it gets an infinite latency.
func (s sample) latencyMS() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64(s.latency()) / float64(time.Millisecond)
}

// latenciesMS returns the sorted latencies of samples.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latencyMS()
	}
	sort.Float64s(out)
	return out
}

// windows splits [0, n) into k consecutive ranges of near-equal size.
func windows(n, k int) [][2]int {
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// quantiles reports the phase's median latency over all requests, and
// its q-quantile as the median over consecutive windows of the
// quantile within each window, each window holding enough requests for
// minTail of them to lie beyond it. One stall then moves one window's
// tail, not the reported one. ok is false when the phase is too short
// for a single window.
func (r openResult) quantiles(q float64) (p50, tail float64, ok bool) {
	p50, ok50 := quantile(latenciesMS(r.samples), 0.5)
	k := len(r.samples) / samplesFor(q)
	if !ok50 || k == 0 {
		return 0, 0, false
	}
	var tails []float64
	for _, w := range windows(len(r.samples), k) {
		v, _ := quantile(latenciesMS(r.samples[w[0]:w[1]]), q)
		tails = append(tails, v)
	}
	return p50, median(tails), true
}

func (r openResult) failed() int {
	f := 0
	for _, s := range r.samples {
		if !s.ok {
			f++
		}
	}
	return f
}

// closedResult is one closed-loop phase.
type closedResult struct {
	done, failed int
	elapsed      time.Duration
	// busy sums the callers' time spent waiting on requests.
	busy time.Duration
	// ends are the completion instants, in completion order.
	ends []time.Time
	t0   time.Time
}

// closedLoop runs callers that each send the next job only after the
// previous reply arrived, until dur has passed. The callers cycle
// through jobs in order from jobs[first % len(jobs)]: the i-th request
// sent is jobs[(first+i) % len(jobs)].
func closedLoop(sys system, jobs []job, callers int, dur time.Duration, first int) closedResult {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	res := closedResult{t0: time.Now()}
	deadline := res.t0.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := (next.Add(1) - 1) % int64(len(jobs))
				start := time.Now()
				ok := sys.do(&jobs[i])
				now := time.Now()
				mu.Lock()
				res.busy += now.Sub(start)
				res.done++
				if !ok {
					res.failed++
				}
				res.ends = append(res.ends, now)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(res.t0)
	return res
}

// chunkSeconds splits the completions into consecutive chunks of size
// requests and returns each chunk's wall time.
func (r closedResult) chunkSeconds(size int) []float64 {
	var out []float64
	prev := r.t0
	for i := size - 1; i < len(r.ends); i += size {
		out = append(out, r.ends[i].Sub(prev).Seconds())
		prev = r.ends[i]
	}
	return out
}
