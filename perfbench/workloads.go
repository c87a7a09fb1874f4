package main

import (
	"math"
	"math/rand"
	"time"
)

// workload is one traffic mix. Its open-loop rates are fixed numbers,
// stated in the workload's why in BENCHMARK.json; they are never
// derived from a run.
type workload struct {
	name string
	// nodes is the number of servers; 0 runs paper-quick in process.
	nodes int
	// lowRPS and highRPS are the arrival rates of the traced run's low
	// and high open-loop phases, about 20 % and 40 % of the capacity
	// measured on a 2-vCPU shared host. Nearer capacity, the host's
	// slow spells tip the high phase into saturation on some runs and
	// not others.
	lowRPS, highRPS float64
	// suiteLen is the request count of one closed-loop suite chunk of
	// a serve workload (paper-quick's suite is the 19 regenerations).
	suiteLen int
	// shares split a traced run's --seconds between its closed phase
	// and its untraced low, traced low and traced high open-loop
	// phases.
	shares [4]float64
	// newDraw returns the request generator of one seed.
	newDraw func(seed int64) (draw func(*rand.Rand) job, warm []job)
}

var workloads = []*workload{
	{
		name: "paper-quick", nodes: 0,
		lowRPS: 180, highRPS: 360,
		shares:  [4]float64{0.3, 0.25, 0.25, 0.2},
		newDraw: paperDraw,
	},
	{
		name: "serve-hot", nodes: 1,
		lowRPS: 2400, highRPS: 4400,
		shares:   [4]float64{0.2, 0.25, 0.25, 0.3},
		suiteLen: 1000,
		newDraw: func(seed int64) (func(*rand.Rand) job, []job) {
			pool := newHotPool(streamRNG(seed, "pool"), 160, 30, 4)
			return func(rng *rand.Rand) job { return hotJob(rng, pool, 0.05) }, pool.all()
		},
	},
	{
		name: "serve-cold", nodes: 1,
		lowRPS: 40, highRPS: 80,
		shares:   [4]float64{0.2, 0.25, 0.25, 0.3},
		suiteLen: 50,
		newDraw: func(seed int64) (func(*rand.Rand) job, []job) {
			fams := newColdFamilies(streamRNG(seed, "pool"))
			return func(rng *rand.Rand) job { return coldJob(rng, fams) }, coldWarmup(fams)
		},
	},
	{
		name: "cluster-hot", nodes: 2,
		lowRPS: 1000, highRPS: 2000,
		shares:   [4]float64{0.2, 0.25, 0.25, 0.3},
		suiteLen: 1000,
		newDraw: func(seed int64) (func(*rand.Rand) job, []job) {
			pool := newHotPool(streamRNG(seed, "pool"), 255, 45, 0)
			warm := pool.all()
			for i := range warm {
				warm[i].node = i
			}
			return func(rng *rand.Rand) job { return clusterJob(rng, pool, 0.10) }, warm
		},
	},
}

func workloadNamed(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// stackOpPool is the size of paper-quick's open-loop op pool.
const stackOpPool = 32

func paperDraw(int64) (func(*rand.Rand) job, []job) {
	return func(rng *rand.Rand) job { return job{op: rng.Intn(stackOpPool)} }, nil
}

// plan is the phase schedule of a traced run.
type plan struct {
	closed, untracedLow, low, high time.Duration
}

// tracedPlan splits seconds between a traced run's phases. An
// open-loop phase runs at least long enough for its tail percentile to
// have minTail samples beyond it.
func (wl *workload) tracedPlan(seconds float64) plan {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	need := func(rate float64) float64 { return 1.05 * float64(samplesFor(tailQ)) / rate }
	return plan{
		closed:      sec(wl.shares[0] * seconds),
		untracedLow: sec(math.Max(wl.shares[1]*seconds, need(wl.lowRPS))),
		low:         sec(math.Max(wl.shares[2]*seconds, need(wl.lowRPS))),
		high:        sec(math.Max(wl.shares[3]*seconds, need(wl.highRPS))),
	}
}

// closedStreamLen is the length of a serve workload's closed-loop
// stream. Callers cycle through it, so its size, not the run's length,
// sets the memory it holds. A request that comes round again follows
// 8191 others, at least 16 times the largest server cache at
// thermserve's defaults (256 results, 64 warm-start families, 32
// reduced models, 8 family memos): the caches have evicted any key
// the stream does not repeat within a cycle, so a fresh or cold key
// misses again on every cycle.
const closedStreamLen = 8192

// streams are the pre-built request sequences of one run.
type streams struct {
	closed, low, high []job
	warm              []job
}

// buildStreams generates every request of a run from the seed: the
// warm-up and the closed-loop stream, and the open-loop streams of a
// traced run's plan p when p is not nil.
func (wl *workload) buildStreams(seed int64, p *plan) streams {
	draw, warm := wl.newDraw(seed)
	nodes := max(wl.nodes, 1)
	gen := func(phase string, n int) []job {
		rng := streamRNG(seed, phase)
		out := make([]job, n)
		for i := range out {
			out[i] = draw(rng)
			out[i].node = i % nodes
		}
		return out
	}
	count := func(rate float64, d time.Duration) int { return int(math.Ceil(rate * d.Seconds())) }
	st := streams{warm: warm}
	if wl.nodes > 0 {
		st.closed = gen("closed", closedStreamLen)
	}
	if p != nil {
		// The untraced and traced low phases send the same requests.
		st.low = gen("low", count(wl.lowRPS, max(p.low, p.untracedLow)))
		st.high = gen("high", count(wl.highRPS, p.high))
	}
	for i := range st.warm {
		st.warm[i].node %= nodes
	}
	return st
}
