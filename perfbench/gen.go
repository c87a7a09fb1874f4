package main

// Request generation. Every request body of a run is built from the
// workload seed before the phase that sends it starts, so two runs
// with one seed send byte-identical bodies in the same order. Each
// phase draws from its own stream (seeded by the workload seed and
// the phase name). An open-loop phase sends a prefix of its stream,
// as long as its rate and length give; the closed loop cycles through
// its stream. Neither depends on the program's answers.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"thermalscaffold/internal/specio"
)

// Request paths of the service.
const (
	pathEval  = "/v1/eval"
	pathBatch = "/v1/evalbatch"
	pathTrace = "/v1/evaltrace"
)

// job is one generated request.
type job struct {
	// node is the index of the server the request is sent to.
	node int
	// path is the HTTP path; empty for paper-quick's in-process ops.
	path string
	body []byte
	// mode is steady, rc, batch or trace.
	mode string
	// op indexes paper-quick's stack pool.
	op int
}

// streamRNG derives the random source of one phase stream.
func streamRNG(seed int64, phase string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, phase)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// smallStack is the 8×8×2 stack of the hot workloads; power
// individuates keys within its one geometry.
func smallStack(power float64) specio.StackJSON {
	return specio.StackJSON{
		DieWUm: 200, DieHUm: 200,
		Tiers: 2, NX: 8, NY: 8,
		UniformPower: power,
		BEOL:         "scaffolded",
		PillarCover:  0.1,
		Sink:         "twophase",
	}
}

// paperStack is a paper-scale stack: the 690×660 µm Gemmini-class die
// on a 16×16 grid with memory sub-layers.
func paperStack(tiers int, beol string, cover, dieW, power float64) specio.StackJSON {
	return specio.StackJSON{
		DieWUm: dieW, DieHUm: 660,
		Tiers: tiers, NX: 16, NY: 16,
		UniformPower:  power,
		BEOL:          beol,
		PillarCover:   cover,
		Sink:          "twophase",
		MemoryPerTier: true,
	}
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generator's own types always marshal
	}
	return raw
}

func evalJob(req specio.EvalRequest, mode string) job {
	return job{path: pathEval, body: mustJSON(req), mode: mode}
}

// hotPower draws a power density that a hot pool may hold; powers of
// fresh requests come from the same continuous range, so a fresh key
// repeats a hot one with probability zero.
func hotPower(rng *rand.Rand) float64 { return 20 + 80*rng.Float64() }

func batchJob(rng *rand.Rand) job {
	base := hotPower(rng)
	items := make([]specio.BatchItem, 3)
	for i := range items {
		items[i].PowerBlocks = []specio.PowerBlock{{
			X0: 1 + i, Y0: 1 + i, X1: 5 + i, Y1: 5 + i,
			DensityWPerCm2: 10 + 40*rng.Float64(),
		}}
	}
	req := specio.EvalBatchRequest{Base: specio.EvalRequest{Stack: smallStack(base)}, Items: items}
	return job{path: pathBatch, body: mustJSON(req), mode: "batch"}
}

// hotPool is a fixed key set on the small stack, split by mode.
type hotPool struct {
	steady, rc, batch []job
}

func newHotPool(rng *rand.Rand, steady, rc, batch int) *hotPool {
	p := &hotPool{}
	for i := 0; i < steady; i++ {
		p.steady = append(p.steady, evalJob(specio.EvalRequest{Stack: smallStack(hotPower(rng))}, "steady"))
	}
	for i := 0; i < rc; i++ {
		p.rc = append(p.rc, evalJob(specio.EvalRequest{Stack: smallStack(hotPower(rng)), Fidelity: specio.FidelityRC}, "rc"))
	}
	for i := 0; i < batch; i++ {
		p.batch = append(p.batch, batchJob(rng))
	}
	return p
}

// all lists every pool request once, the warm-up order.
func (p *hotPool) all() []job {
	out := append([]job(nil), p.steady...)
	out = append(out, p.rc...)
	return append(out, p.batch...)
}

// pickMode draws steady 0.80 / rc 0.15 / batch 0.05, thermbench's
// default mix.
func pickMode(rng *rand.Rand) string {
	switch x := rng.Float64(); {
	case x < 0.80:
		return "steady"
	case x < 0.95:
		return "rc"
	default:
		return "batch"
	}
}

// hotJob draws one request of a hot workload: with probability
// freshShare a never-repeated key of the drawn mode, else a pool key.
func hotJob(rng *rand.Rand, pool *hotPool, freshShare float64) job {
	mode := pickMode(rng)
	if rng.Float64() < freshShare {
		var j job
		switch mode {
		case "steady":
			j = evalJob(specio.EvalRequest{Stack: smallStack(hotPower(rng))}, mode)
		case "rc":
			j = evalJob(specio.EvalRequest{Stack: smallStack(hotPower(rng)), Fidelity: specio.FidelityRC}, mode)
		default:
			j = batchJob(rng)
		}
		return j
	}
	var from []job
	switch mode {
	case "steady":
		from = pool.steady
	case "rc":
		from = pool.rc
	default:
		from = pool.batch
	}
	return from[rng.Intn(len(from))]
}

// coldFamily is one recurring geometry of serve-cold.
type coldFamily struct {
	tiers int
	beol  string
	cover float64
}

// coldFamilyTiers are the tier counts of serve-cold's recurring
// families. They are fixed, not drawn, because a family's tier count
// sets the cost of every request in it: drawn counts would make one
// seed's traffic cheaper than another's.
var coldFamilyTiers = []int{4, 6, 9, 12}

func newColdFamilies(rng *rand.Rand) []coldFamily {
	fams := make([]coldFamily, len(coldFamilyTiers))
	for i, tiers := range coldFamilyTiers {
		fams[i] = coldFamily{tiers: tiers, beol: pickBEOL(rng), cover: 0.05 + 0.15*rng.Float64()}
	}
	return fams
}

func pickBEOL(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "conventional"
	}
	return "scaffolded"
}

// coldWarmup is serve-cold's warm-up: one steady and one rc request
// per family, which fills the family's assembly, memo and reduced-model
// caches.
func coldWarmup(fams []coldFamily) []job {
	var out []job
	for _, f := range fams {
		st := paperStack(f.tiers, f.beol, f.cover, 690, 50)
		out = append(out,
			evalJob(specio.EvalRequest{Stack: st}, "steady"),
			evalJob(specio.EvalRequest{Stack: st, Fidelity: specio.FidelityRC}, "rc"))
	}
	return out
}

// coldJob draws one serve-cold request; every key is new. Half the
// requests sweep power within a recurring family, where warm start,
// the family memo, the assembly cache and the rc tier's model cache
// work; the other half use a never-repeated geometry, which bypasses
// all of them. rc requests (15 % overall) come from the family half,
// so each reuses its family's reduced model; 5 % of each half are
// short trace streams. Traces cost several steady solves, and a 10 %
// share put the p90 on the edge of that slow class, where it jumped
// between runs.
func coldJob(rng *rand.Rand, fams []coldFamily) job {
	family := rng.Intn(2) == 0
	var st specio.StackJSON
	if family {
		f := fams[rng.Intn(len(fams))]
		st = paperStack(f.tiers, f.beol, f.cover, 690, 30+40*rng.Float64())
	} else {
		// A die width off the 690 µm grid by a random fraction of a
		// micron is a geometry no earlier request had.
		st = paperStack(4+rng.Intn(9), pickBEOL(rng), 0.05+0.15*rng.Float64(), 690+rng.Float64(), 30+40*rng.Float64())
	}
	blocks := []specio.PowerBlock{{X0: 4, Y0: 4, X1: 8 + rng.Intn(6), Y1: 8 + rng.Intn(6), DensityWPerCm2: 20 + 40*rng.Float64()}}
	x := rng.Float64()
	switch {
	case x < 0.05:
		// A trace's cost grows with its tier count; cap streams at 6
		// tiers so one stream stays a short request.
		if st.Tiers > 6 {
			st.Tiers = 4 + st.Tiers%3
		}
		burst, idle := 1.5, 0.3
		req := specio.TraceRequest{
			Stack: st, PowerBlocks: blocks,
			Segments: []specio.TraceSegmentJSON{
				{DtS: 1e-4, Steps: 3, PowerScale: &burst},
				{DtS: 1e-4, Steps: 3, PowerScale: &idle},
			},
		}
		return job{path: pathTrace, body: mustJSON(req), mode: "trace"}
	case family && x < 0.35:
		return evalJob(specio.EvalRequest{Stack: st, PowerBlocks: blocks, Fidelity: specio.FidelityRC}, "rc")
	default:
		return evalJob(specio.EvalRequest{Stack: st, PowerBlocks: blocks}, "steady")
	}
}

// clusterJob draws one cluster-hot request: mostly pool keys (the
// pool is larger than one node's cache and fits the ring), the rest
// fresh power maps within the pool's one family.
func clusterJob(rng *rand.Rand, pool *hotPool, missShare float64) job {
	if rng.Float64() < missShare {
		return evalJob(specio.EvalRequest{Stack: smallStack(hotPower(rng))}, "steady")
	}
	if rng.Float64() < 0.15 {
		return pool.rc[rng.Intn(len(pool.rc))]
	}
	return pool.steady[rng.Intn(len(pool.steady))]
}
