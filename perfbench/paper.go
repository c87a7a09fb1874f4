package main

// paper-quick: the paper's own workload. One pass runs the 19
// quick-mode regenerations that the root bench_test.go covers, with
// package defaults, and checks each headline value against the
// reference this benchmark was written with.

import (
	"fmt"
	"math"

	"thermalscaffold/internal/core"
	"thermalscaffold/internal/design"
	"thermalscaffold/internal/experiments"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/materials"
	"thermalscaffold/internal/pillar"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/telemetry"
)

// headlineRelTol is the stated tolerance of continuous headline
// values: within 1 % of the reference. Headlines that are counts
// (tier counts) must match exactly.
const headlineRelTol = 0.01

// headline is one reference value of a regeneration.
type headline struct {
	name  string
	value float64
	exact bool
}

// regen is one figure or table regeneration.
type regen struct {
	name string
	ref  []headline
	run  func(tel *telemetry.Collector) (map[string]float64, error)
}

var quick = experiments.Options{Quick: true}

// ablationOpts mirrors the root bench's solverOpts: Workers 1 so the
// regenerations compare across machines.
func ablationOpts(tel *telemetry.Collector) solver.Options {
	return solver.Options{Tol: 1e-6, MaxIter: 80000, Workers: 1, Telemetry: tel}
}

// regens lists the 19 regenerations in bench_test.go order. Reference
// headlines are the values this repository produced when the
// benchmark was written.
var regens = []regen{
	{"fig2b", []headline{{"scaffold-footprint-%", 6.168, false}, {"dummyvia-footprint-%", 52.36, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Fig2b(quick)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"scaffold-footprint-%": 100 * r.Scaffolding.FootprintPenalty, "dummyvia-footprint-%": 100 * r.DummyVias.FootprintPenalty}, nil
		}},
	{"fig2c", []headline{{"rise-ratio-x", 5.683, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Fig2c(quick)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"rise-ratio-x": r.RiseRatio}, nil
		}},
	{"fig3", []headline{{"reach-gain-x", 2.000, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Fig3(6, 25)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"reach-gain-x": r.ReachTD / r.ReachULK}, nil
		}},
	{"fig4", []headline{{"k160nm-W/m/K", 105.7, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			return map[string]float64{"k160nm-W/m/K": experiments.Fig4().K160nm}, nil
		}},
	{"fig5", []headline{{"porosity-for-eps4", 0.2912, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Fig5()
			if err != nil {
				return nil, err
			}
			return map[string]float64{"porosity-for-eps4": r.PorosityForEps4}, nil
		}},
	{"fig7a", []headline{{"scaffolded-upper-klat", 120.4, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Fig7a(quick)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"scaffolded-upper-klat": r.Rows[1].KLat}, nil
		}},
	{"fig7b", []headline{{"max-fill", 0.1313, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r := experiments.Fig7b()
			return map[string]float64{"max-fill": r.Points[len(r.Points)-1].Fill}, nil
		}},
	{"fig9", []headline{{"gemmini-scaffold-tiers", 13, true}, {"gemmini-conv-tiers", 5, true}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Fig9(quick, 13)
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"gemmini-scaffold-tiers": float64(r.MaxTiers["Gemmini"][core.Scaffolding]),
				"gemmini-conv-tiers":     float64(r.MaxTiers["Gemmini"][core.Conventional3D]),
			}, nil
		}},
	{"fig10", []headline{{"scaffold-tiers-max-budget", 13, true}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Fig10(quick, 13)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"scaffold-tiers-max-budget": float64(r.ScafTiers[len(r.ScafTiers)-1])}, nil
		}},
	{"fig11", nil,
		func(*telemetry.Collector) (map[string]float64, error) {
			_, err := experiments.Fig11(quick, 10)
			return map[string]float64{}, err
		}},
	{"fig12", []headline{{"single-td-reduction-%", 30.19, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Fig12(4, 17)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"single-td-reduction-%": r.SinglePillarTDReduction}, nil
		}},
	{"table1", []headline{{"gemmini-scaffold-fp-%", 6.168, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.TableI(quick)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"gemmini-scaffold-fp-%": 100 * r.Evals["Gemmini"][core.Scaffolding].FootprintPenalty}, nil
		}},
	{"macro_cooling", []headline{{"macro-rise-reduction-x", 2.203, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.MacroCooling(4, 17)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"macro-rise-reduction-x": r.RiseULK / r.RiseTD}, nil
		}},
	{"misalignment", []headline{{"td-tolerance-nm", 2000, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			r, err := experiments.Misalignment(4, 21)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"td-tolerance-nm": r.TolTD / 1e-9}, nil
		}},
	{"tier_share", []headline{{"tier-share-%", 80.34, false}},
		func(*telemetry.Collector) (map[string]float64, error) {
			s, err := experiments.TierResistanceShare(10)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"tier-share-%": 100 * s}, nil
		}},
	{"abl_pillar_size", []headline{{"fp36nm-%", 3.392, false}, {"fp100nm-%", 2.621, false}, {"fp1um-%", 1.542, false}},
		func(tel *telemetry.Collector) (map[string]float64, error) {
			out := map[string]float64{}
			for i, side := range []float64{36e-9, 100e-9, 1e-6} {
				p, err := pillar.Place(pillar.Request{
					Design: design.Gemmini(), Tiers: 10,
					Sink: heatsink.TwoPhase(), TTargetC: 125,
					BEOL:     stack.ScaffoldedBEOL(),
					Geometry: pillar.Geometry{FootprintSide: side, KeepoutFactor: 1.05},
					NX:       12, NY: 12, Telemetry: tel,
				})
				if err != nil {
					return nil, err
				}
				out[[]string{"fp36nm-%", "fp100nm-%", "fp1um-%"}[i]] = 100 * p.FootprintPenalty
			}
			return out, nil
		}},
	{"abl_dielectric", []headline{{"fp-k105-%", 6.168, false}, {"fp-k500-%", 3.546, false}},
		func(tel *telemetry.Collector) (map[string]float64, error) {
			out := map[string]float64{}
			for i, k := range []float64{materials.KThermalDielectricMin, 300, materials.KThermalDielectricMax} {
				td := materials.ThermalDielectric(k)
				beol := stack.ScaffoldedBEOL()
				beol.UpperKLat *= td.KLateral / materials.KThermalDielectricMin
				beol.UpperKVert *= td.KVertical / 30
				p, err := pillar.Place(pillar.Request{
					Design: design.Gemmini(), Tiers: 12,
					Sink: heatsink.TwoPhase(), TTargetC: 125,
					BEOL: beol, NX: 12, NY: 12, Telemetry: tel,
				})
				if err != nil {
					return nil, err
				}
				out[[]string{"fp-k105-%", "fp-k300-%", "fp-k500-%"}[i]] = 100 * p.FootprintPenalty
			}
			return out, nil
		}},
	{"abl_scheduling", []headline{{"scheduling-benefit-K", 6.578, false}},
		func(tel *telemetry.Collector) (map[string]float64, error) {
			off := core.Config{Design: design.Gemmini(), Sink: heatsink.TwoPhase(), NX: 12, NY: 12, TaskSpread: -1, Telemetry: tel}
			on := off
			on.TaskSpread = 0.3
			e0, err := core.EvaluateAtBudget(off, core.Conventional3D, 8, 0.10)
			if err != nil {
				return nil, err
			}
			e1, err := core.EvaluateAtBudget(on, core.Conventional3D, 8, 0.10)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"scheduling-benefit-K": e0.TMaxC - e1.TMaxC}, nil
		}},
	{"abl_memory", []headline{{"memory-layer-cost-K", 32.22, false}},
		func(tel *telemetry.Collector) (map[string]float64, error) {
			d := design.Gemmini()
			pm := d.Tier.PowerMap(12, 12)
			var t [2]float64
			for i, mem := range []bool{true, false} {
				spec := &stack.Spec{
					DieW: d.Tier.Die.W, DieH: d.Tier.Die.H,
					Tiers: 8, NX: 12, NY: 12,
					PowerMaps: [][]float64{pm}, BEOL: stack.ConventionalBEOL(),
					Sink: heatsink.TwoPhase(), MemoryPerTier: mem,
				}
				res, err := spec.Solve(ablationOpts(tel))
				if err != nil {
					return nil, err
				}
				t[i] = res.MaxT()
			}
			return map[string]float64{"memory-layer-cost-K": t[0] - t[1]}, nil
		}},
}

// checkHeadlines compares a regeneration's headline values with its
// reference: exact for counts, within headlineRelTol otherwise.
func checkHeadlines(rg regen, got map[string]float64) error {
	for _, h := range rg.ref {
		v, ok := got[h.name]
		if !ok {
			return fmt.Errorf("%s: headline %s missing", rg.name, h.name)
		}
		if h.exact {
			if v != h.value {
				return fmt.Errorf("%s: %s = %v, want exactly %v", rg.name, h.name, v, h.value)
			}
			continue
		}
		tol := headlineRelTol * math.Abs(h.value)
		if !(math.Abs(v-h.value) <= tol) {
			return fmt.Errorf("%s: %s = %v, want %v ± %v", rg.name, h.name, v, h.value, tol)
		}
	}
	return nil
}

// stackOp is one open-loop operation of paper-quick: a steady solve
// of a quick-mode Gemmini stack, the inner step of the paper's tier
// and pillar sweeps.
type stackOp struct {
	spec *stack.Spec
	// ref is the peak of the same solve made in set-up.
	ref float64
}

// newStackOps builds paper-quick's op pool. Tier counts (2 to 8) and
// memory sub-layers cycle through the pool, so every seed's pool costs
// the same to solve; the seed draws each op's BEOL and power scale.
func newStackOps(seed int64, n int) []*stackOp {
	rng := streamRNG(seed, "stack-ops")
	d := design.Gemmini()
	ops := make([]*stackOp, n)
	for i := range ops {
		scale := 0.6 + 0.6*rng.Float64()
		pm := d.Tier.PowerMap(12, 12)
		for c := range pm {
			pm[c] *= scale
		}
		beol := stack.ConventionalBEOL()
		if rng.Intn(2) == 0 {
			beol = stack.ScaffoldedBEOL()
		}
		ops[i] = &stackOp{spec: &stack.Spec{
			DieW: d.Tier.Die.W, DieH: d.Tier.Die.H,
			Tiers: 2 + i%7, NX: 12, NY: 12,
			PowerMaps: [][]float64{pm}, BEOL: beol,
			Sink: heatsink.TwoPhase(), MemoryPerTier: i%2 == 0,
		}}
	}
	return ops
}

// solve runs the op and returns the stack's peak temperature.
func (op *stackOp) solve(tel *telemetry.Collector) (float64, error) {
	res, err := op.spec.Solve(ablationOpts(tel))
	if err != nil {
		return 0, err
	}
	return res.MaxT(), nil
}
