package thermalscaffold_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench regenerates its experiment at regression fidelity and reports
// the headline quantity as a custom metric, so `go test -bench=.`
// both times the harness and re-checks the reproduced shapes.

import (
	"testing"

	"thermalscaffold/internal/core"
	"thermalscaffold/internal/design"
	"thermalscaffold/internal/experiments"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/materials"
	"thermalscaffold/internal/pillar"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
)

var quick = experiments.Options{Quick: true}

func BenchmarkFig2bPenaltyComparison(b *testing.B) {
	var last *experiments.Fig2bResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2b(quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.Scaffolding.FootprintPenalty, "scaffold-footprint-%")
	b.ReportMetric(100*last.DummyVias.FootprintPenalty, "dummyvia-footprint-%")
}

func BenchmarkFig2cIsoPenalty(b *testing.B) {
	var last *experiments.Fig2cResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2c(quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.RiseRatio, "rise-ratio-x")
}

func BenchmarkFig3LateralSpreading(b *testing.B) {
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(6, 25)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ReachTD/last.ReachULK, "reach-gain-x")
}

func BenchmarkFig4DiamondConductivity(b *testing.B) {
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig4()
	}
	b.ReportMetric(last.K160nm, "k160nm-W/m/K")
}

func BenchmarkFig5DielectricConstant(b *testing.B) {
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.PorosityForEps4, "porosity-for-eps4")
}

func BenchmarkFig7aBEOLHomogenization(b *testing.B) {
	var last *experiments.Fig7aResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7a(quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Rows[1].KLat, "scaffolded-upper-klat")
}

func BenchmarkFig7bFillVsArea(b *testing.B) {
	var last *experiments.Fig7bResult
	for i := 0; i < b.N; i++ {
		last = experiments.Fig7b()
	}
	b.ReportMetric(last.Points[len(last.Points)-1].Fill, "max-fill")
}

func BenchmarkFig9TierScaling(b *testing.B) {
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(quick, 13)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.MaxTiers["Gemmini"][core.Scaffolding]), "gemmini-scaffold-tiers")
	b.ReportMetric(float64(last.MaxTiers["Gemmini"][core.Conventional3D]), "gemmini-conv-tiers")
}

func BenchmarkFig10PenaltyMaps(b *testing.B) {
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(quick, 13)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.ScafTiers[len(last.ScafTiers)-1]), "scaffold-tiers-max-budget")
}

func BenchmarkFig11HeatsinkExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(quick, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12PowerGatingCodesign(b *testing.B) {
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(4, 17)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.SinglePillarTDReduction, "single-td-reduction-%")
}

func BenchmarkTableIPenalties(b *testing.B) {
	var last *experiments.TableIResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableI(quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.Evals["Gemmini"][core.Scaffolding].FootprintPenalty, "gemmini-scaffold-fp-%")
}

func BenchmarkMacroCooling(b *testing.B) {
	var last *experiments.MacroCoolingResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.MacroCooling(4, 17)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.RiseULK/last.RiseTD, "macro-rise-reduction-x")
}

func BenchmarkPillarMisalignment(b *testing.B) {
	var last *experiments.MisalignmentResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Misalignment(4, 21)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.TolTD/1e-9, "td-tolerance-nm")
}

func BenchmarkTierResistanceShare(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.TierResistanceShare(10)
		if err != nil {
			b.Fatal(err)
		}
		share = s
	}
	b.ReportMetric(100*share, "tier-share-%")
}

// BenchmarkAblationPillarSize sweeps the pillar footprint: smaller
// pillars conduct less (size-dependent copper), larger ones risk
// electrical/mechanical impact — the paper picks 100 nm.
func BenchmarkAblationPillarSize(b *testing.B) {
	sizes := []float64{36e-9, 100e-9, 1e-6}
	var fp [3]float64
	for i := 0; i < b.N; i++ {
		for j, side := range sizes {
			p, err := pillar.Place(pillar.Request{
				Design: design.Gemmini(), Tiers: 10,
				Sink: heatsink.TwoPhase(), TTargetC: 125,
				BEOL:     stack.ScaffoldedBEOL(),
				Geometry: pillar.Geometry{FootprintSide: side, KeepoutFactor: 1.05},
				NX:       12, NY: 12,
			})
			if err != nil {
				b.Fatal(err)
			}
			fp[j] = p.FootprintPenalty
		}
	}
	b.ReportMetric(100*fp[0], "fp36nm-%")
	b.ReportMetric(100*fp[1], "fp100nm-%")
	b.ReportMetric(100*fp[2], "fp1um-%")
}

// BenchmarkAblationDielectricGrade sweeps the thermal dielectric's
// film quality (in-plane conductivity) through the scaffold flow.
func BenchmarkAblationDielectricGrade(b *testing.B) {
	grades := []float64{materials.KThermalDielectricMin, 300, materials.KThermalDielectricMax}
	var fp [3]float64
	for i := 0; i < b.N; i++ {
		for j, k := range grades {
			td := materials.ThermalDielectric(k)
			beol := stack.ScaffoldedBEOL()
			// Scale the homogenized upper group with the film grade.
			scale := td.KLateral / materials.KThermalDielectricMin
			beol.UpperKLat *= scale
			beol.UpperKVert *= td.KVertical / 30
			p, err := pillar.Place(pillar.Request{
				Design: design.Gemmini(), Tiers: 12,
				Sink: heatsink.TwoPhase(), TTargetC: 125,
				BEOL: beol, NX: 12, NY: 12,
			})
			if err != nil {
				b.Fatal(err)
			}
			fp[j] = p.FootprintPenalty
		}
	}
	b.ReportMetric(100*fp[0], "fp-k105-%")
	b.ReportMetric(100*fp[2], "fp-k500-%")
}

// BenchmarkAblationScheduling quantifies the conventional flow's
// scheduling benefit at a heterogeneous task mix.
func BenchmarkAblationScheduling(b *testing.B) {
	var dT float64
	for i := 0; i < b.N; i++ {
		off := core.Config{Design: design.Gemmini(), Sink: heatsink.TwoPhase(), NX: 12, NY: 12, TaskSpread: -1}
		on := off
		on.TaskSpread = 0.3
		e0, err := core.EvaluateAtBudget(off, core.Conventional3D, 8, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		e1, err := core.EvaluateAtBudget(on, core.Conventional3D, 8, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		dT = e0.TMaxC - e1.TMaxC
	}
	b.ReportMetric(dT, "scheduling-benefit-K")
}

// BenchmarkAblationMemoryLayer quantifies the interleaved memory
// sub-layer's contribution to the thermal wall.
func BenchmarkAblationMemoryLayer(b *testing.B) {
	d := design.Gemmini()
	pm := d.Tier.PowerMap(12, 12)
	var dT float64
	for i := 0; i < b.N; i++ {
		mk := func(mem bool) float64 {
			spec := &stack.Spec{
				DieW: d.Tier.Die.W, DieH: d.Tier.Die.H,
				Tiers: 8, NX: 12, NY: 12,
				PowerMaps: [][]float64{pm}, BEOL: stack.ConventionalBEOL(),
				Sink: heatsink.TwoPhase(), MemoryPerTier: mem,
			}
			res, err := spec.Solve(solverOpts())
			if err != nil {
				b.Fatal(err)
			}
			return res.MaxT()
		}
		dT = mk(true) - mk(false)
	}
	b.ReportMetric(dT, "memory-layer-cost-K")
}

// solverOpts pins Workers to 1 so the end-to-end figure benchmarks
// time one core on every machine (results are identical at any worker
// count); see internal/solver/bench_test.go for the
// worker-count sweeps.
func solverOpts() solver.Options { return solver.Options{Tol: 1e-6, MaxIter: 80000, Workers: 1} }
