package beol

// The preconditioner policy lives in one place: the solver's zero
// value is Multigrid, and no entry point rewrites an unset
// Options.Precond. This table pins that at every entry that once
// chose its own default. It sits in beol's internal tests because
// Homogenize takes no solver.Options — only the unexported
// homogenize can attach a collector — and no package under test
// imports beol, so every other entry is reachable from here.

import (
	"testing"

	"thermalscaffold/internal/pdk"
	"thermalscaffold/internal/sched"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/telemetry"
)

func TestUnsetPrecondRunsMultigrid(t *testing.T) {
	req := specio.ExampleEval()
	req.Stack.Tiers, req.Stack.NX, req.Stack.NY = 2, 8, 8
	req.PowerBlocks = nil
	req.Solver = specio.SolverJSON{}
	spec := func(t *testing.T) *stack.Spec {
		s, err := specio.Build(req.Stack)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	entries := []struct {
		name string
		run  func(t *testing.T, tel *telemetry.Collector) error
	}{
		{"stack.Solve", func(t *testing.T, tel *telemetry.Collector) error {
			_, err := spec(t).Solve(solver.Options{Telemetry: tel})
			return err
		}},
		{"stack.SolveNonlinear", func(t *testing.T, tel *telemetry.Collector) error {
			_, err := spec(t).SolveNonlinear(solver.Options{Telemetry: tel})
			return err
		}},
		{"beol.Homogenize", func(t *testing.T, tel *telemetry.Collector) error {
			layers := GroupGeometry(pdk.ASAP7().Upper(), pdk.ConventionalDielectrics(),
				GroupOptions{ViaDensity: 0.05, AlignVias: true, MetalDensity: 0.3})
			_, err := CoarseSpec(layers).homogenize(tel)
			return err
		}},
		{"sched.SimulateDTM", func(t *testing.T, tel *telemetry.Collector) error {
			demand := []sched.DemandPhase{{Name: "burst", Scale: 1.5, Steps: 2}}
			_, err := sched.SimulateDTM(spec(t), demand, 5e-6, sched.DTMConfig{}, solver.Options{Telemetry: tel})
			return err
		}},
		{"solver.NewTransient", func(t *testing.T, tel *telemetry.Collector) error {
			p, _, err := spec(t).Build()
			if err != nil {
				return err
			}
			init := make([]float64, len(p.Q))
			for i := range init {
				init[i] = 300
			}
			tr, err := solver.NewTransient(p, init, solver.Options{Tol: 1e-7, Telemetry: tel})
			if err != nil {
				return err
			}
			defer tr.Close()
			return tr.Step(1e-5)
		}},
		{"specio.Normalize", func(t *testing.T, tel *telemetry.Collector) error {
			norm, err := req.Normalize()
			if err != nil {
				return err
			}
			ev, err := specio.BuildEval(norm)
			if err != nil {
				return err
			}
			_, err = solver.SolveSteady(ev.Problem, solver.Options{
				Tol: ev.Tol, MaxIter: ev.MaxIter, Precond: ev.Precond, Telemetry: tel,
			})
			return err
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			tel := telemetry.New()
			if err := e.run(t, tel); err != nil {
				t.Fatal(err)
			}
			solves := tel.Report("", nil).Solves
			if len(solves) == 0 {
				t.Fatal("no solve traces recorded")
			}
			for i, tr := range solves {
				if tr.Precond != "multigrid" {
					t.Fatalf("solve %d (%s) ran %q, want multigrid", i, tr.Method, tr.Precond)
				}
			}
		})
	}
}
