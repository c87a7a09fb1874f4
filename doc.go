// Package thermalscaffold reproduces "Thermal Scaffolding for
// Ultra-Dense 3D Integrated Circuits" (Rich et al., DAC 2023) as a
// pure-Go library: materials models for the nanocrystalline-diamond
// thermal dielectric, a finite-volume 3D-IC thermal simulator, BEOL
// homogenization, the pillar placement algorithm, the conventional
// thermal-aware baselines (metallization, floorplanning, scheduling),
// and a co-design engine that regenerates every table and figure of
// the paper's evaluation.
//
// The solver's hot path runs on a deterministic worker pool
// (internal/parallel): solver.Options.Workers selects the width
// (0 = one per CPU core), chunk boundaries are independent of the
// worker count, and reductions combine partials in a fixed order, so
// results are bit-identical run-to-run and across every worker count.
// See DESIGN.md §6.
//
// PCG offers three preconditioners (solver.Options.Precond): Jacobi,
// z-line (per-column Thomas, the default for chip stacks), and
// geometric multigrid (x/y semi-coarsening with red-black z-line
// Gauss-Seidel smoothing), whose iteration count stays nearly flat
// under grid refinement — the default for the repeated solves of the
// pillar placement loop and 3.5–4× faster end-to-end on large grids.
// The cmd/thermsim and cmd/paperfigs binaries expose the choice as
// -precond jacobi|zline|multigrid. See DESIGN.md §7.
//
// See README.md for the architecture overview, DESIGN.md for the
// system inventory and per-experiment index, and EXPERIMENTS.md for
// the paper-vs-measured comparison. The root-level benchmarks
// (bench_test.go) time one regeneration of each experiment; the
// cmd/paperfigs binary prints them at full fidelity.
package thermalscaffold
