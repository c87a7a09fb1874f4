package pillar

import (
	"fmt"
	"math"
	"sort"

	"thermalscaffold/internal/floorplan"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/units"
)

// DiscretePlacement is the coordinate-level realization of a
// Placement: actual pillar locations on the die, exactly as the
// paper's flow exports Innovus stripe coordinates. Pillars are laid
// in a grid at each heat source's required pitch, skipping hard
// macros, with leftover demand pushed to the macro-gap channels —
// "P_min pillars are placed between the macro gaps and in a grid at
// the required pitch within the heat source" (Sec. III-A).
type DiscretePlacement struct {
	Points []Point
	// PerUnit counts pillars realized within each unit.
	PerUnit map[string]int
	// Field is the rasterized coverage of the discrete pillars.
	Field *stack.PillarField
	// lastT caches the previous verification solve's temperature
	// field. Successive verifications differ only by a few added
	// pillars, so each re-solve warm-starts from the last field and
	// converges in a handful of multigrid-preconditioned iterations.
	lastT []float64
}

// maxDiscretePillars bounds coordinate materialization: beyond this,
// enumerating individual 100 nm pillars is pointless (the paper's own
// flow switches to repeating a tile pattern — see Sec. III-A on the
// Fujitsu design).
const maxDiscretePillars = 4_000_000

// Discretize converts a coverage-level placement into pillar
// coordinates over the design's floorplan. The field resolution of
// the returned rasterization matches the placement grid.
func (p *Placement) Discretize(req Request) (*DiscretePlacement, error) {
	r, err := (&req).withDefaults()
	if err != nil {
		return nil, err
	}
	if p.TotalPillars > maxDiscretePillars {
		return nil, fmt.Errorf("pillar: %d pillars exceed the %d coordinate-materialization bound; use the tile-repetition flow", p.TotalPillars, maxDiscretePillars)
	}
	tier := r.Design.Tier
	macros := macroRects(tier)
	out := &DiscretePlacement{PerUnit: map[string]int{}}
	for _, up := range p.Units {
		if up.Pillars == 0 || up.Pitch <= 0 {
			continue
		}
		u, err := tier.Find(up.Unit)
		if err != nil {
			return nil, err
		}
		var region []floorplan.Rect
		if u.IsMacro {
			// Macro units receive their pillars in the surrounding
			// channel: a one-pitch-wide ring around the macro, clipped
			// to the die.
			region = ringAround(u.Rect, up.Pitch, tier.Die)
		} else {
			region = []floorplan.Rect{u.Rect}
		}
		placed := 0
		for _, reg := range region {
			pts := GridPlace(reg, up.Pitch, macros)
			need := up.Pillars - placed
			if need <= 0 {
				break
			}
			if len(pts) > need {
				pts = pts[:need]
			}
			out.Points = append(out.Points, pts...)
			placed += len(pts)
		}
		out.PerUnit[up.Unit] = placed
	}
	out.Field = FieldFromPoints(out.Points, tier.Die, r.NX, r.NY, r.Geometry)
	return out, nil
}

// macroRects extracts macro rectangles.
func macroRects(f *floorplan.Floorplan) []floorplan.Rect {
	var out []floorplan.Rect
	for _, m := range f.Macros() {
		out = append(out, m.Rect)
	}
	return out
}

// ringAround returns up to four rectangles forming a band of the
// given width around r, clipped to the die.
func ringAround(r floorplan.Rect, width float64, die floorplan.Rect) []floorplan.Rect {
	band := floorplan.Rect{X: r.X - width, Y: r.Y - width, W: r.W + 2*width, H: r.H + 2*width}
	var out []floorplan.Rect
	add := func(c floorplan.Rect) {
		c = c.Intersection(die)
		if c.Area() > 0 {
			out = append(out, c)
		}
	}
	add(floorplan.Rect{X: band.X, Y: band.Y, W: band.W, H: width})   // bottom
	add(floorplan.Rect{X: band.X, Y: r.MaxY(), W: band.W, H: width}) // top
	add(floorplan.Rect{X: band.X, Y: r.Y, W: width, H: r.H})         // left
	add(floorplan.Rect{X: r.MaxX(), Y: r.Y, W: width, H: r.H})       // right
	return out
}

// VerifyTemperature re-simulates the stack with the discrete pillar
// rasterization (instead of the idealized coverage profile) and
// returns the achieved peak (°C). The paper's flow performs the same
// check and "fill is increased past P_min" when uniformity is poor —
// RefineFill automates that loop.
func (d *DiscretePlacement) VerifyTemperature(req Request) (float64, error) {
	r, err := (&req).withDefaults()
	if err != nil {
		return 0, err
	}
	res, err := d.verify(r)
	if err != nil {
		return 0, err
	}
	return units.KelvinToCelsius(res.MaxT()), nil
}

// verify solves the stack with the current discrete rasterization,
// warm-starting from the previous verification's field when one is
// cached. The multigrid preconditioner keeps the iteration count flat
// as callers refine the placement grid.
func (d *DiscretePlacement) verify(r *Request) (*stack.Result, error) {
	tier := r.Design.Tier
	pm := tier.PowerMap(r.NX, r.NY)
	spec := &stack.Spec{
		DieW: tier.Die.W, DieH: tier.Die.H,
		Tiers: r.Tiers, NX: r.NX, NY: r.NY,
		PowerMaps:     [][]float64{pm},
		BEOL:          r.BEOL,
		Pillars:       d.Field,
		PillarK:       r.Geometry.EffectiveK(),
		Sink:          r.Sink,
		MemoryPerTier: !r.NoMemoryPerTier,
	}
	res, err := spec.Solve(solver.Options{
		Tol:          r.Tol,
		MaxIter:      80000,
		InitialGuess: d.lastT,
		Ctx:          r.Ctx,
		Telemetry:    r.Telemetry,
		Engine:       r.Engine,
	})
	if err != nil {
		return nil, err
	}
	d.lastT = res.Field.T
	return res, nil
}

// RefineResult traces one greedy fill-refinement run.
type RefineResult struct {
	// TMaxC is the final verified peak temperature (°C).
	TMaxC float64
	// Rounds counts refinement rounds actually performed.
	Rounds int
	// Added counts pillars inserted past P_min.
	Added int
	// Trace holds the verified peak after the initial verification
	// and after each round (°C).
	Trace []float64
	// Met reports whether the target was reached.
	Met bool
}

// RefineFill implements the paper's verification loop: when the
// discrete realization misses the temperature target, "fill is
// increased past P_min". Each round locates the verified hotspot,
// identifies the floorplan region under it, and inserts a staggered
// pillar grid offset by half the local pitch (roughly doubling the
// local density) before re-verifying. Every solve after the first
// warm-starts from the previous round's temperature field, so a
// refinement round costs a few multigrid-preconditioned iterations
// rather than a cold solve.
func (d *DiscretePlacement) RefineFill(req Request, maxRounds int) (*RefineResult, error) {
	r, err := (&req).withDefaults()
	if err != nil {
		return nil, err
	}
	tier := r.Design.Tier
	macros := macroRects(tier)
	// Refinement re-verifies after every round; share one pool across
	// the whole loop unless the caller already supplied an engine.
	if r.Engine == nil {
		eng := solver.NewEngine(0)
		defer eng.Close()
		r.Engine = eng
	}
	out := &RefineResult{}
	res, err := d.verify(r)
	if err != nil {
		return nil, err
	}
	out.TMaxC = units.KelvinToCelsius(res.MaxT())
	out.Trace = append(out.Trace, out.TMaxC)
	for round := 0; round < maxRounds; round++ {
		if r.Ctx != nil {
			if cerr := r.Ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("pillar: fill refinement cancelled after %d rounds: %w", round, cerr)
			}
		}
		if out.TMaxC <= r.TTargetC {
			out.Met = true
			return out, nil
		}
		x, y := hotspotXY(res)
		name, regions := hotRegions(tier, x, y)
		pitch := d.regionPitch(name, regions)
		added := 0
		for _, reg := range regions {
			// Narrow regions (macro channel bands) cap the pitch so the
			// staggered grid always lands at least one row.
			p := pitch
			if m := math.Min(reg.W, reg.H) / 2; m > 0 && p > m {
				p = m
			}
			pts := GridPlace(offsetRegion(reg, p), p, macros)
			d.Points = append(d.Points, pts...)
			added += len(pts)
		}
		if added == 0 || len(d.Points) > maxDiscretePillars {
			// The hotspot region cannot absorb more fill (fully
			// macro-covered, or the materialization bound is hit);
			// report how far refinement got.
			return out, nil
		}
		d.PerUnit[name] += added
		d.Field = FieldFromPoints(d.Points, tier.Die, r.NX, r.NY, r.Geometry)
		out.Rounds++
		out.Added += added
		if res, err = d.verify(r); err != nil {
			return nil, err
		}
		out.TMaxC = units.KelvinToCelsius(res.MaxT())
		out.Trace = append(out.Trace, out.TMaxC)
	}
	out.Met = out.TMaxC <= r.TTargetC
	return out, nil
}

// hotspotXY returns the die coordinates of the hottest cell in a
// solved stack.
func hotspotXY(res *stack.Result) (float64, float64) {
	best, bestC := math.Inf(-1), 0
	for c, t := range res.Field.T {
		if t > best {
			best, bestC = t, c
		}
	}
	g := res.Layout.Grid
	i, j, _ := g.Coords(bestC)
	return g.CX(i), g.CY(j)
}

// hotRegions maps a die coordinate to the floorplan regions that can
// accept additional fill: the logic unit under the point, the channel
// ring around a macro, or (off every unit) a one-cell neighborhood of
// the hotspot itself.
func hotRegions(tier *floorplan.Floorplan, x, y float64) (string, []floorplan.Rect) {
	for _, u := range tier.Units {
		if !u.Rect.ContainsPoint(x, y) {
			continue
		}
		if u.IsMacro {
			return u.Name, ringAround(u.Rect, macroHalfWidth(tier), tier.Die)
		}
		return u.Name, []floorplan.Rect{u.Rect}
	}
	// Hotspot over whitespace: densify a die-scale patch around it.
	w := math.Min(tier.Die.W, tier.Die.H) / 8
	patch := floorplan.Rect{X: x - w/2, Y: y - w/2, W: w, H: w}.Intersection(tier.Die)
	return "", []floorplan.Rect{patch}
}

// regionPitch picks the pitch for a refinement round: the realized
// pitch of the unit's existing pillars when it has any, otherwise a
// grid that seeds the region at roughly 8×8.
func (d *DiscretePlacement) regionPitch(name string, regions []floorplan.Rect) float64 {
	area := 0.0
	for _, reg := range regions {
		area += reg.Area()
	}
	if n := d.PerUnit[name]; n > 0 {
		return math.Sqrt(area / float64(n))
	}
	return math.Sqrt(area / 64)
}

// offsetRegion shifts a region by half a pitch in x and y so GridPlace
// yields a staggered grid interleaving the existing one.
func offsetRegion(reg floorplan.Rect, pitch float64) floorplan.Rect {
	out := floorplan.Rect{X: reg.X + pitch/2, Y: reg.Y + pitch/2, W: reg.W - pitch/2, H: reg.H - pitch/2}
	if out.W <= 0 || out.H <= 0 {
		return floorplan.Rect{}
	}
	return out
}

// NearestPillarDistance returns, for a point on the die, the distance
// to the closest placed pillar — the quantity bounded by the
// misalignment analysis (Observation 4c).
func (d *DiscretePlacement) NearestPillarDistance(x, y float64) float64 {
	best := math.Inf(1)
	for _, p := range d.Points {
		dx, dy := p.X-x, p.Y-y
		if r := math.Hypot(dx, dy); r < best {
			best = r
		}
	}
	return best
}

// CoverageHistogram summarizes pillar density per floorplan unit,
// sorted densest first — the per-heat-source view of Fig. 8a's
// pillar overlay.
func (d *DiscretePlacement) CoverageHistogram(f *floorplan.Floorplan, g Geometry) []UnitPlacement {
	var out []UnitPlacement
	for _, u := range f.Units {
		n := d.PerUnit[u.Name]
		if n == 0 {
			continue
		}
		cov := float64(n) * g.Area() / u.Rect.Area()
		up := UnitPlacement{Unit: u.Name, Coverage: cov, Pillars: n}
		if n > 0 {
			up.Pitch = math.Sqrt(u.Rect.Area() / float64(n))
		}
		out = append(out, up)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Coverage > out[j].Coverage })
	return out
}
