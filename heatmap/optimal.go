package heatmap

import (
	"context"
	"errors"
	"fmt"

	"rnnheatmap/internal/optimal"
)

// Optimal-location API: the exact MaxBRNN argmax, constrained top-k region
// selection, and a greedy k-facility what-if optimizer. All three operate on
// the regions the sweep already labeled — see internal/optimal for the
// ranking and geometry semantics.

// ErrNoRegions reports that the map has no labeled regions to optimize
// over — every NN-circle was degenerate, or deltas removed all clients.
// Returned instead of a fabricated zero-value region.
var ErrNoRegions = errors.New("heatmap: map has no labeled regions")

// ErrNeedGeometry reports that a constraint requiring exact face geometry
// (MinArea) was given but the slab index is unavailable for this map.
var ErrNeedGeometry = optimal.ErrNeedGeometry

// OptimalRegion is one candidate optimal region: a distinct RNN set with its
// heat, a representative interior point, and — when the slab index is
// available — the exact total area, cell count and bounding box of its
// faces. Callers must not mutate RNN; it aliases the map's labels.
type OptimalRegion struct {
	Heat  float64
	RNN   []int
	Point Point
	// HasGeometry reports whether Area, Cells and Bounds were recovered
	// from the slab decomposition; false when the index was disabled or
	// declined to build and the answer fell back to the label scan.
	HasGeometry bool
	Area        float64
	Cells       int
	Bounds      Rect
}

// OptimalConstraints filters candidate regions for OptimalTopK and
// GreedyPlace. The zero value accepts everything.
type OptimalConstraints struct {
	// MinArea drops regions whose exact face area is below the bound;
	// requires the slab index (ErrNeedGeometry otherwise).
	MinArea float64
	// MinDist drops regions whose representative point lies closer than
	// this to any existing facility, under the map's metric.
	MinDist float64
	// Bounds, when non-nil, keeps only regions whose representative point
	// lies inside it (closed).
	Bounds *Rect
}

// Optimal returns the max-influence region exactly — the MaxBRNN argmax.
// The answer is identical (same heat, RNN set and representative point) to
// a brute-force max over Regions(), with geometry attached when the slab
// index is available. ErrNoRegions when the map has no labeled regions.
func (m *Map) Optimal() (OptimalRegion, error) {
	regs, err := m.OptimalTopK(1, OptimalConstraints{})
	if err != nil {
		return OptimalRegion{}, err
	}
	// Unconstrained top-1 of a non-empty map always has an answer.
	return regs[0], nil
}

// OptimalTopK returns the k best regions satisfying cons, best first. Each
// distinct RNN set appears once, represented by its first emitted label;
// sets are ordered by heat descending with ties broken by emission order,
// so with no constraints the first element is exactly the Optimal answer.
// Fewer than k regions may be returned — zero when the constraints filter
// everything out, which is not an error. ErrNoRegions when the map has no
// labeled regions at all.
func (m *Map) OptimalTopK(k int, cons OptimalConstraints) ([]OptimalRegion, error) {
	return m.optimalTopK(k, cons, true)
}

// optimalTopK is OptimalTopK with geometry recovery optional: the greedy
// optimizer skips it on intermediate maps unless a constraint needs it, so
// an unconstrained GreedyPlace never forces slab builds.
func (m *Map) optimalTopK(k int, cons OptimalConstraints, withGeometry bool) ([]OptimalRegion, error) {
	if m.NumRegions() == 0 {
		return nil, ErrNoRegions
	}
	if k < 1 {
		return nil, fmt.Errorf("heatmap: OptimalTopK requires k >= 1, got %d", k)
	}
	// The ranking scans the heap label slice; a mapped map materializes it
	// here (metadata and query serving stay decode-free).
	m.materialize()
	var geo *optimal.Geometry
	if withGeometry || cons.MinArea > 0 {
		geo = m.geometry()
	}
	regs, err := optimal.TopK(m.result.Labels, geo, k, optimal.Constraints{
		MinArea:    cons.MinArea,
		MinDist:    cons.MinDist,
		Facilities: m.cfg.Facilities,
		Metric:     m.cfg.Metric,
		Bounds:     cons.Bounds,
	})
	if err != nil {
		return nil, err
	}
	out := make([]OptimalRegion, len(regs))
	for i, r := range regs {
		out[i] = OptimalRegion{
			Heat:        r.Heat,
			RNN:         r.RNN,
			Point:       r.Point,
			HasGeometry: r.HasGeometry,
			Area:        r.Area,
			Cells:       r.Cells,
			Bounds:      r.Bounds,
		}
	}
	return out, nil
}

// geometry returns the per-set face geometry of the slab index, building
// the index on first use; each set is grouped from the index's cells the
// first time an answer returns it. Nil when the index is disabled or
// declined to build.
func (m *Map) geometry() *optimal.Geometry {
	return m.pointLoc().geo
}

// PlacementStep records one step of a greedy facility placement.
type PlacementStep struct {
	// Point is where the facility was placed: the representative point of
	// the argmax region at that step.
	Point Point
	// Heat is the heat of that region before placement — the influence the
	// new facility captures, i.e. the step's heat gain.
	Heat float64
	// RNN is the region's client set, which becomes the new facility's
	// customer base.
	RNN []int
	// MaxHeatAfter is the map's maximum heat after the placement; the
	// sequence is non-increasing as the best regions are consumed.
	MaxHeatAfter float64
	// Stats reports how much of the arrangement the placement reswept.
	Stats DeltaStats
}

// GreedyPlace runs the greedy what-if optimizer: place a facility at the
// current constrained argmax via ApplyDelta, recompute, repeat, up to k
// placements. It returns the placement sequence and the final what-if map
// (the receiver is never modified). The final map is identical to calling
// ApplyDeltaBatch on the receiver with one AddFacilities delta per reported
// step point.
//
// A step ranks labels, not faces, so the steps defer their slab index
// patches: each map records the ancestor index and the dirty spans since
// it, and patches once, on its first point query or render — the final
// map's, or a MinArea step's for its geometry — exactly as that
// ApplyDeltaBatch would have.
//
// The loop stops early — returning the steps so far — when the map runs out
// of regions or the constraints filter every candidate out. It checks ctx
// before each step and returns ctx.Err() once ctx is done, with no steps and
// no map. Requires DeltaSupported; constraints needing geometry (MinArea)
// require the slab index on the receiver and on every intermediate map.
func (m *Map) GreedyPlace(ctx context.Context, k int, cons OptimalConstraints) ([]PlacementStep, *Map, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("heatmap: GreedyPlace requires k >= 1, got %d", k)
	}
	if err := m.DeltaSupported(); err != nil {
		return nil, nil, err
	}
	cur := m
	steps := make([]PlacementStep, 0, k)
	for len(steps) < k {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		regs, err := cur.optimalTopK(1, cons, cons.MinArea > 0)
		if err != nil {
			if errors.Is(err, ErrNoRegions) {
				break
			}
			return nil, nil, err
		}
		if len(regs) == 0 {
			break
		}
		best := regs[0]
		next, st, err := cur.applyDeltaBatch([]Delta{{AddFacilities: []Point{best.Point}}}, true)
		if err != nil {
			return nil, nil, err
		}
		maxAfter, _ := next.MaxHeat()
		steps = append(steps, PlacementStep{
			Point:        best.Point,
			Heat:         best.Heat,
			RNN:          best.RNN,
			MaxHeatAfter: maxAfter,
			Stats:        st,
		})
		cur = next
	}
	return steps, cur, nil
}
