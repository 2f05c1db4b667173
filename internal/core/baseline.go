package core

import (
	"errors"
	"sort"

	"rnnheatmap/internal/enclosure"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// Baseline solves the Region Coloring problem with the baseline algorithm of
// Section IV: every side of every NN-circle is extended across the whole
// arrangement, forming a grid whose cells each lie inside exactly one region;
// the centroid of each cell is then resolved with a point-enclosure query
// against an index over the NN-circles.
//
// The number of grid cells is Θ(n²) in the worst case, so the baseline is
// only practical for small inputs — exactly the behavior the paper's
// experiments demonstrate. L1 inputs are rotated to the equivalent
// L-infinity instance first. The L2 metric is not supported (the paper's
// baseline is defined for the rectilinear case).
func Baseline(circles []nncircle.NNCircle, opts Options) (*Result, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	col := newCollector(opts, nil)
	switch metric {
	case geom.LInf:
		runBaseline(usable, col)
	case geom.L1:
		rotated := nncircle.RotateL1ToLInf(usable)
		col.toOriginal = geom.RotateLInfToL1
		runBaseline(rotated, col)
	case geom.L2:
		return nil, ErrUnsupportedBaselineL2
	}
	col.res.Stats.Circles = len(usable)
	return col.finish(), nil
}

// ErrUnsupportedBaselineL2 is returned when the baseline algorithm is asked
// to process Euclidean NN-circles.
var ErrUnsupportedBaselineL2 = errors.New("core: the baseline grid algorithm supports only the L-infinity and L1 metrics")

func runBaseline(circles []nncircle.NNCircle, col *collector) {
	// Extend every vertical and horizontal side across the arrangement,
	// forming the grid.
	xs := make([]float64, 0, 2*len(circles))
	ys := make([]float64, 0, 2*len(circles))
	for _, nc := range circles {
		c := nc.Circle
		xs = append(xs, c.LeftX(), c.RightX())
		ys = append(ys, c.BottomY(), c.TopY())
	}
	xs = sortedDistinct(xs)
	ys = sortedDistinct(ys)

	// Point-enclosure index over the NN-circles.
	ix := enclosure.NewRTreeIndex(nncircle.Circles(circles))

	set := oset.New()
	col.res.Stats.GridCells = 0
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			cell := geom.Rect{MinX: xs[i], MinY: ys[j], MaxX: xs[i+1], MaxY: ys[j+1]}
			col.res.Stats.GridCells++
			col.res.Stats.EnclosureQueries++
			// Strict containment: a cell interior never touches a circle
			// boundary, so strict and closed containment agree except for
			// degenerate one-ulp cells produced by nearly coinciding sides,
			// where the strict query is the one that matches a real region.
			set.Clear()
			for _, id := range ix.EnclosingStrict(cell.Center()) {
				set.Add(circles[id].Client)
			}
			col.LabelSet(cell, set)
		}
	}
}

// sortedDistinct sorts vals ascending and removes duplicates in place.
func sortedDistinct(vals []float64) []float64 {
	sort.Float64s(vals)
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
