package core

import (
	"math"
	"sort"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
	"rnnheatmap/internal/rtree"
)

// PruningMax finds a maximum-influence region of an L2 arrangement using the
// filter-and-refine comparator adapted from Sun et al. [22], as described in
// Section VII-C of the paper: for every NN-circle it enumerates the possible
// regions formed with the circles overlapping it (each overlapping circle is
// either "inside" or "outside" the candidate region), prunes branches whose
// optimistic influence bound cannot beat the best region found so far, and
// refines surviving candidates by checking that the region actually exists
// in the arrangement.
//
// The enumeration is exponential in the overlap degree in the worst case —
// which is exactly the behavior the paper's Fig. 18 and 19 demonstrate. The
// result contains a single label describing the best region. Pruning with
// the optimistic bound is only applied for measures that are monotone under
// set inclusion (size, weighted, capacity-gain); for other measures every
// candidate is examined.
//
// MaxNodes, when positive, bounds the number of enumeration nodes per seed
// circle; when the budget is exhausted the remaining candidates of that seed
// are resolved directly from the witness points, so the returned maximum is
// still exact.
func PruningMax(circles []nncircle.NNCircle, opts Options, maxNodes int) (*Result, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	if metric != geom.L2 {
		return nil, ErrNotL2
	}
	col := newCollector(opts, nil)
	runPruning(usable, col, maxNodes)
	col.res.Stats.Circles = len(usable)
	return col.finish(), nil
}

// pruner carries the state of one PruningMax run.
type pruner struct {
	circles  []nncircle.NNCircle
	col      *collector
	monotone bool
	maxNodes int
	nodes    int
	aborted  bool
	// witnesses of the current seed: one witness point per distinct set of
	// neighborhood circles containing it, keyed by that set's content key,
	// used by the existence check.
	witnessKeys map[oset.ContentKey]geom.Point
}

func runPruning(circles []nncircle.NNCircle, col *collector, maxNodes int) {
	p := &pruner{circles: circles, col: col, maxNodes: maxNodes}
	switch col.measure.Name() {
	case "size", "weighted", "capacity-gain":
		p.monotone = true
	}
	items := make([]rtree.Item, len(circles))
	for i, nc := range circles {
		items[i] = rtree.Item{ID: i, Rect: nc.Circle.BoundingRect()}
	}
	tree := rtree.BulkLoad(items)

	for seed := range circles {
		// Filter: the circles overlapping the seed are the only ones that can
		// contain a region lying inside the seed.
		var neighbors []int
		tree.Search(circles[seed].Circle.BoundingRect(), func(it rtree.Item) bool {
			j := it.ID
			if j != seed && circles[seed].Circle.Intersects(circles[j].Circle) {
				neighbors = append(neighbors, j)
			}
			return true
		})
		sort.Ints(neighbors)
		p.enumerateSeed(seed, neighbors)
	}
}

// enumerateSeed enumerates the candidate regions inside the seed circle.
func (p *pruner) enumerateSeed(seed int, neighbors []int) {
	p.buildWitnesses(seed, neighbors)
	p.nodes = 0
	p.aborted = false
	in := oset.New(p.circles[seed].Client)
	inCircles := []int{seed}
	p.dfs(seed, neighbors, 0, in, inCircles)
}

// dfs assigns each neighbor to "inside" or "outside" the candidate region.
func (p *pruner) dfs(seed int, neighbors []int, depth int, in *oset.Set, inCircles []int) {
	if p.aborted {
		return
	}
	if p.maxNodes > 0 && p.nodes > p.maxNodes {
		// Budget exhausted: resolve the rest of this seed directly from the
		// witness points so the maximum stays exact, then unwind.
		p.aborted = true
		p.resolveFromWitnesses()
		return
	}
	p.nodes++
	// Prune: even with every remaining neighbor included the branch cannot
	// beat the current best (valid only for monotone measures).
	if p.monotone && !math.IsInf(p.col.res.MaxHeat, -1) {
		optimistic := in.Clone()
		for _, j := range neighbors[depth:] {
			optimistic.Add(p.circles[j].Client)
		}
		if p.col.measure.Influence(optimistic) <= p.col.res.MaxHeat {
			return
		}
	}
	if depth == len(neighbors) {
		// Refine: does a region inside exactly inCircles (and outside every
		// other neighbor) exist in the arrangement?
		if pt, ok := p.regionExists(inCircles); ok {
			region := geom.Rect{MinX: pt.X, MinY: pt.Y, MaxX: pt.X, MaxY: pt.Y}
			p.col.LabelSet(region, in)
		}
		return
	}
	j := neighbors[depth]
	client := p.circles[j].Client
	// Include branch first: for monotone measures this drives the best value
	// up quickly, which is what makes the optimistic-bound pruning effective.
	added := in.Add(client)
	p.dfs(seed, neighbors, depth+1, in, append(inCircles, j))
	if added {
		in.Remove(client)
	}
	p.dfs(seed, neighbors, depth+1, in, inCircles)
}

// buildWitnesses precomputes, for the seed's neighborhood, the candidate
// witness points of every region: pairwise boundary intersections, circle
// centers and topmost points, each perturbed slightly so they fall strictly
// inside the adjacent regions. Each witness is keyed by the exact set of
// neighborhood circles containing it.
func (p *pruner) buildWitnesses(seed int, neighbors []int) {
	group := append([]int{seed}, neighbors...)
	var candidates []geom.Point
	for gi, a := range group {
		ca := p.circles[a].Circle
		candidates = append(candidates, ca.Center, geom.Pt(ca.Center.X, ca.Center.Y+ca.Radius))
		for _, b := range group[gi+1:] {
			candidates = append(candidates, geom.CircleIntersections(ca, p.circles[b].Circle)...)
		}
	}
	// Perturbation scale: small relative to the smallest radius in the group.
	minR := math.Inf(1)
	for _, a := range group {
		if r := p.circles[a].Circle.Radius; r < minR {
			minR = r
		}
	}
	eps := minR * 1e-6
	p.witnessKeys = make(map[oset.ContentKey]geom.Point)
	for _, c := range candidates {
		for _, d := range [...]geom.Point{{X: 0, Y: 0}, {X: eps, Y: 0}, {X: -eps, Y: 0}, {X: 0, Y: eps}, {X: 0, Y: -eps},
			{X: eps, Y: eps}, {X: -eps, Y: eps}, {X: eps, Y: -eps}, {X: -eps, Y: -eps}} {
			pt := c.Add(d)
			if !p.circles[seed].Circle.ContainsStrict(pt) {
				continue
			}
			var key oset.ContentKey
			for _, a := range group {
				if p.circles[a].Circle.ContainsStrict(pt) {
					key = key.Add(a)
				}
			}
			if _, ok := p.witnessKeys[key]; !ok {
				p.witnessKeys[key] = pt
			}
		}
	}
}

// regionExists reports whether the arrangement contains a region lying inside
// exactly the circles of inCircles (within the seed's neighborhood), and if
// so returns an interior witness point.
func (p *pruner) regionExists(inCircles []int) (geom.Point, bool) {
	pt, ok := p.witnessKeys[oset.KeyOf(inCircles)]
	return pt, ok
}

// resolveFromWitnesses labels the region of every witness point of the
// current seed, guaranteeing the maximum over this seed's regions is found
// even when the enumeration budget ran out.
func (p *pruner) resolveFromWitnesses() {
	for _, pt := range p.witnessKeys {
		set := oset.New()
		for _, nc := range p.circles {
			if nc.Circle.ContainsStrict(pt) {
				set.Add(nc.Client)
			}
		}
		region := geom.Rect{MinX: pt.X, MinY: pt.Y, MaxX: pt.X, MaxY: pt.Y}
		p.col.LabelSet(region, set)
	}
}
