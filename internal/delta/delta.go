// Package delta maintains a built Region Coloring result under client and
// facility insertions and deletions without resweeping the whole arrangement.
//
// The paper's CREST (and this repository's reproduction of it) is a
// build-once algorithm: any change to the client set O or facility set F
// invalidates the labels. But an update only perturbs the NN-circles whose
// nearest-facility assignment it changes — inserting a facility shrinks the
// circles that contain it, deleting one grows the circles of the clients it
// served, and client updates touch a single circle — so the dirty part of the
// arrangement is a union of bounded x-intervals. This package computes which
// circles change (a facility insertion re-assigns the clients whose circles
// contain it, found by one exact scan, and the re-assignments use the same
// k-d tree construction as package nncircle), then hands the perturbed
// geometry to core.Resweep, which resweeps just the dirty intervals, interns
// their sets into the state's label pool and splices the relabeled faces
// into the prior label list. The spliced result is identical, label for
// label, to a from-scratch rebuild over the updated sets, whatever share of
// the arrangement the update dirtied. The outcome carries the event list the
// resweep swept and the dirty spans, which is all a slab point-location
// index needs to patch itself (pointloc.Index.Patch).
//
// Deletions use swap-remove semantics: the last element moves into the freed
// slot. That keeps every unrelated index stable and bounds the renumbering
// fallout to one moved element, whose circle is simply reported as perturbed.
package delta

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/kdtree"
	"rnnheatmap/internal/nncircle"
)

// ErrBadDelta marks validation failures: out-of-range indexes, non-finite
// points, or an update that would empty the client or facility set. Callers
// (e.g. the HTTP layer) can errors.Is against it to distinguish caller
// mistakes from internal failures.
var ErrBadDelta = errors.New("delta: invalid delta")

// Delta is one batch of set mutations, applied atomically in field order:
// client removals, then client additions, then facility removals, then
// facility additions. Removal indexes are interpreted sequentially — each
// refers to the slice as left by the preceding removals of the same batch —
// and every removal swap-removes (the last element moves into the freed
// slot). The zero value is a no-op.
type Delta struct {
	AddClients       []geom.Point
	RemoveClients    []int
	AddFacilities    []geom.Point
	RemoveFacilities []int
}

// Empty reports whether the delta performs no mutation.
func (d Delta) Empty() bool {
	return len(d.AddClients) == 0 && len(d.RemoveClients) == 0 &&
		len(d.AddFacilities) == 0 && len(d.RemoveFacilities) == 0
}

// State is a snapshot of the maintained sets together with the labels of the
// current Region Coloring result. Circles must be in client order
// (Circles[i].Client == i), exactly as nncircle.Compute returns them. Apply
// never mutates a State's slices; the outcome carries fresh ones.
type State struct {
	Clients    []geom.Point
	Facilities []geom.Point
	Circles    []nncircle.NNCircle
	Labels     []core.Label
	// Pool is the label pool the resweep interns into: the one pool of the
	// map's lineage (see core.Resweep). Nil, or a pool of another measure,
	// means a fresh pool, which the outcome's State then carries.
	Pool *core.LabelInterner
}

// Options configures an Apply call.
type Options struct {
	// Metric is the distance metric of the maintained map. Required.
	Metric geom.Metric
	// Measure is the influence measure; nil means influence.Size().
	Measure influence.Measure
	// Workers is the sweep parallelism forwarded to the core (0 = GOMAXPROCS).
	Workers int
}

// Stats describes the incremental work one Apply performed.
type Stats struct {
	// ChangedClients is the number of clients whose NN-circle changed
	// (including removed and added ones).
	ChangedClients int
	// Rebuilt reports that the core ran a full sweep instead of splicing:
	// the state had no labels to splice into, or the update left no usable
	// circle.
	Rebuilt bool
	// EventsTotal and EventsReswept are the core's resweep counters.
	EventsTotal, EventsReswept int
	// DirtyRect bounds, in original coordinates, everything the update could
	// have changed: the union of the perturbed circles' bounding rectangles.
	// Empty when the arrangement is unchanged. Tile caches invalidate against
	// it.
	DirtyRect geom.Rect
	// DirtySpans holds the merged sweep-space x-intervals the perturbed
	// circles cover (core.PerturbedSpans) — exactly the intervals the resweep
	// dirtied. The slab point-location index patches only the slabs starting
	// inside them. Nil when the arrangement is unchanged.
	DirtySpans [][2]float64
	// Duration is the wall-clock time of the whole Apply.
	Duration time.Duration
}

// Outcome is the result of one Apply: the new snapshot and the spliced
// Region Coloring result (State.Labels aliases Result.Labels, and
// State.Pool is Result.LabelPool()), with the event list the resweep swept
// (nil when the update left no usable circle).
type Outcome struct {
	State  State
	Result *core.Result
	Events *core.SlabEvents
	Stats  Stats
}

// Apply executes d against st and returns the updated snapshot, with labels
// identical to what a from-scratch core.CREST over the updated sets would
// produce. st is not modified.
//
// One caveat on exactness: when a client is equidistant from two facilities,
// which one an NN query returns depends on k-d tree construction order, so
// the NNCircle.Facility field of an unaffected client may differ from a
// fresh nncircle.Compute after the facility set changed. The circle geometry
// — and therefore every label, heat value and rendered pixel — is unaffected.
func Apply(st State, d Delta, opts Options) (*Outcome, error) {
	return ApplyBatch(st, []Delta{d}, opts)
}

// ApplyBatch executes ds in order against st with ONE merged resweep at the
// end: the set maintenance (steps 1-5) runs per delta — so every removal
// index is interpreted against the sets as the preceding deltas left them,
// exactly as applying the deltas one at a time would — but the perturbed
// circles accumulate across the whole batch and the arrangement is reswept
// once over their union. K deltas therefore cost K cheap set updates plus a
// single splice instead of K splices. The result is identical, label for
// label, to both the one-at-a-time sequence and a from-scratch rebuild.
//
// ApplyBatch is atomic: a validation failure in any delta (see ErrBadDelta)
// fails the whole call and st is untouched — partial application is
// impossible. An empty ds is rejected the same way.
func ApplyBatch(st State, ds []Delta, opts Options) (*Outcome, error) {
	started := time.Now()
	if !opts.Metric.Valid() {
		return nil, fmt.Errorf("delta: invalid metric %v", opts.Metric)
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadDelta)
	}
	for _, d := range ds {
		if err := checkPoints(d.AddClients); err != nil {
			return nil, err
		}
		if err := checkPoints(d.AddFacilities); err != nil {
			return nil, err
		}
	}

	ws := &workState{
		clients:    append([]geom.Point(nil), st.Clients...),
		facilities: append([]geom.Point(nil), st.Facilities...),
		circles:    append([]nncircle.NNCircle(nil), st.Circles...),
	}
	changed := 0
	for di, d := range ds {
		c, err := applyOne(ws, d, opts)
		if err != nil {
			if len(ds) > 1 {
				return nil, fmt.Errorf("op %d: %w", di, err)
			}
			return nil, err
		}
		changed += c
	}

	coreOpts := core.Options{Measure: opts.Measure, Workers: opts.Workers}
	out, err := core.Resweep(ws.circles, coreOpts, st.Labels, ws.perturbed, st.Pool)
	if errors.Is(err, core.ErrNoCircles) && len(ws.circles) > 0 {
		// Every remaining NN-circle is zero-radius — each client sits
		// exactly on a facility, so no location can steal any of them. That
		// is a legitimate (if degenerate) outcome of a legal update, e.g.
		// opening a facility on top of the last influential client: the
		// arrangement is empty, not in error. The sweep cannot represent it
		// (it refuses inputs with no usable circles), so synthesize the
		// empty result here; consumers see zero regions and answer
		// explicitly (heatmap.ErrNoRegions, HTTP 409) instead of the update
		// failing after it was validated.
		out = &core.ResweepOutcome{Result: &core.Result{}, Rebuilt: true}
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}

	dirty := geom.EmptyRect()
	for _, c := range ws.perturbed {
		if c.Radius > 0 {
			dirty = dirty.Union(c.BoundingRect())
		}
	}
	return &Outcome{
		State: State{
			Clients:    ws.clients,
			Facilities: ws.facilities,
			Circles:    ws.circles,
			Labels:     out.Result.Labels,
			Pool:       out.Result.LabelPool(),
		},
		Result: out.Result,
		Events: out.Events,
		Stats: Stats{
			ChangedClients: changed,
			Rebuilt:        out.Rebuilt,
			EventsTotal:    out.EventsTotal,
			EventsReswept:  out.EventsReswept,
			DirtyRect:      dirty,
			DirtySpans:     core.PerturbedSpans(ws.perturbed, opts.Metric),
			Duration:       time.Since(started),
		},
	}, nil
}

// workState is the mutable working copy ApplyBatch threads through its
// deltas: the evolving sets and circles, plus every circle geometry any
// delta perturbed (old and new shapes both — the resweep dirties the union).
type workState struct {
	clients    []geom.Point
	facilities []geom.Point
	circles    []nncircle.NNCircle
	perturbed  []geom.Circle
}

// applyOne performs the set-level maintenance (steps 1-5) for one delta
// against ws, returning how many clients' NN-circles changed.
func applyOne(ws *workState, d Delta, opts Options) (int, error) {
	clients := ws.clients
	facilities := ws.facilities
	circles := ws.circles
	perturbed := ws.perturbed
	needsNN := make(map[int]bool)

	// 1. Client removals.
	for _, i := range d.RemoveClients {
		if i < 0 || i >= len(clients) {
			return 0, fmt.Errorf("%w: client index %d out of range [0, %d)", ErrBadDelta, i, len(clients))
		}
		if len(clients) == 1 {
			return 0, fmt.Errorf("%w: removing the last client", ErrBadDelta)
		}
		perturbed = append(perturbed, circles[i].Circle)
		last := len(clients) - 1
		if i != last {
			clients[i] = clients[last]
			moved := circles[last]
			moved.Client = i
			circles[i] = moved
			// The moved circle is geometrically unchanged but its client was
			// renumbered, so every label naming it must be re-emitted.
			perturbed = append(perturbed, moved.Circle)
		}
		clients = clients[:last]
		circles = circles[:last]
	}

	// 2. Client additions: placeholder circles, resolved in step 5.
	for _, p := range d.AddClients {
		clients = append(clients, p)
		circles = append(circles, nncircle.NNCircle{Client: len(circles)})
		needsNN[len(circles)-1] = true
	}

	// 3. Facility removals: the clients the facility served must be
	// re-assigned; clients of the swap-moved facility only get their index
	// patched (their circle is unchanged).
	for _, j := range d.RemoveFacilities {
		if j < 0 || j >= len(facilities) {
			return 0, fmt.Errorf("%w: facility index %d out of range [0, %d)", ErrBadDelta, j, len(facilities))
		}
		if len(facilities) == 1 {
			return 0, fmt.Errorf("%w: removing the last facility", ErrBadDelta)
		}
		for ci := range circles {
			if circles[ci].Facility == j {
				needsNN[ci] = true
			}
		}
		last := len(facilities) - 1
		if j != last {
			facilities[j] = facilities[last]
			for ci := range circles {
				if circles[ci].Facility == last {
					circles[ci].Facility = j
				}
			}
		}
		facilities = facilities[:last]
	}

	// 4. Facility additions. A client's assignment can only change if the new
	// facility lies inside (or on) its current NN-circle; one exact scan
	// finds those clients. Radii marked stale by an earlier addition in the
	// same delta only over-approximate (circles never grow on insertion),
	// which is safe.
	for _, p := range d.AddFacilities {
		facilities = append(facilities, p)
		for ci := range circles {
			if needsNN[ci] {
				continue
			}
			if opts.Metric.Distance(clients[ci], p) <= circles[ci].Circle.Radius {
				needsNN[ci] = true
			}
		}
	}

	// 5. Re-assign the affected clients against the updated facility set,
	// with exactly the k-d tree construction nncircle.Compute uses, so the
	// updated circles match a from-scratch computation.
	changed := 0
	if len(needsNN) > 0 {
		pts := make([]kdtree.Point, len(facilities))
		for i, f := range facilities {
			pts[i] = kdtree.Point{ID: i, P: f}
		}
		tree := kdtree.Build(pts)
		for _, ci := range sortedKeys(needsNN) {
			nb, ok := tree.Nearest(clients[ci], opts.Metric)
			if !ok {
				return 0, fmt.Errorf("%w: facility set is empty", ErrBadDelta)
			}
			next := nncircle.NNCircle{
				Client:   ci,
				Facility: nb.ID,
				Circle:   geom.NewCircle(clients[ci], nb.Dist, opts.Metric),
			}
			if old := circles[ci]; old.Circle != next.Circle {
				changed++
				perturbed = append(perturbed, old.Circle, next.Circle)
			}
			circles[ci] = next
		}
	}
	changed += len(d.RemoveClients)

	ws.clients = clients
	ws.facilities = facilities
	ws.circles = circles
	ws.perturbed = perturbed
	return changed, nil
}

func checkPoints(ps []geom.Point) error {
	for i, p := range ps {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("%w: point %d is not finite", ErrBadDelta, i)
		}
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
