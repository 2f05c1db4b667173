package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/snapshot"
)

// The optimal-location endpoints: site selection served straight from the
// labeled arrangement.
//
//	GET  /v1/maps/{map}/optimal    exact MaxBRNN argmax / constrained top-k
//	POST /v1/maps/{map}/optimize   greedy k-facility what-if placement
//
// (and the default-map aliases /v1/optimal, /v1/optimize). /optimal answers
// are exact: the unconstrained top-1 is identical to a brute-force max over
// every labeled region, with face geometry (area, cell count, bounding box)
// recovered from the slab decomposition when available. /optimize is a
// dry-run by default — the greedy placement sequence is computed on
// copy-on-write maps and discarded; commit=true publishes the final map as
// one version bump, write-ahead logged as a single batched record exactly
// like a POST /mutations batch.

// optimalRegionJSON is one candidate region in an /optimal response. Bounds
// is nil when the answer fell back to the label scan (no slab geometry).
type optimalRegionJSON struct {
	Heat   float64   `json:"heat"`
	Point  pointJSON `json:"point"`
	RNN    []int     `json:"rnn"`
	Area   float64   `json:"area"`
	Cells  int       `json:"cells"`
	Bounds *rectJSON `json:"bounds,omitempty"`
}

func toOptimalJSON(regs []heatmap.OptimalRegion) []optimalRegionJSON {
	out := make([]optimalRegionJSON, len(regs))
	for i, r := range regs {
		out[i] = optimalRegionJSON{
			Heat:  r.Heat,
			Point: pointJSON{X: r.Point.X, Y: r.Point.Y},
			RNN:   nonNil(r.RNN),
			Area:  r.Area,
			Cells: r.Cells,
		}
		if r.HasGeometry {
			b := toRectJSON(r.Bounds)
			out[i].Bounds = &b
		}
	}
	return out
}

// parseOptionalInt parses an optional integer query parameter in [min, max],
// returning def when absent.
func parseOptionalInt(r *http.Request, name string, def, min, max int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < min || v > max {
		return 0, &paramError{name: name, want: "an integer in [" + strconv.Itoa(min) + ", " + strconv.Itoa(max) + "]", got: raw}
	}
	return v, nil
}

// parseOptionalFloat parses an optional finite non-negative float query
// parameter, returning 0 (constraint disabled) when absent.
func parseOptionalFloat(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, &paramError{name: name, want: "a finite number >= 0", got: raw}
	}
	return v, nil
}

// parseBBox parses the optional bbox parameter "minx,miny,maxx,maxy".
func parseBBox(r *http.Request) (*geom.Rect, error) {
	raw := r.URL.Query().Get("bbox")
	if raw == "" {
		return nil, nil
	}
	bad := &paramError{name: "bbox", want: `"minx,miny,maxx,maxy" with finite minx <= maxx and miny <= maxy`, got: raw}
	var vs [4]float64
	rest := raw
	for i := range vs {
		part := rest
		if i < 3 {
			var found bool
			part, rest, found = strings.Cut(rest, ",")
			if !found {
				return nil, bad
			}
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, bad
		}
		vs[i] = v
	}
	rect := geom.Rect{MinX: vs[0], MinY: vs[1], MaxX: vs[2], MaxY: vs[3]}
	if rect.MinX > rect.MaxX || rect.MinY > rect.MaxY {
		return nil, bad
	}
	return &rect, nil
}

// paramError is a query-parameter validation failure; every parse helper
// above returns one so the endpoints answer a consistent 400 shape.
type paramError struct{ name, want, got string }

func (e *paramError) Error() string {
	return "query parameter " + strconv.Quote(e.name) + " must be " + e.want + ", got " + strconv.Quote(e.got)
}

// parseConstraints parses the constraint parameters shared by /optimal and
// /optimize: min_area, min_dist, bbox.
func parseConstraints(r *http.Request) (heatmap.OptimalConstraints, error) {
	var cons heatmap.OptimalConstraints
	var err error
	if cons.MinArea, err = parseOptionalFloat(r, "min_area"); err != nil {
		return cons, err
	}
	if cons.MinDist, err = parseOptionalFloat(r, "min_dist"); err != nil {
		return cons, err
	}
	cons.Bounds, err = parseBBox(r)
	return cons, err
}

// handleOptimal serves GET /optimal: the exact max-influence region (k=1,
// the default), or the top-k regions subject to min_area, min_dist and bbox
// constraints. A map with no labeled regions answers 409 — there is no
// optimal location, and fabricating a zero-heat region would be worse than
// saying so.
func (s *Server) handleOptimal(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	k, err := parseOptionalInt(r, "k", 1, 1, s.maxRegions)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cons, err := parseConstraints(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := inst.state()
	regs, err := st.m.OptimalTopK(k, cons)
	switch {
	case errors.Is(err, heatmap.ErrNoRegions):
		writeErrorCode(w, http.StatusConflict, codeNoRegions, "map %q has no labeled regions to optimize over", inst.name)
		return
	case errors.Is(err, heatmap.ErrNeedGeometry):
		writeError(w, http.StatusConflict, "map %q: %v", inst.name, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "computing optimal regions: %v", err)
		return
	}
	inst.optimalQueries.Add(1)
	geometry := "labels"
	if built, _, _ := st.m.SlabIndexStats(); built {
		geometry = "slab"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"map":      inst.name,
		"version":  st.version,
		"k":        k,
		"count":    len(regs),
		"geometry": geometry,
		"regions":  toOptimalJSON(regs),
	})
}

// placementJSON is one step of an /optimize response.
type placementJSON struct {
	Point        pointJSON `json:"point"`
	Heat         float64   `json:"heat"`
	RNN          []int     `json:"rnn"`
	MaxHeatAfter float64   `json:"max_heat_after"`
	Reswept      int       `json:"events_reswept"`
}

// handleOptimize serves POST /optimize: the greedy k-facility what-if
// optimizer. Dry-run by default — the placement sequence is computed on
// copy-on-write maps that are never published; commit=true additionally
// publishes the final map (mutable servers only) as one version bump backed
// by one batched WAL record, so replay reproduces it exactly.
func (s *Server) handleOptimize(inst *mapInstance, w http.ResponseWriter, r *http.Request) {
	k, err := parseOptionalInt(r, "k", 1, 1, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cons, err := parseConstraints(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	commit := false
	if raw := r.URL.Query().Get("commit"); raw != "" {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "query parameter \"commit\" must be a boolean, got %q", raw)
			return
		}
		commit = v
	}
	if commit && !s.mutable {
		writeErrorCode(w, http.StatusForbidden, codeReadOnly, "server is read-only; start heatmapd with -mutable to commit placements (or drop commit=true for a dry run)")
		return
	}
	// What-if exploration needs the delta path even when nothing is
	// published, so the check applies to dry runs too.
	if err := inst.state().m.DeltaSupported(); err != nil {
		writeErrorCode(w, http.StatusConflict, codeImmutableMap, "map %q cannot run the optimizer: %v", inst.name, err)
		return
	}
	// GreedyPlace treats an empty arrangement as "nothing to place" and
	// returns zero steps; at the HTTP surface that is a conflict, not a
	// successful empty optimization.
	if inst.state().m.NumRegions() == 0 {
		writeErrorCode(w, http.StatusConflict, codeNoRegions, "map %q has no labeled regions to optimize over", inst.name)
		return
	}

	started := time.Now()
	if commit {
		s.optimizeCommit(r.Context(), inst, w, k, cons, started)
		return
	}
	st := inst.state()
	steps, _, err := st.m.GreedyPlace(r.Context(), k, cons)
	if err != nil {
		s.writeOptimizeError(inst, w, err)
		return
	}
	s.writeOptimizeResponse(inst, w, st.version, k, steps, false, started)
}

// optimizeCommit recomputes the greedy placement under the writer lock and
// publishes the final map as one version bump: one batched WAL record for
// the whole sequence, tile-cache migration against the union of the steps'
// dirty rectangles. The placement stops when ctx, the request's, is done:
// the lock is released and nothing is published or logged.
func (s *Server) optimizeCommit(ctx context.Context, inst *mapInstance, w http.ResponseWriter, k int, cons heatmap.OptimalConstraints, started time.Time) {
	inst.writeMu.Lock()
	// Re-check membership under the writer lock, as every write path does.
	if s.lookup(inst.name) != inst {
		inst.writeMu.Unlock()
		writeError(w, http.StatusNotFound, "no map named %q", inst.name)
		return
	}
	st := inst.state()
	steps, final, err := st.m.GreedyPlace(ctx, k, cons)
	if err != nil {
		inst.writeMu.Unlock()
		s.writeOptimizeError(inst, w, err)
		return
	}
	if len(steps) == 0 {
		inst.writeMu.Unlock()
		writeError(w, http.StatusConflict, "map %q: no placement satisfies the constraints; nothing to commit", inst.name)
		return
	}
	ns, err := newMapState(final, st.version+1)
	if err != nil {
		inst.writeMu.Unlock()
		writeError(w, http.StatusInternalServerError, "building map state: %v", err)
		return
	}
	// The whole sequence is one record, so replay applies it with
	// ApplyDeltaBatch — byte-identical to the greedy chain — and a crash can
	// never leave half the placements.
	ds := make([]heatmap.Delta, len(steps))
	dirty := geom.EmptyRect()
	for i, step := range steps {
		ds[i] = heatmap.Delta{AddFacilities: []heatmap.Point{step.Point}}
		dirty = dirty.Union(step.Stats.DirtyRect)
	}
	if err := inst.publish(st, ns, dirty, []snapshot.Record{walRecord(ns.version, ds)}); err != nil {
		inst.writeMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "logging placements: %v", err)
		return
	}
	inst.writeMu.Unlock()

	s.writeOptimizeResponse(inst, w, ns.version, k, steps, true, started)
}

// writeOptimizeError maps GreedyPlace failures to HTTP answers.
func (s *Server) writeOptimizeError(inst *mapInstance, w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, heatmap.ErrNoRegions):
		writeErrorCode(w, http.StatusConflict, codeNoRegions, "map %q has no labeled regions to optimize over", inst.name)
	case errors.Is(err, heatmap.ErrNeedGeometry):
		writeError(w, http.StatusConflict, "map %q: %v", inst.name, err)
	default:
		writeError(w, http.StatusInternalServerError, "running optimizer: %v", err)
	}
}

func (s *Server) writeOptimizeResponse(inst *mapInstance, w http.ResponseWriter, version uint64, k int, steps []heatmap.PlacementStep, committed bool, started time.Time) {
	inst.optimizeRuns.Add(1)
	inst.placements.Add(int64(len(steps)))
	out := make([]placementJSON, len(steps))
	totalGain := 0.0
	for i, step := range steps {
		out[i] = placementJSON{
			Point:        pointJSON{X: step.Point.X, Y: step.Point.Y},
			Heat:         step.Heat,
			RNN:          nonNil(step.RNN),
			MaxHeatAfter: step.MaxHeatAfter,
			Reswept:      step.Stats.EventsReswept,
		}
		totalGain += step.Heat
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"map":        inst.name,
		"version":    version,
		"k":          k,
		"placed":     len(steps),
		"committed":  committed,
		"total_gain": totalGain,
		"steps":      out,
		"duration_ms": float64(time.Since(started)) /
			float64(time.Millisecond),
	})
}
