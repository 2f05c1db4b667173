package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/core"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/optimal"
	"rnnheatmap/internal/pointloc"
	"rnnheatmap/internal/render"
	"rnnheatmap/internal/snapshot"
)

// The replays below repeat, call for call, the exported layer calls the
// handlers make for one request. They run on the benchmark's own copies of
// the inputs and maps, right after the request returned, so the request's
// self time is its latency minus these spans.

// built is one map as the create replay leaves it, plus the NN-circles and
// sweep result the optimal replay reuses.
type built struct {
	m       *heatmap.Map
	circles []nncircle.NNCircle
	res     *core.Result
}

// replayCreate replays what POST /v1/maps does with an input: heatmap.Build
// (whose nncircle.Compute and core sweep are replayed as its children), the
// first Renderer() call of the new map (which builds the slab index),
// Summary(), and the v2 snapshot save. Input preparation of the served map
// makes the same calls, so it is traced with the same replay.
func replayCreate(tr *tracer, parent, req int, in *mapInput, savePath string) (*built, error) {
	cfg := in.config()
	var b built
	var err error
	bid := tr.call("heatmap.build", parent, req, func() { b.m, err = heatmap.Build(cfg) })
	if err != nil {
		return nil, err
	}
	tr.call("nncircle.compute", bid, req, func() { b.circles, err = nncircle.Compute(cfg.Clients, cfg.Facilities, cfg.Metric) })
	if err != nil {
		return nil, err
	}
	cid := tr.call("core.sweep", bid, req, func() {
		b.res, err = core.CREST(b.circles, core.Options{Measure: influence.Size(), Workers: cfg.Workers})
	})
	if err != nil {
		return nil, err
	}
	tr.count(cid, "events", float64(b.res.Stats.Events))
	tr.count(cid, "labelings", float64(b.res.Stats.Labelings))
	pid := tr.call("pointloc.build", parent, req, func() { _, err = b.m.Renderer() })
	if err != nil {
		return nil, err
	}
	_, _, cells := b.m.SlabIndexStats()
	tr.count(pid, "cells", float64(cells))
	tr.call("postprocess.summarize", parent, req, func() { b.m.Summary() })
	sid := tr.call("snapshot.save", parent, req, func() { err = b.m.SaveSnapshotFormat(savePath, 1, heatmap.SnapshotV2) })
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(savePath)
	if err != nil {
		return nil, err
	}
	tr.count(sid, "mb", float64(fi.Size())/1e6)
	return &b, nil
}

// replayOptimal replays GET /optimal?k=10 on a fresh map: the handler's
// OptimalTopK groups the slab index's cells into per-set geometry (once per
// map) and then ranks. The map's own index is private, so the geometry span
// runs optimal.FromIndex over an identical index built untimed from the
// same circles and label pool; the rank span is a repeated OptimalTopK with
// the geometry already memoized.
func replayOptimal(tr *tracer, parent, req int, b *built) error {
	ix, err := pointloc.Build(b.circles, influence.Size(), pointloc.Options{Pool: b.res.LabelPool()})
	if err != nil {
		return err
	}
	tr.call("optimal.geometry", parent, req, func() { optimal.FromIndex(ix) })
	if _, err := b.m.OptimalTopK(10, heatmap.OptimalConstraints{}); err != nil {
		return err
	}
	tr.call("optimal.rank", parent, req, func() { _, err = b.m.OptimalTopK(10, heatmap.OptimalConstraints{}) })
	return err
}

// replayOptimize replays a dry-run POST /optimize: per greedy step, the
// unconstrained argmax ranking (optimal.TopK over the map's labels, without
// geometry) and the ApplyDelta that places the facility at the step's point.
func replayOptimize(tr *tracer, parent, req int, b *built, points []geom.Point) error {
	cur := b.m
	for _, p := range points {
		regs := cur.Regions()
		labels := make([]core.Label, len(regs))
		for i, r := range regs {
			labels[i] = core.Label{RNN: r.RNN, Heat: r.Heat, Point: r.Point}
		}
		var err error
		tr.call("optimal.greedy_rank", parent, req, func() { _, err = optimal.TopK(labels, nil, 1, optimal.Constraints{}) })
		if err != nil {
			return err
		}
		var next *heatmap.Map
		var st heatmap.DeltaStats
		did := tr.call("delta.apply", parent, req, func() {
			next, st, err = cur.ApplyDelta(heatmap.Delta{AddFacilities: []geom.Point{p}})
		})
		if err != nil {
			return err
		}
		tr.count(did, "resweep_share", share(st.EventsReswept, st.EventsTotal))
		cur = next
	}
	return nil
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// tileView is what the server derives per map version to render tiles: the
// renderer, the square tile grid around the renderer's bounds and the
// map-wide normalization range.
type tileView struct {
	rd     *render.Renderer
	world  geom.Rect
	lo, hi float64
}

// newTileView mirrors the server's per-version tile state (newMapState,
// newGrid, heatRange), so replayed tiles are byte-identical to served ones.
func newTileView(m *heatmap.Map) (*tileView, error) {
	rd, err := m.Renderer()
	if err != nil {
		return nil, err
	}
	b := rd.Bounds()
	side := math.Max(b.Width(), b.Height())
	v := &tileView{rd: rd, world: geom.RectFromCenter(b.Center(), side/2)}
	sum := m.Summary()
	v.lo, _ = m.HeatAt(m.Bounds().Expand(1).Corners()[0])
	v.hi = v.lo
	if sum.Count > 0 {
		v.lo = math.Min(v.lo, sum.MinHeat)
		v.hi = math.Max(v.hi, sum.MaxHeat)
	}
	return v, nil
}

func (v *tileView) bounds(z, x, y int) geom.Rect {
	n := float64(uint64(1) << z)
	side := v.world.Width() / n
	minX := v.world.MinX + float64(x)*side
	maxY := v.world.MaxY - float64(y)*side
	return geom.Rect{MinX: minX, MinY: maxY - side, MaxX: minX + side, MaxY: maxY}
}

// replayTile replays a tile miss: rasterize the tile's rectangle, then
// encode it as PNG against the map-wide range. It returns the PNG bytes.
func replayTile(tr *tracer, parent, req int, v *tileView, t [3]int, px int) ([]byte, error) {
	var raster *render.Raster
	var err error
	tr.call("render.raster", parent, req, func() { raster, err = v.rd.Render(v.bounds(t[0], t[1], t[2]), px, px) })
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tr.call("render.png", parent, req, func() { err = raster.WritePNGScaled(&buf, render.Grayscale, v.lo, v.hi) })
	return buf.Bytes(), err
}

// walRecord frames a write request's ops exactly as the server's ingest
// path logs them: one batched record per request.
func walRecord(version uint64, ds []heatmap.Delta) snapshot.Record {
	ops := make([]snapshot.Op, len(ds))
	for i, d := range ds {
		ops[i] = snapshot.Op{
			AddClients:       d.AddClients,
			RemoveClients:    d.RemoveClients,
			AddFacilities:    d.AddFacilities,
			RemoveFacilities: d.RemoveFacilities,
		}
	}
	return snapshot.BatchRecord(version, ops)
}

// replayCommit replays one group commit of a single write request:
// ApplyDeltaBatch, the new map's first Renderer() call (a slab build unless
// the index was patched forward), Summary(), and the WAL append with its
// fsync. It returns the new map.
func replayCommit(tr *tracer, parent, req int, m *heatmap.Map, ds []heatmap.Delta, wal *snapshot.WAL, version uint64) (*heatmap.Map, error) {
	var next *heatmap.Map
	var st heatmap.DeltaStats
	var err error
	did := tr.call("delta.apply", parent, req, func() { next, st, err = m.ApplyDeltaBatch(ds) })
	if err != nil {
		return nil, err
	}
	tr.count(did, "resweep_share", share(st.EventsReswept, st.EventsTotal))
	patched, _, _ := next.SlabIndexStats()
	tr.count(did, "patched", b2f(patched))
	pid := tr.call("pointloc.build", parent, req, func() { _, err = next.Renderer() })
	if err != nil {
		return nil, err
	}
	_, _, cells := next.SlabIndexStats()
	tr.count(pid, "cells", float64(cells))
	tr.call("postprocess.summarize", parent, req, func() { next.Summary() })
	rec := walRecord(version, ds)
	tr.call("snapshot.wal_append", parent, req, func() { err = wal.AppendBatch([]snapshot.Record{rec}) })
	return next, err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// layerDef maps a per-layer metric onto the spans it is measured at.
type layerDef struct {
	metric string
	span   string
	kind   string // "ms", "us" (self time), "allocs" (self), "count" (median), "mean" (mean)
	key    string // counter key for count and mean
	unit   string
}

var layerDefs = []layerDef{
	{"nncircle.compute_ms", "nncircle.compute", "ms", "", "ms"},
	{"core.sweep_ms", "core.sweep", "ms", "", "ms"},
	{"core.sweep_allocs", "core.sweep", "allocs", "", "count"},
	{"core.events", "core.sweep", "count", "events", "count"},
	{"core.labelings", "core.sweep", "count", "labelings", "count"},
	{"heatmap.build_self_ms", "heatmap.build", "ms", "", "ms"},
	{"pointloc.build_ms", "pointloc.build", "ms", "", "ms"},
	{"pointloc.build_allocs", "pointloc.build", "allocs", "", "count"},
	{"pointloc.cells", "pointloc.build", "count", "cells", "count"},
	{"pointloc.patch_share", "delta.apply", "mean", "patched", "share"},
	{"postprocess.summarize_ms", "postprocess.summarize", "ms", "", "ms"},
	{"postprocess.summarize_allocs", "postprocess.summarize", "allocs", "", "count"},
	{"snapshot.save_ms", "snapshot.save", "ms", "", "ms"},
	{"snapshot.save_mb", "snapshot.save", "count", "mb", "MB"},
	{"snapshot.open_ms", "snapshot.open", "ms", "", "ms"},
	{"snapshot.wal_append_ms", "snapshot.wal_append", "ms", "", "ms"},
	{"delta.apply_ms", "delta.apply", "ms", "", "ms"},
	{"delta.apply_allocs", "delta.apply", "allocs", "", "count"},
	{"delta.resweep_share", "delta.apply", "count", "resweep_share", "share"},
	{"optimal.geometry_ms", "optimal.geometry", "ms", "", "ms"},
	{"optimal.rank_ms", "optimal.rank", "ms", "", "ms"},
	{"optimal.rank_allocs", "optimal.rank", "allocs", "", "count"},
	{"optimal.greedy_rank_ms", "optimal.greedy_rank", "ms", "", "ms"},
	{"pointloc.query_us", "pointloc.query", "us", "", "us"},
	{"pointloc.batch_us", "pointloc.batch", "us", "", "us"},
	{"render.raster_ms", "render.raster", "ms", "", "ms"},
	{"render.png_ms", "render.png", "ms", "", "ms"},
}

// layerMetrics computes every per-layer metric whose spans the run
// recorded, plus server.self_ms over the timed request spans, and names the
// layer metrics this workload does not exercise.
func layerMetrics(tr *tracer) (out []metric, absent []string) {
	groups := tr.byName()
	for _, d := range layerDefs {
		g := groups[d.span]
		if g == nil {
			absent = append(absent, d.metric)
			continue
		}
		if (d.kind == "count" || d.kind == "mean") && len(g.counts[d.key]) == 0 {
			absent = append(absent, d.metric)
			continue
		}
		m := metric{name: d.metric, unit: d.unit}
		switch d.kind {
		case "ms":
			m.value, m.n = median(g.selfUS)/1000, len(g.selfUS)
		case "us":
			m.value, m.n = median(g.selfUS), len(g.selfUS)
		case "allocs":
			m.value, m.n = median(g.allocs), len(g.allocs)
		case "count":
			m.value, m.n = median(g.counts[d.key]), len(g.counts[d.key])
		case "mean":
			vs := g.counts[d.key]
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			m.value, m.n = sum/float64(len(vs)), len(vs)
		}
		out = append(out, m)
	}
	// server.self_ms: request latency minus the summed layer spans of the
	// same inputs, over every timed request.
	us, _ := tr.self()
	var self []float64
	perClass := map[string][]float64{}
	for i, s := range tr.spans {
		if s.Req < 0 || !strings.HasPrefix(s.Name, "request.") || s.Name == "request.check" {
			continue
		}
		self = append(self, us[i]/1000)
		perClass[s.Name] = append(perClass[s.Name], us[i]/1000)
	}
	out = append(out, metric{name: "server.self_ms", value: median(self), unit: "ms", n: len(self)})
	classes := make([]string, 0, len(perClass))
	for c := range perClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		name := "server.self_ms." + strings.TrimPrefix(c, "request.")
		out = append(out, metric{name: name, value: median(perClass[c]), unit: "ms", n: len(perClass[c])})
	}
	return out, absent
}

// overheadMetrics reports tracing overhead: per class and over all timed
// requests, the traced run's median latency minus the untraced one's, on
// the same one-stream script.
func overheadMetrics(script []*request, untraced, traced []response) []metric {
	byClass := func(res []response) (map[string][]float64, []float64) {
		m := map[string][]float64{}
		var all []float64
		for i, rq := range script {
			if !rq.timed() {
				continue
			}
			v := ms(res[i].latency)
			m[rq.class] = append(m[rq.class], v)
			all = append(all, v)
		}
		return m, all
	}
	u, uAll := byClass(untraced)
	t, tAll := byClass(traced)
	out := []metric{{name: "trace.overhead_ms", value: median(tAll) - median(uAll), unit: "ms", n: len(tAll)}}
	classes := make([]string, 0, len(u))
	for c := range u {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		out = append(out, metric{name: "trace.overhead_ms." + c, value: median(t[c]) - median(u[c]), unit: "ms", n: len(t[c])})
	}
	return out
}

func absentNote(absent []string) string {
	if len(absent) == 0 {
		return ""
	}
	return fmt.Sprintf("  layers not on this workload's path: %s", strings.Join(absent, " "))
}
