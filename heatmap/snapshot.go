package heatmap

import (
	"fmt"

	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/pointloc"
	"rnnheatmap/internal/snapshot"
)

// Snapshot captures the fully built map as a serializable snapshot carrying
// the given server-side map version (use 1 for a freshly built map). The
// snapshot round-trips everything queries and rendering depend on — points,
// NN-circles, region labels, heat values, statistics and the measure's
// context — so a map saved with SaveSnapshot and restored with OpenSnapshot
// answers and renders byte-identically to the original without re-running
// CREST.
//
// Measures built with CustomMeasure cannot be snapshotted: their behavior
// lives in an arbitrary closure. Snapshot returns an error for them.
func (m *Map) Snapshot(mapVersion uint64) (*snapshot.Snapshot, error) {
	spec, err := influence.SpecOf(m.measure)
	if err != nil {
		return nil, fmt.Errorf("heatmap: %w", err)
	}
	m.materialize()
	sum := m.Summary()
	return &snapshot.Snapshot{
		MapVersion:    mapVersion,
		Metric:        m.cfg.Metric,
		Monochromatic: m.cfg.Monochromatic,
		Algorithm:     string(m.cfg.Algorithm),
		Workers:       m.cfg.Workers,
		Measure:       spec,
		Clients:       m.cfg.Clients,
		Facilities:    m.cfg.Facilities,
		Circles:       m.circles,
		Labels:        m.result.Labels,
		MaxHeat:       m.result.MaxHeat,
		MaxLabel:      m.result.MaxLabel,
		Stats:         m.result.Stats,
		Summary:       &sum,
	}, nil
}

// SaveSnapshot atomically writes the map's snapshot to path. The slab
// point-location index is built if needed and stored in the file, so
// OpenSnapshot can serve queries and tiles without a decode or rebuild step
// (with NoSlabIndex, or when the build declines, the file has no slab
// sections and a map opened from it builds its index on first query). The
// file is streamed from the map's own arrays and the index's own slabs,
// heap or mapped file, with no copy of either (snapshot.Encode). A
// map opened from a file that already carries its slab index, saved at the
// file's own map version, has exactly the file's bytes to write: they are
// copied from the mapping, so the map stays "mapped" and nothing is
// materialized or rebuilt; at another version the index opened from the
// file is written back as it is.
func (m *Map) SaveSnapshot(path string, mapVersion uint64) error {
	if m.view != nil && m.view.HasSlabIndex() && m.view.Meta().MapVersion == mapVersion {
		return m.view.WriteFile(path)
	}
	s, err := m.Snapshot(mapVersion)
	if err != nil {
		return err
	}
	// Only the slab index is asked for: a NoSlabIndex map's file has no slab
	// sections, and resolving its point queries would build an R-tree the
	// save never reads.
	var tables *snapshot.SlabTables
	if !m.cfg.NoSlabIndex {
		if ix := m.pointLoc().ix; ix != nil {
			tables = ix.ExportTables()
		}
	}
	return s.WriteFile(path, tables)
}

// SnapshotFormat names a snapshot file layout for SaveSnapshotFormat.
//
// Deprecated: there is one layout; use SaveSnapshot.
type SnapshotFormat uint16

// SnapshotV2 is the one snapshot layout SaveSnapshot writes and
// OpenSnapshot reads.
//
// Deprecated: use SaveSnapshot.
const SnapshotV2 SnapshotFormat = 2

// SaveSnapshotFormat is SaveSnapshot for callers that still name the
// layout: it accepts SnapshotV2 and refuses any other value.
//
// Deprecated: use SaveSnapshot.
func (m *Map) SaveSnapshotFormat(path string, mapVersion uint64, format SnapshotFormat) error {
	if format != SnapshotV2 {
		return fmt.Errorf("heatmap: snapshot format %d is not writable (this build writes only format %d)", format, SnapshotV2)
	}
	return m.SaveSnapshot(path, mapVersion)
}

// OpenSnapshot restores a map from a snapshot file written by SaveSnapshot,
// returning the map version it was saved at. The file is mapped (or read
// once on platforms without mmap) and queries, tiles and metadata resolve
// directly against the validated sections — no decode, no index rebuild:
// the slab index the file stores (pointloc.Open) is the map's index, and
// the map's first ApplyDelta patches it like any other. Operations that
// need heap structures (region enumeration, ApplyDelta, optimal-location
// ranking) materialize them lazily; see (*Map).Residency. A file of another
// format version is refused with an error naming it.
func OpenSnapshot(path string) (*Map, uint64, error) {
	v, err := snapshot.Open(path)
	if err != nil {
		return nil, 0, err
	}
	m, err := fromView(v)
	if err != nil {
		v.Close()
		return nil, 0, err
	}
	return m, m.view.Meta().MapVersion, nil
}

// fromView builds a mapped Map over an open snapshot view, validating the
// header metadata a map needs. The view's lifetime is tied to the map's by
// reachability alone: the map holds the view, the slab index opened over it
// holds it through its lineage, and materialize copies what it takes out of
// the file, so the view is unmapped (its finalizer) once neither the map
// nor an index of its lineage is reachable — a map derived from it by
// ApplyDelta shares the lineage and keeps the file mapped.
func fromView(v *snapshot.View) (*Map, error) {
	meta := v.Meta()
	if !meta.Metric.Valid() {
		return nil, fmt.Errorf("heatmap: snapshot has invalid metric %v", meta.Metric)
	}
	if meta.NumClients == 0 {
		return nil, fmt.Errorf("heatmap: snapshot has no clients")
	}
	if meta.NumCircles != meta.NumClients {
		return nil, fmt.Errorf("heatmap: snapshot has %d circles for %d clients", meta.NumCircles, meta.NumClients)
	}
	measure, err := meta.Measure.Measure()
	if err != nil {
		return nil, fmt.Errorf("heatmap: %w", err)
	}
	m := &Map{
		cfg: Config{
			Monochromatic: meta.Monochromatic,
			Metric:        meta.Metric,
			Measure:       measure,
			Algorithm:     Algorithm(meta.Algorithm),
			Workers:       meta.Workers,
		},
		bounds:  meta.Bounds,
		measure: measure,
		view:    v,
	}
	if meta.HasSlabIndex {
		ix, err := pointloc.Open(v, measure)
		if err != nil {
			return nil, fmt.Errorf("heatmap: %w", err)
		}
		m.setPointLoc(ix)
	}
	return m, nil
}
