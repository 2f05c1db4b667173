// Package core implements the Region Coloring algorithms of the paper: the
// CREST sweep-line algorithm for the L-infinity and L1 metrics, the CREST-L2
// variant for the Euclidean metric, the CREST-A ablation (RNN-computation
// optimization only), the baseline grid algorithm of Section IV, and the
// Pruning comparator adapted from Sun et al. [22] used in the L2 experiments.
//
// All algorithms consume NN-circles (see package nncircle) and produce a
// Result: a set of region labels, each carrying the RNN set of the region, a
// representative interior point, and the heat value under a configurable
// influence measure.
//
// The package is structured as engine + sink. One sweep (sweep.go) serves
// every metric: its line status (status.go) is a balanced tree of arcs
// ordered by height at the sweep's current x — the horizontal sides of the
// squares for L-infinity and rotated L1, circular arcs for L2 — and its
// base-set records derive each RNN set from a nearby cached one. It is pure
// control flow emitting labels into a Sink (sink.go). The partition layer
// (partition.go) runs it as independent vertical strips on Options.Workers
// goroutines, merging the per-strip results into an output identical to the
// sequential sweep, and its strips can write a second product, the slab
// decomposition point location is built from (slabs.go), in the same pass;
// the incremental resweep (resweep.go) runs the same strips.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/influence"
	"rnnheatmap/internal/nncircle"
	"rnnheatmap/internal/oset"
)

// Label is one region-labeling operation: a region of the arrangement
// together with its RNN set and heat value.
type Label struct {
	// Region is a representative axis-aligned rectangle contained in the
	// labeled region, expressed in the sweep coordinate system (the original
	// system for L-infinity and L2, the rotated system for L1).
	Region geom.Rect
	// Point is a representative interior point of the region in the original
	// (unrotated) coordinate system.
	Point geom.Point
	// RNN holds the client identifiers of the region's RNN set in ascending
	// order.
	RNN []int
	// Heat is the influence value of the RNN set under the run's measure.
	Heat float64
	// Set is 1 + the id of the RNN set in the id table of the pool the label
	// was emitted into (LabelInterner.ID), or 0 when the label carries no
	// id. Every label of a Result carries its id in Result.LabelPool, and a
	// label a snapshot restores carries its file's pool id, which is the id
	// the file's lineage keeps (NewLabelInternerFrom). An id means nothing
	// outside its own table: a list whose labels all carry ids must take
	// them from one table, and a list assembled from several pools must
	// clear them (readers then key the sets by content).
	Set uint32
}

// Distinct tells apart the RNN sets of one label list: by set id, in a
// dense bitset, when every label of the list carries one (ids of one table,
// see Label.Set), and by content key otherwise. It is not safe for
// concurrent use.
type Distinct struct {
	bits []uint64
	keys map[oset.ContentKey]struct{}
}

// NewDistinct returns a Distinct for labels that has met no set yet.
func NewDistinct(labels []Label) *Distinct {
	bound := uint32(0)
	for i := range labels {
		if labels[i].Set == 0 {
			return &Distinct{keys: make(map[oset.ContentKey]struct{})}
		}
		bound = max(bound, labels[i].Set)
	}
	return &Distinct{bits: make([]uint64, bound/64+1)}
}

// First records the set of l, a label of the list d was made for, and
// reports whether d met it for the first time.
func (d *Distinct) First(l *Label) bool {
	if d.keys != nil {
		k := oset.KeyOf(l.RNN)
		if _, dup := d.keys[k]; dup {
			return false
		}
		d.keys[k] = struct{}{}
		return true
	}
	w, b := l.Set/64, uint64(1)<<(l.Set%64)
	if d.bits[w]&b != 0 {
		return false
	}
	d.bits[w] |= b
	return true
}

// Stats records the work an algorithm performed; the experiment harness
// reports these alongside wall-clock time.
type Stats struct {
	// Circles is the number of NN-circles processed (n).
	Circles int
	// Events is the number of sweep-line events (0 for the baseline).
	Events int
	// Labelings is the number of region-labeling operations (k in the
	// paper's analysis; m for the baseline).
	Labelings int
	// InfluenceCalls counts invocations of the influence measure.
	InfluenceCalls int
	// EnclosureQueries counts point-enclosure queries (baseline only).
	EnclosureQueries int
	// GridCells is the number of grid cells formed (baseline only).
	GridCells int
	// MaxRNNSetSize is the largest RNN set encountered (λ).
	MaxRNNSetSize int
	// StatusWork counts the line status work of a sweep, summed over its
	// strips: insertions, removals and swaps, the nodes visited by seeks,
	// order checks and range walks, and the arcs rebuildBase replays (0 for
	// the baseline and pruning). It depends on the input and the worker
	// count, not on the machine.
	StatusWork int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// Result is the output of a Region Coloring run.
type Result struct {
	// Labels holds every region label emitted, in emission order. Empty when
	// Options.DiscardLabels was set.
	Labels []Label
	// MaxHeat is the largest heat value over all labeled regions.
	MaxHeat float64
	// MaxLabel is a label attaining MaxHeat (always populated, even when
	// labels are discarded).
	MaxLabel Label
	// Stats describes the work performed.
	Stats Stats
	// pool is the label pool of the run (see LabelPool).
	pool *LabelInterner
}

// LabelPool returns the interned-label pool the run emitted into, holding
// every distinct RNN set encountered with its precomputed heat; every label
// of the run carries its set's id in the pool's table (Label.Set). Consumers
// that re-derive per-face labels from the same arrangement — the slab
// point-location builder above all — reuse it instead of re-sorting and
// re-evaluating sets the sweep already interned. Nil when the result was not
// produced by a sweep (e.g. restored from a snapshot).
func (r *Result) LabelPool() *LabelInterner { return r.pool }

// Options configures a Region Coloring run.
type Options struct {
	// Measure is the influence measure; nil means influence.Size().
	Measure influence.Measure
	// DiscardLabels suppresses collection of the label slice. The maximum
	// label and statistics are still produced. Use it for large benchmark
	// runs where only timing and the maximum are needed.
	DiscardLabels bool
	// Workers is the number of concurrent sweep workers used by CREST,
	// CREST-A and CREST-L2 (see partition.go). Zero or negative means
	// "auto": one worker per CPU (runtime.GOMAXPROCS(0)); 1 reproduces the
	// exact sequential sweep. The comparison baselines (Baseline,
	// PruningMax) always run sequentially. The results are identical for
	// every worker count.
	Workers int
}

func (o Options) measure() influence.Measure {
	if o.Measure == nil {
		return influence.Size()
	}
	return o.Measure
}

func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Errors shared by the algorithms.
var (
	// ErrNoCircles is returned when the input contains no usable NN-circles.
	ErrNoCircles = errors.New("core: no NN-circles to process")
	// ErrMixedMetrics is returned when the input circles do not all share
	// one metric.
	ErrMixedMetrics = errors.New("core: NN-circles use mixed metrics")
)

// collector accumulates labels and statistics for a run; it is the canonical
// Sink implementation. All algorithms in the package funnel their labeling
// operations through it so counting and max-tracking behave identically
// everywhere. A collector is not safe for concurrent use: the partition
// layer gives every sweep strip its own collector and merges them.
type collector struct {
	opts    Options
	measure influence.Measure
	// intern is the label pool of the run, shared by every strip collector
	// of a parallel execution (LabelInterner is concurrency-safe).
	intern  *LabelInterner
	res     *Result
	started time.Time
	// toOriginal maps a sweep-space representative point back to the original
	// coordinate system (identity except for the L1 rotation).
	toOriginal func(geom.Point) geom.Point
}

// newCollector returns the outer collector of a run, interning into pool
// when it evaluates the run's measure and into a fresh pool otherwise (nil
// included).
func newCollector(opts Options, pool *LabelInterner) *collector {
	measure := opts.measure()
	if pool == nil || pool.Measure() != measure {
		pool = NewLabelInterner(measure)
	}
	c := &collector{
		opts:       opts,
		measure:    measure,
		intern:     pool,
		res:        &Result{MaxHeat: math.Inf(-1)},
		started:    time.Now(),
		toOriginal: func(p geom.Point) geom.Point { return p },
	}
	return c
}

// newStripCollector derives a per-strip collector from the run's outer
// collector: it shares the label pool and the coordinate mapping but
// accumulates into its own Result, so strips never contend on anything but
// the interner shards.
func newStripCollector(parent *collector) *collector {
	return &collector{
		opts:       parent.opts,
		measure:    parent.measure,
		intern:     parent.intern,
		res:        &Result{MaxHeat: math.Inf(-1)},
		toOriginal: parent.toOriginal,
	}
}

// reserve presizes the label slice for an expected emission volume; a hint,
// not a bound. No-op once emission has started or when labels are discarded.
func (c *collector) reserve(n int) {
	if c.opts.DiscardLabels || n <= 0 || c.res.Labels != nil {
		return
	}
	c.res.Labels = make([]Label, 0, n)
}

// Label records one region-labeling operation. lbl is an interned label
// shared with the pool; its fields are referenced, never copied or modified,
// and the emitted label carries its id in the pool's table, numbered here
// on the set's first labeling if no slab gap numbered it first.
// InfluenceCalls counts labeling operations (one heat consultation per
// label), matching the paper's accounting even though interning evaluates
// each distinct set only once.
func (c *collector) Label(region geom.Rect, lbl *Interned) {
	c.res.Stats.Labelings++
	c.res.Stats.InfluenceCalls++
	heat := lbl.Heat
	if n := len(lbl.RNN); n > c.res.Stats.MaxRNNSetSize {
		c.res.Stats.MaxRNNSetSize = n
	}
	var out Label
	needLabel := !c.opts.DiscardLabels || heat > c.res.MaxHeat
	if needLabel {
		out = Label{
			Region: region,
			Point:  c.toOriginal(region.Center()),
			RNN:    lbl.RNN,
			Heat:   heat,
			Set:    c.intern.ID(lbl) + 1,
		}
	}
	if !c.opts.DiscardLabels {
		c.res.Labels = append(c.res.Labels, out)
	}
	if heat > c.res.MaxHeat {
		c.res.MaxHeat = heat
		c.res.MaxLabel = out
	}
}

// LabelSet interns set and records the labeling — the entry point for the
// non-sweep algorithms (baseline, pruning) that still assemble sets
// per-region. The set is only read.
func (c *collector) LabelSet(region geom.Rect, set *oset.Set) {
	c.Label(region, c.intern.Intern(set))
}

// AddEvents credits n sweep events to the statistics.
func (c *collector) AddEvents(n int) { c.res.Stats.Events += n }

// finish stamps the duration, attaches the label pool and returns the result.
func (c *collector) finish() *Result {
	if math.IsInf(c.res.MaxHeat, -1) {
		c.res.MaxHeat = 0
	}
	c.res.pool = c.intern
	c.res.Stats.Duration = time.Since(c.started)
	return c.res
}

// validateInput checks the circle slice and returns its common metric. Zero
// radius circles (clients co-located with a facility) are reported via the
// second return value so algorithms can skip them: no location can strictly
// capture such a client, and the degenerate squares would otherwise produce
// zero-area slabs.
func validateInput(circles []nncircle.NNCircle) (geom.Metric, []nncircle.NNCircle, error) {
	usable := make([]nncircle.NNCircle, 0, len(circles))
	var metric geom.Metric
	seen := false
	for _, nc := range circles {
		if nc.Circle.Radius <= 0 {
			continue
		}
		if !seen {
			metric = nc.Circle.Metric
			seen = true
		} else if nc.Circle.Metric != metric {
			return 0, nil, ErrMixedMetrics
		}
		usable = append(usable, nc)
	}
	if !seen {
		return 0, nil, ErrNoCircles
	}
	if !metric.Valid() {
		return 0, nil, fmt.Errorf("core: invalid metric %v", metric)
	}
	return metric, usable, nil
}
