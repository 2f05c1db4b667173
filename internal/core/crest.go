package core

import (
	"errors"

	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// ErrUnsupportedL2Ablation is returned when CREST-A is requested for L2
// circles; the ablation is only defined for the rectilinear sweep.
var ErrUnsupportedL2Ablation = errors.New("core: CREST-A is not defined for the L2 metric")

// CREST solves the Region Coloring problem with the full CREST algorithm
// (Section V of the paper): a left-to-right sweep whose events are the
// vertical sides of the NN-circles, with two optimizations — RNN sets are
// derived incrementally from cached base sets instead of point-enclosure
// queries, and only the pairs inside the merged changed intervals of an
// event are (re-)labeled, so each region of the arrangement is labeled Θ(1)
// times.
//
// The input circles must share a single metric. L-infinity inputs are swept
// directly; L1 inputs are rotated by π/4 into the equivalent L-infinity
// instance (Section VII-B) and representative points are rotated back; L2
// inputs run the same sweep over circular arcs (CRESTL2, Section VII-C).
//
// With more than one worker (Options.Workers) the sweep is partitioned into
// vertical strips executed concurrently (see partition.go); the result is
// identical to the sequential sweep.
func CREST(circles []nncircle.NNCircle, opts Options) (*Result, error) {
	return sweep(circles, opts, false, nil)
}

// CRESTWithSlabs is CREST that also writes the slab decomposition of the
// arrangement into slabs from the same strips (see SlabSink): in sweep
// space, L1 rotated by π/4, naming circles by position among the
// positive-radius ones, with gap labels from the result's LabelPool. The
// labels equal CREST's bit for bit, whether or not slabs declines.
func CRESTWithSlabs(circles []nncircle.NNCircle, opts Options, slabs SlabSink) (*Result, error) {
	return sweep(circles, opts, false, slabs)
}

// CRESTA is the CREST-A ablation of the paper's experiments: the sweep with
// the RNN-computation optimization (no point-enclosure queries) but without
// the changed-interval optimization, so every valid pair of every line
// status is labeled.
func CRESTA(circles []nncircle.NNCircle, opts Options) (*Result, error) {
	return sweep(circles, opts, true, nil)
}

// sweep validates the circles, moves L1 inputs into the rotated sweep
// space, and runs one pass over their events: labels (all pairs with
// labelAll) and, when slabs takes them, slabs.
func sweep(circles []nncircle.NNCircle, opts Options, labelAll bool, slabs SlabSink) (*Result, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	if labelAll && metric == geom.L2 {
		return nil, ErrUnsupportedL2Ablation
	}
	col := newCollector(opts, nil)
	if metric == geom.L1 {
		usable = nncircle.RotateL1ToLInf(usable)
		col.toOriginal = geom.RotateLInfToL1
	}
	p := &pass{circles: usable, events: eventsOf(usable), labels: true, labelAll: labelAll}
	if slabs != nil && slabs.Begin(&SlabEvents{circles: usable, events: p.events}, []SlabRange{{Lo: 0, Hi: len(p.events) - 1}}, col.intern) {
		p.slabs = slabs
	}
	res := p.sweepAll(col)
	res.Stats.Circles = len(usable)
	return res, nil
}
