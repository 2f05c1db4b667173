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
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	var res *Result
	switch metric {
	case geom.LInf, geom.L2:
		res = runEngine(usable, opts, nil, true)
	case geom.L1:
		res = runEngine(nncircle.RotateL1ToLInf(usable), opts, geom.RotateLInfToL1, true)
	}
	res.Stats.Circles = len(usable)
	return res, nil
}

// CRESTA is the CREST-A ablation of the paper's experiments: the sweep with
// the RNN-computation optimization (no point-enclosure queries) but without
// the changed-interval optimization, so every valid pair of every line
// status is labeled.
func CRESTA(circles []nncircle.NNCircle, opts Options) (*Result, error) {
	metric, usable, err := validateInput(circles)
	if err != nil {
		return nil, err
	}
	var res *Result
	switch metric {
	case geom.LInf:
		res = runEngine(usable, opts, nil, false)
	case geom.L1:
		res = runEngine(nncircle.RotateL1ToLInf(usable), opts, geom.RotateLInfToL1, false)
	case geom.L2:
		return nil, ErrUnsupportedL2Ablation
	}
	res.Stats.Circles = len(usable)
	return res, nil
}
