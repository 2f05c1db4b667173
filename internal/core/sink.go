package core

import (
	"rnnheatmap/internal/geom"
)

// Sink receives the output stream of a Region Coloring engine. The sweep of
// sweep.go is pure control flow: everything observable — the labels, the
// running maximum and the work statistics — is accumulated by the Sink it
// emits into. Decoupling the two is what lets the partition layer
// (partition.go) run one sweep strip per goroutine, each with its own Sink,
// and merge the per-strip results afterwards.
//
// collector is the canonical implementation.
type Sink interface {
	// Label records one region-labeling operation: a representative
	// axis-aligned rectangle contained in a region of the arrangement,
	// together with the region's interned RNN label (see LabelInterner).
	// The label is immutable and shared — implementations may retain it
	// as-is, and must not modify it.
	Label(region geom.Rect, lbl *Interned)
	// AddEvents credits n processed sweep events to the run's statistics.
	// The partition layer calls it once per strip, so the per-strip counts
	// sum to the sequential event count.
	AddEvents(n int)
}

var _ Sink = (*collector)(nil)
