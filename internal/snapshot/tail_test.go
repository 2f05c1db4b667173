package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rnnheatmap/internal/geom"
)

// drainTail reads every available record, asserting no error.
func drainTail(t *testing.T, tl *Tail) []Record {
	t.Helper()
	var recs []Record
	for {
		rec, ok, err := tl.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return recs
		}
		recs = append(recs, rec)
	}
}

// TestTailTruncationSweep is the shipping-path mirror of TestWALTruncationSweep:
// a tailing reader may observe the log cut at ANY byte offset — a torn append
// caught mid-write, or a crash-truncated tail — and must yield exactly the
// wholly-contained prefix of records with no error. It must then RESUME once
// the missing bytes land: the sweep appends the remainder of the log after the
// first read and asserts the tail picks up every remaining record, never
// skipping or re-reading one.
func TestTailTruncationSweep(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := batchRecords()
	if err := w.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int64{walHeaderLen}
	for _, rec := range want {
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+walFrameLen+int64(len(encodeRecord(rec))))
	}
	if boundaries[len(boundaries)-1] != int64(len(full)) {
		t.Fatalf("boundary arithmetic off: %d != file size %d", boundaries[len(boundaries)-1], len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		cutPath := filepath.Join(dir, fmt.Sprintf("cut_%d.wal", cut))
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenTail(cutPath)
		if err != nil {
			t.Fatalf("cut at %d: OpenTail: %v", cut, err)
		}
		got := drainTail(t, tl)
		wantN := 0
		for wantN < len(want) && boundaries[wantN+1] <= int64(cut) {
			wantN++
		}
		if len(got) != wantN {
			t.Fatalf("cut at %d: tail read %d records, want %d (prefix of whole records)", cut, len(got), wantN)
		}
		if wantN > 0 && !reflect.DeepEqual(got, want[:wantN]) {
			t.Fatalf("cut at %d: tailed records diverge from the committed prefix", cut)
		}
		// The writer finishes the torn append: the same tail must resume at
		// the first un-read record and deliver the rest.
		f, err := os.OpenFile(cutPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(full[cut:]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		rest := drainTail(t, tl)
		tl.Close()
		os.Remove(cutPath)
		if got := append(got, rest...); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: after completing the append, tail delivered %+v, want all %d records exactly once", cut, got, len(want))
		}
	}
}

// TestTailRecordsSince covers the shipping API: resume points, the published
// version cap (write-ahead records must not ship before they are
// acknowledged), the max batch bound, and compaction detection after a WAL
// Reset.
func TestTailRecordsSince(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := []Record{
		{Version: 2, AddClients: []geom.Point{{X: 1, Y: 1}}},
		{Version: 3, RemoveClients: []int{0}},
		{Version: 4, AddFacilities: []geom.Point{{X: 2, Y: 2}}},
		{Version: 5, AddClients: []geom.Point{{X: 3, Y: 3}}},
	}
	if err := w.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	got, err := tl.RecordsSince(1, 5, 0)
	if err != nil {
		t.Fatalf("RecordsSince(1,5): %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("RecordsSince(1,5) = %+v, want all records", got)
	}
	// The cap holds back write-ahead records not yet published.
	got, err = tl.RecordsSince(1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[:2]) {
		t.Errorf("RecordsSince(1,3) = %+v, want first two records", got)
	}
	// max bounds a single fetch; the next fetch resumes where it left off.
	got, err = tl.RecordsSince(2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[1:3]) {
		t.Errorf("RecordsSince(2,5,max=2) = %+v, want records v3,v4", got)
	}
	// Caught up: nothing to ship.
	if got, err := tl.RecordsSince(5, 5, 0); err != nil || got != nil {
		t.Errorf("RecordsSince(5,5) = %+v, %v; want nil, nil", got, err)
	}
	// Snapshot compaction resets the log; a replica resuming from before the
	// snapshot must be told to re-bootstrap.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.RecordsSince(3, 5, 0); !errors.Is(err, ErrCompacted) {
		t.Errorf("RecordsSince after Reset = %v, want ErrCompacted", err)
	}
	// New appends after the reset serve replicas resuming at the snapshot
	// version, and still refuse those from before it.
	after := Record{Version: 6, AddClients: []geom.Point{{X: 9, Y: 9}}}
	if err := w.AppendBatch([]Record{after}); err != nil {
		t.Fatal(err)
	}
	got, err = tl.RecordsSince(5, 6, 0)
	if err != nil {
		t.Fatalf("RecordsSince(5,6) after reset: %v", err)
	}
	if !reflect.DeepEqual(got, []Record{after}) {
		t.Errorf("RecordsSince(5,6) = %+v, want the post-reset record", got)
	}
	if _, err := tl.RecordsSince(3, 6, 0); !errors.Is(err, ErrCompacted) {
		t.Errorf("RecordsSince(3,6) after reset = %v, want ErrCompacted", err)
	}
}

// TestTailSelfHealsAfterResetRegrowth: a Reset followed by enough appends to
// grow the file past the tail's offset must not be mistaken for continuous
// history — the first indexed frame changed, which forces a rescan.
func TestTailSelfHealsAfterResetRegrowth(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch([]Record{{Version: 2, AddClients: []geom.Point{{X: 1, Y: 1}}}}); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if got := drainTail(t, tl); len(got) != 1 {
		t.Fatalf("initial drain read %d records, want 1", len(got))
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	// Regrow past the tail's old offset with records of a different shape.
	regrown := []Record{
		{Version: 3, AddClients: []geom.Point{{X: 4, Y: 4}, {X: 5, Y: 5}}},
		{Version: 4, RemoveClients: []int{0}},
	}
	if err := w.AppendBatch(regrown); err != nil {
		t.Fatal(err)
	}
	got, err := tl.RecordsSince(2, 4, 0)
	if err != nil {
		t.Fatalf("RecordsSince after reset+regrowth: %v", err)
	}
	if !reflect.DeepEqual(got, regrown) {
		t.Errorf("RecordsSince = %+v, want the regrown records", got)
	}
}

// TestWireRecordsRoundTrip: the HTTP shipping codec must round-trip batched
// records and reject torn or damaged streams outright (the wire has no
// resumable-tail semantics — a bad transfer is retried, never half-applied).
func TestWireRecordsRoundTrip(t *testing.T) {
	t.Parallel()
	recs := batchRecords()
	wire := EncodeRecords(recs)
	got, err := ReadRecords(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("wire round trip = %+v, want %+v", got, recs)
	}
	// An empty shipment is a valid, empty stream.
	got, err = ReadRecords(bytes.NewReader(EncodeRecords(nil)))
	if err != nil || len(got) != 0 {
		t.Errorf("empty shipment = %+v, %v; want none, nil", got, err)
	}
	// Every mid-record truncation must error. Cuts landing exactly on a
	// record boundary (including the bare header) are indistinguishable from
	// a complete, shorter shipment and decode as one.
	boundary := map[int]bool{walHeaderLen: true}
	off := walHeaderLen
	for _, rec := range recs {
		off += walFrameLen + len(encodeRecord(rec))
		boundary[off] = true
	}
	for cut := walHeaderLen; cut < len(wire); cut++ {
		if boundary[cut] {
			continue
		}
		if _, err := ReadRecords(bytes.NewReader(wire[:cut])); err == nil {
			t.Fatalf("ReadRecords accepted a stream truncated at byte %d", cut)
		}
	}
	// A flipped payload byte must fail the checksum.
	bad := bytes.Clone(wire)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ReadRecords(bytes.NewReader(bad)); err == nil {
		t.Error("ReadRecords accepted a stream with a corrupt payload")
	}
}
