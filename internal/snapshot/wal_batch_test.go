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

// batchRecords is a WAL history of batched records: each one carries several
// ops (first op in the legacy flat fields, the rest in Extra).
func batchRecords() []Record {
	return []Record{
		BatchRecord(2, []Op{
			{AddClients: []geom.Point{{X: 5, Y: 6}}},
			{RemoveClients: []int{0}, AddFacilities: []geom.Point{{X: 1, Y: 2}}},
		}),
		BatchRecord(3, []Op{
			{RemoveFacilities: []int{1}},
		}),
		BatchRecord(4, []Op{
			{AddClients: []geom.Point{{X: 7, Y: 7}, {X: 8, Y: 8}}},
			{RemoveClients: []int{1, 0}},
			{AddFacilities: []geom.Point{{X: 3, Y: 3}}, RemoveFacilities: []int{0}},
		}),
	}
}

func TestRecordOpsRoundTrip(t *testing.T) {
	t.Parallel()
	ops := []Op{
		{AddClients: []geom.Point{{X: 1, Y: 2}}},
		{RemoveClients: []int{3}, RemoveFacilities: []int{1}},
		{},
	}
	rec := BatchRecord(9, ops)
	if got := rec.Ops(); !reflect.DeepEqual(got, ops) {
		t.Errorf("BatchRecord(9, ops).Ops() = %+v, want %+v", got, ops)
	}
	dec, err := decodeRecord(encodeRecord(rec))
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if !reflect.DeepEqual(dec, rec) {
		t.Errorf("round trip = %+v, want %+v", dec, rec)
	}
	// A single-op record must encode with no suffix at all: byte-identical
	// to the pre-batching format, so old builds can read new single-op logs
	// and the format version stays at 1.
	single := Record{Version: 2, AddClients: []geom.Point{{X: 5, Y: 6}}, RemoveClients: []int{1}}
	withEmptyExtra := single
	withEmptyExtra.Extra = []Op{}
	if !bytes.Equal(encodeRecord(single), encodeRecord(withEmptyExtra)) {
		t.Error("empty Extra changes the encoding of a single-op record")
	}
	legacy := encodeRecord(single)
	got, err := decodeRecord(legacy)
	if err != nil {
		t.Fatalf("decoding legacy payload: %v", err)
	}
	if got.Extra != nil {
		t.Errorf("legacy payload decoded with Extra = %+v, want nil", got.Extra)
	}
}

func TestDecodeRecordRejectsTrailingGarbage(t *testing.T) {
	t.Parallel()
	rec := BatchRecord(2, []Op{{AddClients: []geom.Point{{X: 1, Y: 1}}}, {RemoveClients: []int{0}}})
	payload := append(encodeRecord(rec), 0xAB)
	if _, err := decodeRecord(payload); err == nil {
		t.Error("decodeRecord accepted a payload with trailing bytes after the suffix")
	}
}

func TestWALAppendBatchReopen(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(nil); err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
	want := batchRecords()
	// One group commit for the first two records, a plain append for the
	// third: the on-disk format must not care how records were grouped.
	if err := w.AppendBatch(want[:2]); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := w.AppendBatch([]Record{want[2]}); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	w.Close()

	w2, got, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed records = %+v, want %+v", got, want)
	}
}

// errInjected marks failures produced by the faulting walFile wrappers.
var errInjected = errors.New("injected fault")

// faultFile wraps a real walFile and fails Write/Sync/Truncate on demand.
// shortWrite makes the first failing Write persist a prefix of the buffer
// first — the worst case for a group commit: bytes of a half-written batch
// already sit in the file when the error surfaces.
type faultFile struct {
	walFile
	failWrite  bool
	shortWrite int // bytes to persist before failing, when failWrite is set
	failSync   bool
	failTrunc  bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.failWrite {
		n := min(f.shortWrite, len(p))
		if n > 0 {
			if _, err := f.walFile.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		return n, errInjected
	}
	return f.walFile.Write(p)
}

func (f *faultFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.walFile.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTrunc {
		return errInjected
	}
	return f.walFile.Truncate(size)
}

// TestWALAppendBatchFaultRollback injects Write and Sync failures mid
// group-commit and asserts the contract: the failed batch leaves no trace —
// the log replays to exactly the records acknowledged before it, and stays
// appendable.
func TestWALAppendBatchFaultRollback(t *testing.T) {
	t.Parallel()
	recs := batchRecords()
	for _, tc := range []struct {
		name  string
		fault faultFile
	}{
		{name: "write fails clean", fault: faultFile{failWrite: true}},
		{name: "write fails after a partial frame", fault: faultFile{failWrite: true, shortWrite: walFrameLen + 3}},
		{name: "sync fails with bytes written", fault: faultFile{failSync: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "m.wal")
			w, _, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.AppendBatch([]Record{recs[0]}); err != nil {
				t.Fatal(err)
			}
			fault := tc.fault
			fault.walFile = w.f
			w.f = &fault
			if err := w.AppendBatch(recs[1:]); !errors.Is(err, errInjected) {
				t.Fatalf("AppendBatch with injected fault = %v, want errInjected", err)
			}
			// Heal the file and append again: the rollback must have left a
			// clean log positioned at its pre-batch end.
			w.f = fault.walFile
			if err := w.AppendBatch([]Record{recs[2]}); err != nil {
				t.Fatalf("append after rollback: %v", err)
			}
			w.Close()
			_, got, err := OpenWAL(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			want := []Record{recs[0], recs[2]}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("after faulted batch, log replays %+v, want %+v", got, want)
			}
		})
	}
}

// TestWALAppendBatchPoisonedOnFailedRollback: when the rollback truncate
// itself fails, the log must refuse further appends (orphaned bytes would
// corrupt replay) until Reset re-establishes a clean file.
func TestWALAppendBatchPoisonedOnFailedRollback(t *testing.T) {
	t.Parallel()
	recs := batchRecords()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fault := &faultFile{walFile: w.f, failSync: true, failTrunc: true}
	w.f = fault
	if err := w.AppendBatch(recs[:2]); !errors.Is(err, errInjected) {
		t.Fatalf("AppendBatch = %v, want errInjected", err)
	}
	w.f = fault.walFile
	if err := w.AppendBatch([]Record{recs[2]}); err == nil {
		t.Fatal("append on a poisoned log succeeded")
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := w.AppendBatch([]Record{recs[2]}); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
}

// TestWALTruncationSweep is the exhaustive kill -9 proof for group commit:
// a crash can cut the file at ANY byte offset, and whatever survives must
// open cleanly and replay a prefix of whole records — never a torn batch,
// never an error. The sweep tries every possible cut of a log holding three
// group-committed multi-op records.
func TestWALTruncationSweep(t *testing.T) {
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
	// Record boundaries: after the header, each record occupies frame +
	// payload bytes.
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
		w2, got, err := OpenWAL(cutPath)
		if err != nil {
			t.Fatalf("cut at %d: OpenWAL: %v", cut, err)
		}
		w2.Close()
		os.Remove(cutPath)
		wantN := 0
		for wantN < len(want) && boundaries[wantN+1] <= int64(cut) {
			wantN++
		}
		if len(got) != wantN {
			t.Fatalf("cut at %d: replayed %d records, want %d (prefix of whole records)", cut, len(got), wantN)
		}
		if wantN > 0 && !reflect.DeepEqual(got, want[:wantN]) {
			t.Fatalf("cut at %d: replayed records diverge from the committed prefix", cut)
		}
	}
}
