package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rnnheatmap/internal/geom"
)

// goldenWAL is a two-record log byte for byte as the WAL writer has always
// produced it: the 6-byte header ("RNWL", little-endian u16 version 1), a
// single-op record at version 2 and a two-op batched record at version 3.
// Logs on disk and the record stream replicas fetch both have this shape,
// so a change to these bytes strands existing logs and breaks replication
// with nodes running an earlier build.
var goldenWAL = []byte{
	0x52, 0x4e, 0x57, 0x4c, 0x01, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x33, 0x03, 0xb7, 0x85, 0xb6, 0x0e,
	0x75, 0x1d, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00,
	0x00, 0x00, 0xe4, 0x67, 0x7a, 0xaa, 0xc4, 0xcd, 0xe9, 0xbb, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x10, 0x40, 0x00, 0x00, 0x00, 0x00,
}

func goldenRecords() []Record {
	return []Record{
		{Version: 2, AddClients: []geom.Point{{X: 1.5, Y: -2}}, RemoveFacilities: []int{0}},
		BatchRecord(3, []Op{{RemoveClients: []int{1}}, {AddFacilities: []geom.Point{{X: 3, Y: 4}}}}),
	}
}

// TestWALGoldenBytes pins the WAL's on-disk and wire bytes: a fresh log is
// exactly the header, writing the golden records reproduces goldenWAL, the
// golden bytes replay to the same records from a file and from the wire,
// and WriteRecords ships the same bytes the file holds.
func TestWALGoldenBytes(t *testing.T) {
	t.Parallel()
	header := []byte{'R', 'N', 'W', 'L', 0x01, 0x00}
	want := goldenRecords()
	dir := t.TempDir()

	path := filepath.Join(dir, "fresh.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, header) {
		t.Errorf("fresh WAL = % x, want % x", fresh, header)
	}
	if err := w.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, goldenWAL) {
		t.Errorf("WAL bytes diverge from the golden log:\n got % x\nwant % x", written, goldenWAL)
	}

	golden := filepath.Join(dir, "golden.wal")
	if err := os.WriteFile(golden, goldenWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	w, got, err := OpenWAL(golden)
	if err != nil {
		t.Fatalf("OpenWAL on the golden log: %v", err)
	}
	w.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden log replays to %+v, want %+v", got, want)
	}

	var wire bytes.Buffer
	if err := WriteRecords(&wire, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), goldenWAL) {
		t.Errorf("WriteRecords stream diverges from the golden log:\n got % x\nwant % x", wire.Bytes(), goldenWAL)
	}
	got, err = ReadRecords(bytes.NewReader(goldenWAL))
	if err != nil {
		t.Fatalf("ReadRecords on the golden stream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden stream decodes to %+v, want %+v", got, want)
	}
}
