package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tailWAL writes the batch-record fixture to a fresh WAL and returns its
// path plus the raw file bytes.
func tailWAL(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(batchRecords()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// TestTailOpenAndAccessors: OpenTail on a missing file errors; Path and Stat
// describe the open log (Stat is the os.SameFile handle the server's tail
// cache uses to notice a deleted-and-recreated map).
func TestTailOpenAndAccessors(t *testing.T) {
	t.Parallel()
	if _, err := OpenTail(filepath.Join(t.TempDir(), "absent.wal")); err == nil {
		t.Fatal("OpenTail on a missing file succeeded")
	}
	path, _ := tailWAL(t)
	tl, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if tl.Path() != path {
		t.Errorf("Path = %q, want %q", tl.Path(), path)
	}
	fi, err := tl.Stat()
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	di, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(fi, di) {
		t.Error("Stat does not name the on-disk log")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	w, _, err := OpenWAL(path) // recreate under the same name: new inode
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	di2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(fi, di2) {
		t.Error("recreated log reported as the same file; replacement detection would never fire")
	}
}

// TestTailHeaderErrors: a log whose 6-byte header is damaged is reported as
// not-a-WAL, not silently tailed; a header from a future format version is
// refused; a file shorter than the header is "nothing yet".
func TestTailHeaderErrors(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	write := func(name string, raw []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	_, raw := tailWAL(t)

	bad := append([]byte(nil), raw...)
	copy(bad[:4], "NOPE")
	tl, err := OpenTail(write("magic.wal", bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tl.Next(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: Next err = %v, want a bad-magic error", err)
	}
	tl.Close()

	future := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(future[4:6], walVersion+1)
	tl, err = OpenTail(write("future.wal", future))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tl.Next(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: Next err = %v, want a version error", err)
	}
	tl.Close()

	tl, err = OpenTail(write("stub.wal", raw[:walHeaderLen-2]))
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok, err := tl.Next(); ok || err != nil {
		t.Errorf("short header: Next = (%+v, %v, %v), want nothing-yet", rec, ok, err)
	}
	tl.Close()
}

// TestTailCorruptionErrors: bit rot in a frame header, an absurd declared
// length, and payload damage with records following are all hard errors —
// only damage at the very end of the log reads as a resumable torn append.
func TestTailCorruptionErrors(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, raw := tailWAL(t)
	next := func(name string, mutate func(b []byte)) (Record, bool, error) {
		b := append([]byte(nil), raw...)
		mutate(b)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenTail(p)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Close()
		return tl.Next()
	}

	if _, _, err := next("headcrc.wal", func(b []byte) {
		b[walHeaderLen+8] ^= 0xFF // frame-header CRC of record 1
	}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("frame-header bit rot: err = %v, want corruption", err)
	}

	if _, _, err := next("length.wal", func(b []byte) {
		binary.LittleEndian.PutUint32(b[walHeaderLen:], maxSliceLen+1)
		crc := crc32.ChecksumIEEE(b[walHeaderLen : walHeaderLen+8])
		binary.LittleEndian.PutUint32(b[walHeaderLen+8:], crc)
	}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("oversized declared length: err = %v, want corruption", err)
	}

	if _, _, err := next("midrot.wal", func(b []byte) {
		b[walHeaderLen+walFrameLen] ^= 0xFF // first payload byte of record 1
	}); err == nil || !strings.Contains(err.Error(), "records following") {
		t.Errorf("mid-log payload rot: err = %v, want records-following corruption", err)
	}

	// The same payload damage on the FINAL record is indistinguishable from a
	// torn append still being written: nothing-yet, no error. Walk the frames
	// to find the final record's payload start.
	tailStart := 0
	for off := walHeaderLen; tailStart == 0; {
		l := int(binary.LittleEndian.Uint32(raw[off:]))
		if off+walFrameLen+l == len(raw) {
			tailStart = off + walFrameLen
		} else {
			off += walFrameLen + l
		}
	}
	tl, err := OpenTail(func() string {
		b := append([]byte(nil), raw...)
		b[tailStart] ^= 0xFF
		p := filepath.Join(dir, "tailrot.wal")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got := 0
	for {
		_, ok, err := tl.Next()
		if err != nil {
			t.Fatalf("final-record damage must read as torn, got error after %d records: %v", got, err)
		}
		if !ok {
			break
		}
		got++
	}
	if want := len(batchRecords()) - 1; got != want {
		t.Errorf("read %d records before the damaged tail, want %d", got, want)
	}
}

// TestWireRecordsErrors: every way a shipped WAL stream can be damaged in
// flight — wrong magic, future version, truncation at frame and payload
// boundaries, CRC mismatches, an absurd length — is a hard decode error (the
// wire carries whole responses; there is no resumable torn tail), and a
// writer failure surfaces from WriteRecords.
func TestWireRecordsErrors(t *testing.T) {
	t.Parallel()
	recs := batchRecords()
	wire := EncodeRecords(recs)

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   string
	}{
		{"empty", func(b []byte) []byte { return nil }, "header"},
		{"bad magic", func(b []byte) []byte { copy(b[:4], "NOPE"); return b }, "magic"},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], walVersion+1)
			return b
		}, "version"},
		{"truncated frame", func(b []byte) []byte { return b[:walHeaderLen+walFrameLen-3] }, "truncated frame"},
		{"truncated payload", func(b []byte) []byte { return b[:walHeaderLen+walFrameLen+2] }, "truncated payload"},
		{"frame header crc", func(b []byte) []byte { b[walHeaderLen+9] ^= 0xFF; return b }, "checksum"},
		{"payload crc", func(b []byte) []byte { b[walHeaderLen+walFrameLen] ^= 0xFF; return b }, "checksum"},
		{"oversized length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[walHeaderLen:], maxSliceLen+1)
			crc := crc32.ChecksumIEEE(b[walHeaderLen : walHeaderLen+8])
			binary.LittleEndian.PutUint32(b[walHeaderLen+8:], crc)
			return b
		}, "payload bytes"},
	}
	for _, tc := range cases {
		b := tc.mutate(append([]byte(nil), wire...))
		if _, err := ReadRecords(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadRecords err = %v, want %q", tc.name, err, tc.want)
		}
	}

	got, err := ReadRecords(bytes.NewReader(wire))
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("undamaged stream: ReadRecords = (%d recs, %v)", len(got), err)
	}

	for limit := 0; limit < len(wire); limit += walFrameLen {
		if err := WriteRecords(&limitWriter{n: limit}, recs); err == nil {
			t.Fatalf("WriteRecords with a %d-byte writer succeeded", limit)
		}
	}
}

// limitWriter fails every write past the first n bytes.
type limitWriter struct{ n int }

func (w *limitWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("wire broke")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestSnapshotDirPaths pins the canonical on-disk names the server, the
// cluster bootstrap path and heatmapd all derive independently.
func TestSnapshotDirPaths(t *testing.T) {
	t.Parallel()
	if got := MapPath("/var/lib/hm", "default"); got != filepath.Join("/var/lib/hm", "default.snap") {
		t.Errorf("MapPath = %q", got)
	}
	if got := WALPath("/var/lib/hm", "default"); got != filepath.Join("/var/lib/hm", "default.wal") {
		t.Errorf("WALPath = %q", got)
	}
}

// TestViewBytes: the mapped view exposes the literal snapshot file contents —
// the bytes replica bootstrap ships — and they stay byte-identical to the
// file on disk.
func TestViewBytes(t *testing.T) {
	t.Parallel()
	snap := sample()
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := snap.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	v, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Bytes(), disk) {
		t.Error("View.Bytes diverges from the on-disk file")
	}
	if _, err := io.Copy(io.Discard, bytes.NewReader(v.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// TestTailDecodeError: a payload that passes its CRC but does not decode as a
// record (impossible via the writer, possible via version skew or a buggy
// shipper) is a hard error, not a torn tail.
func TestTailDecodeError(t *testing.T) {
	t.Parallel()
	junk := []byte{0xAB} // decodeRecord rejects a 1-byte payload
	var frame [walFrameLen]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(junk)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(junk))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(frame[:8]))
	var b bytes.Buffer
	b.Write([]byte{walMagic[0], walMagic[1], walMagic[2], walMagic[3]})
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], walVersion)
	b.Write(ver[:])
	b.Write(frame[:])
	b.Write(junk)

	path := filepath.Join(t.TempDir(), "junk.wal")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, _, err := tl.Next(); err == nil {
		t.Error("undecodable record read as torn tail, want a hard error")
	}
	if _, err := ReadRecords(bytes.NewReader(b.Bytes())); err == nil {
		t.Error("wire decode of an undecodable record succeeded")
	}
}

// TestRecordsSinceCompactedHeader: a zero-length (not-yet-created) log with a
// nonzero published version means every committed record lives in the
// snapshot — ErrCompacted, so the replica bootstraps instead of spinning.
func TestRecordsSinceCompactedHeader(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "empty.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, err := tl.RecordsSince(0, 5, 0); !errors.Is(err, ErrCompacted) {
		t.Errorf("headerless log with published versions: err = %v, want ErrCompacted", err)
	}
	if recs, err := tl.RecordsSince(5, 5, 0); err != nil || recs != nil {
		t.Errorf("caught-up replica: (%v, %v), want (nil, nil)", recs, err)
	}
}
