package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCompacted is returned by Tail.RecordsSince when the requested records
// were folded into a snapshot (the WAL was Reset past them). The caller —
// a replica that fell behind — must re-bootstrap from the owner's snapshot
// instead of tailing.
var ErrCompacted = errors.New("wal: requested records were compacted into a snapshot")

// tailEntry is one version-offset index entry: the frame start of the record
// that reached version, plus the raw 12-byte frame header so a later poll can
// detect that the log was rewritten underneath the index (Reset followed by
// enough new appends to grow the file past the old offset).
type tailEntry struct {
	version uint64
	offset  int64
	frame   [walFrameLen]byte
}

// Tail is a read-only follower of a live WAL file, used by the owner to ship
// records to replicas without disturbing the writer. It understands the
// writer's append discipline: a frame that is short, or whose payload is
// short or fails its CRC at end-of-file, is a torn tail still being written
// (or awaiting rollback-truncate) — Next reports "nothing yet" and the same
// call succeeds after the owner's next complete append. Only a header-CRC
// failure, or damage with records following it, is reported as corruption.
//
// The Tail keeps a version→offset index of every complete record it has
// scanned, so RecordsSince can serve an arbitrary resume point with one seek
// instead of rescanning the file. When the writer Resets the log (snapshot
// compaction) the Tail notices — the file shrank below its offset, or the
// first indexed frame no longer matches — and rescans from the header.
//
// A Tail is not safe for concurrent use; callers serialize access.
type Tail struct {
	f      *os.File
	path   string
	offset int64 // just past the last complete record scanned
	index  []tailEntry
}

// OpenTail opens a read-only follower of the WAL at path. The file must
// exist (the writer creates it, header included, before any record can
// exist).
func OpenTail(path string) (*Tail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal tail: %w", err)
	}
	return &Tail{f: f, path: path, offset: walHeaderLen}, nil
}

// Close closes the underlying file.
func (t *Tail) Close() error { return t.f.Close() }

// Path returns the WAL file path the tail follows.
func (t *Tail) Path() string { return t.path }

// Stat returns the FileInfo of the open log file. Callers that cache a Tail
// per path compare it (os.SameFile) against a fresh os.Stat of the path to
// detect the file being replaced wholesale — a deleted and re-created map
// leaves the tail holding the unlinked inode, which Reset-detection inside
// sync cannot see.
func (t *Tail) Stat() (os.FileInfo, error) { return t.f.Stat() }

// sync detects a log rewrite (WAL.Reset, or reset-plus-regrowth) and rewinds
// the scan to the header when one happened.
func (t *Tail) sync() error {
	st, err := t.f.Stat()
	if err != nil {
		return fmt.Errorf("wal tail: %w", err)
	}
	rewind := st.Size() < t.offset
	if !rewind && len(t.index) > 0 {
		// The file did not shrink below our offset, but a Reset followed by
		// new appends could have regrown it past us. The first indexed frame
		// header is the witness: Reset truncates it away, and new records
		// land with different lengths/CRCs with overwhelming probability.
		var frame [walFrameLen]byte
		if _, err := t.f.ReadAt(frame[:], t.index[0].offset); err != nil || frame != t.index[0].frame {
			rewind = true
		}
	}
	if rewind {
		t.offset = walHeaderLen
		t.index = t.index[:0]
	}
	return nil
}

// checkHeader validates the 6-byte file header once the file is long enough
// to hold it. A shorter file means the writer has not finished creating the
// log: no record can exist, so the caller reports "nothing yet".
func (t *Tail) checkHeader() (ok bool, err error) {
	var head [walHeaderLen]byte
	if _, err := t.f.ReadAt(head[:], 0); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return false, nil
		}
		return false, fmt.Errorf("wal tail: reading header: %w", err)
	}
	if [4]byte(head[:4]) != walMagic {
		return false, fmt.Errorf("wal tail: bad magic %q (not a WAL file)", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != walVersion {
		return false, fmt.Errorf("wal tail: unsupported format version %d (this build reads version %d)", v, walVersion)
	}
	return true, nil
}

// readRecordAt reads and decodes the complete record framed at offset.
// ok=false (with no error) means the frame is incomplete — a clean end of
// log or a torn append — and the caller should retry after the writer's next
// append. end is the offset just past the record when ok.
func (t *Tail) readRecordAt(offset int64) (rec Record, frame [walFrameLen]byte, end int64, ok bool, err error) {
	if _, err := t.f.ReadAt(frame[:], offset); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, frame, 0, false, nil // clean end or short frame
		}
		return Record{}, frame, 0, false, fmt.Errorf("wal tail: %w", err)
	}
	length := binary.LittleEndian.Uint32(frame[:4])
	wantCRC := binary.LittleEndian.Uint32(frame[4:8])
	wantHeadCRC := binary.LittleEndian.Uint32(frame[8:12])
	if crc32.ChecksumIEEE(frame[:8]) != wantHeadCRC {
		// Same reasoning as readWAL: the frame is written in one call before
		// the payload, so a readable-but-invalid header is bit rot, never a
		// torn append.
		return Record{}, frame, 0, false, fmt.Errorf("wal tail: frame header at offset %d fails its checksum: file is corrupt", offset)
	}
	if length > maxSliceLen {
		return Record{}, frame, 0, false, fmt.Errorf("wal tail: frame at offset %d declares %d payload bytes: file is corrupt", offset, length)
	}
	payload := make([]byte, length)
	if _, err := t.f.ReadAt(payload, offset+walFrameLen); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, frame, 0, false, nil // valid header, short payload: torn append
		}
		return Record{}, frame, 0, false, fmt.Errorf("wal tail: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		// Damaged payload: torn append if it is the final record, corruption
		// if bytes follow it (a later append succeeded after the damage).
		var one [1]byte
		if _, err := t.f.ReadAt(one[:], offset+walFrameLen+int64(length)); err == nil {
			return Record{}, frame, 0, false, fmt.Errorf("wal tail: checksum mismatch at offset %d with records following: file is corrupt", offset)
		}
		return Record{}, frame, 0, false, nil
	}
	rec, derr := decodeRecord(payload)
	if derr != nil {
		return Record{}, frame, 0, false, fmt.Errorf("wal tail: record at offset %d: %w", offset, derr)
	}
	return rec, frame, offset + walFrameLen + int64(length), true, nil
}

// Next returns the next complete record in file order. ok=false with a nil
// error means no complete record is available yet — the log ends cleanly or
// in a torn append — and the same call will return the record once the
// writer finishes it. Next never skips: a torn frame is either completed in
// place by the writer or truncated away before the next append lands at the
// same offset.
func (t *Tail) Next() (rec Record, ok bool, err error) {
	if err := t.sync(); err != nil {
		return Record{}, false, err
	}
	if ok, err := t.checkHeader(); !ok || err != nil {
		return Record{}, false, err
	}
	rec, frame, end, ok, err := t.readRecordAt(t.offset)
	if !ok || err != nil {
		return Record{}, false, err
	}
	t.index = append(t.index, tailEntry{version: rec.Version, offset: t.offset, frame: frame})
	t.offset = end
	return rec, true, nil
}

// catchUp scans every complete record past the current offset into the
// index without retaining payloads.
func (t *Tail) catchUp() error {
	for {
		_, ok, err := t.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// RecordsSince returns up to max records with since < Version <= capVersion,
// in version order. capVersion is the owner's published map version: the WAL
// is written ahead of publication, so its final record may not be
// acknowledged yet and must not be shipped (a failed fsync rolls it back).
// max <= 0 means no limit.
//
// An empty result with a nil error means the replica is caught up (or the
// next record is not yet complete). ErrCompacted means records in the
// requested range were folded into a snapshot — the replica must re-bootstrap
// from the snapshot and resume from its version.
func (t *Tail) RecordsSince(since, capVersion uint64, max int) ([]Record, error) {
	if capVersion <= since {
		return nil, nil
	}
	if err := t.sync(); err != nil {
		return nil, err
	}
	if ok, err := t.checkHeader(); err != nil {
		return nil, err
	} else if !ok {
		// No header yet ⇒ no records, yet capVersion says committed versions
		// exist: they live only in the snapshot now.
		return nil, ErrCompacted
	}
	if err := t.catchUp(); err != nil {
		return nil, err
	}
	if len(t.index) == 0 {
		// capVersion > since but the log holds nothing: the range was
		// compacted (or the owner's next append has not landed; the replica's
		// re-bootstrap then converges on the snapshot that holds it).
		return nil, ErrCompacted
	}
	first := t.index[0].version
	if since+1 < first {
		return nil, ErrCompacted
	}
	// Versions are contiguous (+1 per record; replay enforces it), so the
	// resume point indexes directly.
	if since+1 > t.index[len(t.index)-1].version {
		return nil, nil // caught up with the log; the gap to capVersion is in flight
	}
	start := t.index[since+1-first]
	var recs []Record
	offset := start.offset
	for {
		rec, _, end, ok, err := t.readRecordAt(offset)
		if err != nil {
			return nil, err
		}
		if !ok || rec.Version > capVersion {
			return recs, nil
		}
		recs = append(recs, rec)
		if max > 0 && len(recs) >= max {
			return recs, nil
		}
		offset = end
	}
}

// WriteRecords frames recs for the wire exactly as the on-disk WAL does —
// the 6-byte header followed by CRC-framed records — so a replica validates
// shipped records with the same checks replay uses.
func WriteRecords(w io.Writer, recs []Record) error {
	var head [walHeaderLen]byte
	copy(head[:4], walMagic[:])
	binary.LittleEndian.PutUint16(head[4:6], walVersion)
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("wal wire: %w", err)
	}
	var frame [walFrameLen]byte
	for _, rec := range recs {
		payload := encodeRecord(rec)
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(frame[:8]))
		if _, err := w.Write(frame[:]); err != nil {
			return fmt.Errorf("wal wire: %w", err)
		}
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wal wire: %w", err)
		}
	}
	return nil
}

// ReadRecords decodes a complete WriteRecords stream. Unlike the on-disk
// reader, a torn tail here is an error, not a resumable condition: the wire
// carries whole responses, so a short or damaged stream means the transfer
// failed and must be retried, never half-applied.
func ReadRecords(r io.Reader) ([]Record, error) {
	var head [walHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("wal wire: reading header: %w", err)
	}
	if [4]byte(head[:4]) != walMagic {
		return nil, fmt.Errorf("wal wire: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != walVersion {
		return nil, fmt.Errorf("wal wire: unsupported format version %d (this build reads version %d)", v, walVersion)
	}
	var recs []Record
	var frame [walFrameLen]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return recs, nil
			}
			return nil, fmt.Errorf("wal wire: truncated frame: %w", err)
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		wantCRC := binary.LittleEndian.Uint32(frame[4:8])
		if crc32.ChecksumIEEE(frame[:8]) != binary.LittleEndian.Uint32(frame[8:12]) {
			return nil, fmt.Errorf("wal wire: frame header fails its checksum")
		}
		if length > maxSliceLen {
			return nil, fmt.Errorf("wal wire: frame declares %d payload bytes", length)
		}
		payload := make([]byte, 0, min(int(length), allocChunk))
		var chunk [4096]byte
		for len(payload) < int(length) {
			c := chunk[:min(int(length)-len(payload), len(chunk))]
			if _, err := io.ReadFull(r, c); err != nil {
				return nil, fmt.Errorf("wal wire: truncated payload: %w", err)
			}
			payload = append(payload, c...)
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return nil, fmt.Errorf("wal wire: payload fails its checksum")
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("wal wire: %w", err)
		}
		recs = append(recs, rec)
	}
}

// EncodeRecords is WriteRecords into a fresh byte slice.
func EncodeRecords(recs []Record) []byte {
	var buf bytes.Buffer
	_ = WriteRecords(&buf, recs) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}
