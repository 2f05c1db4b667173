package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"rnnheatmap/internal/geom"
)

// Op is one client/facility mutation set, applied in field order with the
// same sequential swap-remove semantics as a heatmap delta. A Record carries
// one or more of them.
type Op struct {
	AddClients       []geom.Point
	RemoveClients    []int
	AddFacilities    []geom.Point
	RemoveFacilities []int
}

// Record is one applied mutation batch in the write-ahead log: the ops it
// contained and the map version the map reached after applying all of them.
// Replay applies records with Version greater than the base snapshot's
// MapVersion, in file order.
//
// The flat fields hold the batch's first op exactly where the version-1
// single-op encoding put them; Extra holds ops 2..K of a batched record and
// encodes as an optional suffix, so logs written before batching existed
// decode unchanged (Extra nil) and single-op records stay byte-identical to
// what the old encoder produced. One record is one CRC-framed unit: a batch
// is durable wholly or not at all, never torn in the middle.
type Record struct {
	Version          uint64
	AddClients       []geom.Point
	RemoveClients    []int
	AddFacilities    []geom.Point
	RemoveFacilities []int
	Extra            []Op
}

// Ops returns the record's mutation ops in application order: the flat
// first-op fields followed by Extra.
func (r Record) Ops() []Op {
	ops := make([]Op, 1, 1+len(r.Extra))
	ops[0] = Op{
		AddClients:       r.AddClients,
		RemoveClients:    r.RemoveClients,
		AddFacilities:    r.AddFacilities,
		RemoveFacilities: r.RemoveFacilities,
	}
	return append(ops, r.Extra...)
}

// BatchRecord builds the Record for a batch of ops reaching version. It
// panics on an empty batch — an op-less record has no meaning in the log.
func BatchRecord(version uint64, ops []Op) Record {
	if len(ops) == 0 {
		panic("snapshot: BatchRecord needs at least one op")
	}
	rec := Record{
		Version:          version,
		AddClients:       ops[0].AddClients,
		RemoveClients:    ops[0].RemoveClients,
		AddFacilities:    ops[0].AddFacilities,
		RemoveFacilities: ops[0].RemoveFacilities,
	}
	if len(ops) > 1 {
		rec.Extra = ops[1:]
	}
	return rec
}

var walMagic = [4]byte{'R', 'N', 'W', 'L'}

// walVersion is the header version of a WAL file and of the record stream
// WriteRecords ships to replicas. It is independent of the snapshot format
// Version and stays 1, so logs on disk and the stream exchanged with nodes
// running earlier builds keep their header; batched records extend version
// 1 with an optional suffix (see encodeRecord).
const walVersion uint16 = 1

// walFile is the slice of *os.File the WAL needs. Production always uses a
// real file; the fault-injection tests substitute a wrapper whose Write and
// Sync fail on demand, which is how the append-failure rollback and the
// group-commit atomicity contract are exercised without root or a loopback
// block device.
type walFile interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// walHeaderLen is the byte length of the WAL file header (magic + version);
// walFrameLen is the per-record frame: payload length, payload CRC, and a
// CRC over those 8 bytes so a corrupt length is distinguishable from a torn
// tail.
const (
	walHeaderLen = 6
	walFrameLen  = 12
)

// WAL is an append-only log of mutation records for one map. Every record
// is framed as {u32 payload length, u32 CRC-32 of the payload, u32 CRC-32
// of the preceding 8 header bytes, payload} and fsynced on append, so a
// crash can lose at most the record being written — and a torn tail is
// detected and truncated on the next open rather than poisoning replay.
// The header CRC is what distinguishes the two failure shapes: a torn
// append leaves a short frame (EOF) or a valid header with a short payload,
// while bit rot in a length field fails the header CRC and is reported as
// corruption instead of silently truncating every record after it. A WAL is
// not safe for concurrent use; the server serializes appends under the
// per-map writer lock.
type WAL struct {
	f    walFile
	path string
	// broken is set when a failed append could not be rolled back: the file
	// may hold an orphaned, never-acknowledged record, and appending after
	// it would make replay silently diverge from the acknowledged state.
	// Further appends are refused until a successful Reset (snapshot
	// compaction) re-establishes a clean log.
	broken bool
}

// OpenWAL opens (creating if necessary) the WAL at path and returns the
// records it holds. A torn final record — the footprint of a crash mid-append
// — is truncated away; any earlier corruption is an error, because silently
// skipping a middle record would replay a diverged history.
func OpenWAL(path string) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{f: f, path: path}
	if info.Size() < walHeaderLen {
		// Empty, or a crash landed between file creation and the header
		// write. No record can exist yet, so re-initialize instead of
		// refusing to start.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if err := w.writeHeader(); err != nil {
			f.Close()
			return nil, nil, err
		}
		// The file was (re)created: fsync the directory too, or a power
		// failure can drop the whole file — taking every fsynced,
		// acknowledged append down with it.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		return w, nil, nil
	}
	recs, tail, err := readWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if tail < info.Size() {
		// Torn tail: drop the partial record and position for append.
		if err := f.Truncate(tail); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	return w, recs, nil
}

func (w *WAL) writeHeader() error {
	var head [walHeaderLen]byte
	copy(head[:4], walMagic[:])
	binary.LittleEndian.PutUint16(head[4:6], walVersion)
	if _, err := w.f.Write(head[:]); err != nil {
		return fmt.Errorf("wal: writing header: %w", err)
	}
	return w.sync()
}

// readWAL scans the whole log, returning the complete records and the byte
// offset just past the last complete record.
func readWAL(f walFile) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	var head [walHeaderLen]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, 0, fmt.Errorf("wal: reading header: %w", err)
	}
	if [4]byte(head[:4]) != walMagic {
		return nil, 0, fmt.Errorf("wal: bad magic %q (not a WAL file)", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != walVersion {
		return nil, 0, fmt.Errorf("wal: unsupported format version %d (this build reads version %d)", v, walVersion)
	}
	var recs []Record
	offset := int64(walHeaderLen)
	var frame [walFrameLen]byte
	for {
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, offset, nil // torn or clean end
			}
			return nil, 0, fmt.Errorf("wal: %w", err)
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		wantCRC := binary.LittleEndian.Uint32(frame[4:8])
		wantHeadCRC := binary.LittleEndian.Uint32(frame[8:12])
		if crc32.ChecksumIEEE(frame[:8]) != wantHeadCRC {
			// A torn append never produces this: the frame is written in one
			// call before the payload, so it is either complete (valid header
			// CRC) or short (the ReadFull above hits EOF). A readable frame
			// failing its own CRC is bit rot; truncating here would silently
			// discard every acknowledged record that follows it.
			return nil, 0, fmt.Errorf("wal: frame header at offset %d fails its checksum: file is corrupt", offset)
		}
		if length > maxSliceLen {
			return nil, 0, fmt.Errorf("wal: frame at offset %d declares %d payload bytes: file is corrupt", offset, length)
		}
		// The trusted (CRC-verified) length still reads in bounded chunks:
		// growing toward it keeps a shortened file from allocating the full
		// declared size before EOF surfaces.
		payload := make([]byte, 0, min(int(length), allocChunk))
		torn := false
		var chunk [4096]byte
		for len(payload) < int(length) {
			c := chunk[:min(int(length)-len(payload), len(chunk))]
			if _, err := io.ReadFull(f, c); err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					torn = true
					break
				}
				return nil, 0, fmt.Errorf("wal: %w", err)
			}
			payload = append(payload, c...)
		}
		if torn {
			return recs, offset, nil // valid header, short payload: torn append
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			// The frame header is intact, so the payload bytes themselves
			// are damaged. On the final record this is indistinguishable
			// from a torn append (the payload write stopped mid-way); with
			// records following it is mid-file corruption.
			if _, err := f.Read(chunk[:1]); err == nil {
				return nil, 0, fmt.Errorf("wal: checksum mismatch at offset %d with records following: file is corrupt", offset)
			}
			return recs, offset, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: record at offset %d: %w", offset, err)
		}
		recs = append(recs, rec)
		offset += walFrameLen + int64(length)
	}
}

// AppendBatch is the group commit: it appends every record in recs and
// fsyncs exactly once, so K acknowledged batches cost one disk flush instead
// of K. Each record is still its own CRC-framed unit, so a crash mid-append
// (or mid-flush) leaves a durable prefix of whole records — the torn
// remainder is truncated by the next OpenWAL — and a batch is never replayed
// partially. On any write or sync failure the file is truncated back to its
// pre-batch length: a torn frame left in the middle of the log would read as
// corruption (not as a torn tail) once a later append succeeds after it,
// permanently poisoning the map. An empty recs is a no-op.
func (w *WAL) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if w.broken {
		return fmt.Errorf("wal: log is poisoned by an earlier failed append that could not be rolled back; save a snapshot to reset it")
	}
	before, err := w.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("wal: appending: %w", err)
	}
	// Frame every record into one buffer and write it in a single call:
	// fewer syscalls, and the kernel sees the group as one append.
	var buf bytes.Buffer
	var frame [walFrameLen]byte
	for _, rec := range recs {
		payload := encodeRecord(rec)
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(frame[:8]))
		buf.Write(frame[:])
		buf.Write(payload)
	}
	fail := func(err error) error {
		if terr := w.f.Truncate(before); terr == nil {
			_, _ = w.f.Seek(before, io.SeekStart)
		} else {
			// The orphaned bytes could not be removed; poison the log so no
			// later record lands after them.
			w.broken = true
		}
		return fmt.Errorf("wal: appending: %w", err)
	}
	if _, err := w.f.Write(buf.Bytes()); err != nil {
		return fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return fail(err)
	}
	return nil
}

// Reset truncates the log back to its header. The server calls it right
// after saving a snapshot: everything the log held is folded into the
// snapshot, so keeping it would only replay history twice as slowly.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(walHeaderLen); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := w.sync(); err != nil {
		return err
	}
	w.broken = false // the log is demonstrably clean again
	return nil
}

func (w *WAL) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so recent entry creations/renames in it are
// durable. Shared by WAL creation and snapshot WriteFile; callers add their
// own "wal:"/"snapshot:" prefix.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("syncing directory: %w", err)
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("syncing directory %s: %w", dir, err)
	}
	return nil
}

// Path returns the file path the WAL writes to.
func (w *WAL) Path() string { return w.path }

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

func encodeRecord(rec Record) []byte {
	var buf bytes.Buffer
	e := &encoder{w: &buf}
	e.u64(rec.Version)
	e.points(rec.AddClients)
	e.i32s(rec.RemoveClients)
	e.points(rec.AddFacilities)
	e.i32s(rec.RemoveFacilities)
	// Extra ops encode as an optional suffix after the legacy fields: a
	// count, then each op's four slices. A single-op record writes nothing
	// here and stays byte-identical to the pre-batching encoding, which is
	// what keeps the format version at 1 — old logs have no suffix and new
	// single-op records are readable by old builds.
	if len(rec.Extra) > 0 {
		e.u32(uint32(len(rec.Extra)))
		for _, op := range rec.Extra {
			e.points(op.AddClients)
			e.i32s(op.RemoveClients)
			e.points(op.AddFacilities)
			e.i32s(op.RemoveFacilities)
		}
	}
	return buf.Bytes()
}

func decodeRecord(payload []byte) (Record, error) {
	br := bytes.NewReader(payload)
	d := &decoder{r: br}
	var rec Record
	rec.Version = d.u64()
	rec.AddClients = d.points()
	rec.RemoveClients = d.i32s()
	rec.AddFacilities = d.points()
	rec.RemoveFacilities = d.i32s()
	// Bytes past the legacy fields are the batched-ops suffix. The payload
	// passed its CRC, so a remainder is always intentional — but its count
	// must still account for every remaining byte.
	if d.err == nil && br.Len() > 0 {
		n := d.u32()
		if d.err == nil && n > maxSliceLen {
			d.err = fmt.Errorf("extra-op count %d exceeds the sanity bound %d", n, maxSliceLen)
		}
		for i := 0; d.err == nil && i < int(n); i++ {
			var op Op
			op.AddClients = d.points()
			op.RemoveClients = d.i32s()
			op.AddFacilities = d.points()
			op.RemoveFacilities = d.i32s()
			if d.err == nil {
				rec.Extra = append(rec.Extra, op)
			}
		}
		if d.err == nil && br.Len() > 0 {
			d.err = fmt.Errorf("%d trailing bytes after the extra-op suffix", br.Len())
		}
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return rec, nil
}
