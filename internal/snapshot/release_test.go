package snapshot

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// The tests in this file read the process-wide count of mapped bytes, so
// none of them runs in parallel: parallel tests start only after every
// sequential one has finished.

// settledMappedBytes collects garbage until MappedBytes holds still, so
// views earlier tests dropped are not unmapped in the middle of a
// measurement.
func settledMappedBytes() int64 {
	last := int64(-1)
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		n := MappedBytes()
		if n == last {
			break
		}
		last = n
	}
	return last
}

// waitCollected runs the collector until done is closed.
func waitCollected(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-done:
			return
		case <-deadline:
			t.Fatalf("%s was never collected", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// openMapped writes the L2 sample snapshot with slab sections and maps it,
// skipping the test where Open cannot map.
func openMapped(t *testing.T) (*View, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := sampleL2().WriteFile(path, sampleTables()); err != nil {
		t.Fatal(err)
	}
	v, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Mapped() {
		v.Close()
		t.Skip("Open does not map files on this platform")
	}
	return v, int64(len(v.Bytes()))
}

// TestCloseUnmapsOnceAndDisarms: Close counts the mapping out once, a second
// Close is a no-op, and the closed view carries no finalizer — arming one
// would abort the process if Close had left its own armed — and is still
// collectible.
func TestCloseUnmapsOnceAndDisarms(t *testing.T) {
	base := settledMappedBytes()
	collected := func() <-chan struct{} {
		v, size := openMapped(t)
		if got := MappedBytes(); got != base+size || v.MappedBytes() != size {
			t.Fatalf("after Open: %d bytes mapped, the view %d; want %d and the file's %d",
				got, v.MappedBytes(), base+size, size)
		}
		for i := 0; i < 2; i++ {
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			if got := MappedBytes(); got != base {
				t.Fatalf("after Close #%d: %d bytes mapped, want %d", i+1, got, base)
			}
		}
		if v.Mapped() || v.MappedBytes() != 0 {
			t.Error("a closed view still reports a mapping")
		}
		done := make(chan struct{})
		runtime.SetFinalizer(v, func(*View) { close(done) })
		return done
	}()
	waitCollected(t, collected, "a closed view")
}

// TestUnreachableViewIsUnmapped: a mapped view nothing references is
// unmapped by the collector, without a Close.
func TestUnreachableViewIsUnmapped(t *testing.T) {
	base := settledMappedBytes()
	func() {
		v, size := openMapped(t)
		if got := MappedBytes(); got != base+size {
			t.Fatalf("after Open: %d bytes mapped, want %d", got, base+size)
		}
		runtime.KeepAlive(v)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for MappedBytes() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped, want %d", MappedBytes(), base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotCopiesPoints: a materialized Snapshot holds no slice of the
// file, so it stays valid after its view is unmapped.
func TestSnapshotCopiesPoints(t *testing.T) {
	v, _ := openMapped(t)
	defer v.Close()
	s := v.Snapshot()
	file := v.Bytes()
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(file)))
	hi := lo + uintptr(len(file))
	inFile := func(p unsafe.Pointer) bool { return uintptr(p) >= lo && uintptr(p) < hi }
	if len(s.Clients) == 0 || len(s.Facilities) == 0 {
		t.Fatal("sample snapshot has no points")
	}
	if inFile(unsafe.Pointer(&s.Clients[0])) || inFile(unsafe.Pointer(&s.Facilities[0])) {
		t.Error("materialized Snapshot aliases the mapped file's point arrays")
	}
}
