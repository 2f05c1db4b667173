package snapshot

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// TestOpenFallbackParity forces the malloc'd-read path that !unix builds
// always take (mmap_other.go reports "no mapping") and asserts it is
// indistinguishable from the default Open: same underlying bytes, same
// accessor results, same materialized Snapshot. On unix the default Open
// maps the file, so this compares the two real code paths; on other
// platforms both sides take the fallback and the test still pins its
// correctness against the writer.
func TestOpenFallbackParity(t *testing.T) {
	t.Parallel()
	want := sample()
	path := filepath.Join(t.TempDir(), "map.snap")
	if err := want.WriteFile(path, nil); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	def, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer def.Close()
	fb, err := open(path, false)
	if err != nil {
		t.Fatalf("open(allowMmap=false): %v", err)
	}
	defer fb.Close()
	if fb.Mapped() {
		t.Fatal("forced fallback view claims to be mapped")
	}
	t.Logf("default Open mapped=%v", def.Mapped())

	if !bytes.Equal(def.data, fb.data) {
		t.Fatal("fallback view holds different bytes than the default view")
	}
	dm, fm := def.Meta(), fb.Meta()
	if !reflect.DeepEqual(*dm, *fm) {
		t.Errorf("Meta diverges:\n mapped %+v\n heap   %+v", *dm, *fm)
	}
	if !reflect.DeepEqual(def.Clients(), fb.Clients()) {
		t.Error("Clients diverge between the mmap and fallback paths")
	}
	if !reflect.DeepEqual(def.Facilities(), fb.Facilities()) {
		t.Error("Facilities diverge between the mmap and fallback paths")
	}
	if def.NumCircles() != fb.NumCircles() {
		t.Fatalf("NumCircles: %d vs %d", def.NumCircles(), fb.NumCircles())
	}
	for i := 0; i < def.NumCircles(); i++ {
		if def.CircleAt(i) != fb.CircleAt(i) {
			t.Errorf("CircleAt(%d) diverges: %+v vs %+v", i, def.CircleAt(i), fb.CircleAt(i))
		}
	}
	for i := 0; i < dm.NumLabels; i++ {
		if !reflect.DeepEqual(def.LabelAt(i), fb.LabelAt(i)) {
			t.Errorf("LabelAt(%d) diverges", i)
		}
	}
	for id := uint32(0); int(id) < dm.NumPool; id++ {
		if def.PoolHeats()[id] != fb.PoolHeats()[id] {
			t.Errorf("PoolHeats()[%d] diverges", id)
		}
		if !reflect.DeepEqual(def.PoolMembers(id), fb.PoolMembers(id)) {
			t.Errorf("PoolMembers(%d) diverges", id)
		}
		if !reflect.DeepEqual(def.PoolRNN(id), fb.PoolRNN(id)) {
			t.Errorf("PoolRNN(%d) diverges", id)
		}
	}
	if def.HasSlabIndex() != fb.HasSlabIndex() || !reflect.DeepEqual(def.Slab(), fb.Slab()) {
		t.Error("slab index diverges between the mmap and fallback paths")
	}
	got, gotFb := def.Snapshot(), fb.Snapshot()
	if !reflect.DeepEqual(got, gotFb) {
		t.Error("materialized Snapshot diverges between the mmap and fallback paths")
	}
	if !reflect.DeepEqual(fromFile(t, fb, gotFb), stored(want)) {
		t.Error("fallback Snapshot diverges from the written snapshot")
	}
}
