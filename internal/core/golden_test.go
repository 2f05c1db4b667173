package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// Golden label digests: one SHA-256 per metric and input family over
// everything CREST emits, pinned in testdata/golden_labels.txt. They record
// the sweep's output bit for bit, so a rewrite of the line status or of the
// base-set cache is checked against the output of the code it replaced, not
// only against itself.

// goldenFile holds one "<metric> <family> <hex digest>" line per digest.
const goldenFile = "testdata/golden_labels.txt"

// labelDigest folds one run into h: each label's region, point and heat as
// bit patterns and its RNN ids, in emission order, then Stats.Events and
// Stats.Labelings.
func labelDigest(h *digestWriter, res *Result) {
	for _, l := range res.Labels {
		r := l.Region
		for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY, l.Point.X, l.Point.Y, l.Heat} {
			h.u64(math.Float64bits(v))
		}
		h.u64(uint64(len(l.RNN)))
		for _, id := range l.RNN {
			h.u64(uint64(id))
		}
	}
	h.u64(uint64(res.Stats.Events))
	h.u64(uint64(res.Stats.Labelings))
}

// digestWriter feeds little-endian words into a SHA-256.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

// goldenDigest runs CREST at 1 and 3 workers over every instance and returns
// the hex digest of all runs in order.
func goldenDigest(t *testing.T, instances [][]nncircle.NNCircle) string {
	t.Helper()
	d := &digestWriter{h: sha256.New()}
	for _, ncs := range instances {
		for _, workers := range []int{1, 3} {
			res, err := CREST(ncs, Options{Workers: workers})
			if err == ErrNoCircles {
				d.u64(0)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			labelDigest(d, res)
		}
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// readGolden parses goldenFile into "<metric> <family>" -> digest.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		out[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenLabelDigests recomputes the pinned digests: for each metric, 50
// fuzzInstance seeds, and outside -short heatmapd's default map inputs (NYC
// 2000 clients and 600 facilities, sample seed 2). On a mismatch it prints
// the digest it computed, which is the value to pin if the change of output
// is intended.
func TestGoldenLabelDigests(t *testing.T) {
	t.Parallel()
	want := readGolden(t)
	metrics := []geom.Metric{geom.LInf, geom.L1, geom.L2}
	for _, metric := range metrics {
		instances := make([][]nncircle.NNCircle, 0, 50)
		for seed := int64(1); seed <= 50; seed++ {
			instances = append(instances, fuzzInstance(t, seed, 6+int(seed%25), 1+int(seed%7), metric))
		}
		families := map[string][][]nncircle.NNCircle{"seeds": instances}
		if !testing.Short() {
			pool, err := dataset.ByName("NYC", (2000+600)*2, 1)
			if err != nil {
				t.Fatal(err)
			}
			clients, facilities := pool.SampleClientsFacilities(2000, 600, 2)
			ncs, err := nncircle.Compute(clients, facilities, metric)
			if err != nil {
				t.Fatal(err)
			}
			families["nyc"] = [][]nncircle.NNCircle{ncs}
		}
		for family, insts := range families {
			name := metric.String() + " " + family
			got := goldenDigest(t, insts)
			if want[name] != got {
				t.Errorf("%s: digest %s, pinned %q", name, got, want[name])
			}
		}
	}
}
