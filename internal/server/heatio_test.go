package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/nncircle"
)

// jsonHeatBatch answers POST /heat/batch through encoding/json, as the
// handler did before it scanned canonical bodies and appended its answers:
// the oracle FuzzHeatBatchBody holds the handler to.
func jsonHeatBatch(m *heatmap.Map, maxBatch int, w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "request has no points")
		return
	}
	if len(req.Points) > maxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d points exceeds the limit of %d", len(req.Points), maxBatch)
		return
	}
	ps := make([]heatmap.Point, len(req.Points))
	for i, p := range req.Points {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			writeError(w, http.StatusBadRequest, "point %d is not finite", i)
			return
		}
		ps[i] = heatmap.Pt(p.X, p.Y)
	}
	heats, rnns := m.HeatAtBatch(ps)
	results := make([]heatResponse, len(ps))
	for i := range ps {
		results[i] = heatResponse{X: ps[i].X, Y: ps[i].Y, Heat: heats[i], RNN: nonNil(rnns[i])}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// heatPath returns the GET /heat path of the point (x, y).
func heatPath(x, y float64) string {
	return "/v1/heat?" + url.Values{"x": {strconv.FormatFloat(x, 'g', -1, 64)}, "y": {strconv.FormatFloat(y, 'g', -1, 64)}}.Encode()
}

// assertSameResponse fails unless got and want carry the same status,
// content type and body bytes.
func assertSameResponse(t *testing.T, ctx string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: answered %d %q %q, encoding/json answers %d %q %q", ctx,
			got.Code, got.Header().Get("Content-Type"), got.Body, want.Code, want.Header().Get("Content-Type"), want.Body)
	}
}

// FuzzHeatBatchBody holds POST /heat/batch to its encoding/json oracle
// (jsonHeatBatch) for any body: the same status, error code and message,
// and answer bytes. For the points of a body the oracle accepts, GET /heat
// must answer as writeJSON writes heatResponse too. The server takes at
// most 3 points a batch.
func FuzzHeatBatchBody(f *testing.F) {
	for _, body := range []string{
		`{"points":[{"x":500,"y":500}]}`,
		`{"points":[{"x":500,"y":500},{"x":10.25,"y":990},{"x":-50,"y":-50}]}`,
		" \t\r\n{ \"points\" : [ { \"x\" : 250.5 , \"y\" : 730.25 } ] } \n",
		`{"points":[{"y":500,"x":500}]}`,
		`{"Points":[{"X":500,"Y":500}]}`,
		`{"points":[{"x":500,"y":500,"z":1}]}`,
		`{"points":[{"x":500,"y":500}],"extra":true}`,
		`{"pts":[{"x":1,"y":2}]}`,
		`{"points":null}`,
		`{"points":[null]}`,
		`{"points":[{"x":null,"y":1}]}`,
		`null`,
		`{"points":[{"x":-0,"y":-0.0}]}`,
		`{"points":[{"x":1e-7,"y":1E+2}]}`,
		`{"points":[{"x":1e21,"y":-1e21}]}`,
		`{"points":[{"x":1e400,"y":1}]}`,
		`{"points":[{"x":1e-400,"y":1}]}`,
		`{"points":[{"x":01,"y":1}]}`,
		`{"points":[{"x":1.,"y":1}]}`,
		`{"points":[{"x":1,"y":2}]}`,
		`{"points":[{"x":1,"y":2}]} trailing`,
		`{"points":[{"x":1,"y":2}]}{}`,
		`{"points":[{"x":1,"y":2},]}`,
		`{"points":[]}`,
		`{}`,
		``,
		`{`,
		`{"points":[{"x":1,"y":2},{"x":3,"y":4},{"x":5,"y":6},{"x":7,"y":8}]}`,
	} {
		f.Add([]byte(body))
	}
	m := buildMap(f, 1)
	const maxBatch = 3
	s, err := New(Config{Map: m, MaxBatch: maxBatch})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got := httptest.NewRecorder()
		s.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/heat/batch", bytes.NewReader(body)))
		want := httptest.NewRecorder()
		jsonHeatBatch(m, maxBatch, want, httptest.NewRequest(http.MethodPost, "/v1/heat/batch", bytes.NewReader(body)))
		assertSameResponse(t, fmt.Sprintf("POST /heat/batch %q", body), got, want)
		if want.Code != http.StatusOK {
			return
		}
		var req batchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return // a body the decoder reads only up to its first value
		}
		for _, p := range req.Points {
			path := heatPath(p.X, p.Y)
			got := get(t, s, path)
			heat, rnn := m.HeatAt(heatmap.Pt(p.X, p.Y))
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, heatResponse{X: p.X, Y: p.Y, Heat: heat, RNN: nonNil(rnn)})
			assertSameResponse(t, "GET "+path, got, want)
		}
	})
}

// TestAppendFloatMatchesEncodingJSON holds appendFloat to encoding/json on
// the format boundaries: zeros, 1e-6 and 1e21 and their neighbors, the
// smallest and largest floats, and values whose shortest form has many
// digits.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	var vs []float64
	for _, v := range []float64{0, 1e-6, 1e21, 1e-7, 1e20, 123456789.125, 1.0 / 3, -73.98512345678901,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 2.5e-10, 40.755} {
		for _, u := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			if !math.IsInf(u, 0) {
				vs = append(vs, u, -u)
			}
		}
	}
	for _, v := range vs {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, encoding/json writes %s", v, got, want)
		}
	}
}

// TestNonFiniteHeatKeepsWriteJSON covers the answers appendHeat cannot
// write: a measure whose heat is infinite still answers as writeJSON does.
func TestNonFiniteHeatKeepsWriteJSON(t *testing.T) {
	t.Parallel()
	ds := dataset.Uniform(120, datasetBounds(), 5)
	clients, facilities := ds.SampleClientsFacilities(60, 20, 3)
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: heatmap.LInf,
		Measure: heatmap.CustomMeasure("inf", func(rnn []int) float64 { return math.Inf(len(rnn)%2*2 - 1) })})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	p := clients[0]
	heat, rnn := m.HeatAt(p)
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, heatResponse{X: p.X, Y: p.Y, Heat: heat, RNN: nonNil(rnn)})
	path := heatPath(p.X, p.Y)
	assertSameResponse(t, "GET "+path, get(t, s, path), want)
	body := fmt.Sprintf(`{"points":[{"x":%v,"y":%v}]}`, p.X, p.Y)
	want = httptest.NewRecorder()
	jsonHeatBatch(m, 10000, want, httptest.NewRequest(http.MethodPost, "/v1/heat/batch", strings.NewReader(body)))
	assertSameResponse(t, "POST "+body, do(t, s, http.MethodPost, "/v1/heat/batch", body), want)
}

// TestStatsCountExactPath checks query_index's exact_points: a batch of
// points at circles' left extremes, which lie on slab boundaries, and a
// /heat at one raise it by their count, and points at circle centers, deep
// inside their slabs and gaps, leave it as it was.
func TestStatsCountExactPath(t *testing.T) {
	t.Parallel()
	ds := dataset.Uniform(600, datasetBounds(), 42)
	clients, facilities := ds.SampleClientsFacilities(300, 90, 7)
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: heatmap.LInf})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	circles, err := nncircle.Compute(clients, facilities, geom.LInf)
	if err != nil {
		t.Fatal(err)
	}
	exactPoints := func() int64 {
		var st struct {
			QueryIndex queryIndex `json:"query_index"`
		}
		rec := get(t, s, "/v1/stats")
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.QueryIndex.Path != "slab" {
			t.Fatalf("GET /v1/stats: %v, query_index %+v", err, st.QueryIndex)
		}
		return st.QueryIndex.ExactPoints
	}
	batch := func(ps []geom.Point) {
		t.Helper()
		var b strings.Builder
		b.WriteString(`{"points":[`)
		for i, p := range ps {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"x":%v,"y":%v}`, p.X, p.Y)
		}
		b.WriteString(`]}`)
		if rec := do(t, s, http.MethodPost, "/v1/heat/batch", b.String()); rec.Code != http.StatusOK {
			t.Fatalf("POST /heat/batch = %d %s", rec.Code, rec.Body)
		}
	}
	// deep reports whether v lies farther than 1e-6 from every circle side
	// on its axis.
	deep := func(v float64, y bool) bool {
		for _, nc := range circles {
			c := nc.Circle.Center.X
			if y {
				c = nc.Circle.Center.Y
			}
			if math.Abs(math.Abs(v-c)-nc.Circle.Radius) <= 1e-6 {
				return false
			}
		}
		return true
	}
	var extremes, centers []geom.Point
	for _, nc := range circles[:40] {
		c := nc.Circle
		extremes = append(extremes, geom.Pt(c.Center.X-c.Radius, c.Center.Y))
		if deep(c.Center.X, false) && deep(c.Center.Y, true) {
			centers = append(centers, c.Center)
		}
	}
	if len(centers) < 20 {
		t.Fatalf("only %d of 40 circle centers lie deep inside their slabs", len(centers))
	}
	before := exactPoints()
	batch(centers)
	if got := exactPoints(); got != before {
		t.Fatalf("a batch of %d points deep inside their slabs moved exact_points from %d to %d", len(centers), before, got)
	}
	batch(extremes)
	if got := exactPoints(); got != before+int64(len(extremes)) {
		t.Fatalf("a batch of %d circle extremes moved exact_points from %d to %d", len(extremes), before, got)
	}
	p := extremes[0]
	get(t, s, heatPath(p.X, p.Y))
	if got := exactPoints(); got != before+int64(len(extremes))+1 {
		t.Fatalf("GET /heat at a circle extreme moved exact_points from %d to %d", before+int64(len(extremes)), got)
	}
}
