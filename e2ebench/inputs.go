package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/geom"
)

// mapSpec describes one generated map input: a data set of the paper's
// experiments, a metric, and the client and facility counts sampled from it.
type mapSpec struct {
	Dataset    string
	Metric     string // "linf", "l1" or "l2", as POST /v1/maps takes it
	Clients    int
	Facilities int
}

func (s mapSpec) String() string {
	return fmt.Sprintf("%s %s %d/%d", s.Dataset, s.Metric, s.Clients, s.Facilities)
}

// points samples the spec's client and facility sets the way heatmapd does:
// a pool of twice the map's size generated with poolSeed, then a disjoint
// sample drawn from it with sampleSeed.
func (s mapSpec) points(poolSeed, sampleSeed int64) (clients, facilities []geom.Point, err error) {
	ds, err := dataset.ByName(s.Dataset, 2*(s.Clients+s.Facilities), poolSeed)
	if err != nil {
		return nil, nil, err
	}
	clients, facilities = ds.SampleClientsFacilities(s.Clients, s.Facilities, sampleSeed)
	return clients, facilities, nil
}

// metric parses the spec's metric name.
func (s mapSpec) metric() geom.Metric {
	m, err := heatmap.ParseMetric(s.Metric)
	if err != nil {
		panic(err) // the specs are constants of this file
	}
	return m
}

// mapInput is a generated map: the spec and its points.
type mapInput struct {
	spec       mapSpec
	clients    []geom.Point
	facilities []geom.Point
}

// poolSeed generates every data set pool. Pools are fixed — a Zipfian
// pool's cluster layout would otherwise change the map's size from seed to
// seed — and the run's seed draws the samples from them.
const poolSeed = 1

func newMapInput(spec mapSpec, sampleSeed int64) (*mapInput, error) {
	c, f, err := spec.points(poolSeed, sampleSeed)
	if err != nil {
		return nil, err
	}
	return &mapInput{spec: spec, clients: c, facilities: f}, nil
}

// config is the heatmap.Config the server builds for a POST /v1/maps of
// this input (size measure, default workers).
func (in *mapInput) config() heatmap.Config {
	return heatmap.Config{Clients: in.clients, Facilities: in.facilities, Metric: in.spec.metric()}
}

// bounds is the bounding box of the input's points; write traffic draws new
// clients uniformly inside it.
func (in *mapInput) bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, p := range in.clients {
		r = r.UnionPoint(p)
	}
	for _, p := range in.facilities {
		r = r.UnionPoint(p)
	}
	return r
}

type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func toJSONPoints(ps []geom.Point) []pointJSON {
	out := make([]pointJSON, len(ps))
	for i, p := range ps {
		out[i] = pointJSON{X: p.X, Y: p.Y}
	}
	return out
}

// createBody is the POST /v1/maps payload for this input under name.
func (in *mapInput) createBody(name string) []byte {
	b, err := json.Marshal(map[string]any{
		"name":       name,
		"clients":    toJSONPoints(in.clients),
		"facilities": toJSONPoints(in.facilities),
		"metric":     in.spec.Metric,
	})
	if err != nil {
		panic(err) // finite floats and plain structs always encode
	}
	return b
}

// subSeed derives an independent seed for one generator of a run, so every
// input is fixed by the run's --seed alone.
func subSeed(seed int64, k int64) int64 { return seed*7919 + k }

// A request is one step of a stream's script: what is sent, plus the
// decoded payload the checks and the traced replay need.
type request struct {
	class  string // create, optimal, optimize, delete, tile, heat, batch, write; check is untimed
	method string
	path   string
	body   []byte
	keep   bool // keep the response body (checks, trace)

	input  int             // plan: index into the session's inputs
	name   string          // plan: map name
	pt     geom.Point      // heat
	pts    []geom.Point    // batch
	tile   [3]int          // tile: z, x, y
	deltas []heatmap.Delta // write
	ops    int             // write: op count
}

// timed reports whether the request's latency is a measured sample; check
// requests only read back state for the output checks.
func (r *request) timed() bool { return r.class != "check" }

// isRead reports whether the request is one of the read mix's classes.
func (r *request) isRead() bool {
	return r.class == "tile" || r.class == "heat" || r.class == "batch"
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// readGen draws the read mix of the explore workload: 50% tiles (Zipf-popular
// over every tile of zooms minZoom..maxZoom), 45% point queries and 5%
// batches, with query points drawn from the served map's own distribution.
// The draw is stratified: a script of n reads has exactly the mix's class
// counts and requests each tile its Zipf share of the tile count (largest
// remainder rounding), so every seed asks the same amount of work and the
// seed decides the order and the query points.
type readGen struct {
	rng    *rand.Rand
	tiles  [][3]int  // by popularity rank
	weight []float64 // Zipf probability of each rank
	pool   []geom.Point
	batchN int
}

func newReadGen(spec mapSpec, seed int64, sz *scale) (*readGen, error) {
	// Popularity ranks the pyramid the way a dashboard is browsed: coarser
	// zooms first, and within a zoom, tiles nearer the middle of the grid
	// (where the map's data is centered) first.
	var tiles [][3]int
	for z := sz.minZoom; z <= sz.maxZoom; z++ {
		n := 1 << z
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				tiles = append(tiles, [3]int{z, x, y})
			}
		}
	}
	ring := func(t [3]int) int {
		c := float64(int(1)<<t[0]-1) / 2
		return int(math.Max(math.Abs(float64(t[1])-c), math.Abs(float64(t[2])-c)))
	}
	sort.SliceStable(tiles, func(i, j int) bool {
		if tiles[i][0] != tiles[j][0] {
			return tiles[i][0] < tiles[j][0]
		}
		return ring(tiles[i]) < ring(tiles[j])
	})
	weight := make([]float64, len(tiles))
	total := 0.0
	for r := range weight {
		weight[r] = math.Pow(float64(r+1), -sz.tileSkew)
		total += weight[r]
	}
	for r := range weight {
		weight[r] /= total
	}
	ds, err := dataset.ByName(spec.Dataset, sz.heatPool, seed+1)
	if err != nil {
		return nil, err
	}
	return &readGen{
		rng:    rand.New(rand.NewSource(seed)),
		tiles:  tiles,
		weight: weight,
		pool:   ds.Points,
		batchN: sz.batchPoints,
	}, nil
}

func (g *readGen) point() geom.Point { return g.pool[g.rng.Intn(len(g.pool))] }

// tileMultiset returns n tile requests, each rank's count being its Zipf
// share of n rounded by largest remainder, in seeded random order.
func (g *readGen) tileMultiset(n int) [][3]int {
	counts := make([]int, len(g.tiles))
	rem := make([]int, len(g.tiles))
	left := n
	for r, w := range g.weight {
		counts[r] = int(w * float64(n))
		left -= counts[r]
		rem[r] = r
	}
	frac := func(r int) float64 { return g.weight[r]*float64(n) - float64(counts[r]) }
	sort.SliceStable(rem, func(a, b int) bool { return frac(rem[a]) > frac(rem[b]) })
	for _, r := range rem[:left] {
		counts[r]++
	}
	out := make([][3]int, 0, n)
	for r, c := range counts {
		for ; c > 0; c-- {
			out = append(out, g.tiles[r])
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// script draws n read requests: n/2 tiles, n/20 batches, the rest point
// queries, interleaved in seeded random order.
func (g *readGen) script(n int) []*request {
	nTile, nBatch := n/2, n/20
	classes := make([]byte, n)
	for i := range classes {
		switch {
		case i < nTile:
			classes[i] = 't'
		case i < nTile+nBatch:
			classes[i] = 'b'
		default:
			classes[i] = 'h'
		}
	}
	g.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	tiles := g.tileMultiset(nTile)
	out := make([]*request, n)
	for i, c := range classes {
		switch c {
		case 't':
			t := tiles[0]
			tiles = tiles[1:]
			out[i] = &request{class: "tile", method: "GET", tile: t,
				path: fmt.Sprintf("/v1/tiles/%d/%d/%d.png", t[0], t[1], t[2])}
		case 'h':
			p := g.point()
			out[i] = &request{class: "heat", method: "GET", pt: p,
				path: "/v1/heat?x=" + fmtFloat(p.X) + "&y=" + fmtFloat(p.Y)}
		default:
			pts := make([]geom.Point, g.batchN)
			for k := range pts {
				pts[k] = g.point()
			}
			body, err := json.Marshal(map[string]any{"points": toJSONPoints(pts)})
			if err != nil {
				panic(err)
			}
			out[i] = &request{class: "batch", method: "POST", path: "/v1/heat/batch", pts: pts, body: body}
		}
	}
	return out
}

// writeGen draws heatgen-style balanced mutation requests of four ops: a
// uniform client add/remove pair twice, or — in every facilityEvery-th
// request — one client pair plus a facility open/close at a site of a
// Zipfian-clustered site pool. Removals target index 0, which stays valid
// because every request is balanced.
type writeGen struct {
	rng    *rand.Rand
	bounds geom.Rect
	sites  []geom.Point
	every  int
	n      int
}

func newWriteGen(bounds geom.Rect, seed int64, facilityEvery int) *writeGen {
	return &writeGen{
		rng:    rand.New(rand.NewSource(seed)),
		bounds: bounds,
		sites:  dataset.Zipfian(512, bounds, 1.2, seed+1).Points,
		every:  facilityEvery,
	}
}

func (g *writeGen) uniform() geom.Point {
	b := g.bounds
	return geom.Pt(b.MinX+g.rng.Float64()*(b.MaxX-b.MinX), b.MinY+g.rng.Float64()*(b.MaxY-b.MinY))
}

func (g *writeGen) next() *request {
	g.n++
	ds := []heatmap.Delta{
		{AddClients: []geom.Point{g.uniform()}},
		{RemoveClients: []int{0}},
	}
	if g.n%g.every == 0 {
		ds = append(ds,
			heatmap.Delta{AddFacilities: []geom.Point{g.sites[g.rng.Intn(len(g.sites))]}},
			heatmap.Delta{RemoveFacilities: []int{0}})
	} else {
		ds = append(ds,
			heatmap.Delta{AddClients: []geom.Point{g.uniform()}},
			heatmap.Delta{RemoveClients: []int{0}})
	}
	type opJSON struct {
		AddClients       []pointJSON `json:"add_clients,omitempty"`
		RemoveClients    []int       `json:"remove_clients,omitempty"`
		AddFacilities    []pointJSON `json:"add_facilities,omitempty"`
		RemoveFacilities []int       `json:"remove_facilities,omitempty"`
	}
	ops := make([]opJSON, len(ds))
	for i, d := range ds {
		ops[i] = opJSON{
			AddClients:       toJSONPoints(d.AddClients),
			RemoveClients:    d.RemoveClients,
			AddFacilities:    toJSONPoints(d.AddFacilities),
			RemoveFacilities: d.RemoveFacilities,
		}
	}
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err)
	}
	return &request{class: "write", method: "POST", path: "/v1/mutations", body: body,
		deltas: ds, ops: len(ds), keep: true}
}

// applyModel applies deltas to the benchmark's own model of the client and
// facility sets, with the delta layer's documented semantics: per delta,
// client removals (swap-remove), client additions, facility removals,
// facility additions.
func applyModel(clients, facilities []geom.Point, ds []heatmap.Delta) ([]geom.Point, []geom.Point) {
	swapRemove := func(ps []geom.Point, ix int) []geom.Point {
		last := len(ps) - 1
		ps[ix] = ps[last]
		return ps[:last]
	}
	for _, d := range ds {
		for _, ix := range d.RemoveClients {
			clients = swapRemove(clients, ix)
		}
		clients = append(clients, d.AddClients...)
		for _, ix := range d.RemoveFacilities {
			facilities = swapRemove(facilities, ix)
		}
		facilities = append(facilities, d.AddFacilities...)
	}
	return clients, facilities
}

// interleave merges streams into one script for the traced run, spreading
// each stream's requests evenly (in order) over the merged sequence.
func interleave(streams [][]*request) []*request {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]*request, 0, total)
	next := make([]int, len(streams))
	for len(out) < total {
		// Pick the stream furthest behind its even share of the output.
		best, bestLag := -1, math.Inf(1)
		for i, s := range streams {
			if next[i] == len(s) {
				continue
			}
			lag := float64(next[i]+1) / float64(len(s))
			if lag < bestLag {
				best, bestLag = i, lag
			}
		}
		out = append(out, streams[best][next[best]])
		next[best]++
	}
	return out
}
