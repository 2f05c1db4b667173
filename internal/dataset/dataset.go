// Package dataset generates and loads the point sets used by the examples,
// experiments and benchmarks.
//
// The paper evaluates on two real data sets (points of interest in New York
// City and Los Angeles, obtained from the authors of [2]) and two synthetic
// ones (Uniform and Zipfian with skew 0.2). The real POI files are not
// redistributable, so this package substitutes seeded generators that
// produce clustered, street-grid-aligned point sets of the same cardinality
// and qualitative skew (dense cores, sparse water/edge areas), which
// preserves the input properties the experiments measure — NN-circle radius
// distribution and overlap density. The synthetic generators follow the
// paper directly.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"rnnheatmap/internal/geom"
)

// Dataset is a named collection of points in a bounded region.
type Dataset struct {
	Name   string
	Points []geom.Point
	Bounds geom.Rect
}

// Len returns the number of points.
func (d *Dataset) Len() int { return len(d.Points) }

// Sample returns n points drawn uniformly at random without replacement
// (with replacement when n exceeds the data set size). The draw is
// deterministic for a given seed.
func (d *Dataset) Sample(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	if n >= len(d.Points) {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = d.Points[rng.Intn(len(d.Points))]
		}
		return out
	}
	perm := rng.Perm(len(d.Points))
	out := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		out[i] = d.Points[perm[i]]
	}
	return out
}

// SampleClientsFacilities draws a client set of size nClients and a facility
// set of size nFacilities from the data set, disjoint when possible, as the
// paper's experiments do ("we uniformly sample from the data sets to obtain
// the client set O and the facility set F").
func (d *Dataset) SampleClientsFacilities(nClients, nFacilities int, seed int64) (clients, facilities []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	total := nClients + nFacilities
	var pool []geom.Point
	if total <= len(d.Points) {
		perm := rng.Perm(len(d.Points))
		pool = make([]geom.Point, total)
		for i := 0; i < total; i++ {
			pool[i] = d.Points[perm[i]]
		}
	} else {
		pool = make([]geom.Point, total)
		for i := range pool {
			pool[i] = d.Points[rng.Intn(len(d.Points))]
		}
	}
	return pool[:nClients], pool[nClients:]
}

// Uniform returns n points distributed uniformly over bounds.
func Uniform(n int, bounds geom.Rect, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			bounds.MinX+rng.Float64()*bounds.Width(),
			bounds.MinY+rng.Float64()*bounds.Height(),
		)
	}
	return &Dataset{Name: "Uniform", Points: pts, Bounds: bounds}
}

// Zipfian returns n points whose coordinates follow a Zipf-like distribution
// with the given skew (the paper uses skew 0.2): the space is divided into
// cells whose selection probability decays as rank^-(1+skew), producing the
// mild clustering of the paper's Zipfian data set.
func Zipfian(n int, bounds geom.Rect, skew float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	const cells = 64
	// Zipf weights over cell ranks for each axis.
	weights := make([]float64, cells)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1+skew)
		total += weights[i]
	}
	pick := func() int {
		r := rng.Float64() * total
		acc := 0.0
		for i, w := range weights {
			acc += w
			if r <= acc {
				return i
			}
		}
		return cells - 1
	}
	// Shuffle cell ranks so the skew is not anchored to one corner.
	permX := rng.Perm(cells)
	permY := rng.Perm(cells)
	pts := make([]geom.Point, n)
	cw := bounds.Width() / cells
	ch := bounds.Height() / cells
	for i := range pts {
		cx := permX[pick()]
		cy := permY[pick()]
		pts[i] = geom.Pt(
			bounds.MinX+float64(cx)*cw+rng.Float64()*cw,
			bounds.MinY+float64(cy)*ch+rng.Float64()*ch,
		)
	}
	return &Dataset{Name: "Zipfian", Points: pts, Bounds: bounds}
}

// cityCluster is one population center of a simulated city.
type cityCluster struct {
	center geom.Point
	spread float64
	weight float64
}

// city generates a clustered, grid-aligned point set that stands in for a
// real POI data set: points concentrate around a handful of population
// centers, are softly snapped toward a street grid, and never fall into the
// excluded (water) band.
func city(name string, n int, bounds geom.Rect, clusters []cityCluster, water func(geom.Point) bool, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	total := 0.0
	for _, c := range clusters {
		total += c.weight
	}
	gridStep := bounds.Width() / 220 // city-block granularity
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		// Pick a cluster by weight; 10% of points are background noise.
		var p geom.Point
		if rng.Float64() < 0.1 {
			p = geom.Pt(bounds.MinX+rng.Float64()*bounds.Width(), bounds.MinY+rng.Float64()*bounds.Height())
		} else {
			r := rng.Float64() * total
			acc := 0.0
			var cl cityCluster
			for _, c := range clusters {
				acc += c.weight
				if r <= acc {
					cl = c
					break
				}
			}
			p = geom.Pt(cl.center.X+rng.NormFloat64()*cl.spread, cl.center.Y+rng.NormFloat64()*cl.spread)
		}
		// Soft snap toward the street grid to mimic POI alignment.
		p.X = 0.7*p.X + 0.3*(math.Round(p.X/gridStep)*gridStep)
		p.Y = 0.7*p.Y + 0.3*(math.Round(p.Y/gridStep)*gridStep)
		if !bounds.Contains(p) || (water != nil && water(p)) {
			continue
		}
		pts = append(pts, p)
	}
	return &Dataset{Name: name, Points: pts, Bounds: bounds}
}

// NYCSize and LASize are the cardinalities of the paper's real data sets
// (Table II); the simulated cities reproduce them by default.
const (
	NYCSize = 128547
	LASize  = 116596
)

// NewYorkLike returns a simulated stand-in for the NYC POI data set within
// the latitude/longitude window the paper plots ([40.50, 40.95] ×
// [-74.15, -73.70]). Pass n <= 0 for the paper's cardinality.
func NewYorkLike(n int, seed int64) *Dataset {
	if n <= 0 {
		n = NYCSize
	}
	// Coordinates are (longitude, latitude) to keep x horizontal.
	bounds := geom.Rect{MinX: -74.15, MinY: 40.50, MaxX: -73.70, MaxY: 40.95}
	clusters := []cityCluster{
		{center: geom.Pt(-73.985, 40.755), spread: 0.035, weight: 5}, // Manhattan
		{center: geom.Pt(-73.95, 40.68), spread: 0.05, weight: 3},    // Brooklyn
		{center: geom.Pt(-73.87, 40.73), spread: 0.06, weight: 2.5},  // Queens
		{center: geom.Pt(-73.90, 40.85), spread: 0.045, weight: 1.5}, // Bronx
		{center: geom.Pt(-74.10, 40.60), spread: 0.045, weight: 0.8}, // Staten Island
	}
	// A crude Hudson/Upper Bay exclusion band.
	water := func(p geom.Point) bool {
		inHudson := p.X > -74.045 && p.X < -74.005 && p.Y > 40.68
		inBay := p.X > -74.06 && p.X < -73.99 && p.Y > 40.60 && p.Y < 40.68
		return inHudson || inBay
	}
	return city("NYC", n, bounds, clusters, water, seed)
}

// LosAngelesLike returns a simulated stand-in for the LA POI data set within
// the window the paper plots ([33.82, 34.17] × [-118.47, -118.12]).
func LosAngelesLike(n int, seed int64) *Dataset {
	if n <= 0 {
		n = LASize
	}
	bounds := geom.Rect{MinX: -118.47, MinY: 33.82, MaxX: -118.12, MaxY: 34.17}
	clusters := []cityCluster{
		{center: geom.Pt(-118.25, 34.05), spread: 0.05, weight: 4},  // Downtown
		{center: geom.Pt(-118.40, 34.07), spread: 0.04, weight: 2},  // West side
		{center: geom.Pt(-118.30, 33.95), spread: 0.05, weight: 2},  // South LA
		{center: geom.Pt(-118.15, 34.10), spread: 0.045, weight: 2}, // East / Pasadena side
	}
	// Mountains in the far north-east corner have almost no POIs.
	water := func(p geom.Point) bool {
		return p.X > -118.23 && p.Y > 34.14
	}
	return city("LA", n, bounds, clusters, water, seed)
}

// ByName returns one of the four experiment data sets of the paper by name
// ("NYC", "LA", "Uniform", "Zipfian") with n points.
func ByName(name string, n int, seed int64) (*Dataset, error) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	switch name {
	case "NYC", "nyc":
		return NewYorkLike(n, seed), nil
	case "LA", "la":
		return LosAngelesLike(n, seed), nil
	case "Uniform", "uniform":
		return Uniform(n, bounds, seed), nil
	case "Zipfian", "zipfian":
		return Zipfian(n, bounds, 0.2, seed), nil
	default:
		return nil, fmt.Errorf("dataset: unknown data set %q", name)
	}
}

// Names lists the data sets of the paper's experiments in presentation order.
func Names() []string { return []string{"LA", "NYC", "Uniform", "Zipfian"} }

// NearDegenerate derives, from a seed, a small instance whose clients sit
// where exact arithmetic would call the arrangement of their NN-circles
// under metric degenerate; the differential suites of the sweep and of point
// location share it. Facilities are uniform over [0, 64]². Each client after
// the first takes one of these placements relative to an earlier client c
// and c's nearest facility f:
//   - on the segment from f to c, so both circles pass through f and are
//     tangent there;
//   - the same, nudged by about 1e-12, so they are near-tangent;
//   - at c's distance from f in a random direction, giving equal radii;
//   - mirrored across f's vertical line, so both intersections share f's x;
//   - uniformly at random.
//
// Every point is then offset by 0, 1e3 or 1e6, which scales the rounding of
// every coordinate the sweep computes.
func NearDegenerate(seed int64, nClients, nFacilities int, metric geom.Metric) (clients, facilities []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	facilities = make([]geom.Point, nFacilities)
	for i := range facilities {
		facilities[i] = geom.Pt(rng.Float64()*64, rng.Float64()*64)
	}
	nearest := func(p geom.Point) geom.Point {
		best := facilities[0]
		for _, f := range facilities[1:] {
			if metric.Distance(p, f) < metric.Distance(p, best) {
				best = f
			}
		}
		return best
	}
	clients = make([]geom.Point, nClients)
	clients[0] = geom.Pt(rng.Float64()*64, rng.Float64()*64)
	for i := 1; i < nClients; i++ {
		c := clients[rng.Intn(i)]
		f := nearest(c)
		switch rng.Intn(5) {
		case 0, 1:
			s := 0.1 + 0.8*rng.Float64()
			p := geom.Pt(f.X+s*(c.X-f.X), f.Y+s*(c.Y-f.Y))
			if rng.Intn(2) == 1 {
				p = geom.Pt(p.X+(rng.Float64()-0.5)*2e-12, p.Y+(rng.Float64()-0.5)*2e-12)
			}
			clients[i] = p
		case 2:
			u := geom.Pt(math.Cos(rng.Float64()*2*math.Pi), math.Sin(rng.Float64()*2*math.Pi))
			s := metric.Distance(c, f) / metric.Distance(geom.Pt(0, 0), u)
			clients[i] = geom.Pt(f.X+s*u.X, f.Y+s*u.Y)
		case 3:
			clients[i] = geom.Pt(2*f.X-c.X, c.Y)
		default:
			clients[i] = geom.Pt(rng.Float64()*64, rng.Float64()*64)
		}
	}
	offset := []float64{0, 1e3, 1e6}[rng.Intn(3)]
	for _, pts := range [][]geom.Point{facilities, clients} {
		for i := range pts {
			pts[i] = geom.Pt(pts[i].X+offset, pts[i].Y+offset)
		}
	}
	return clients, facilities
}
