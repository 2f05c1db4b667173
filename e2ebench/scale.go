package main

// scale fixes every size of the workloads. fullScale is the benchmark;
// tinyScale keeps the self-test to seconds.
type scale struct {
	// plan: the three inputs of an analyst session, the input of the
	// untimed warm-up session, and the plan server's small default map.
	planInputs  []mapSpec
	planWarm    mapSpec
	planDefault mapSpec
	sessionsPS  float64 // sessions per nominal second

	// explore and feed: the served map, heatmapd's default map (its data set,
	// sizes and metric, sampled as heatmapd -seed 1 samples it). It is the
	// same in every run; --seed draws the traffic.
	served     mapSpec
	servedSeed int64   // sample seed
	readsPS    float64 // explore reads per nominal second, per stream
	feedWrites float64 // feed write requests per nominal second
	feedReads  float64 // feed reads per nominal second
	warmReads  int     // untimed warm-up reads per stream
	setups     int     // set-ups per run; setup_s is their median

	minZoom, maxZoom int
	tileSkew         float64 // Zipf exponent of tile popularity
	heatPool         int     // distinct query points
	batchPoints      int
	facilityEvery    int // every n-th write opens/closes a facility

	// Output-check samples: every n-th request of the class is checked.
	heatEvery, batchEvery, tileEvery int

	// traceShare scales the traced run's scripts against the untraced ones.
	traceShare float64
}

var fullScale = scale{
	planInputs: []mapSpec{
		{Dataset: "Uniform", Metric: "linf", Clients: 1000, Facilities: 100},
		{Dataset: "Zipfian", Metric: "l1", Clients: 1000, Facilities: 100},
		{Dataset: "NYC", Metric: "l2", Clients: 600, Facilities: 180},
	},
	planWarm:    mapSpec{Dataset: "Uniform", Metric: "linf", Clients: 200, Facilities: 20},
	planDefault: mapSpec{Dataset: "Uniform", Metric: "linf", Clients: 100, Facilities: 10},
	sessionsPS:  0.4,

	served:     mapSpec{Dataset: "NYC", Metric: "l2", Clients: 2000, Facilities: 600},
	servedSeed: 2,
	readsPS:    750,
	feedWrites: 0.4,
	feedReads:  500,
	warmReads:  300,
	setups:     3,

	minZoom: 3, maxZoom: 6,
	tileSkew:      1.4,
	heatPool:      4096,
	batchPoints:   256,
	facilityEvery: 4,

	heatEvery: 41, batchEvery: 7, tileEvery: 97,

	traceShare: 0.5,
}

var tinyScale = scale{
	planInputs: []mapSpec{
		{Dataset: "Uniform", Metric: "linf", Clients: 60, Facilities: 8},
		{Dataset: "Zipfian", Metric: "l1", Clients: 60, Facilities: 8},
		{Dataset: "NYC", Metric: "l2", Clients: 40, Facilities: 12},
	},
	planWarm:    mapSpec{Dataset: "Uniform", Metric: "linf", Clients: 20, Facilities: 4},
	planDefault: mapSpec{Dataset: "Uniform", Metric: "linf", Clients: 10, Facilities: 3},
	sessionsPS:  1,

	served:     mapSpec{Dataset: "NYC", Metric: "l2", Clients: 80, Facilities: 20},
	servedSeed: 2,
	readsPS:    40,
	feedWrites: 2,
	feedReads:  40,
	warmReads:  10,
	setups:     2,

	minZoom: 1, maxZoom: 3,
	tileSkew:      1.3,
	heatPool:      64,
	batchPoints:   16,
	facilityEvery: 2,

	heatEvery: 3, batchEvery: 1, tileEvery: 4,

	traceShare: 1,
}
