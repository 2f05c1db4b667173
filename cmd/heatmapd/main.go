// Command heatmapd is a long-running, multi-tenant HTTP server over RNN heat
// maps: it builds (or loads from CSV or a snapshot) the default map once at
// startup, then serves raster tiles, influence queries, top-k and threshold
// exploration, optimal-location analytics (GET /optimal for the exact
// max-influence region, POST /optimize for greedy what-if facility
// placement), health and stats until shut down — for the default map and
// for any further maps created through POST /v1/maps. Every endpoint lives
// under /v1. With -mutable it also accepts live client/facility insertions
// and deletions through POST /v1/mutations (one request, one or more ops),
// applied incrementally with a copy-on-write map swap. With -snapshot-dir the
// registry is durable: maps are saved as binary snapshots, mutations are
// write-ahead logged, and -load restores everything on restart without
// re-running CREST. See internal/server for the endpoint reference.
//
// Examples:
//
//	heatmapd -dataset NYC -clients 5000 -facilities 1500 -metric l2 -addr :8080
//	heatmapd -clients-csv o.csv -facilities-csv f.csv -measure capacity -cap 25
//	heatmapd -dataset NYC -mutable       # enable POST /v1/mutations
//	heatmapd -mutable -snapshot-dir /var/lib/heatmapd -save-every 30s
//	heatmapd -mutable -snapshot-dir /var/lib/heatmapd -load   # resume after restart
//
// Then:
//
//	curl localhost:8080/v1/healthz
//	curl localhost:8080/v1/heat?x=-73.985\&y=40.755    # NYC is (lon, lat)
//	curl -o tile.png localhost:8080/v1/tiles/3/4/2.png
//	curl -X POST localhost:8080/v1/mutations -d '{"ops":[{"add_facilities":[{"x":-73.985,"y":40.755}]}]}'
//	curl localhost:8080/v1/optimal?k=3\&min_dist=0.01       # best places to open
//	curl -X POST 'localhost:8080/v1/optimize?k=2'           # greedy what-if (dry run)
//	curl localhost:8080/v1/maps
//	curl -X POST localhost:8080/v1/maps/default/snapshot
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/cluster"
	"rnnheatmap/internal/dataset"
	"rnnheatmap/internal/render"
	"rnnheatmap/internal/server"
	"rnnheatmap/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heatmapd: ")

	var (
		addr          = flag.String("addr", ":8080", "listen address")
		dsName        = flag.String("dataset", "NYC", "built-in data set to sample from (NYC, LA, Uniform, Zipfian)")
		clientsN      = flag.Int("clients", 2000, "number of clients to sample")
		facilitiesN   = flag.Int("facilities", 600, "number of facilities to sample")
		clientsCSV    = flag.String("clients-csv", "", "CSV file of client points (overrides -dataset)")
		facilitiesCSV = flag.String("facilities-csv", "", "CSV file of facility points (overrides -dataset)")
		metricName    = flag.String("metric", "l2", "distance metric: linf, l1 or l2")
		measureName   = flag.String("measure", "size", "influence measure: size or capacity")
		capPer        = flag.Float64("cap", 25, "per-facility capacity (capacity measure only)")
		capNew        = flag.Float64("newcap", 25, "capacity of the hypothetical new facility (capacity measure only)")
		workers       = flag.Int("workers", 0, "parallel sweep strips (0 = one per CPU, 1 = sequential)")
		seed          = flag.Int64("seed", 1, "random seed for sampling")
		tileSize      = flag.Int("tile-size", 256, "tile edge length in pixels")
		tileCache     = flag.Int("tile-cache", 512, "LRU tile cache capacity (tiles)")
		colorMapName  = flag.String("colormap", "gray", "tile color map: gray or inferno")
		mutable       = flag.Bool("mutable", false, "enable the write API (POST /v1/mutations, POST /v1/optimize?commit=true)")
		coalesceMS    = flag.Float64("coalesce-ms", 2, "coalescing window for POST /mutations group commits, in milliseconds (0 = never wait, commit whatever is queued)")
		coalesceOps   = flag.Int("coalesce-ops", 512, "max total ops gathered into one group commit")
		ingestQueue   = flag.Int("ingest-queue", 128, "per-map admission queue for POST /mutations; when full, requests get 429 + Retry-After")
		snapshotDir   = flag.String("snapshot-dir", "", "persist maps (snapshots + mutation WAL) in this directory")
		load          = flag.Bool("load", false, "restore maps from -snapshot-dir at startup, replaying each WAL (skips the build when a default snapshot exists)")
		saveEvery     = flag.Duration("save-every", 0, "autosave dirty maps to -snapshot-dir at this interval (0 = only on shutdown and explicit POST /maps/{name}/snapshot)")
		pprofOn       = flag.Bool("pprof", false, "expose Go runtime profiling under /debug/pprof/ (see docs/PROFILING.md; do not enable on untrusted networks)")
		clusterConfig = flag.String("cluster-config", "", "JSON topology file enabling cluster mode (static membership; requires -node-id, -mutable and -snapshot-dir)")
		nodeID        = flag.String("node-id", "", "this node's ID in the -cluster-config topology")
		shipInterval  = flag.Duration("ship-interval", 0, "replica WAL poll interval in cluster mode (0 = default)")
		probeInterval = flag.Duration("probe-interval", 0, "peer health probe interval in cluster mode (0 = default)")
	)
	flag.Parse()

	if err := run(config{
		addr: *addr, dsName: *dsName, clientsN: *clientsN, facilitiesN: *facilitiesN,
		clientsCSV: *clientsCSV, facilitiesCSV: *facilitiesCSV, metricName: *metricName,
		measureName: *measureName, capPer: *capPer, capNew: *capNew,
		workers: *workers, seed: *seed,
		tileSize: *tileSize, tileCache: *tileCache, colorMapName: *colorMapName,
		mutable: *mutable, snapshotDir: *snapshotDir, load: *load, saveEvery: *saveEvery,
		coalesceMS: *coalesceMS, coalesceOps: *coalesceOps, ingestQueue: *ingestQueue,
		pprof:         *pprofOn,
		clusterConfig: *clusterConfig, nodeID: *nodeID,
		shipInterval: *shipInterval, probeInterval: *probeInterval,
	}); err != nil {
		log.Fatal(err)
	}
}

type config struct {
	addr                      string
	dsName                    string
	clientsN, facilitiesN     int
	clientsCSV, facilitiesCSV string
	metricName, measureName   string
	capPer, capNew            float64
	workers                   int
	seed                      int64
	tileSize, tileCache       int
	colorMapName              string
	mutable                   bool
	snapshotDir               string
	load                      bool
	saveEvery                 time.Duration
	coalesceMS                float64
	coalesceOps               int
	ingestQueue               int
	pprof                     bool
	clusterConfig             string
	nodeID                    string
	shipInterval              time.Duration
	probeInterval             time.Duration
}

func run(cfg config) error {
	cm, err := parseColorMap(cfg.colorMapName)
	if err != nil {
		return err
	}
	if cfg.load && cfg.snapshotDir == "" {
		return fmt.Errorf("-load requires -snapshot-dir")
	}
	if cfg.saveEvery < 0 || (cfg.saveEvery > 0 && cfg.snapshotDir == "") {
		return fmt.Errorf("-save-every requires -snapshot-dir and a non-negative interval")
	}
	var clusterOpts *server.ClusterOptions
	if cfg.clusterConfig != "" || cfg.nodeID != "" {
		if cfg.clusterConfig == "" || cfg.nodeID == "" {
			return fmt.Errorf("cluster mode needs both -cluster-config and -node-id")
		}
		if !cfg.mutable || cfg.snapshotDir == "" {
			// The owner ships its WAL and serves its snapshot file; replicas
			// bootstrap into -snapshot-dir. Neither exists without these.
			return fmt.Errorf("-cluster-config requires -mutable and -snapshot-dir")
		}
		topo, err := cluster.LoadTopology(cfg.clusterConfig)
		if err != nil {
			return err
		}
		clusterOpts = &server.ClusterOptions{
			Topology:      topo,
			NodeID:        cfg.nodeID,
			ShipInterval:  cfg.shipInterval,
			ProbeInterval: cfg.probeInterval,
		}
	}

	// With -load and a default snapshot on disk, the expensive Build is
	// skipped entirely: the server restores every map (snapshot + WAL replay)
	// itself, in milliseconds.
	var m *heatmap.Map
	switch {
	case cfg.load && snapshotExists(cfg.snapshotDir, server.DefaultMapName):
		log.Printf("loading maps from %s (skipping the build)", cfg.snapshotDir)
	case !cfg.load && cfg.snapshotDir != "" && snapshotExists(cfg.snapshotDir, server.DefaultMapName):
		// Registering a freshly built default map would overwrite the
		// snapshot and clear its WAL — every durably acknowledged mutation
		// of the previous run. A forgotten -load must not do that silently.
		return fmt.Errorf("%s already holds a %q map snapshot; pass -load to restore it, or point -snapshot-dir at a fresh directory (refusing to overwrite durable state)",
			cfg.snapshotDir, server.DefaultMapName)
	default:
		if m, err = buildInitialMap(cfg); err != nil {
			return err
		}
	}

	if cfg.coalesceMS < 0 {
		return fmt.Errorf("-coalesce-ms must be non-negative")
	}
	// -coalesce-ms 0 means "never wait"; server.Config spells that as a
	// negative window (its zero value selects the default).
	window := time.Duration(cfg.coalesceMS * float64(time.Millisecond))
	if cfg.coalesceMS == 0 {
		window = -1
	}
	srv, err := server.New(server.Config{
		Map:            m,
		Mutable:        cfg.mutable,
		TileSize:       cfg.tileSize,
		TileCacheSize:  cfg.tileCache,
		ColorMap:       cm,
		CoalesceWindow: window,
		CoalesceOps:    cfg.coalesceOps,
		IngestQueue:    cfg.ingestQueue,
		SnapshotDir:    cfg.snapshotDir,
		Load:           cfg.load,
		Cluster:        clusterOpts,
	})
	if err != nil {
		return err
	}
	if cfg.mutable {
		log.Printf("write API enabled: POST /v1/mutations, POST /v1/optimize?commit=true (coalesce %.3gms, %d ops; queue %d)",
			cfg.coalesceMS, cfg.coalesceOps, cfg.ingestQueue)
	}
	if cfg.snapshotDir != "" {
		log.Printf("persisting maps to %s (autosave %v)", cfg.snapshotDir, cfg.saveEvery)
	}
	if clusterOpts != nil {
		log.Printf("cluster mode: node %q in a %d-node topology (replicas=%d, vnodes=%d)",
			cfg.nodeID, len(clusterOpts.Topology.Nodes), clusterOpts.Topology.Replicas, clusterOpts.Topology.VNodes)
	}

	var handler http.Handler = srv
	if cfg.pprof {
		// The pprof handlers are registered on an explicit mux (not the
		// package-level DefaultServeMux side effect) so they exist exactly
		// when -pprof asks for them. Profile downloads are long-polling and
		// verbose; they bypass the access log.
		mux := http.NewServeMux()
		mux.Handle("/", srv)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("profiling enabled at /debug/pprof/ (see docs/PROFILING.md)")
	}
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           logRequests(handler),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s (tiles %dpx, cache %d tiles)", cfg.addr, cfg.tileSize, cfg.tileCache)

	if cfg.saveEvery > 0 {
		go func() {
			ticker := time.NewTicker(cfg.saveEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := srv.SaveAll(); err != nil {
						log.Printf("autosave: %v", err)
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Persist dirty maps and close the WALs once no request is in flight.
	if err := srv.Close(); err != nil {
		return err
	}
	return nil
}

// buildInitialMap loads the point sets and builds the default map from the
// command-line configuration.
func buildInitialMap(cfg config) (*heatmap.Map, error) {
	metric, err := heatmap.ParseMetric(cfg.metricName)
	if err != nil {
		return nil, err
	}
	clients, facilities, err := loadPoints(cfg)
	if err != nil {
		return nil, err
	}
	measure, err := buildMeasure(cfg, clients, facilities, metric)
	if err != nil {
		return nil, err
	}
	if cfg.mutable && strings.ToLower(cfg.measureName) == "capacity" {
		// The capacity measure closes over the client -> facility assignment
		// computed at startup; live set updates would silently evaluate heat
		// against a stale assignment.
		return nil, fmt.Errorf("-mutable is incompatible with -measure capacity (the assignment context would go stale)")
	}

	log.Printf("building heat map: %d clients, %d facilities, metric=%s measure=%s workers=%d",
		len(clients), len(facilities), metric, measure.Name(), cfg.workers)
	start := time.Now()
	m, err := heatmap.Build(heatmap.Config{
		Clients:    clients,
		Facilities: facilities,
		Metric:     metric,
		Measure:    measure,
		Workers:    cfg.workers,
	})
	if err != nil {
		return nil, err
	}
	maxHeat, _ := m.MaxHeat()
	log.Printf("built in %v: %d regions, max heat %.2f, bounds %v",
		time.Since(start).Round(time.Millisecond), m.NumRegions(), maxHeat, m.Bounds())
	return m, nil
}

// snapshotExists reports whether a snapshot for the named map is on disk.
func snapshotExists(dir, name string) bool {
	_, err := os.Stat(snapshot.MapPath(dir, name))
	return err == nil
}

// buildMeasure constructs the influence measure. The capacity-constrained
// measure of Sun et al. [22] needs the current client -> nearest facility
// assignment, computed here directly from the input points.
func buildMeasure(cfg config, clients, facilities []heatmap.Point, metric heatmap.Metric) (heatmap.Measure, error) {
	switch strings.ToLower(cfg.measureName) {
	case "size", "":
		return heatmap.Size(), nil
	case "capacity":
		if len(facilities) == 0 {
			return nil, fmt.Errorf("the capacity measure needs a facility set")
		}
		assignment, err := heatmap.NearestAssignment(clients, facilities, metric)
		if err != nil {
			return nil, err
		}
		capacities := make([]float64, len(facilities))
		for i := range capacities {
			capacities[i] = cfg.capPer
		}
		return heatmap.Capacity(assignment, capacities, cfg.capNew), nil
	default:
		return nil, fmt.Errorf("unknown measure %q (want size or capacity)", cfg.measureName)
	}
}

func parseColorMap(name string) (render.ColorMap, error) {
	switch strings.ToLower(name) {
	case "gray", "grey", "grayscale":
		return render.Grayscale, nil
	case "inferno":
		return render.Inferno, nil
	default:
		return nil, fmt.Errorf("unknown color map %q (want gray or inferno)", name)
	}
}

func loadPoints(cfg config) ([]heatmap.Point, []heatmap.Point, error) {
	if cfg.clientsCSV != "" || cfg.facilitiesCSV != "" {
		if cfg.clientsCSV == "" || cfg.facilitiesCSV == "" {
			return nil, nil, fmt.Errorf("both -clients-csv and -facilities-csv are required when loading from CSV")
		}
		cd, err := dataset.LoadCSV("clients", cfg.clientsCSV)
		if err != nil {
			return nil, nil, err
		}
		fd, err := dataset.LoadCSV("facilities", cfg.facilitiesCSV)
		if err != nil {
			return nil, nil, err
		}
		return cd.Points, fd.Points, nil
	}
	pool := (cfg.clientsN + cfg.facilitiesN) * 2
	ds, err := dataset.ByName(cfg.dsName, pool, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "available data sets:", strings.Join(dataset.Names(), ", "))
		return nil, nil, err
	}
	clients, facilities := ds.SampleClientsFacilities(cfg.clientsN, cfg.facilitiesN, cfg.seed+1)
	return clients, facilities, nil
}

// logRequests is a minimal access-log middleware.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %v", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
