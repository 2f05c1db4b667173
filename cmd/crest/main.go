// Command crest builds an RNN heat map from CSV point files or one of the
// built-in data set generators and writes it as a PNG image, optionally
// printing the top-k most influential regions. A built map can be saved as
// a binary snapshot (-save-snapshot) and later re-opened in milliseconds
// (-load-snapshot) — by crest itself or by heatmapd's -snapshot-dir/-load —
// without re-running the sweep.
//
// Examples:
//
//	crest -dataset NYC -clients 20000 -facilities 6000 -metric l2 -png nyc.png
//	crest -clients-csv clients.csv -facilities-csv facilities.csv -metric l1 -topk 5
//	crest -dataset NYC -clients 100000 -facilities 30000 -save-snapshot nyc.snap
//	crest -load-snapshot nyc.snap -png nyc.png -topk 10
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crest: ")

	var (
		dsName        = flag.String("dataset", "NYC", "built-in data set to sample from (NYC, LA, Uniform, Zipfian)")
		clientsN      = flag.Int("clients", 2000, "number of clients to sample")
		facilitiesN   = flag.Int("facilities", 600, "number of facilities to sample")
		clientsCSV    = flag.String("clients-csv", "", "CSV file of client points (overrides -dataset)")
		facilitiesCSV = flag.String("facilities-csv", "", "CSV file of facility points (overrides -dataset)")
		metricName    = flag.String("metric", "l2", "distance metric: linf, l1 or l2")
		algorithm     = flag.String("algorithm", "crest", "region coloring algorithm: crest, crest-a or baseline")
		pngPath       = flag.String("png", "", "write the heat map to this PNG file")
		pngWidth      = flag.Int("width", 800, "PNG width in pixels")
		topK          = flag.Int("topk", 5, "print the top-k most influential regions")
		ascii         = flag.Bool("ascii", false, "print an ASCII preview of the heat map")
		seed          = flag.Int64("seed", 1, "random seed for sampling")
		workers       = flag.Int("workers", 0, "parallel sweep strips (0 = one per CPU, 1 = sequential)")
		saveSnapshot  = flag.String("save-snapshot", "", "write the built map to this snapshot file")
		loadSnapshot  = flag.String("load-snapshot", "", "serve the map from this snapshot file (mmap'd, no decode) instead of building")
		memStats      = flag.Bool("mem-stats", false, "print process residency (VmRSS/VmHWM from /proc/self/status) before exiting; scripts/measure_rss.sh parses this")
	)
	flag.Parse()

	var m *heatmap.Map
	// mapVersion rides along to -save-snapshot: a freshly built map is
	// version 1, but a re-saved server snapshot must keep its version or the
	// lineage (and any WAL beside it) diverges.
	mapVersion := uint64(1)
	if *loadSnapshot != "" {
		// The snapshot fixes the workload and configuration; build flags
		// would be silently meaningless, so call that out.
		buildFlags := map[string]bool{
			"dataset": true, "clients": true, "facilities": true,
			"clients-csv": true, "facilities-csv": true, "metric": true,
			"algorithm": true, "seed": true, "workers": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if buildFlags[f.Name] {
				log.Printf("warning: -%s is ignored with -load-snapshot (the snapshot fixes the workload and configuration)", f.Name)
			}
		})
		start := time.Now()
		var err error
		m, mapVersion, err = heatmap.OpenSnapshot(*loadSnapshot)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot %s loaded in %v: %d clients, %d facilities, version %d\n",
			*loadSnapshot, time.Since(start).Round(time.Microsecond), m.NumClients(), m.NumFacilities(), mapVersion)
	} else {
		metric, err := heatmap.ParseMetric(*metricName)
		if err != nil {
			log.Fatal(err)
		}
		clients, facilities, err := loadPoints(*dsName, *clientsN, *facilitiesN, *clientsCSV, *facilitiesCSV, *seed)
		if err != nil {
			log.Fatal(err)
		}
		m, err = heatmap.Build(heatmap.Config{
			Clients:    clients,
			Facilities: facilities,
			Metric:     metric,
			Algorithm:  heatmap.Algorithm(*algorithm),
			Workers:    *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		effWorkers := *workers
		if effWorkers <= 0 {
			effWorkers = runtime.GOMAXPROCS(0)
		}
		if *algorithm == string(heatmap.AlgBaseline) {
			effWorkers = 1 // the grid baseline always runs sequentially
		}
		fmt.Printf("clients=%d facilities=%d metric=%s algorithm=%s workers=%d\n",
			len(clients), len(facilities), metric, *algorithm, effWorkers)
	}

	stats := m.Stats()
	fmt.Printf("regions labeled: %d  events: %d  max RNN set size: %d  time: %v\n",
		stats.Labelings, stats.Events, stats.MaxRNNSetSize, stats.Duration)

	maxHeat, best := m.MaxHeat()
	fmt.Printf("maximum influence: %.2f at %s (RNN set size %d)\n", maxHeat, best.Point, len(best.RNN))

	if *topK > 0 {
		fmt.Printf("\ntop %d regions by influence:\n", *topK)
		for i, r := range m.TopK(*topK) {
			fmt.Printf("  %2d. heat=%.2f at %s, %d clients\n", i+1, r.Heat, r.Point, len(r.RNN))
		}
	}

	if *ascii {
		art, err := m.ASCII(72)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(art)
	}

	if *pngPath != "" {
		if err := m.SavePNG(*pngPath, *pngWidth); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nheat map written to %s\n", *pngPath)
	}

	if *saveSnapshot != "" {
		start := time.Now()
		if err := m.SaveSnapshot(*saveSnapshot, mapVersion); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nsnapshot written to %s in %v\n", *saveSnapshot, time.Since(start).Round(time.Microsecond))
	}

	if *memStats {
		printMemStats(m)
	}
}

// printMemStats reports the kernel's view of the process — current and peak
// resident set, split into anonymous (heap, unreclaimable) and file-backed
// (mapped snapshot pages, plain reclaimable page cache) — next to the map's
// residency mode, so the zero-copy claim is measurable: a decoded load's
// arrangement is all RssAnon, a mapped load keeps RssAnon flat and shows up
// as RssFile the kernel can drop under pressure. /proc is Linux-only;
// elsewhere the kernel lines are skipped.
func printMemStats(m *heatmap.Map) {
	fmt.Printf("\nresidency: %s\n", m.Residency())
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fmt.Println("mem-stats: /proc/self/status unavailable on this platform")
		return
	}
	for _, line := range strings.Split(string(status), "\n") {
		switch {
		case strings.HasPrefix(line, "VmRSS:"),
			strings.HasPrefix(line, "VmHWM:"),
			strings.HasPrefix(line, "RssAnon:"),
			strings.HasPrefix(line, "RssFile:"):
			fmt.Println(line)
		}
	}
}

func loadPoints(dsName string, nClients, nFacilities int, clientsCSV, facilitiesCSV string, seed int64) ([]heatmap.Point, []heatmap.Point, error) {
	if clientsCSV != "" || facilitiesCSV != "" {
		if clientsCSV == "" || facilitiesCSV == "" {
			return nil, nil, fmt.Errorf("both -clients-csv and -facilities-csv are required when loading from CSV")
		}
		cd, err := dataset.LoadCSV("clients", clientsCSV)
		if err != nil {
			return nil, nil, err
		}
		fd, err := dataset.LoadCSV("facilities", facilitiesCSV)
		if err != nil {
			return nil, nil, err
		}
		return cd.Points, fd.Points, nil
	}
	pool := (nClients + nFacilities) * 2
	ds, err := dataset.ByName(dsName, pool, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "available data sets:", strings.Join(dataset.Names(), ", "))
		return nil, nil, err
	}
	clients, facilities := ds.SampleClientsFacilities(nClients, nFacilities, seed+1)
	return clients, facilities, nil
}
