package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
)

// The -ab mode summarizes the log of scripts/e2e_ab.sh: alternating
// end-to-end benchmark runs of a parent and a change checkout, one JSON line
// per run. For every metric it reports each side's median and quartiles, how
// many same-seed pairs the change won and the range of the change/parent
// ratios, whether the median moved by more than the parent's interquartile
// range, and whether the change's median stays within the metric's bound in
// BENCHMARK.json.

// abRun is one line of the A/B log.
type abRun struct {
	Side  string `json:"side"`
	Seed  int64  `json:"seed"`
	Steal int64  `json:"steal"`
	Run   *struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"run"`
}

// specMetric is one metric declaration of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec holds the metric declarations of BENCHMARK.json.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// quartiles holds the lower quartile, median and upper quartile of a sample.
type quartiles struct{ q1, med, q3 float64 }

// abMetric is the A/B summary of one metric.
type abMetric struct {
	name, unit, better string // better is "" when the direction is unknown
	bound              float64
	hasBound           bool // an end-to-end metric with a bound
	parent, change     quartiles
	pairs, wins        int
	minRatio, maxRatio float64 // change/parent over the pairs
	beyondIQR          bool    // |Δ median| > the parent's IQR
	withinBound        bool    // false when !hasBound
}

// abSide is the run-level summary of one side.
type abSide struct {
	runs, incorrect, attempted, failed int
	steal                              quartiles
}

// percentile returns the p-quantile of sorted xs, interpolating linearly
// between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartilesOf sorts xs in place and returns its quartiles.
func quartilesOf(xs []float64) quartiles {
	sort.Float64s(xs)
	return quartiles{percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75)}
}

// summarizeAB computes the per-side and per-metric summaries of an A/B log.
// Metrics appear in BENCHMARK.json's end-to-end order, then every other
// metric the runs report, by name; a metric is summarized when both sides
// report it at least once.
func summarizeAB(spec benchSpec, runs []abRun) (sides map[string]*abSide, metrics []abMetric) {
	sides = map[string]*abSide{"parent": {}, "change": {}}
	values := map[string]map[string]map[int64]float64{} // metric -> side -> seed -> value
	units := map[string]string{}
	steal := map[string][]float64{}
	for _, r := range runs {
		sd, ok := sides[r.Side]
		if !ok {
			continue
		}
		sd.runs++
		steal[r.Side] = append(steal[r.Side], float64(r.Steal))
		if r.Run == nil {
			sd.incorrect++
			continue
		}
		if !r.Run.Correct {
			sd.incorrect++
		}
		sd.attempted += r.Run.Attempted
		sd.failed += r.Run.Failed
		for name, m := range r.Run.Metrics {
			if values[name] == nil {
				values[name] = map[string]map[int64]float64{"parent": {}, "change": {}}
			}
			values[name][r.Side][r.Seed] = m.Value
			units[name] = m.Unit
		}
	}
	for side, xs := range steal {
		sides[side].steal = quartilesOf(xs)
	}

	declared := map[string]specMetric{}
	var order []string
	for _, m := range spec.PerLayer {
		declared[m.Name] = m
	}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m
		order = append(order, m.Name)
	}
	var rest []string
	for name := range values {
		if !slices.Contains(order, name) {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range append(order, rest...) {
		byside := values[name]
		if len(byside["parent"]) == 0 || len(byside["change"]) == 0 {
			continue
		}
		d := declared[name]
		am := abMetric{name: name, unit: units[name], better: d.Better, bound: d.Bound,
			hasBound: slices.Contains(order, name), minRatio: math.Inf(1), maxRatio: math.Inf(-1)}
		am.parent = quartilesOf(slices.Collect(maps.Values(byside["parent"])))
		am.change = quartilesOf(slices.Collect(maps.Values(byside["change"])))
		for seed, p := range byside["parent"] {
			c, ok := byside["change"][seed]
			if !ok {
				continue
			}
			am.pairs++
			if p != 0 {
				r := c / p
				am.minRatio, am.maxRatio = math.Min(am.minRatio, r), math.Max(am.maxRatio, r)
			}
			if am.better == "higher" && c > p || am.better == "lower" && c < p {
				am.wins++
			}
		}
		am.beyondIQR = math.Abs(am.change.med-am.parent.med) > am.parent.q3-am.parent.q1
		rel := 0.0
		if am.parent.med != 0 {
			rel = (am.change.med - am.parent.med) / am.parent.med
		}
		am.withinBound = am.hasBound && (am.better == "higher" && rel >= -am.bound || am.better == "lower" && rel <= am.bound)
		metrics = append(metrics, am)
	}
	return sides, metrics
}

// readABLog parses an e2e_ab.sh log, one JSON object per line.
func readABLog(r io.Reader) ([]abRun, error) {
	var runs []abRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var run abRun
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		runs = append(runs, run)
	}
	return runs, sc.Err()
}

// abFiles summarizes the A/B log at logPath against the BENCHMARK.json at
// specPath and prints the table to w. ok is false when an end-to-end
// metric's change median is worse than its bound allows, or when a run
// failed its checks.
func abFiles(specPath, logPath string, w io.Writer) (ok bool, err error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("parsing %s: %w", specPath, err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		return false, err
	}
	defer f.Close()
	runs, err := readABLog(f)
	if err != nil {
		return false, fmt.Errorf("parsing %s: %w", logPath, err)
	}
	sides, metrics := summarizeAB(spec, runs)
	return printAB(w, sides, metrics), nil
}

// printAB writes the summary table and reports whether every bound held and
// every run passed its checks.
func printAB(w io.Writer, sides map[string]*abSide, metrics []abMetric) bool {
	ok := true
	for _, side := range []string{"parent", "change"} {
		sd := sides[side]
		fmt.Fprintf(w, "%-6s %d runs, %d incorrect, %d of %d operations failed, steal %.0f [%.0f, %.0f] jiffies\n",
			side, sd.runs, sd.incorrect, sd.failed, sd.attempted, sd.steal.med, sd.steal.q1, sd.steal.q3)
		if sd.incorrect > 0 {
			ok = false
		}
	}
	fmt.Fprintf(w, "%-30s %-6s %-6s %-32s %-32s %-6s %-15s %-9s %s\n",
		"metric", "unit", "better", "parent median [q1, q3]", "change median [q1, q3]", "wins", "pair ratios", "Δmed>IQR", "bound")
	for _, m := range metrics {
		wins, better, bound := "-", m.better, "-"
		if better == "" {
			better = "?"
		} else {
			wins = fmt.Sprintf("%d/%d", m.wins, m.pairs)
		}
		ratios := "-"
		if m.minRatio <= m.maxRatio {
			ratios = fmt.Sprintf("%.3g–%.3g", m.minRatio, m.maxRatio)
		}
		if m.hasBound {
			bound = fmt.Sprintf("within %.0f%%", 100*m.bound)
			if !m.withinBound {
				bound = fmt.Sprintf("WORSE than %.0f%%", 100*m.bound)
				ok = false
			}
		}
		iqr := "no"
		if m.beyondIQR {
			iqr = "yes"
		}
		fmt.Fprintf(w, "%-30s %-6s %-6s %-32s %-32s %-6s %-15s %-9s %s\n",
			m.name, m.unit, better, fmtQuartiles(m.parent), fmtQuartiles(m.change), wins, ratios, iqr, bound)
	}
	return ok
}

func fmtQuartiles(q quartiles) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q.med, q.q1, q.q3)
}
