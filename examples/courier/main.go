// Courier service-point placement with capacity constraints: the motivating
// example of the paper's introduction. Existing self-pickup points have a
// limited storage capacity, so the influence of a candidate location is the
// capacity-constrained utility of Sun et al. [22] rather than the plain RNN
// count — a measure a simple superimposition of NN-circles cannot express.
package main

import (
	"fmt"
	"log"
	"time"

	"rnnheatmap/heatmap"
)

func main() {
	log.SetFlags(0)

	city := heatmap.LosAngelesLike(40000, 11)
	clients, facilities := city.SampleClientsFacilities(8000, 400, 3)

	// Every existing service point can hold 25 parcels; the new point we are
	// planning has capacity 40.
	capacities := make([]float64, len(facilities))
	for i := range capacities {
		capacities[i] = 25
	}

	// Build a plain size-measure map first for comparison.
	base, err := heatmap.Build(heatmap.Config{
		Clients:    clients,
		Facilities: facilities,
		Metric:     heatmap.L1, // street-network style distances
	})
	if err != nil {
		log.Fatal(err)
	}
	sizeMax, _ := base.MaxHeat()

	// The capacity measure needs to know which facility currently serves
	// each client.
	assignment, err := heatmap.NearestAssignment(clients, facilities, heatmap.L1)
	if err != nil {
		log.Fatal(err)
	}

	m, err := heatmap.Build(heatmap.Config{
		Clients:    clients,
		Facilities: facilities,
		Metric:     heatmap.L1,
		Measure:    heatmap.Capacity(assignment, capacities, 40),
	})
	if err != nil {
		log.Fatal(err)
	}

	capMax, best := m.MaxHeat()
	fmt.Printf("clients: %d, existing service points: %d (capacity 25 each)\n", len(clients), len(facilities))
	fmt.Printf("best location under the plain RNN-count measure captures %.0f clients\n", sizeMax)
	fmt.Printf("best location under the capacity-constrained utility: %.0f total served parcels at %s\n", capMax, best.Point)

	fmt.Println("\ntop 5 capacity-aware locations:")
	for i, r := range m.TopK(5) {
		fmt.Printf("  %d. utility %.0f at %s (%d nearby clients)\n", i+1, r.Heat, r.Point, len(r.RNN))
	}

	// Interactive-style post-processing: only show regions that beat 99% of
	// the best utility.
	good := m.AboveThreshold(capMax * 0.99)
	fmt.Printf("\n%d labeled regions are within 1%% of the best utility\n", len(good))

	// --- What-if: actually open the winning service point -----------------
	//
	// ApplyDelta applies the change incrementally: only the NN-circles of the
	// clients the new point captures change, so just the dirty slice of the
	// arrangement is reswept and spliced, however large that slice is — the
	// answer is identical to a full rebuild. (The walkthrough runs on the
	// plain size-measure map: the capacity measure's assignment context is
	// index-based and must be rebuilt after a facility change, shown below.)
	_, sizeBest := base.MaxHeat()
	opened, stats, err := base.ApplyDelta(heatmap.Delta{AddFacilities: []heatmap.Point{sizeBest.Point}})
	if err != nil {
		log.Fatal(err)
	}
	openedMax, _ := opened.MaxHeat()
	fmt.Printf("\nwhat-if: open a service point at %s\n", sizeBest.Point)
	fmt.Printf("  hottest location drops from %.0f to %.0f captured clients\n", sizeMax, openedMax)
	fmt.Printf("  reswept %d of %d sweep events (%.1f%%) in %v — a full rebuild would resweep all of them\n",
		stats.EventsReswept, stats.EventsTotal,
		100*float64(stats.EventsReswept)/float64(stats.EventsTotal), stats.Duration.Round(time.Microsecond))

	// --- What-if: close the busiest existing point ------------------------
	//
	// Swap-remove semantics: the last facility moves into the freed slot, so
	// every other index is unchanged.
	busiest, counts := 0, make(map[int]int)
	for _, f := range assignment {
		counts[f]++
		if counts[f] > counts[busiest] {
			busiest = f
		}
	}
	closed, stats, err := base.ApplyDelta(heatmap.Delta{RemoveFacilities: []int{busiest}})
	if err != nil {
		log.Fatal(err)
	}
	closedMax, closedBest := closed.MaxHeat()
	fmt.Printf("\nwhat-if: close the busiest point (#%d, %d assigned clients)\n", busiest, counts[busiest])
	fmt.Printf("  best replacement location now captures %.0f clients at %s\n", closedMax, closedBest.Point)
	fmt.Printf("  reswept %d of %d sweep events (%.1f%%)\n", stats.EventsReswept, stats.EventsTotal,
		100*float64(stats.EventsReswept)/float64(stats.EventsTotal))

	// Index-based measures need fresh context after the update: recompute the
	// assignment against the enlarged facility set and rebuild the capacity
	// map for the post-opening world.
	newFacilities := append(append([]heatmap.Point(nil), facilities...), sizeBest.Point)
	newAssignment, err := heatmap.NearestAssignment(clients, newFacilities, heatmap.L1)
	if err != nil {
		log.Fatal(err)
	}
	newCapacities := append(append([]float64(nil), capacities...), 40)
	m2, err := heatmap.Build(heatmap.Config{
		Clients:    clients,
		Facilities: newFacilities,
		Metric:     heatmap.L1,
		Measure:    heatmap.Capacity(newAssignment, newCapacities, 40),
	})
	if err != nil {
		log.Fatal(err)
	}
	cap2, _ := m2.MaxHeat()
	fmt.Printf("\nafter opening, the best capacity-aware utility for a further point is %.0f (was %.0f)\n", cap2, capMax)
}
