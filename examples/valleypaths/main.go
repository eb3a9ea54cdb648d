// Valley-path analysis: classify every observed IPv6 path against the
// valley-free rule under the recovered relationships, and show that a
// meaningful share of the violations is *necessary* — the partitioned
// IPv6 plane (the AS6939/AS174 dispute analogue) is only reachable
// because some ASes relax the rule.
package main

import (
	"context"
	"fmt"
	"log"

	"hybridrel"
	"hybridrel/internal/dataset"
	"hybridrel/internal/valley"
)

func main() {
	log.SetFlags(0)
	world, err := hybridrel.Synthesize(hybridrel.SmallWorldConfig())
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := hybridrel.RunPipeline(context.Background(), world.Sources())
	if err != nil {
		log.Fatal(err)
	}

	st := analysis.ValleyReport()
	fmt.Printf("IPv6 paths: %d classified (%d unclassifiable)\n",
		st.Valley+st.ValleyFree, st.Unclassified)
	fmt.Printf("valley paths: %d (%.1f%%); paper: 13%%\n", st.Valley, 100*st.ValleyShare())
	fmt.Printf("necessary for reachability: %d (%.1f%% of valley paths); paper: 16%%\n",
		st.Necessary, 100*st.NecessaryShare())

	// Show a few concrete valley paths with their classification,
	// using the internal analysis pieces directly. Classify returns the
	// kinds in walk order, so the second walk pairs them up by
	// position; a walk's path is only valid until its next step, and
	// this one prints each path before moving on.
	d6 := analysis.D6
	kinds, _ := valley.Classify(d6.Paths(), analysis.Rel6)
	fmt.Println("\nexample valley paths (relationships along the route):")
	shown, i := 0, 0
	for p := range d6.Paths() {
		k := kinds[i]
		i++
		if k != valley.KindValley || shown == 4 {
			continue
		}
		shown++
		fmt.Printf("  %s\n    ", formatPath(p, analysis))
		a, b := world.Internet.DisputeA, world.Internet.DisputeB
		crosses := false
		for _, asn := range p.Path {
			if asn == a || asn == b {
				crosses = true
			}
		}
		if crosses {
			fmt.Println("crosses a disputant: likely a reachability relaxation")
		} else {
			fmt.Println("ordinary route leak")
		}
	}
	fmt.Printf("\ndisputants: %s (free-transit hub) and %s — no IPv6 link exists between them\n",
		world.Internet.DisputeA, world.Internet.DisputeB)
}

func formatPath(p *dataset.PathObs, analysis *hybridrel.Analysis) string {
	out := ""
	for i, asn := range p.Path {
		if i > 0 {
			rel := analysis.Rel6.Get(p.Path[i-1], p.Path[i])
			out += fmt.Sprintf(" -[%s]- ", rel)
		}
		out += asn.String()
	}
	return out
}
