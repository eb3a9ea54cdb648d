// Customer-tree sensitivity: reproduce the paper's Figure 1 on its toy
// topology, then run the Figure-2 correction sweep on a synthesized
// world, showing how mis-inferred hybrid relationships distort the
// customer-tree metric.
package main

import (
	"context"
	"fmt"
	"log"

	"hybridrel"
	"hybridrel/internal/asrel"
	"hybridrel/internal/infer/rank"
	"hybridrel/internal/intern"
	"hybridrel/internal/topology"
)

func main() {
	log.SetFlags(0)

	// Part 1: Figure 1. Five ASes; the type of link 1–2 decides AS1's
	// customer tree.
	g := topology.FromLinks(nil, []asrel.LinkKey{{Lo: 1, Hi: 2}, {Lo: 1, Hi: 3}, {Lo: 2, Hi: 4}, {Lo: 2, Hi: 5}})
	for _, rel12 := range []asrel.Rel{asrel.P2C, asrel.P2P} {
		t := asrel.NewTable()
		t.Set(1, 2, rel12)
		t.Set(1, 3, asrel.P2C)
		t.Set(2, 4, asrel.P2C)
		t.Set(2, 5, asrel.P2C)
		tree := g.CustomerCone(intern.FromTable(t), 1)
		fmt.Printf("Figure 1: link 1–2 = %s → customer tree of AS1 has %d members: ", rel12, len(tree))
		for _, n := range g.Nodes() {
			if tree[n] {
				fmt.Printf("%s ", n)
			}
		}
		fmt.Println()
	}

	// Part 2: Figure 2 on a synthesized world, through the v2 pipeline.
	world, err := hybridrel.Synthesize(hybridrel.SmallWorldConfig())
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := hybridrel.RunPipeline(context.Background(), world.Sources())
	if err != nil {
		log.Fatal(err)
	}
	rank6 := rank.Infer(analysis.D6.Paths(), rank.DefaultConfig())
	baseline := analysis.BaselineV6(analysis.Rel4, rank6.Table)

	fmt.Println("\nFigure 2: correcting the most visible hybrid links")
	fmt.Println("corrected  avg-vf-path  diameter  tree-pairs")
	pts := analysis.Figure2(baseline, 20, 0)
	for i, p := range pts {
		if i%4 == 0 || i == len(pts)-1 {
			fmt.Printf("%9d  %11.2f  %8d  %10d\n",
				p.Corrected, p.Metric.Avg, p.Metric.Diameter, p.Metric.Pairs)
		}
	}
	fmt.Println("\n(the paper reports avg 3.8→2.23 and diameter 11→7 on the August 2010 data;")
	fmt.Println(" see EXPERIMENTS.md for the measured-vs-paper discussion)")
}
