// Straggler: visualize why uniform partitioning fails on heterogeneous
// clusters — the effect the paper's Fig 1 motivates.
//
// The example runs PageRank three times on a big+little cluster (uniform,
// thread-count-estimated and proxy-guided partitions) and renders the
// superstep timeline of each: with uniform partitioning the little machine
// stars as the straggler of every barrier; thread-count estimation flips the
// straggler onto the overloaded big machine; proxy-guided CCR shares even
// the bars out.
//
// Run with: go run ./examples/straggler
package main

import (
	"fmt"
	"log"

	"proxygraph"
)

func main() {
	cl, err := proxygraph.NewCluster(
		proxygraph.LocalXeon("xeon-4c", 4, 2.5),
		proxygraph.LocalXeon("xeon-12c", 12, 2.5),
	)
	if err != nil {
		log.Fatal(err)
	}
	g, err := proxygraph.Generate(proxygraph.Spec{
		Name: "demo", Vertices: 40_000, Edges: 500_000,
		Kind: proxygraph.KindPowerLaw,
	}, 5)
	if err != nil {
		log.Fatal(err)
	}

	profiler, err := proxygraph.NewProxyProfiler(512, 1)
	if err != nil {
		log.Fatal(err)
	}
	pr := proxygraph.NewPageRank()
	pr.MaxIters = 6 // keep the timelines short

	systems := []struct {
		name string
		est  proxygraph.Estimator
	}{
		{"uniform default", proxygraph.UniformEstimator()},
		{"prior work (thread counts)", proxygraph.NewThreadCountEstimator()},
		{"proxy-guided (this paper)", profiler},
	}
	for _, sys := range systems {
		ccr, err := sys.est.Estimate(cl, pr)
		if err != nil {
			log.Fatal(err)
		}
		shares, err := ccr.SharesFor(cl)
		if err != nil {
			log.Fatal(err)
		}
		pl, err := proxygraph.Partition(proxygraph.NewHybrid(), g, shares, 5)
		if err != nil {
			log.Fatal(err)
		}
		res, events, err := proxygraph.RunTraced(pr, pl, cl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", sys.name)
		fmt.Print(proxygraph.TraceGantt(res, events, 44))
		stragglers := proxygraph.StragglerShare(events)
		fmt.Printf("straggler shares: little %.0f%%, big %.0f%%; makespan %.4fs\n\n",
			stragglers[0]*100, stragglers[1]*100, res.SimSeconds)
	}
}
