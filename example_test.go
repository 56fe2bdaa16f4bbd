package proxygraph_test

// Each example is a short program over the public API, run by go test and
// checked against its printed output. Run one on its own with, for example,
//
//	go test -run Example_quickstart -v .

import (
	"fmt"
	"log"
	"math"
	"sort"
	"strings"

	"proxygraph"
)

// The paper's whole pipeline in one small program.
//
// It builds a two-machine heterogeneous cluster that prior work considers
// homogeneous (same thread counts, different categories), profiles it once
// with synthetic power-law proxy graphs, then runs PageRank on a generated
// graph with CCR-guided Hybrid partitioning and compares against the uniform
// default.
func Example_quickstart() {
	// The Case 1 cluster: both machines have 6 computing threads, so
	// hardware-configuration estimates see no heterogeneity at all.
	cl, err := proxygraph.NewCluster(
		proxygraph.MustMachine("m4.2xlarge"),
		proxygraph.MustMachine("c4.2xlarge"),
	)
	if err != nil {
		log.Fatal(err)
	}

	// One-time offline profiling: three synthetic power-law proxies
	// (alpha = 1.95 / 2.1 / 2.3) at 1/256 of their Table II size.
	fmt.Println("profiling the cluster with synthetic proxy graphs...")
	profiler, err := proxygraph.NewProxyProfiler(256, 1)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := proxygraph.BuildPool(cl, proxygraph.Apps(), profiler)
	if err != nil {
		log.Fatal(err)
	}
	for _, app := range pool.Apps() {
		ccr, _ := pool.Get(app)
		fmt.Printf("  %-22s CCR: m4.2xlarge=%.2f c4.2xlarge=%.2f\n",
			app, ccr.Ratios["m4.2xlarge"], ccr.Ratios["c4.2xlarge"])
	}

	// An input graph: a power-law graph in the band natural graphs live in.
	g, err := proxygraph.Generate(proxygraph.Spec{
		Name: "demo", Vertices: 100_000, Edges: 1_200_000,
		Kind: proxygraph.KindPowerLaw,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninput graph: %d vertices, %d edges, alpha %.2f\n",
		g.NumVertices, g.NumEdges(), g.Alpha)

	// Execute PageRank twice: uniform default vs proxy-guided.
	pr := proxygraph.NewPageRank()
	uniform, err := proxygraph.RunUniform(pr, g, cl, proxygraph.NewHybrid(), 7)
	if err != nil {
		log.Fatal(err)
	}
	guided, err := proxygraph.RunPooled(pr, g, cl, proxygraph.NewHybrid(), pool, 7)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nuniform default : %8.4fs simulated, %7.1f J\n",
		uniform.SimSeconds, uniform.EnergyJoules)
	fmt.Printf("proxy-guided    : %8.4fs simulated, %7.1f J\n",
		guided.SimSeconds, guided.EnergyJoules)
	fmt.Printf("speedup %.2fx, energy saved %.1f%%\n",
		uniform.SimSeconds/guided.SimSeconds,
		(1-guided.EnergyJoules/uniform.EnergyJoules)*100)

	// The results themselves are identical regardless of partitioning.
	ru := uniform.Output.([]float64)
	rg := guided.Output.([]float64)
	maxDiff := 0.0
	for i := range ru {
		maxDiff = max(maxDiff, math.Abs(ru[i]-rg[i]))
	}
	fmt.Printf("max rank difference across partitionings: %.2g (exactness check)\n", maxDiff)
	// Output:
	// profiling the cluster with synthetic proxy graphs...
	//   coloring               CCR: m4.2xlarge=1.00 c4.2xlarge=1.21
	//   connected_components   CCR: m4.2xlarge=1.00 c4.2xlarge=1.21
	//   pagerank               CCR: m4.2xlarge=1.00 c4.2xlarge=1.22
	//   triangle_count         CCR: m4.2xlarge=1.00 c4.2xlarge=1.21
	//
	// input graph: 100000 vertices, 1200035 edges, alpha 1.91
	//
	// uniform default :   0.1635s simulated,    23.3 J
	// proxy-guided    :   0.1476s simulated,    21.9 J
	// speedup 1.11x, energy saved 6.0%
	// max rank difference across partitionings: 0 (exactness check)
}

// Why uniform partitioning fails on heterogeneous clusters: the effect the
// paper's Fig 1 motivates.
//
// PageRank runs three times on a big+little cluster (uniform,
// thread-count-estimated and proxy-guided partitions), and each run's
// superstep timeline is rendered: with uniform partitioning the little machine
// stars as the straggler of every barrier; thread-count estimation flips the
// straggler onto the overloaded big machine; proxy-guided CCR shares even the
// bars out. A '*' marks each barrier's straggler.
func Example_straggler() {
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
		// The timeline pads a machine that did not straggle with a blank
		// marker column; an Output comment cannot hold trailing blanks.
		fmt.Print(strings.ReplaceAll(proxygraph.TraceGantt(res, events, 44), " \n", "\n"))
		stragglers := proxygraph.StragglerShare(events)
		fmt.Printf("straggler shares: little %.0f%%, big %.0f%%; makespan %.4fs\n\n",
			stragglers[0]*100, stragglers[1]*100, res.SimSeconds)
	}
	// Output:
	// === uniform default ===
	// pagerank on demo: 6 phases, makespan 0.032200s
	// step   0 sync  m0  |############################################|*
	//                m1  |##############                              |
	// step   1 sync  m0  |############################################|*
	//                m1  |##############                              |
	// step   2 sync  m0  |############################################|*
	//                m1  |##############                              |
	// step   3 sync  m0  |############################################|*
	//                m1  |##############                              |
	// step   4 sync  m0  |############################################|*
	//                m1  |##############                              |
	// step   5 sync  m0  |############################################|*
	//                m1  |##############                              |
	// straggler shares: little 100%, big 0%; makespan 0.0322s
	//
	// === prior work (thread counts) ===
	// pagerank on demo: 6 phases, makespan 0.017766s
	// step   0 sync  m0  |##########################                  |
	//                m1  |############################################|*
	// step   1 sync  m0  |##########################                  |
	//                m1  |############################################|*
	// step   2 sync  m0  |##########################                  |
	//                m1  |############################################|*
	// step   3 sync  m0  |##########################                  |
	//                m1  |############################################|*
	// step   4 sync  m0  |##########################                  |
	//                m1  |############################################|*
	// step   5 sync  m0  |##########################                  |
	//                m1  |############################################|*
	// straggler shares: little 0%, big 100%; makespan 0.0178s
	//
	// === proxy-guided (this paper) ===
	// pagerank on demo: 6 phases, makespan 0.016060s
	// step   0 sync  m0  |############################################|*
	//                m1  |########################################### |
	// step   1 sync  m0  |############################################|*
	//                m1  |########################################### |
	// step   2 sync  m0  |############################################|*
	//                m1  |########################################### |
	// step   3 sync  m0  |############################################|*
	//                m1  |########################################### |
	// step   4 sync  m0  |############################################|*
	//                m1  |########################################### |
	// step   5 sync  m0  |############################################|*
	//                m1  |########################################### |
	// straggler shares: little 100%, big 0%; makespan 0.0161s
}

// The economics of one-time proxy profiling.
//
// The paper's Section III-B argues that CCR profiling is cheap because it is
// offline and reusable: "graph applications are often reused to analyze
// dozens of different real world graphs". This example simulates a session
// of thirty mixed jobs on a big+little cluster and prints the cumulative
// time under the uniform default versus the proxy-guided system — including
// the proxy system's upfront profiling cost — showing where the investment
// pays off.
func Example_amortization() {
	cl, err := proxygraph.NewCluster(
		proxygraph.LocalXeon("xeon-4c", 4, 2.5),
		proxygraph.LocalXeon("xeon-12c", 12, 2.5),
	)
	if err != nil {
		log.Fatal(err)
	}

	jobs, err := proxygraph.RandomJobs(30, 256, 11)
	if err != nil {
		log.Fatal(err)
	}
	session := &proxygraph.WorkloadSession{Cluster: cl}

	defaultRep, err := session.Run(jobs, proxygraph.UniformEstimator())
	if err != nil {
		log.Fatal(err)
	}
	// Profile with proxies a quarter of the production size: CCRs are
	// scale-invariant, so the offline cost shrinks without losing accuracy.
	profiler, err := proxygraph.NewProxyProfiler(1024, 11)
	if err != nil {
		log.Fatal(err)
	}
	proxyRep, err := session.Run(jobs, profiler)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("one-time profiling cost: %.4fs simulated\n\n", proxyRep.ProfilingSeconds)
	fmt.Println("jobs   default cumulative   proxy cumulative (incl. profiling)")
	for _, checkpoint := range []int{1, 3, 5, 10, 20, 30} {
		i := checkpoint - 1
		marker := ""
		if proxyRep.CumulativeSeconds[i] < defaultRep.CumulativeSeconds[i] {
			marker = "   <- proxy ahead"
		}
		fmt.Printf("%4d   %18.4fs   %15.4fs%s\n",
			checkpoint, defaultRep.CumulativeSeconds[i], proxyRep.CumulativeSeconds[i], marker)
	}
	cross := proxygraph.SessionCrossover(proxyRep, defaultRep)
	if cross > 0 {
		fmt.Printf("\nprofiling amortized after %d jobs; session totals: default %.4fs, proxy %.4fs (%.1f%% energy saved)\n",
			cross, defaultRep.Total(), proxyRep.Total(),
			(1-proxyRep.TotalEnergyJoules/defaultRep.TotalEnergyJoules)*100)
	} else {
		fmt.Println("\nprofiling did not amortize within this session")
	}
	// Output:
	// one-time profiling cost: 0.0327s simulated
	//
	// jobs   default cumulative   proxy cumulative (incl. profiling)
	//    1               0.0060s            0.0370s
	//    3               0.0120s            0.0405s
	//    5               0.0210s            0.0468s
	//   10               0.0255s            0.0498s
	//   20               0.1148s            0.1020s   <- proxy ahead
	//   30               0.2051s            0.1540s   <- proxy ahead
	//
	// profiling amortized after 20 jobs; session totals: default 0.2051s, proxy 0.1540s (28.9% energy saved)
}

// The paper's Section V-C cost-efficiency projection.
//
// Cloud users cannot tell which instance type is cost-effective for graph
// work from the price sheet alone. This example profiles every EC2 machine
// of Table I on the synthetic proxy set and prints, per application, the
// speedup/cost Pareto — reproducing the paper's observations that the three
// 2xlarge categories cluster together and that c4.8xlarge is the most
// expensive machine per task for graph workloads.
func Example_costadvisor() {
	profiler, err := proxygraph.NewProxyProfiler(256, 1)
	if err != nil {
		log.Fatal(err)
	}

	var machines []proxygraph.Machine
	for _, m := range proxygraph.MachineCatalog() {
		if m.Virtual {
			machines = append(machines, m)
		}
	}

	for _, app := range proxygraph.Apps() {
		// One solo run per proxy, priced on every machine type.
		times := map[string]float64{}
		for _, proxy := range profiler.Proxies {
			solo, err := proxygraph.SoloSeconds(app, proxy, machines)
			if err != nil {
				log.Fatal(err)
			}
			for _, m := range machines {
				times[m.Name] += solo[m.Name]
			}
		}
		var slowest float64
		for _, t := range times {
			slowest = max(slowest, t)
		}

		type point struct {
			name          string
			speedup, cost float64
		}
		var points []point
		for _, m := range machines {
			points = append(points, point{
				name:    m.Name,
				speedup: slowest / times[m.Name],
				cost:    m.CostPerTask(times[m.Name]),
			})
		}
		sort.Slice(points, func(i, j int) bool { return points[i].cost < points[j].cost })

		fmt.Printf("\n%s (cheapest per task first):\n", app.Name())
		for _, p := range points {
			fmt.Printf("  %-12s speedup %5.2fx  cost/task $%.6f\n", p.name, p.speedup, p.cost)
		}
		fmt.Printf("  -> best value: %s; most expensive: %s\n",
			points[0].name, points[len(points)-1].name)
	}
	// Output:
	// pagerank (cheapest per task first):
	//   c4.2xlarge   speedup  3.00x  cost/task $0.000006
	//   c4.4xlarge   speedup  5.00x  cost/task $0.000007
	//   m4.2xlarge   speedup  2.45x  cost/task $0.000009
	//   c4.xlarge    speedup  1.00x  cost/task $0.000009
	//   r3.2xlarge   speedup  2.73x  cost/task $0.000011
	//   c4.8xlarge   speedup  5.64x  cost/task $0.000013
	//   -> best value: c4.2xlarge; most expensive: c4.8xlarge
	//
	// coloring (cheapest per task first):
	//   c4.2xlarge   speedup  2.43x  cost/task $0.000001
	//   c4.4xlarge   speedup  4.12x  cost/task $0.000001
	//   c4.xlarge    speedup  1.00x  cost/task $0.000001
	//   m4.2xlarge   speedup  2.01x  cost/task $0.000001
	//   c4.8xlarge   speedup  5.93x  cost/task $0.000001
	//   r3.2xlarge   speedup  2.10x  cost/task $0.000002
	//   -> best value: c4.2xlarge; most expensive: r3.2xlarge
	//
	// connected_components (cheapest per task first):
	//   c4.2xlarge   speedup  2.55x  cost/task $0.000001
	//   c4.4xlarge   speedup  4.57x  cost/task $0.000001
	//   c4.xlarge    speedup  1.00x  cost/task $0.000001
	//   m4.2xlarge   speedup  2.11x  cost/task $0.000002
	//   c4.8xlarge   speedup  6.51x  cost/task $0.000002
	//   r3.2xlarge   speedup  2.20x  cost/task $0.000002
	//   -> best value: c4.2xlarge; most expensive: r3.2xlarge
	//
	// triangle_count (cheapest per task first):
	//   c4.2xlarge   speedup  2.59x  cost/task $0.000001
	//   c4.4xlarge   speedup  4.74x  cost/task $0.000001
	//   c4.xlarge    speedup  1.00x  cost/task $0.000001
	//   m4.2xlarge   speedup  2.14x  cost/task $0.000001
	//   c4.8xlarge   speedup  7.34x  cost/task $0.000001
	//   r3.2xlarge   speedup  2.23x  cost/task $0.000002
	//   -> best value: c4.2xlarge; most expensive: r3.2xlarge
}

// The paper's Case 2 / Case 3 study on local servers.
//
// A big 12-core machine is paired with a little 4-core machine — first at
// the same frequency (Case 2), then with the little machine downclocked to
// 1.8GHz to emulate the tiny ARM-like servers appearing in data centers
// (Case 3). For every application the example compares three systems:
// the uniform default, the prior work's thread-count partitioning, and
// proxy-guided CCR partitioning, reporting runtime and energy.
func Example_heterocluster() {
	little := proxygraph.LocalXeon("xeon-4c", 4, 2.5)
	big := proxygraph.LocalXeon("xeon-12c", 12, 2.5)

	fmt.Println("=== Case 2: same frequency range (4 cores + 12 cores @ 2.5GHz) ===")
	heteroclusterStudy(little, big)

	fmt.Println("\n=== Case 3: little machine downclocked to 1.8GHz (tiny-server projection) ===")
	heteroclusterStudy(little.WithFrequency(1.8), big)
	// Output:
	// === Case 2: same frequency range (4 cores + 12 cores @ 2.5GHz) ===
	// pagerank                default:  0.0572s  prior-work: 1.89x/35% energy  proxy-guided: 2.07x/38% energy
	// coloring                default:  0.0033s  prior-work: 1.30x/13% energy  proxy-guided: 1.58x/24% energy
	// connected_components    default:  0.0058s  prior-work: 1.43x/18% energy  proxy-guided: 1.70x/26% energy
	// triangle_count          default:  0.0061s  prior-work: 1.44x/19% energy  proxy-guided: 1.73x/28% energy
	//
	// === Case 3: little machine downclocked to 1.8GHz (tiny-server projection) ===
	// pagerank                default:  0.1301s  prior-work: 3.61x/63% energy  proxy-guided: 4.14x/66% energy
	// coloring                default:  0.0057s  prior-work: 2.26x/42% energy  proxy-guided: 2.41x/45% energy
	// connected_components    default:  0.0108s  prior-work: 2.66x/49% energy  proxy-guided: 2.71x/50% energy
	// triangle_count          default:  0.0104s  prior-work: 2.46x/46% energy  proxy-guided: 2.57x/47% energy
}

func heteroclusterStudy(littleM, bigM proxygraph.Machine) {
	cl, err := proxygraph.NewCluster(littleM, bigM)
	if err != nil {
		log.Fatal(err)
	}

	// The three systems under comparison, each profiled once into a pool.
	profiler, err := proxygraph.NewProxyProfiler(256, 1)
	if err != nil {
		log.Fatal(err)
	}
	systems := []struct {
		name string
		est  proxygraph.Estimator
	}{
		{"default", proxygraph.UniformEstimator()},
		{"prior-work", proxygraph.NewThreadCountEstimator()},
		{"proxy-guided", profiler},
	}
	pools := make([]*proxygraph.Pool, len(systems))
	for i, sys := range systems {
		if pools[i], err = proxygraph.BuildPool(cl, proxygraph.Apps(), sys.est); err != nil {
			log.Fatal(err)
		}
	}

	// A social-network-like workload.
	g, err := proxygraph.Generate(proxygraph.Spec{
		Name: "social-demo", Vertices: 20_000, Edges: 250_000,
		Kind: proxygraph.KindSocial,
	}, 11)
	if err != nil {
		log.Fatal(err)
	}

	for _, app := range proxygraph.Apps() {
		var baseTime, baseEnergy float64
		fmt.Printf("%-22s", app.Name())
		for i, sys := range systems {
			res, err := proxygraph.RunPooled(app, g, cl, proxygraph.NewHybrid(), pools[i], 11)
			if err != nil {
				log.Fatal(err)
			}
			if sys.name == "default" {
				baseTime, baseEnergy = res.SimSeconds, res.EnergyJoules
				fmt.Printf("  %s: %7.4fs", sys.name, res.SimSeconds)
				continue
			}
			fmt.Printf("  %s: %.2fx/%.0f%% energy", sys.name,
				baseTime/res.SimSeconds, (1-res.EnergyJoules/baseEnergy)*100)
		}
		fmt.Println()
	}
}
