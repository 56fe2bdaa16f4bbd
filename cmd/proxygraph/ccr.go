package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"proxygraph/internal/advisor"
	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/metrics"
)

// profileCmd runs every application on one machine per group of the cluster
// and writes the CCR pool as JSON (the pool run -pool reads).
func profileCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	clusterSpec := fs.String("cluster", "m4.2xlarge,c4.2xlarge",
		"comma-separated machines: catalog names or name:cores:freqGHz for local Xeons")
	estimator := fs.String("estimator", "proxy", "estimator: proxy, prior-work, default")
	scale := fs.Int("scale", 64, "proxy graphs at 1/scale of Table II size")
	seed := fs.Uint64("seed", 42, "profiling seed")
	out := fs.String("out", "", "write the CCR pool JSON here (default stdout)")
	if err := parseFlags(fs, args, w); err != nil {
		return err
	}

	cl, err := cluster.Parse(*clusterSpec)
	if err != nil {
		return err
	}
	est, err := parseEstimator(*estimator, *scale, *seed)
	if err != nil {
		return err
	}
	pool, err := core.BuildPool(cl, apps.All(), est)
	if err != nil {
		return err
	}
	if *out == "" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(pool)
	}
	if err := pool.SaveFile(*out); err != nil {
		return err
	}
	groups, _ := cl.Groups()
	fmt.Fprintf(w, "profiled %d applications with %q on %d machine groups -> %s\n",
		pool.Len(), est.Name(), len(groups), *out)
	return nil
}

// parseEstimator builds the named CCR estimator: "proxy" (profiling at
// 1/scale), "prior-work" (thread counts) or "default" (uniform).
func parseEstimator(name string, scale int, seed uint64) (core.Estimator, error) {
	switch name {
	case "proxy":
		return core.NewProxyProfiler(scale, seed)
	case "prior-work":
		return core.NewThreadCount(), nil
	case "default":
		return core.Uniform{}, nil
	default:
		return nil, fmt.Errorf("unknown estimator %q (want proxy, prior-work or default)", name)
	}
}

// adviseCmd profiles the EC2 catalog on the proxies and ranks the machine
// combinations under the budget by throughput or throughput per dollar.
func adviseCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	budget := fs.Float64("budget", 2.0, "hourly budget in USD (0 = unlimited)")
	objective := fs.String("objective", "speed", "objective: speed or speed-per-dollar")
	maxM := fs.Int("max", 8, "maximum machines in a composition")
	minM := fs.Int("min", 1, "minimum machines in a composition")
	scale := fs.Int("scale", 256, "proxy graphs at 1/scale of Table II size")
	seed := fs.Uint64("seed", 42, "profiling seed")
	if err := parseFlags(fs, args, w); err != nil {
		return err
	}

	obj, ok := map[string]advisor.Objective{"speed": advisor.MaxSpeed, "speed-per-dollar": advisor.MaxSpeedPerDollar}[*objective]
	if !ok {
		return fmt.Errorf("unknown objective %q", *objective)
	}
	catalog := slices.DeleteFunc(cluster.Catalog(), func(m cluster.Machine) bool { return !m.Virtual })

	fmt.Fprintln(w, "profiling the catalog on synthetic proxy graphs...")
	profiler, err := core.NewProxyProfiler(*scale, *seed)
	if err != nil {
		return err
	}
	speeds, err := advisor.MeasureSpeeds(catalog, apps.All(), profiler)
	if err != nil {
		return err
	}
	req := advisor.Request{BudgetPerHour: *budget, MaxMachines: *maxM, MinMachines: *minM, Objective: obj}
	_, top, err := advisor.Recommend(catalog, speeds, req)
	if err != nil {
		return err
	}

	t := metrics.NewTable(fmt.Sprintf("Top compositions (budget $%.2f/h, objective %s)", *budget, *objective),
		"rank", "machines", "$/hour", "speed", "speed/$")
	for i, s := range top {
		t.AddRow(fmt.Sprint(i+1), compact(s.MachineNames),
			fmt.Sprintf("%.3f", s.CostPerHour),
			metrics.F(s.Speed, 1), metrics.F(s.SpeedPerDollar, 1))
	}
	t.AddNote("speeds are proxy-profiled (geomean over the paper's four applications and three proxies)")
	fmt.Fprint(w, t)
	return nil
}

// compact renders ["a","a","b"] as "2x a + 1x b". A Selection lists equal
// machines next to each other.
func compact(names []string) string {
	var parts []string
	for i, j := 0, 0; i < len(names); i = j {
		for j = i; j < len(names) && names[j] == names[i]; j++ {
		}
		parts = append(parts, fmt.Sprintf("%dx %s", j-i, names[i]))
	}
	return strings.Join(parts, " + ")
}
