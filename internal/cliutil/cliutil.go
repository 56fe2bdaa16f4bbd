// Package cliutil holds the small helpers the command-line tools share:
// parsers for cluster specifications, share vectors and estimator selection,
// and the -trace-out/-metrics-out output files.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/partition"
)

// ParseCluster turns a comma-separated machine list into a Cluster. Each
// entry is either a Table I catalog name ("c4.2xlarge") or a custom local
// Xeon in name:cores:freqGHz form ("xeon:12:2.5").
func ParseCluster(spec string) (*cluster.Cluster, error) {
	var machines []cluster.Machine
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := ParseMachine(part)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	return cluster.New(machines...)
}

// ParseMachine parses one machine entry (see ParseCluster).
func ParseMachine(entry string) (cluster.Machine, error) {
	if m, ok := cluster.ByName(entry); ok {
		return m, nil
	}
	fields := strings.Split(entry, ":")
	if len(fields) != 3 {
		return cluster.Machine{}, fmt.Errorf("machine %q: not in catalog and not name:cores:freqGHz", entry)
	}
	cores, err := strconv.Atoi(fields[1])
	if err != nil {
		return cluster.Machine{}, fmt.Errorf("machine %q: bad core count: %v", entry, err)
	}
	freq, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return cluster.Machine{}, fmt.Errorf("machine %q: bad frequency: %v", entry, err)
	}
	return cluster.LocalXeon(fmt.Sprintf("%s-%dc", fields[0], cores), cores, freq), nil
}

// ParseShares parses a comma-separated weight list ("1,3.5") into normalized
// shares; an empty string yields uniform shares over machines.
func ParseShares(weights string, machines int) ([]float64, error) {
	if weights == "" {
		if machines < 1 || machines > engine.MaxMachines {
			return nil, fmt.Errorf("%d machines, want 1 to %d", machines, engine.MaxMachines)
		}
		return partition.UniformShares(machines), nil
	}
	var ws []float64
	for _, f := range strings.Split(weights, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %v", f, err)
		}
		ws = append(ws, v)
	}
	return partition.NormalizeShares(ws)
}

// ParseEstimator builds the named CCR estimator: "proxy" (profiling at
// 1/scale), "prior-work" (thread counts) or "default" (uniform).
func ParseEstimator(name string, scale int, seed uint64) (core.Estimator, error) {
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
