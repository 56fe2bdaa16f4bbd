// Package advisor turns the paper's Section V-C observation — that synthetic
// graph profiling reveals machines' true cost efficiency for graph work —
// into a cluster-composition recommender: given hourly budget and a target
// application mix, it enumerates compositions of catalog machines and ranks
// them by proxy-profiled throughput, the projection cloud users "would have
// no insights about" from price sheets alone.
package advisor

import (
	"fmt"
	"math"
	"sort"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
)

// coordinationOverhead is the per-additional-machine throughput discount
// modelling synchronization and mirror traffic: a composition of M machines
// delivers Σ speeds / (1 + coordinationOverhead·(M−1)).
const coordinationOverhead = 0.04

// Speeds maps machine type to its proxy-profiled graph processing speed
// (arbitrary units; only ratios matter).
type Speeds map[string]float64

// MeasureSpeeds profiles every machine standalone on the proxy set across
// the given applications and returns the geometric-mean speed per machine
// type (the Fig 11 measurement, reduced to one number per machine).
func MeasureSpeeds(machines []cluster.Machine, applications []apps.App, profiler *core.ProxyProfiler) (Speeds, error) {
	if len(machines) == 0 || len(applications) == 0 {
		return nil, fmt.Errorf("advisor: need machines and applications")
	}
	logSums := map[string]float64{}
	runs := 0
	for _, app := range applications {
		solo, err := profiler.Profile(app, machines)
		if err != nil {
			return nil, err
		}
		for _, secs := range solo {
			for name, t := range secs {
				logSums[name] += math.Log(1 / t)
			}
			runs++
		}
	}
	speeds := make(Speeds, len(logSums))
	for name, s := range logSums {
		speeds[name] = math.Exp(s / float64(runs))
	}
	return speeds, nil
}

// Objective selects what Recommend optimizes.
type Objective int

const (
	// MaxSpeed maximizes throughput within the budget.
	MaxSpeed Objective = iota
	// MaxSpeedPerDollar maximizes throughput per hourly dollar.
	MaxSpeedPerDollar
)

// Request parameterizes a recommendation.
type Request struct {
	// BudgetPerHour caps the composition's hourly cost (0 = unlimited).
	BudgetPerHour float64
	// MaxMachines caps the composition size (default 8, hard cap 16 to keep
	// the exhaustive enumeration cheap).
	MaxMachines int
	// MinMachines floors the composition size (default 1).
	MinMachines int
	// Objective selects the ranking criterion.
	Objective Objective
}

// Selection is one recommended composition.
type Selection struct {
	// MachineNames lists the chosen machines (sorted, with repeats).
	MachineNames []string
	// CostPerHour is the composition's hourly price.
	CostPerHour float64
	// Speed is the modelled aggregate throughput.
	Speed float64
	// SpeedPerDollar is Speed / CostPerHour.
	SpeedPerDollar float64
}

// Recommend exhaustively enumerates multisets of catalog machines and
// returns the best composition under the request, plus the ranked top
// candidates (at most 10).
func Recommend(catalog []cluster.Machine, speeds Speeds, req Request) (Selection, []Selection, error) {
	if len(catalog) == 0 {
		return Selection{}, nil, fmt.Errorf("advisor: empty catalog")
	}
	if req.MaxMachines <= 0 {
		req.MaxMachines = 8
	}
	if req.MaxMachines > 16 {
		req.MaxMachines = 16
	}
	if req.MinMachines <= 0 {
		req.MinMachines = 1
	}
	if req.MinMachines > req.MaxMachines {
		return Selection{}, nil, fmt.Errorf("advisor: MinMachines %d exceeds MaxMachines %d", req.MinMachines, req.MaxMachines)
	}
	for _, m := range catalog {
		if _, ok := speeds[m.Name]; !ok {
			return Selection{}, nil, fmt.Errorf("advisor: no measured speed for machine %q", m.Name)
		}
		if m.CostPerHour <= 0 {
			return Selection{}, nil, fmt.Errorf("advisor: machine %q has no hourly cost; the advisor targets priced (cloud) machines", m.Name)
		}
	}

	var results []Selection
	composition := make([]int, 0, req.MaxMachines)
	var walk func(start int, cost, speedSum float64)
	walk = func(start int, cost, speedSum float64) {
		n := len(composition)
		if n >= req.MinMachines {
			speed := speedSum / (1 + coordinationOverhead*float64(n-1))
			names := make([]string, n)
			for i, idx := range composition {
				names[i] = catalog[idx].Name
			}
			results = append(results, Selection{
				MachineNames:   names,
				CostPerHour:    cost,
				Speed:          speed,
				SpeedPerDollar: speed / cost,
			})
		}
		if n == req.MaxMachines {
			return
		}
		for i := start; i < len(catalog); i++ {
			nextCost := cost + catalog[i].CostPerHour
			if req.BudgetPerHour > 0 && nextCost > req.BudgetPerHour+1e-9 {
				continue
			}
			composition = append(composition, i)
			walk(i, nextCost, speedSum+speeds[catalog[i].Name])
			composition = composition[:len(composition)-1]
		}
	}
	walk(0, 0, 0)
	if len(results) == 0 {
		return Selection{}, nil, fmt.Errorf("advisor: no composition fits budget $%.3f/hour", req.BudgetPerHour)
	}

	sort.Slice(results, func(i, j int) bool {
		if req.Objective == MaxSpeedPerDollar {
			if results[i].SpeedPerDollar != results[j].SpeedPerDollar {
				return results[i].SpeedPerDollar > results[j].SpeedPerDollar
			}
		} else if results[i].Speed != results[j].Speed {
			return results[i].Speed > results[j].Speed
		}
		return results[i].CostPerHour < results[j].CostPerHour
	})
	top := results
	if len(top) > 10 {
		top = top[:10]
	}
	return results[0], top, nil
}
