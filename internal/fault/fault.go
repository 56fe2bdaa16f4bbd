// Package fault provides deterministic, seed-driven fault schedules for the
// simulated cluster: permanent machine crashes at superstep barriers,
// transient stragglers (a machine's frequency and memory bandwidth throttled
// for a window of supersteps), and cluster-wide network degradation. A
// Schedule is a pure function of the superstep number, so every engine — and
// every replay after a checkpoint rollback — observes the identical fault
// sequence; *Schedule satisfies engine.FaultInjector.
//
// The paper evaluates static proxy-guided ingress against Mizan-style dynamic
// adaptation on a healthy cluster; this package supplies the degraded
// scenarios (Raval et al., PAPERS.md) under which that comparison shifts.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"proxygraph/internal/cluster"
	"proxygraph/internal/rng"
)

// Kind classifies a fault event.
type Kind int

const (
	// Crash permanently fails a machine at the barrier ending Step.
	Crash Kind = iota
	// Straggler throttles one machine's frequency and memory bandwidth by
	// Factor for supersteps [Step, Step+Duration).
	Straggler
	// Network scales the interconnect for supersteps [Step, Step+Duration):
	// bandwidth is multiplied by Factor, latency divided by it.
	Network
)

// String returns the event kind's name.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggler:
		return "straggler"
	case Network:
		return "network"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// Step is the superstep the event fires at: a Crash takes effect at the
	// barrier ending Step; Straggler/Network windows cover [Step,
	// Step+Duration).
	Step int
	// Machine is the target machine index (ignored for Network events).
	Machine int
	// Duration is the window length in supersteps (ignored for Crash).
	Duration int
	// Factor is the degradation multiplier in (0, 1] (ignored for Crash).
	Factor float64
}

// Schedule is a deterministic fault schedule over a run. The zero value is an
// empty (fault-free) schedule.
type Schedule struct {
	Events []Event
}

// Validate checks the schedule against a cluster of m machines.
func (s *Schedule) Validate(m int) error {
	crashes := 0
	for i, e := range s.Events {
		switch e.Kind {
		case Crash:
			crashes++
			if e.Machine < 0 || e.Machine >= m {
				return fmt.Errorf("fault: event %d crashes machine %d outside [0, %d)", i, e.Machine, m)
			}
		case Straggler:
			if e.Machine < 0 || e.Machine >= m {
				return fmt.Errorf("fault: event %d throttles machine %d outside [0, %d)", i, e.Machine, m)
			}
			fallthrough
		case Network:
			if e.Duration < 1 {
				return fmt.Errorf("fault: event %d has duration %d, need >= 1", i, e.Duration)
			}
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("fault: event %d has factor %g outside (0, 1]", i, e.Factor)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
		if e.Step < 0 {
			return fmt.Errorf("fault: event %d fires at negative step %d", i, e.Step)
		}
	}
	if crashes >= m {
		return fmt.Errorf("fault: %d crashes would kill all %d machines", crashes, m)
	}
	return nil
}

// Crash returns the machine that permanently fails at the barrier ending
// step, or -1 when none does (engine.FaultInjector).
func (s *Schedule) Crash(step int) int {
	for _, e := range s.Events {
		if e.Kind == Crash && e.Step == step {
			return e.Machine
		}
	}
	return -1
}

// Perturb returns the cluster superstep step runs on: cl itself when no
// transient fault covers the step, otherwise a degraded copy (engine's
// FaultInjector). Perturb is pure, so replayed supersteps after a rollback
// see the same conditions they saw the first time.
func (s *Schedule) Perturb(step int, cl *cluster.Cluster) *cluster.Cluster {
	covered := false
	for _, e := range s.Events {
		if e.Kind != Crash && step >= e.Step && step < e.Step+e.Duration {
			covered = true
			break
		}
	}
	if !covered {
		return cl
	}
	eff := &cluster.Cluster{
		Machines: append([]cluster.Machine(nil), cl.Machines...),
		Net:      cl.Net,
	}
	for _, e := range s.Events {
		if e.Kind == Crash || step < e.Step || step >= e.Step+e.Duration {
			continue
		}
		switch e.Kind {
		case Straggler:
			if e.Machine >= 0 && e.Machine < len(eff.Machines) {
				m := &eff.Machines[e.Machine]
				// Throttle clock and memory bandwidth together — the shape of
				// a thermally-limited or noisy-neighbour degradation — without
				// Machine.WithFrequency's superlinear uncore model, which
				// describes design-time frequency scaling, not a brownout.
				m.FreqGHz *= e.Factor
				m.MemBWGBs *= e.Factor
			}
		case Network:
			eff.Net.BandwidthGBs *= e.Factor
			eff.Net.LatencySec /= e.Factor
		}
	}
	return eff
}

// String renders the schedule compactly for logs and CLI output.
func (s *Schedule) String() string {
	if len(s.Events) == 0 {
		return "fault-free"
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		switch e.Kind {
		case Crash:
			parts[i] = fmt.Sprintf("crash(m%d@%d)", e.Machine, e.Step)
		case Straggler:
			parts[i] = fmt.Sprintf("straggler(m%d@%d+%d x%.2f)", e.Machine, e.Step, e.Duration, e.Factor)
		case Network:
			parts[i] = fmt.Sprintf("network(@%d+%d x%.2f)", e.Step, e.Duration, e.Factor)
		}
	}
	return strings.Join(parts, " ")
}

// Spec parameterizes random schedule generation.
type Spec struct {
	// Machines is the cluster size events target.
	Machines int
	// Horizon bounds event start steps to [0, Horizon).
	Horizon int
	// Crashes, Stragglers and NetworkFaults count the events of each kind.
	// Crashes must leave at least one machine alive (Crashes < Machines) and
	// target distinct machines at distinct steps.
	Crashes, Stragglers, NetworkFaults int
}

// Transient events degrade by a factor drawn uniformly from
// [minFactor, 1) for a window of 1 to maxWindow supersteps.
const (
	minFactor = 0.25
	maxWindow = 4
)

// NewSchedule draws a deterministic schedule from seed: the same (seed, spec)
// pair always yields the same events, sorted by (Step, Kind, Machine).
func NewSchedule(seed uint64, spec Spec) (*Schedule, error) {
	if spec.Machines < 1 {
		return nil, fmt.Errorf("fault: spec needs at least one machine, got %d", spec.Machines)
	}
	if spec.Horizon < 1 {
		return nil, fmt.Errorf("fault: spec needs a positive horizon, got %d", spec.Horizon)
	}
	if spec.Crashes >= spec.Machines {
		return nil, fmt.Errorf("fault: %d crashes would kill all %d machines", spec.Crashes, spec.Machines)
	}
	if spec.Crashes > spec.Horizon {
		return nil, fmt.Errorf("fault: %d crashes do not fit in horizon %d at distinct steps", spec.Crashes, spec.Horizon)
	}
	if spec.Crashes < 0 || spec.Stragglers < 0 || spec.NetworkFaults < 0 {
		return nil, fmt.Errorf("fault: negative event counts")
	}

	src := rng.New(seed)
	s := &Schedule{}
	// Crashes hit distinct machines at distinct steps, so no barrier has to
	// arbitrate simultaneous failures and no event is a dead-machine no-op.
	machines := src.Perm(spec.Machines)[:spec.Crashes]
	steps := map[int]bool{}
	for _, m := range machines {
		step := src.Intn(spec.Horizon)
		for steps[step] {
			step = (step + 1) % spec.Horizon
		}
		steps[step] = true
		s.Events = append(s.Events, Event{Kind: Crash, Step: step, Machine: m})
	}
	factor := func() float64 { return minFactor + (1-minFactor)*src.Float64() }
	for i := 0; i < spec.Stragglers; i++ {
		s.Events = append(s.Events, Event{
			Kind:     Straggler,
			Step:     src.Intn(spec.Horizon),
			Machine:  src.Intn(spec.Machines),
			Duration: 1 + src.Intn(maxWindow),
			Factor:   factor(),
		})
	}
	for i := 0; i < spec.NetworkFaults; i++ {
		s.Events = append(s.Events, Event{
			Kind:     Network,
			Step:     src.Intn(spec.Horizon),
			Duration: 1 + src.Intn(maxWindow),
			Factor:   factor(),
		})
	}
	sort.Slice(s.Events, func(a, b int) bool {
		ea, eb := s.Events[a], s.Events[b]
		if ea.Step != eb.Step {
			return ea.Step < eb.Step
		}
		if ea.Kind != eb.Kind {
			return ea.Kind < eb.Kind
		}
		return ea.Machine < eb.Machine
	})
	if err := s.Validate(spec.Machines); err != nil {
		return nil, err
	}
	return s, nil
}
