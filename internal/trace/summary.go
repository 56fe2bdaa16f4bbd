package trace

import (
	"fmt"
	"sort"
	"strings"
)

// MachineSummary aggregates one machine's activity across a run.
type MachineSummary struct {
	Machine int
	// BusySeconds is the total charged step time (max of compute and comm,
	// exactly what the accountant charged); the phase fields attribute its
	// compute part.
	BusySeconds                                           float64
	GatherSeconds, ApplySeconds, BookSeconds, CommSeconds float64
	// StragglerSteps counts the sync steps this machine set the barrier.
	StragglerSteps int
	// IdleSeconds is the time spent waiting at barriers for slower machines —
	// the imbalance cost the paper's proxy-guided partitioning recovers.
	IdleSeconds float64
}

// Summary is the straggler report distilled from an event stream.
type Summary struct {
	// SyncSteps counts superstep barriers, AsyncRounds async phases.
	SyncSteps, AsyncRounds int
	// MakespanSeconds replays the stream against the accountant's clock:
	// barriers plus stalls plus folded async time.
	MakespanSeconds float64
	// BarrierSeconds sums sync barrier times; StallSeconds sums full-cluster
	// stalls by kind.
	BarrierSeconds float64
	StallSeconds   map[string]float64
	// Imbalance is the mean over sync steps of barrier time over the mean
	// step time of the machines that ran (1.0 = perfectly balanced).
	Imbalance float64
	// Fault-protocol counts.
	Checkpoints, Recoveries, Crashes, Rebalances int
	CheckpointBytes                              int64
	// Machines holds one entry per machine index seen in the stream.
	Machines []MachineSummary
}

// maxMachines caps the machine indices the summaries size their tables by,
// like the Chrome exporter's process cap: a corrupt stream must not force a
// huge allocation.
const maxMachines = 4096

// Summarize folds an event stream into a Summary: the per-machine straggler
// numbers the paper reads off its timelines.
func Summarize(events []Event) Summary {
	numMachines := 0
	for _, e := range events {
		if e.Machine+1 > numMachines && e.Machine < maxMachines {
			numMachines = e.Machine + 1
		}
	}
	s := Summary{
		StallSeconds: map[string]float64{},
		Machines:     make([]MachineSummary, numMachines),
	}
	for p := range s.Machines {
		s.Machines[p].Machine = p
	}

	// Cursor replay for the makespan (see chrome.go for the semantics).
	global := 0.0
	machineT := make([]float64, numMachines)
	stepStart := 0.0
	fold := func() {
		for _, t := range machineT {
			if t > global {
				global = t
			}
		}
		for i := range machineT {
			machineT[i] = global
		}
	}

	// Per-step scratch: the machines that ran the current sync step.
	type stepTime struct {
		machine int
		seconds float64
	}
	var cur []stepTime
	imbalanceSum := 0.0
	imbalanceSteps := 0

	for _, e := range events {
		switch e.Kind {
		case KindStepBegin:
			if e.Label != "async" {
				fold()
			}
			stepStart = global
			cur = cur[:0]
		case KindMachineStep:
			if e.Machine < 0 || e.Machine >= numMachines {
				continue
			}
			m := &s.Machines[e.Machine]
			m.BusySeconds += e.Seconds
			m.GatherSeconds += e.GatherSeconds
			m.ApplySeconds += e.ApplySeconds
			m.BookSeconds += e.BookSeconds
			m.CommSeconds += e.CommSeconds
			if e.Label == "async" {
				machineT[e.Machine] += fin(e.Seconds)
			} else {
				machineT[e.Machine] = stepStart + fin(e.Seconds)
				cur = append(cur, stepTime{machine: e.Machine, seconds: e.Seconds})
			}
		case KindStepEnd:
			if e.Label == "async" {
				s.AsyncRounds++
				continue
			}
			s.SyncSteps++
			s.BarrierSeconds += e.Seconds
			global = stepStart + fin(e.Seconds)
			for i := range machineT {
				machineT[i] = global
			}
			if len(cur) > 0 {
				mean := 0.0
				for _, st := range cur {
					mean += st.seconds
				}
				mean /= float64(len(cur))
				for _, st := range cur {
					m := &s.Machines[st.machine]
					m.IdleSeconds += e.Seconds - st.seconds
					if st.seconds >= e.Seconds {
						m.StragglerSteps++
					}
				}
				if mean > 0 {
					imbalanceSum += e.Seconds / mean
					imbalanceSteps++
				}
			}
		case KindStall:
			fold()
			s.StallSeconds[e.Label] += e.Seconds
			global += fin(e.Seconds)
			for i := range machineT {
				machineT[i] = global
			}
		case KindCheckpoint:
			s.Checkpoints++
			s.CheckpointBytes += e.Bytes
		case KindCrash:
			s.Crashes++
		case KindRecovery:
			s.Recoveries++
		case KindRebalance:
			s.Rebalances++
		}
	}
	fold()
	s.MakespanSeconds = global
	if imbalanceSteps > 0 {
		s.Imbalance = imbalanceSum / float64(imbalanceSteps)
	}
	return s
}

// phase is one accounted phase of a run's timeline — a sync superstep, an
// async round or a full-cluster stall — with each machine's time in it.
type phase struct {
	kind       string // "sync", "async" or the stall kind
	perMachine []float64
}

// straggler returns the first slowest machine of the phase.
func (ph phase) straggler() int {
	worst, idx := -1.0, 0
	for p, t := range ph.perMachine {
		if t > worst {
			worst, idx = t, p
		}
	}
	return idx
}

// timeline replays one run's event stream into its phases. A machine's time
// in a step is its KindMachineStep seconds (the max of compute and overlapped
// communication); in a stall every machine waits the stall's seconds except
// the crashed ones, which read 0 from their KindCrash on.
func timeline(events []Event) []phase {
	numMachines := 0
	for _, e := range events {
		if e.Kind == KindMachineStep && e.Machine+1 > numMachines && e.Machine < maxMachines {
			numMachines = e.Machine + 1
		}
	}
	var phases []phase
	crashed := make([]bool, numMachines)
	cur := make([]float64, numMachines)
	for _, e := range events {
		inRange := e.Machine >= 0 && e.Machine < numMachines
		switch e.Kind {
		case KindStepBegin:
			clear(cur)
		case KindMachineStep:
			if inRange {
				cur[e.Machine] = e.Seconds
			}
		case KindStepEnd:
			phases = append(phases, phase{kind: e.Label, perMachine: append([]float64(nil), cur...)})
			clear(cur)
		case KindCrash:
			if inRange {
				crashed[e.Machine] = true
			}
		case KindStall:
			per := make([]float64, numMachines)
			for p := range per {
				if !crashed[p] {
					per[p] = e.Seconds
				}
			}
			phases = append(phases, phase{kind: e.Label, perMachine: per})
		}
	}
	return phases
}

// Gantt renders one run's timeline as an ASCII chart, one row per (phase,
// machine), bars scaled to the slowest machine-phase. The header names the
// run (title) and its makespan. Each phase's straggler is marked with '*': on
// an imbalanced partition the same machine stars in every step — exactly the
// imbalance the paper's CCR-guided partitioning removes.
//
//	step  0 sync  m0 |############********|*
//	              m1 |########            |
func Gantt(events []Event, title string, makespan float64, width int) string {
	if width < 10 {
		width = 10
	}
	phases := timeline(events)
	var maxT float64
	for _, ph := range phases {
		for _, t := range ph.perMachine {
			if t > maxT {
				maxT = t
			}
		}
	}
	if maxT == 0 {
		return "(empty trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d phases, makespan %.6fs\n", title, len(phases), makespan)
	for i, ph := range phases {
		straggler := ph.straggler()
		for p, t := range ph.perMachine {
			bar := int(t / maxT * float64(width))
			label := " "
			if p == straggler {
				label = "*"
			}
			head := ""
			if p == 0 {
				head = fmt.Sprintf("step %3d %-5s", i, ph.kind)
			}
			fmt.Fprintf(&b, "%-14s m%-2d |%-*s|%s\n", head, p, width, strings.Repeat("#", bar), label)
		}
	}
	return b.String()
}

// StragglerShare returns, per machine, the fraction of one run's phases in
// which it was the straggler (nil when no machine ran a step). A perfectly
// balanced heterogeneous run spreads stragglers; a thread-count-misestimated
// run pins them on one machine.
func StragglerShare(events []Event) []float64 {
	phases := timeline(events)
	if len(phases) == 0 || len(phases[0].perMachine) == 0 {
		return nil
	}
	shares := make([]float64, len(phases[0].perMachine))
	for _, ph := range phases {
		shares[ph.straggler()]++
	}
	for i := range shares {
		shares[i] /= float64(len(phases))
	}
	return shares
}

// fmtSeconds renders a duration compactly for the report.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	}
	return fmt.Sprintf("%.3fs", s)
}

// String renders the straggler report for terminals.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution summary: %d sync steps", s.SyncSteps)
	if s.AsyncRounds > 0 {
		fmt.Fprintf(&b, ", %d async rounds", s.AsyncRounds)
	}
	fmt.Fprintf(&b, ", makespan %s (barriers %s", fmtSeconds(s.MakespanSeconds), fmtSeconds(s.BarrierSeconds))
	if len(s.StallSeconds) > 0 {
		kinds := make([]string, 0, len(s.StallSeconds))
		for k := range s.StallSeconds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, ", %s %s", k, fmtSeconds(s.StallSeconds[k]))
		}
	}
	b.WriteString(")\n")
	if s.Checkpoints+s.Crashes+s.Recoveries+s.Rebalances > 0 {
		fmt.Fprintf(&b, "fault protocol: %d checkpoints (%d bytes), %d crashes, %d recoveries, %d rebalances\n",
			s.Checkpoints, s.CheckpointBytes, s.Crashes, s.Recoveries, s.Rebalances)
	}
	if s.Imbalance > 0 {
		fmt.Fprintf(&b, "step imbalance (barrier over mean machine time): %.2fx\n", s.Imbalance)
	}
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %10s %10s %10s\n",
		"machine", "busy", "gather", "apply", "book", "comm", "idle", "straggler")
	for _, m := range s.Machines {
		fmt.Fprintf(&b, "%-8d %10s %10s %10s %10s %10s %10s %9dx\n",
			m.Machine, fmtSeconds(m.BusySeconds), fmtSeconds(m.GatherSeconds), fmtSeconds(m.ApplySeconds),
			fmtSeconds(m.BookSeconds), fmtSeconds(m.CommSeconds), fmtSeconds(m.IdleSeconds), m.StragglerSteps)
	}
	return b.String()
}
