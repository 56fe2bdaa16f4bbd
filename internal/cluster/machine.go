// Package cluster models the heterogeneous machines the paper runs on.
//
// The paper's testbeds are Amazon EC2 instances (Table I) and local Xeon E5
// servers, neither of which is available here, so this package is the
// simulation substrate standing in for them: an analytic machine model that
// converts instrumented application work into execution time, power and
// cost. The model is a classic roofline with an Amdahl term:
//
//	t_cpu = (s + (1-s)/P) · CPUOps / (freq · IPC)
//	t_mem = MemBytes / MemBW
//	t     = max(t_cpu, t_mem)
//
// so compute-bound applications (Triangle Count) scale with cores and
// frequency while memory-bound ones (PageRank) saturate on bandwidth —
// exactly the application-diverse scaling of the paper's Fig 2 that makes
// thread-count capability estimates wrong by ~108%.
package cluster

import (
	"fmt"
	"math"
)

// Machine describes one compute node. Machines are value types; construct
// from the catalog or the helper constructors and customize by copying.
type Machine struct {
	// Name is the instance type, e.g. "c4.2xlarge"; machines of the same
	// Name belong to the same profiling group (Section III-B).
	Name string
	// HWThreads is the hardware thread count as advertised (Table I).
	HWThreads int
	// ComputeThreads is the thread count available to graph computation;
	// the paper reserves two logical cores per node for communication.
	ComputeThreads int
	// FreqGHz is the sustained core clock.
	FreqGHz float64
	// IPC is the sustained scalar operations per cycle for graph workloads.
	IPC float64
	// MemBWGBs is the achievable memory bandwidth in GB/s.
	MemBWGBs float64
	// CostPerHour is the hourly price in USD (0 for local machines).
	CostPerHour float64
	// Virtual reports whether this is a cloud instance (Table I "Type").
	Virtual bool
	// IdleWatts is drawn whenever the machine is on.
	IdleWatts float64
	// CoreWatts is the additional draw per active core at RefFreqGHz.
	CoreWatts float64
	// RefFreqGHz is the frequency CoreWatts is specified at.
	RefFreqGHz float64
	// DiskBWGBs is sustained storage read bandwidth in GB/s; zero selects
	// DefaultDiskGBs in consumers.
	DiskBWGBs float64
}

// DefaultDiskGBs is the storage bandwidth assumed for machines that do not
// configure one (EBS-class network storage).
const DefaultDiskGBs = 0.25

// Validate reports configuration errors.
func (m Machine) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("cluster: machine has no name")
	case m.ComputeThreads < 1:
		return fmt.Errorf("cluster: machine %q has %d compute threads, need >= 1", m.Name, m.ComputeThreads)
	case m.FreqGHz <= 0:
		return fmt.Errorf("cluster: machine %q has non-positive frequency", m.Name)
	case m.IPC <= 0:
		return fmt.Errorf("cluster: machine %q has non-positive IPC", m.Name)
	case m.MemBWGBs <= 0:
		return fmt.Errorf("cluster: machine %q has non-positive memory bandwidth", m.Name)
	}
	return nil
}

// CoreRate returns one core's scalar throughput in operations per second.
func (m Machine) CoreRate() float64 {
	return m.FreqGHz * 1e9 * m.IPC
}

// Work is the instrumented cost of a chunk of graph computation, produced by
// the engine's counters and consumed by the machine model.
type Work struct {
	// CPUOps counts scalar operation units (edge gathers, set-intersection
	// probes, vertex applies...).
	CPUOps float64
	// MemBytes counts bytes moved through the memory system.
	MemBytes float64
	// SerialFrac is the fraction of CPUOps on the critical path that cannot
	// use more than one core (framework dispatch, reductions).
	SerialFrac float64
}

// Add accumulates other into w. SerialFrac is combined as a CPUOps-weighted
// average.
func (w *Work) Add(other Work) {
	total := w.CPUOps + other.CPUOps
	if total > 0 {
		w.SerialFrac = (w.SerialFrac*w.CPUOps + other.SerialFrac*other.CPUOps) / total
	}
	w.CPUOps = total
	w.MemBytes += other.MemBytes
}

// ComputeTime returns the seconds this machine needs to execute w.
func (m Machine) ComputeTime(w Work) float64 {
	if w.CPUOps <= 0 && w.MemBytes <= 0 {
		return 0
	}
	s := w.SerialFrac
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	p := float64(m.ComputeThreads)
	tCPU := (s + (1-s)/p) * w.CPUOps / m.CoreRate()
	tMem := w.MemBytes / (m.MemBWGBs * 1e9)
	return math.Max(tCPU, tMem)
}

// Power returns the machine's draw in watts with active cores busy.
// Dynamic power scales as f^2.5 around the reference frequency, the usual
// DVFS approximation (P_dyn ∝ f·V² with V roughly linear in f).
func (m Machine) Power(activeCores int) float64 {
	if activeCores < 0 {
		activeCores = 0
	}
	if activeCores > m.ComputeThreads {
		activeCores = m.ComputeThreads
	}
	ref := m.RefFreqGHz
	if ref <= 0 {
		ref = m.FreqGHz
	}
	scale := math.Pow(m.FreqGHz/ref, 2.5)
	return m.IdleWatts + float64(activeCores)*m.CoreWatts*scale
}

// Energy returns joules consumed over a run in which the machine is busy on
// all compute cores for busySeconds and on for totalSeconds (idling for the
// remainder, e.g. waiting at the synchronization barrier for stragglers).
func (m Machine) Energy(busySeconds, totalSeconds float64) float64 {
	if totalSeconds < busySeconds {
		totalSeconds = busySeconds
	}
	busyPower := m.Power(m.ComputeThreads)
	return busyPower*busySeconds + m.IdleWatts*(totalSeconds-busySeconds)
}

// CostPerTask returns the paper's Fig 11 cost-efficiency metric: task
// runtime multiplied by the machine's hourly rate, in USD.
func (m Machine) CostPerTask(runtimeSeconds float64) float64 {
	return runtimeSeconds / 3600 * m.CostPerHour
}

// WithFrequency returns a copy of m clocked at freqGHz. Memory bandwidth
// scales superlinearly with the frequency ratio (exponent 2.5): downclocked
// "tiny ARM-like" parts lose uncore frequency, miss concurrency and prefetch
// depth together, which is how the paper's Case 3 frequency manipulation
// shifts the CCRs far beyond the plain core-count ratio (PageRank going
// above 1:6 while Triangle Count only reaches 1:4.5).
func (m Machine) WithFrequency(freqGHz float64) Machine {
	ratio := freqGHz / m.FreqGHz
	m.MemBWGBs *= math.Pow(ratio, 2.5)
	m.FreqGHz = freqGHz
	m.Name = fmt.Sprintf("%s@%.1fGHz", m.Name, freqGHz)
	return m
}

// Catalog returns the machines of Table I. EC2 parameters (frequency, IPC,
// bandwidth) are calibrated so the relative behaviours the paper measured
// hold: c4 (compute-optimized, 2.9GHz Haswell) ≈1.2× m4 (2.4GHz), r3
// (memory-optimized, 2.5GHz with more bandwidth) ≈1.1× m4, and memory
// bandwidth grows sublinearly with instance size so memory-bound
// applications saturate (Fig 2, Fig 8a).
func Catalog() []Machine {
	return []Machine{
		ec2("c4.xlarge", 4, 2, 2.9, 1.00, 11, 0.209),
		ec2("c4.2xlarge", 8, 6, 2.9, 1.00, 33, 0.419),
		ec2("m4.2xlarge", 8, 6, 2.4, 1.00, 27, 0.479),
		ec2("r3.2xlarge", 8, 6, 2.5, 1.00, 30, 0.665),
		ec2("c4.4xlarge", 16, 14, 2.9, 1.00, 55, 0.838),
		ec2("c4.8xlarge", 36, 34, 2.9, 1.00, 62, 1.675),
		XeonServerS(),
		XeonServerL(),
	}
}

func ec2(name string, hw, compute int, freq, ipc, membw, cost float64) Machine {
	return Machine{
		Name:           name,
		HWThreads:      hw,
		ComputeThreads: compute,
		FreqGHz:        freq,
		IPC:            ipc,
		MemBWGBs:       membw,
		CostPerHour:    cost,
		Virtual:        true,
		IdleWatts:      30 + 2.2*float64(hw),
		CoreWatts:      5.5,
		RefFreqGHz:     2.9,
		DiskBWGBs:      0.25, // EBS-class volumes
	}
}

// XeonServerS is the small local physical server of Table I
// (4 hardware threads, 2 computing threads).
func XeonServerS() Machine {
	m := LocalXeon("XeonServerS", 4, 2.5)
	m.HWThreads = 4
	m.ComputeThreads = 2
	m.MemBWGBs = 9
	return m
}

// XeonServerL is the large local physical server of Table I. The paper's
// Case 2/3 text identifies it as a 12-core machine at up to 2.5GHz.
func XeonServerL() Machine {
	return LocalXeon("XeonServerL", 12, 2.5)
}

// LocalXeon constructs a physical Intel Xeon E5-class machine with the given
// number of compute cores, all usable for computation, at freqGHz.
// Achievable memory bandwidth is concurrency-limited: each core sustains a
// bounded number of outstanding misses (~4.3 GB/s here), so bandwidth grows
// with core count until the socket cap — the effect that lets bigger local
// machines beat the pure Amdahl ratio, as the paper's Case 2 CCRs (~1:3.5
// for 4 vs 12 cores) show.
func LocalXeon(name string, cores int, freqGHz float64) Machine {
	return Machine{
		Name:           name,
		HWThreads:      cores, // hyperthreading disabled, as on the paper's local servers (Table I: Xeon S has 4 HW / 2 computing threads)
		ComputeThreads: cores,
		FreqGHz:        freqGHz,
		IPC:            1.0,
		MemBWGBs:       math.Min(4.3*float64(cores), 55),
		CostPerHour:    0,
		Virtual:        false,
		IdleWatts:      40 + 3*float64(cores),
		CoreWatts:      6.0,
		RefFreqGHz:     2.5,
		DiskBWGBs:      0.5, // local SATA SSD
	}
}

// ByName returns the catalog machine with the given name.
func ByName(name string) (Machine, bool) {
	for _, m := range Catalog() {
		if m.Name == name {
			return m, true
		}
	}
	return Machine{}, false
}
