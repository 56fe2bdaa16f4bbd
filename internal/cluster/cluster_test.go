package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogMatchesTableI(t *testing.T) {
	want := map[string]struct {
		hw, compute int
		cost        float64
		virtual     bool
	}{
		"c4.xlarge":   {4, 2, 0.209, true},
		"c4.2xlarge":  {8, 6, 0.419, true},
		"m4.2xlarge":  {8, 6, 0.479, true},
		"r3.2xlarge":  {8, 6, 0.665, true},
		"c4.4xlarge":  {16, 14, 0.838, true},
		"c4.8xlarge":  {36, 34, 1.675, true},
		"XeonServerS": {4, 2, 0, false},
	}
	for name, w := range want {
		m, ok := ByName(name)
		if !ok {
			t.Errorf("machine %q missing from catalog", name)
			continue
		}
		if m.HWThreads != w.hw || m.ComputeThreads != w.compute {
			t.Errorf("%s: threads %d/%d, want %d/%d", name, m.HWThreads, m.ComputeThreads, w.hw, w.compute)
		}
		if m.CostPerHour != w.cost {
			t.Errorf("%s: cost %v, want %v", name, m.CostPerHour, w.cost)
		}
		if m.Virtual != w.virtual {
			t.Errorf("%s: virtual = %v", name, m.Virtual)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName should miss for unknown machines")
	}
}

func TestCatalogValidates(t *testing.T) {
	for _, m := range Catalog() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	good, _ := ByName("c4.xlarge")
	cases := []func(Machine) Machine{
		func(m Machine) Machine { m.Name = ""; return m },
		func(m Machine) Machine { m.ComputeThreads = 0; return m },
		func(m Machine) Machine { m.FreqGHz = 0; return m },
		func(m Machine) Machine { m.IPC = -1; return m },
		func(m Machine) Machine { m.MemBWGBs = 0; return m },
	}
	for i, mutate := range cases {
		if err := mutate(good).Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestComputeTimeZeroWork(t *testing.T) {
	m, _ := ByName("c4.xlarge")
	if got := m.ComputeTime(Work{}); got != 0 {
		t.Errorf("zero work should cost 0 seconds, got %v", got)
	}
}

func TestComputeTimeMoreCoresFaster(t *testing.T) {
	// Compute-bound parallel work: more compute threads must be faster.
	w := Work{CPUOps: 1e9, SerialFrac: 0.02}
	small, _ := ByName("c4.xlarge")
	big, _ := ByName("c4.8xlarge")
	if small.ComputeTime(w) <= big.ComputeTime(w) {
		t.Error("8xlarge should beat xlarge on parallel compute-bound work")
	}
}

func TestComputeTimeMemoryBoundSaturates(t *testing.T) {
	// Memory-bound work scales with bandwidth, not threads: the 8xlarge
	// advantage must be far below its 17x thread advantage (the Fig 2
	// PageRank saturation effect).
	w := Work{CPUOps: 1e8, MemBytes: 4e9, SerialFrac: 0.02}
	small, _ := ByName("c4.xlarge")
	big, _ := ByName("c4.8xlarge")
	speedup := small.ComputeTime(w) / big.ComputeTime(w)
	threadRatio := float64(big.ComputeThreads) / float64(small.ComputeThreads)
	if speedup >= threadRatio/2 {
		t.Errorf("memory-bound speedup %v too close to thread ratio %v", speedup, threadRatio)
	}
	if speedup < 1.5 {
		t.Errorf("memory-bound speedup %v: bigger machine should still win some", speedup)
	}
}

func TestComputeTimeSerialFracLimits(t *testing.T) {
	// Fully serial work: core count must not matter.
	w := Work{CPUOps: 1e9, SerialFrac: 1}
	small, _ := ByName("c4.xlarge")
	big, _ := ByName("c4.8xlarge")
	ts, tb := small.ComputeTime(w), big.ComputeTime(w)
	if math.Abs(ts-tb)/ts > 1e-9 {
		t.Errorf("serial work times differ: %v vs %v", ts, tb)
	}
}

func TestComputeTimeClampsSerialFrac(t *testing.T) {
	m, _ := ByName("c4.xlarge")
	w := Work{CPUOps: 1e9, SerialFrac: -0.5}
	if m.ComputeTime(w) <= 0 {
		t.Error("clamped serial fraction should still produce positive time")
	}
	w.SerialFrac = 2
	if m.ComputeTime(w) != m.ComputeTime(Work{CPUOps: 1e9, SerialFrac: 1}) {
		t.Error("serial fraction should clamp to 1")
	}
}

func TestC4BeatsM4SlightlyAndR3InBetween(t *testing.T) {
	// Paper Fig 8b: c4.2xlarge ≈ 1.2x m4.2xlarge; r3.2xlarge ≈ 1.1x.
	// Check on a mixed workload.
	w := Work{CPUOps: 2e9, MemBytes: 4e9, SerialFrac: 0.03}
	c4, _ := ByName("c4.2xlarge")
	m4, _ := ByName("m4.2xlarge")
	r3, _ := ByName("r3.2xlarge")
	sC4 := m4.ComputeTime(w) / c4.ComputeTime(w)
	sR3 := m4.ComputeTime(w) / r3.ComputeTime(w)
	if sC4 < 1.05 || sC4 > 1.4 {
		t.Errorf("c4/m4 speedup = %v, want ~1.2", sC4)
	}
	if sR3 < 1.0 || sR3 > 1.3 {
		t.Errorf("r3/m4 speedup = %v, want ~1.1", sR3)
	}
}

func TestWorkAdd(t *testing.T) {
	w := Work{CPUOps: 100, MemBytes: 10, SerialFrac: 0.1}
	w.Add(Work{CPUOps: 300, MemBytes: 30, SerialFrac: 0.5})
	if w.CPUOps != 400 || w.MemBytes != 40 {
		t.Errorf("Add totals wrong: %+v", w)
	}
	want := (0.1*100 + 0.5*300) / 400
	if math.Abs(w.SerialFrac-want) > 1e-12 {
		t.Errorf("SerialFrac = %v, want %v", w.SerialFrac, want)
	}
	// Adding zero work is a no-op.
	before := w
	w.Add(Work{})
	if w != before {
		t.Errorf("adding zero work changed %+v to %+v", before, w)
	}
}

func TestPowerMonotone(t *testing.T) {
	m, _ := ByName("c4.2xlarge")
	if m.Power(0) != m.IdleWatts {
		t.Errorf("Power(0) = %v, want idle %v", m.Power(0), m.IdleWatts)
	}
	prev := m.Power(0)
	for c := 1; c <= m.ComputeThreads; c++ {
		p := m.Power(c)
		if p <= prev {
			t.Fatalf("power not increasing at %d cores", c)
		}
		prev = p
	}
	// Clamping: requesting more cores than exist caps at full power.
	if m.Power(100) != m.Power(m.ComputeThreads) {
		t.Error("power should clamp at compute thread count")
	}
	if m.Power(-5) != m.IdleWatts {
		t.Error("negative active cores should clamp to idle")
	}
}

func TestFrequencyScalingReducesPower(t *testing.T) {
	m := XeonServerL()
	slow := m.WithFrequency(1.8)
	if slow.FreqGHz != 1.8 {
		t.Fatalf("WithFrequency did not set freq: %v", slow.FreqGHz)
	}
	if slow.MemBWGBs >= m.MemBWGBs {
		t.Error("bandwidth should shrink with frequency")
	}
	if slow.Power(slow.ComputeThreads) >= m.Power(m.ComputeThreads) {
		t.Error("downclocked machine should draw less at full load")
	}
	if slow.Name == m.Name {
		t.Error("WithFrequency should rename the machine (new profiling group)")
	}
}

func TestEnergyAccountsIdleTail(t *testing.T) {
	m := XeonServerL()
	// Busy 10s within a 20s makespan must cost more than busy 10s/10s
	// (idle tail burns IdleWatts) but less than busy 20s/20s.
	e10in20 := m.Energy(10, 20)
	e10in10 := m.Energy(10, 10)
	e20in20 := m.Energy(20, 20)
	if !(e10in10 < e10in20 && e10in20 < e20in20) {
		t.Errorf("energy ordering violated: %v, %v, %v", e10in10, e10in20, e20in20)
	}
	// Degenerate input: total < busy clamps to busy.
	if m.Energy(10, 5) != m.Energy(10, 10) {
		t.Error("total < busy should clamp")
	}
}

func TestCostPerTask(t *testing.T) {
	m, _ := ByName("c4.xlarge")
	got := m.CostPerTask(3600)
	if math.Abs(got-0.209) > 1e-12 {
		t.Errorf("1 hour on c4.xlarge = $%v, want $0.209", got)
	}
}

func TestComputeTimePositiveProperty(t *testing.T) {
	m, _ := ByName("m4.2xlarge")
	f := func(ops, bytes uint32, sf uint8) bool {
		w := Work{
			CPUOps:     float64(ops),
			MemBytes:   float64(bytes),
			SerialFrac: float64(sf) / 255,
		}
		tm := m.ComputeTime(w)
		if ops == 0 && bytes == 0 {
			return tm == 0
		}
		return tm >= 0 && !math.IsNaN(tm) && !math.IsInf(tm, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetworkTransferTime(t *testing.T) {
	n := DefaultNetwork()
	if n.TransferTime(0) != 0 {
		t.Error("zero bytes should cost 0")
	}
	small := n.TransferTime(1)
	big := n.TransferTime(1e9)
	if small <= 0 || big <= small {
		t.Errorf("transfer times: %v, %v", small, big)
	}
	// 1GB at 1.25GB/s ≈ 0.8s + latency.
	if math.Abs(big-(0.8+n.LatencySec)) > 1e-9 {
		t.Errorf("1GB transfer = %v, want ~0.8s", big)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty cluster should error")
	}
	bad := Machine{Name: "bad"}
	if _, err := New(bad); err == nil {
		t.Error("invalid machine should error")
	}
	m, _ := ByName("c4.xlarge")
	c, err := New(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Errorf("Size = %d", c.Size())
	}
}

func TestGroups(t *testing.T) {
	c4x, _ := ByName("c4.xlarge")
	c42, _ := ByName("c4.2xlarge")
	c, err := New(c4x, c42, c4x, c4x)
	if err != nil {
		t.Fatal(err)
	}
	keys, members := c.Groups()
	if len(keys) != 2 {
		t.Fatalf("groups = %v", keys)
	}
	if len(members["c4.xlarge"]) != 3 || len(members["c4.2xlarge"]) != 1 {
		t.Errorf("membership wrong: %v", members)
	}
	if keys[0] != "c4.2xlarge" || members["c4.xlarge"][0] != 0 {
		t.Errorf("groups %v, members %v: want sorted keys and members in machine order", keys, members)
	}
}

func TestLocalXeonScaling(t *testing.T) {
	small := LocalXeon("s", 4, 2.5)
	large := LocalXeon("l", 12, 2.5)
	if large.MemBWGBs <= small.MemBWGBs {
		t.Error("more cores should come with more bandwidth")
	}
	if ratio := large.MemBWGBs / small.MemBWGBs; ratio > 3.01 {
		t.Errorf("bandwidth ratio %v should not exceed the core ratio (3x)", ratio)
	}
	// The socket cap binds eventually: a 32-core part cannot keep scaling.
	huge := LocalXeon("h", 32, 2.5)
	if huge.MemBWGBs > 55.01 {
		t.Errorf("bandwidth %v exceeds the socket cap", huge.MemBWGBs)
	}
}

func TestComputeTimeLinearInWork(t *testing.T) {
	// Doubling the work doubles the time (the linearity the CCR-to-share
	// mapping relies on).
	m, _ := ByName("c4.2xlarge")
	f := func(rawOps, rawBytes uint32) bool {
		w := Work{CPUOps: 1 + float64(rawOps%1000000), MemBytes: 1 + float64(rawBytes%1000000), SerialFrac: 0.05}
		t1 := m.ComputeTime(w)
		t2 := m.ComputeTime(Work{CPUOps: 2 * w.CPUOps, MemBytes: 2 * w.MemBytes, SerialFrac: w.SerialFrac})
		return math.Abs(t2-2*t1) < 1e-12*t2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyAdditiveInBusyTime(t *testing.T) {
	m := XeonServerL()
	// With a fixed makespan, energy is linear in busy time.
	e0 := m.Energy(0, 10)
	e5 := m.Energy(5, 10)
	e10 := m.Energy(10, 10)
	if math.Abs((e5-e0)-(e10-e5)) > 1e-9 {
		t.Errorf("energy not linear in busy time: %v, %v, %v", e0, e5, e10)
	}
	if e0 != m.IdleWatts*10 {
		t.Errorf("all-idle energy = %v, want %v", e0, m.IdleWatts*10)
	}
}

func TestWithFrequencyRenames(t *testing.T) {
	m := LocalXeon("node", 8, 2.5)
	slow := m.WithFrequency(1.8)
	if slow.Name != "node@1.8GHz" {
		t.Errorf("name = %q", slow.Name)
	}
	// Renaming matters: downclocked machines form their own profiling group.
	cl, err := New(m, slow)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := cl.Groups()
	if len(keys) != 2 {
		t.Errorf("groups = %v, want 2 distinct", keys)
	}
}

func TestDiskBandwidthDefaults(t *testing.T) {
	for _, m := range Catalog() {
		if m.DiskBWGBs <= 0 {
			t.Errorf("%s: no disk bandwidth configured", m.Name)
		}
	}
	if DefaultDiskGBs <= 0 {
		t.Error("DefaultDiskGBs must be positive")
	}
}

func TestParseClusterCatalogNames(t *testing.T) {
	cl, err := Parse("m4.2xlarge, c4.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 2 || cl.Machines[0].Name != "m4.2xlarge" {
		t.Errorf("cluster = %v", cl.Machines)
	}
}

func TestParseClusterCustomXeons(t *testing.T) {
	cl, err := Parse("xeon:4:2.5,xeon:12:2.5")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 2 {
		t.Fatalf("size = %d", cl.Size())
	}
	m := cl.Machines[0]
	if m.Name != "xeon-4c" || m.ComputeThreads != 4 || m.FreqGHz != 2.5 {
		t.Errorf("machine = %+v", m)
	}
}

func TestParseClusterMixedAndSpaces(t *testing.T) {
	cl, err := Parse(" c4.xlarge , xeon:8:2.2 , ")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 2 {
		t.Errorf("size = %d", cl.Size())
	}
}

func TestParseClusterErrors(t *testing.T) {
	for _, spec := range []string{"nonexistent", "xeon:4", "xeon:x:2.5", "xeon:4:y", ""} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q should error", spec)
		}
	}
}
