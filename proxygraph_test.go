package proxygraph

import (
	"math"
	"strings"
	"testing"
)

// TestQuickstartFlow exercises the full public API the way the package doc
// describes: build a cluster, profile with proxies, pool CCRs, run an
// application with CCR-guided partitioning, and beat the uniform default.
func TestQuickstartFlow(t *testing.T) {
	cl, err := NewCluster(MustMachine("m4.2xlarge"), MustMachine("c4.8xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	profiler, err := NewProxyProfiler(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := BuildPool(cl, Apps(), profiler)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 4 {
		t.Fatalf("pool has %d apps", pool.Len())
	}
	g, err := Generate(Spec{Name: "quick", Vertices: 20000, Edges: 240000, Kind: KindPowerLaw}, 7)
	if err != nil {
		t.Fatal(err)
	}
	guided, err := RunPooled(NewPageRank(), g, cl, NewHybrid(), pool, 7)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := RunUniform(NewPageRank(), g, cl, NewHybrid(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if guided.SimSeconds >= uniform.SimSeconds {
		t.Errorf("CCR-guided run (%.4fs) should beat uniform (%.4fs) on this heterogeneous cluster",
			guided.SimSeconds, uniform.SimSeconds)
	}
	ranks := guided.Output.([]float64)
	if len(ranks) != g.NumVertices {
		t.Errorf("rank vector has %d entries for %d vertices", len(ranks), g.NumVertices)
	}
}

func TestFacadeCatalogs(t *testing.T) {
	if len(MachineCatalog()) != 8 {
		t.Error("machine catalog should have Table I's 8 machines")
	}
	if len(TableIISpecs()) != 7 || len(RealGraphSpecs()) != 4 || len(ProxyGraphSpecs()) != 3 {
		t.Error("Table II catalogs wrong")
	}
	if len(Apps()) != 4 || len(AppsWithExtensions()) != 11 {
		t.Error("app registry wrong")
	}
	if len(Partitioners()) != 5 || len(PartitionersWithExtensions()) != 6 {
		t.Error("partitioner registry wrong")
	}
	if _, ok := MachineByName("c4.xlarge"); !ok {
		t.Error("MachineByName miss")
	}
	if _, err := AppByName("pagerank"); err != nil {
		t.Error(err)
	}
	if _, err := PartitionerByName("ginger"); err != nil {
		t.Error(err)
	}
	if TableI() == nil || len(TableI().Rows) != 8 {
		t.Error("TableI render wrong")
	}
}

func TestFacadeMustMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMachine should panic on unknown machines")
		}
	}()
	MustMachine("quantum.9000xl")
}

func TestFacadeFitAlpha(t *testing.T) {
	alpha, err := FitAlpha(3_200_000, 15_962_953)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-2.1) > 0.15 {
		t.Errorf("fitted alpha %v, want ~2.1 (Table II synthetic two)", alpha)
	}
}

func TestFacadeShares(t *testing.T) {
	s := UniformShares(4)
	if len(s) != 4 || s[0] != 0.25 {
		t.Errorf("UniformShares = %v", s)
	}
	n, err := NormalizeShares([]float64{1, 3})
	if err != nil || n[1] != 0.75 {
		t.Errorf("NormalizeShares = %v, %v", n, err)
	}
}

func TestFacadeMeasureAndRunWithCCR(t *testing.T) {
	cl, err := NewCluster(LocalXeon("little", 2, 2.0), LocalXeon("big", 8, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(Spec{Name: "ccr", Vertices: 10000, Edges: 80000, Kind: KindSocial}, 11)
	if err != nil {
		t.Fatal(err)
	}
	ccr, err := MeasureCCR(cl, NewConnectedComponents(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ccr.Ratios["big"] <= ccr.Ratios["little"] {
		t.Fatalf("big machine should be faster: %v", ccr.Ratios)
	}
	res, err := RunWithCCR(NewConnectedComponents(), g, cl, NewRandomHash(), ccr, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimSeconds <= 0 || res.EnergyJoules <= 0 {
		t.Error("run accounting empty")
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g, err := Generate(Spec{Name: "io", Vertices: 500, Edges: 2000, Kind: KindPowerLaw}, 13)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/g.bin"
	if err := WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Error("round trip lost edges")
	}
}

func TestFacadePartition(t *testing.T) {
	g, err := Generate(Spec{Name: "p", Vertices: 2000, Edges: 16000, Kind: KindPowerLaw}, 17)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Partition(NewGrid(), g, UniformShares(4), 17)
	if err != nil {
		t.Fatal(err)
	}
	if pl.ReplicationFactor() < 1 {
		t.Error("replication factor below 1")
	}
}

func TestFacadeDynamicRebalancing(t *testing.T) {
	cl, err := NewCluster(LocalXeon("xeon-4c", 4, 2.5), LocalXeon("xeon-12c", 12, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(Spec{Name: "dyn", Vertices: 15000, Edges: 180000, Kind: KindPowerLaw}, 19)
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPageRank()
	pr.Tolerance = 0
	pr.MaxIters = 10
	pl, err := Partition(NewRandomHash(), g, UniformShares(2), 19)
	if err != nil {
		t.Fatal(err)
	}
	mig := NewMigrator(19)
	res, err := RunWithRebalancer(pr, pl, cl, mig)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Migrations == 0 {
		t.Error("migrator never fired")
	}
	if res.SimSeconds <= 0 {
		t.Error("no time charged")
	}
}

func TestFacadeAdvisor(t *testing.T) {
	profiler, err := NewProxyProfiler(1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	catalog := []Machine{MustMachine("c4.xlarge"), MustMachine("c4.2xlarge")}
	speeds, err := MeasureSpeeds(catalog, Apps(), profiler)
	if err != nil {
		t.Fatal(err)
	}
	best, top, err := RecommendCluster(catalog, speeds, AdvisorRequest{
		BudgetPerHour: 1, Objective: AdvisorMaxSpeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Speed <= 0 || len(top) == 0 {
		t.Error("degenerate recommendation")
	}
}

func TestFacadePoolFile(t *testing.T) {
	cl, err := NewCluster(MustMachine("c4.xlarge"), MustMachine("c4.2xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := BuildPool(cl, Apps(), NewThreadCountEstimator())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/pool.json"
	if err := pool.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPoolFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != pool.Len() {
		t.Error("pool file round trip lost entries")
	}
}

func TestFacadeTraceHelpers(t *testing.T) {
	cl, err := NewCluster(MustMachine("c4.xlarge"), MustMachine("c4.8xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(Spec{Name: "tr", Vertices: 3000, Edges: 30000, Kind: KindPowerLaw}, 23)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Partition(NewRandomHash(), g, UniformShares(2), 23)
	if err != nil {
		t.Fatal(err)
	}
	res, events, err := RunTraced(NewPageRank(), pl, cl)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunUniform(NewPageRank(), g, cl, NewRandomHash(), 23)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimSeconds != plain.SimSeconds {
		t.Errorf("traced makespan %v, untraced %v", res.SimSeconds, plain.SimSeconds)
	}
	if gantt := TraceGantt(res, events, 20); !strings.HasPrefix(gantt, "pagerank on tr: ") {
		t.Errorf("gantt does not name the run:\n%s", gantt)
	}
	shares := StragglerShare(events)
	if len(shares) != 2 {
		t.Fatalf("straggler shares = %v", shares)
	}
	// Uniform partition on this cluster: the xlarge must dominate the barriers.
	if shares[0] < 0.9 {
		t.Errorf("xlarge straggler share = %v, want ~1", shares[0])
	}
	pl, err = Partition(NewHybrid(), g, UniformShares(2), 23)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Ingress(pl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("ingress makespan empty")
	}
}
