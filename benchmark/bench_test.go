package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"proxygraph/internal/graph"
)

func TestFloorIsTheFastestSample(t *testing.T) {
	samples := make([]float64, gatedMinSamples)
	for i := range samples {
		samples[i] = float64(7 + (i*37)%gatedMinSamples)
	}
	got, err := floorOf(samples, gatedMinSamples)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("floor = %v, want 7", got)
	}
}

func TestFloorRefusesTooFewSamples(t *testing.T) {
	if _, err := floorOf(make([]float64, gatedMinSamples-1), gatedMinSamples); err == nil {
		t.Error("a gated floor over 199 samples must be refused")
	}
	if _, err := floorOf(nil, 0); err == nil {
		t.Error("a floor over no samples must be refused")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.05, 1}, {0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := quantile(samples, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if samples[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestClassSumAddsFloors(t *testing.T) {
	// Two classes whose floors are 1 and 10: their slow samples must not
	// reach the sum.
	a := []float64{1, 1, 1, 50}
	b := []float64{10, 10, 10, 900}
	got, err := classSum([][]float64{a, b}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Errorf("class sum = %v, want 11", got)
	}
	if _, err := classSum([][]float64{a, b[:3]}, 4); err == nil {
		t.Error("a class short of samples must fail the whole sum")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "place", Parent: 0, StartNs: 10, EndNs: 30},
		{Name: "run", Parent: 0, StartNs: 30, EndNs: 90},
		{Name: "gather", Parent: 2, StartNs: 40, EndNs: 60},
	}
	want := []int64{20, 20, 40, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two concurrent jobs under a batch cover [10,70] between them; a third
	// child pokes past the parent's end and is clipped.
	spans := []span{
		{Name: "batch", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "job", Parent: 0, StartNs: 10, EndNs: 50},
		{Name: "job", Parent: 0, StartNs: 30, EndNs: 70},
		{Name: "job", Parent: 0, StartNs: 90, EndNs: 120},
	}
	if got := selfTimes(spans)[0]; got != 30 {
		t.Errorf("batch self time = %d, want 30 (100 minus 60 covered minus 10 clipped)", got)
	}
}

func TestSelfSamplesAddWithinACycle(t *testing.T) {
	spans := []span{
		{Name: "engine.new_placement", Class: "c", Cycle: 0, Parent: -1, StartNs: 0, EndNs: 2e6},
		{Name: "engine.new_placement", Class: "c", Cycle: 0, Parent: -1, StartNs: 5e6, EndNs: 6e6},
		{Name: "engine.new_placement", Class: "c", Cycle: 1, Parent: -1, StartNs: 9e6, EndNs: 13e6},
	}
	got := selfSamplesMs(spans)[spanKey{"engine.new_placement", "c"}]
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("per-cycle samples = %v, want [3 4]", got)
	}
}

func TestCoreOracle(t *testing.T) {
	// A triangle 0-1-2 with a tail 2-3 and an isolated vertex 4; the edge
	// 0→1 is doubled, which must not raise any core number.
	g := &graph.Graph{NumVertices: 5, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3}}}
	want := []int32{2, 2, 2, 1, 0}
	for v, got := range coreOracle(undirected(g)) {
		if got != want[v] {
			t.Errorf("core number of %d = %d, want %d", v, got, want[v])
		}
	}
}

// graphDigest identifies a generated graph by content.
func graphDigest(g *graph.Graph) uint64 {
	h := newFNV()
	h.word(uint64(g.NumVertices))
	for _, e := range g.Edges {
		h.word(uint64(e.Src)<<32 | uint64(e.Dst))
	}
	return uint64(h)
}

// inputsDigest is what a seed decides about every workload's inputs: how the
// graphs are partitioned, how they evolve, and the order of the service batch.
func inputsDigest(t *testing.T, seed uint64) string {
	t.Helper()
	var b strings.Builder
	for _, name := range workloadNames {
		graphs, err := generateGraphs(name)
		if err != nil {
			t.Fatal(err)
		}
		deltas, err := generateDeltas(seed, graphs)
		if err != nil {
			t.Fatal(err)
		}
		seeds := ingressSeeds(seed, len(graphs))
		for i, g := range graphs {
			evolved, err := deltas[i].Apply(g)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s:%x:%x:%x;", g.Name, graphDigest(g), graphDigest(evolved), seeds[i])
		}
	}
	return b.String()
}

func TestSameSeedSameJobList(t *testing.T) {
	if inputsDigest(t, 7) != inputsDigest(t, 7) {
		t.Error("one seed generated two different input sets")
	}
	if inputsDigest(t, 7) == inputsDigest(t, 8) {
		t.Error("two seeds generated the same input set")
	}
	a, err := newService(7)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	b, err := newService(7)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	c, err := newService(8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	reordered := false
	for i := range a.batch {
		if a.classes[a.batch[i]].class != b.classes[b.batch[i]].class {
			t.Fatalf("slot %d of the service batch differs between two set-ups of one seed", i)
		}
		reordered = reordered || a.batch[i] != c.batch[i]
	}
	if !reordered {
		t.Error("two seeds gave the service batch the same order")
	}
	s1, err := newSerial(warmFrontier, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newSerial(warmFrontier, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.units) != 14 {
		t.Errorf("warm_frontier has %d units, want 14", len(s1.units))
	}
	for i := range s1.units {
		if s1.units[i].class != s2.units[i].class {
			t.Fatalf("unit %d differs between two set-ups of one seed", i)
		}
	}
}

// TestSmoke drives every workload for two cycles on both paths — RunJob and
// decomposed into spans — with every check on, so that this module's tests
// break when an API the harness binds to changes shape or changes what it
// computes.
func TestSmoke(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: coldIngest, seed: defaultSeed, seconds: 1, smoke: true, dir: t.TempDir()}
	rec, err := traced(cfg, exp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.OpsFailed != 0 {
		t.Fatalf("%d operations failed their checks: %v", rec.OpsFailed, rec.Errors)
	}
	for _, m := range perLayerUnits {
		if _, ok := rec.Metrics[m.name]; !ok {
			t.Errorf("traced run reported no %s", m.name)
		}
	}
	if got := rec.Metrics["workload.cache_amends"].Value; got != 4 {
		t.Errorf("cache amends per cold_ingest cycle = %v, want 4", got)
	}
	if _, err := os.Stat(filepath.Join(cfg.dir, "out", "trace-"+coldIngest+".json")); err != nil {
		t.Errorf("no span file: %v", err)
	}

	cfg.workload = serviceSteady
	rec, err = endToEnd(cfg, exp)
	if err != nil {
		t.Fatal(err)
	}
	if rec.OpsFailed != 0 {
		t.Fatalf("%d operations failed their checks: %v", rec.OpsFailed, rec.Errors)
	}
	for _, m := range endToEndUnits {
		if v, ok := rec.Metrics[m.name]; !ok || v.Value <= 0 {
			t.Errorf("end-to-end run reported %s = %v", m.name, v.Value)
		}
	}
}

// TestBindingRule keeps the harness off the entry points the roadmap wants
// deleted: a benchmark file may not be edited by the change that deletes them.
func TestBindingRule(t *testing.T) {
	forbidden := regexp.MustCompile(`ParallelShards|RunSync|RunOpts|RunParallel|\b[A-Z]\w*Opts\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := forbidden.Find(src); m != nil {
			t.Errorf("%s references %s", f, m)
		}
	}
}

// TestContractListsEveryMetric keeps BENCHMARK.json and the harness saying the
// same thing: same workloads, same metrics, same units.
func TestContractListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var contract struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []struct{ name, unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s, the harness reports %d", len(got), what, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json says %v, the harness %v", what, i, got[i], want[i])
			}
		}
	}
	same("end-to-end metrics", contract.EndToEnd, endToEndUnits)
	same("per-layer metrics", contract.PerLayer, perLayerUnits)
	for i, w := range contract.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %v", i, w.Name, workloadNames)
		}
	}
}
