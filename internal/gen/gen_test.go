package gen

import (
	"math"
	"testing"

	"proxygraph/internal/graph"
	"proxygraph/internal/powerlaw"
)

func mustGen(t *testing.T, spec Spec, seed uint64) *graph.Graph {
	t.Helper()
	g, err := Generate(spec, seed)
	if err != nil {
		t.Fatalf("Generate(%q): %v", spec.Name, err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	return g
}

func TestTableIICatalog(t *testing.T) {
	specs := TableII()
	if len(specs) != 7 {
		t.Fatalf("TableII has %d entries, want 7", len(specs))
	}
	if len(RealGraphs()) != 4 || len(ProxyGraphs()) != 3 {
		t.Fatal("catalog split wrong")
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		names[s.Name] = true
		if s.Vertices <= 0 || s.Edges <= 0 {
			t.Errorf("%q: non-positive sizes", s.Name)
		}
	}
	// Paper: proxy alphas are 1.95, 2.1, 2.3.
	proxies := ProxyGraphs()
	wantAlpha := []float64{1.95, 2.1, 2.3}
	for i, p := range proxies {
		if p.Alpha != wantAlpha[i] {
			t.Errorf("proxy %d alpha = %v, want %v", i, p.Alpha, wantAlpha[i])
		}
	}
}

func TestScaleSpec(t *testing.T) {
	s := Spec{Name: "x", Vertices: 1000, Edges: 8000}
	scaled := s.Scale(10)
	if scaled.Vertices != 100 || scaled.Edges != 800 {
		t.Errorf("scaled = %+v", scaled)
	}
	// Average degree preserved.
	if scaled.Edges/scaled.Vertices != s.Edges/s.Vertices {
		t.Error("scale changed average degree")
	}
	if same := s.Scale(1); same != s {
		t.Error("Scale(1) should be identity")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "det", Vertices: 5000, Edges: 25000, Kind: KindPowerLaw, Alpha: 2.1}
	a := mustGen(t, spec, 42)
	b := mustGen(t, spec, 42)
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	spec := Spec{Name: "seeds", Vertices: 5000, Edges: 25000, Kind: KindPowerLaw, Alpha: 2.1}
	a := mustGen(t, spec, 1)
	b := mustGen(t, spec, 2)
	same := 0
	n := len(a.Edges)
	if len(b.Edges) < n {
		n = len(b.Edges)
	}
	for i := 0; i < n; i++ {
		if a.Edges[i] == b.Edges[i] {
			same++
		}
	}
	if float64(same) > 0.01*float64(n) {
		t.Errorf("%d/%d identical edges across different seeds", same, n)
	}
}

func TestEdgeCountNearTarget(t *testing.T) {
	for _, kind := range []Kind{KindPowerLaw, KindAmazon, KindCitation, KindSocial, KindWiki} {
		spec := Spec{Name: "target-" + kind.String(), Vertices: 20000, Edges: 120000, Kind: kind}
		g := mustGen(t, spec, 7)
		got := float64(g.NumEdges())
		want := float64(spec.Edges)
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%v: edges = %v, want within 10%% of %v", kind, got, want)
		}
	}
}

func TestNoSelfLoops(t *testing.T) {
	for _, kind := range []Kind{KindPowerLaw, KindAmazon, KindCitation, KindSocial, KindWiki, KindRMAT} {
		spec := Spec{Name: "loops-" + kind.String(), Vertices: 3000, Edges: 15000, Kind: kind}
		g := mustGen(t, spec, 11)
		for _, e := range g.Edges {
			if e.Src == e.Dst {
				t.Fatalf("%v: self loop at %d", kind, e.Src)
			}
		}
	}
}

func TestPowerLawDegreeDistribution(t *testing.T) {
	// The generated out-degree distribution must be heavy-tailed: the
	// fitted alpha from |V|,|E| should round-trip, and low degrees must
	// dominate.
	spec := Spec{Name: "dist", Vertices: 50000, Edges: 0, Kind: KindPowerLaw, Alpha: 2.1}
	g := mustGen(t, spec, 13)
	// count(1) > count(2) > count(4) in a power law.
	counts := map[int32]int64{}
	for _, d := range g.OutDegrees() {
		counts[d]++
	}
	if !(counts[1] > counts[2] && counts[2] > counts[4]) {
		t.Errorf("degree counts not heavy-tailed: 1:%d 2:%d 4:%d", counts[1], counts[2], counts[4])
	}
	// Mean degree should match the analytic model within 15%.
	got := g.AvgDegree()
	want := powerlaw.MeanDegree(2.1, g.NumVertices-1)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("avg degree %v, analytic %v", got, want)
	}
}

func TestAlphaRoundTripThroughGenerator(t *testing.T) {
	// Generate with declared alpha, fit alpha back from |V|,|E| — the core
	// loop of Section III-A3.
	for _, alpha := range []float64{1.95, 2.1, 2.3} {
		spec := Spec{Name: "rt", Vertices: 100000, Edges: 0, Kind: KindPowerLaw, Alpha: alpha}
		g := mustGen(t, spec, 17)
		fitted, err := powerlaw.FitAlpha(g.AvgDegree(), g.NumVertices-1)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if math.Abs(fitted-alpha) > 0.12 {
			t.Errorf("alpha=%v: round-trip fitted %v", alpha, fitted)
		}
	}
}

func TestCitationIsAcyclicByConstruction(t *testing.T) {
	spec := Spec{Name: "cit", Vertices: 5000, Edges: 20000, Kind: KindCitation}
	g := mustGen(t, spec, 19)
	// Almost all edges must point from newer (higher ID) to older; the
	// uniform fallback for vertex 0 may add a handful of exceptions.
	violations := 0
	for _, e := range g.Edges {
		if e.Dst >= e.Src {
			violations++
		}
	}
	if float64(violations) > 0.01*float64(len(g.Edges)) {
		t.Errorf("%d/%d edges not newer->older", violations, len(g.Edges))
	}
}

func TestWikiHasHubs(t *testing.T) {
	spec := Spec{Name: "wk", Vertices: 20000, Edges: 60000, Kind: KindWiki}
	g := mustGen(t, spec, 23)
	in := g.InDegrees()
	// Hub vertices (first n/2000 IDs) should absorb roughly 40% of edges.
	hubs := len(in) / 2000
	if hubs == 0 {
		hubs = 1
	}
	hubIn := int64(0)
	for v := 0; v < hubs; v++ {
		hubIn += int64(in[v])
	}
	frac := float64(hubIn) / float64(len(g.Edges))
	if frac < 0.25 || frac > 0.6 {
		t.Errorf("hub in-edge fraction = %v, want ~0.4", frac)
	}
}

func TestAmazonHasMoreTrianglesThanProxy(t *testing.T) {
	// The structural point of the emulators: same size, different shape.
	// Amazon's locality must produce more triangles than a pure power law
	// of identical |V|,|E|.
	size := Spec{Vertices: 20000, Edges: 120000}
	am := mustGen(t, Spec{Name: "am", Vertices: size.Vertices, Edges: size.Edges, Kind: KindAmazon}, 29)
	pl := mustGen(t, Spec{Name: "pl", Vertices: size.Vertices, Edges: size.Edges, Kind: KindPowerLaw}, 29)
	if ta, tp := countTriangles(am), countTriangles(pl); ta <= tp {
		t.Errorf("amazon triangles %d <= proxy triangles %d", ta, tp)
	}
}

// countTriangles is a reference triangle counter used only in tests (the
// real implementation lives in internal/apps): for every edge (u, v), the
// neighbours of v that were marked as neighbours of u.
func countTriangles(g *graph.Graph) int64 {
	und := g.BuildUndirectedSets()
	mark := make([]graph.VertexID, g.NumVertices)
	var total int64
	for _, e := range g.Edges {
		for _, w := range und.Neighbors(e.Src) {
			mark[w] = e.Src + 1
		}
		for _, w := range und.Neighbors(e.Dst) {
			if mark[w] == e.Src+1 {
				total++
			}
		}
	}
	return total / 3
}

func TestSocialCommunityStructure(t *testing.T) {
	spec := Spec{Name: "soc", Vertices: 10240, Edges: 80000, Kind: KindSocial}
	g := mustGen(t, spec, 31)
	intra := 0
	for _, e := range g.Edges {
		if e.Src/1024 == e.Dst/1024 {
			intra++
		}
	}
	frac := float64(intra) / float64(len(g.Edges))
	if frac < 0.4 {
		t.Errorf("intra-community fraction = %v, want >= 0.4", frac)
	}
}

func TestRMATGenerates(t *testing.T) {
	spec := Spec{Name: "rmat", Vertices: 4096, Edges: 20000, Kind: KindRMAT}
	g := mustGen(t, spec, 37)
	if int64(g.NumEdges()) != spec.Edges {
		t.Errorf("rmat edges = %d, want exactly %d", g.NumEdges(), spec.Edges)
	}
	// R-MAT should be skewed: max degree far above average.
	if g.MaxDegree() < 5*int(math.Ceil(2*g.AvgDegree())) {
		t.Errorf("rmat max degree %d not skewed (avg %.1f)", g.MaxDegree(), g.AvgDegree())
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{Name: "tiny", Vertices: 1, Edges: 5}, 1); err == nil {
		t.Error("expected error for 1-vertex spec")
	}
	if _, err := Generate(Spec{Name: "bad-alpha", Vertices: 100, Edges: 200, Alpha: -3}, 1); err == nil {
		t.Error("expected error for negative alpha")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindPowerLaw: "powerlaw", KindAmazon: "amazon", KindCitation: "citation",
		KindSocial: "social", KindWiki: "wiki", KindRMAT: "rmat", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestScaledTableIIGeneratesQuickly(t *testing.T) {
	// The default experiment scale must generate all seven graphs without
	// trouble. Use a heavy scale divisor in unit tests.
	for _, spec := range TableII() {
		g := mustGen(t, spec.Scale(256), 41)
		if g.NumVertices == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", spec.Name)
		}
		avgWant := float64(spec.Edges) / float64(spec.Vertices)
		if math.Abs(g.AvgDegree()-avgWant)/avgWant > 0.25 {
			t.Errorf("%s: avg degree %.2f vs table %.2f", spec.Name, g.AvgDegree(), avgWant)
		}
	}
}

func BenchmarkGeneratePowerLaw(b *testing.B) {
	spec := Spec{Name: "bench", Vertices: 100000, Edges: 600000, Kind: KindPowerLaw, Alpha: 2.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
