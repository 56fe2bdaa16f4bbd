package graph

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"proxygraph/internal/rng"
)

// diamond returns a small directed test graph:
//
//	0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
func diamond() *Graph {
	return &Graph{
		Name:        "diamond",
		NumVertices: 4,
		Edges: []Edge{
			{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0},
		},
	}
}

func randomGraph(t *testing.T, seed uint64, n, m int) *Graph {
	t.Helper()
	src := rng.New(seed)
	g := &Graph{Name: "random", NumVertices: n}
	for len(g.Edges) < m {
		u := VertexID(src.Intn(n))
		v := VertexID(src.Intn(n))
		if u == v {
			continue
		}
		g.Edges = append(g.Edges, Edge{u, v})
	}
	return g
}

func TestValidateAcceptsGoodGraph(t *testing.T) {
	if err := diamond().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	g := &Graph{NumVertices: 2, Edges: []Edge{{0, 5}}}
	if err := g.Validate(); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	g := &Graph{NumVertices: 3, Edges: []Edge{{1, 1}}}
	if err := g.Validate(); err == nil {
		t.Error("expected self-loop error")
	}
}

func TestDegrees(t *testing.T) {
	g := diamond()
	out := g.OutDegrees()
	in := g.InDegrees()
	tot := g.TotalDegrees()
	wantOut := []int32{2, 1, 1, 1}
	wantIn := []int32{1, 1, 1, 2}
	if !reflect.DeepEqual(out, wantOut) {
		t.Errorf("out degrees = %v, want %v", out, wantOut)
	}
	if !reflect.DeepEqual(in, wantIn) {
		t.Errorf("in degrees = %v, want %v", in, wantIn)
	}
	for i := range tot {
		if tot[i] != out[i]+in[i] {
			t.Errorf("total degree mismatch at %d", i)
		}
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

func TestAvgDegree(t *testing.T) {
	g := diamond()
	if got := g.AvgDegree(); got != 5.0/4.0 {
		t.Errorf("AvgDegree = %v", got)
	}
	empty := &Graph{}
	if empty.AvgDegree() != 0 {
		t.Error("empty graph AvgDegree should be 0")
	}
}

func TestDegreeHistogram(t *testing.T) {
	got := LogDegreeBuckets([]int32{0, 1, 1, 2, 3, 4, 9, 15})
	if want := []int64{3, 2, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	for _, degrees := range [][]int32{nil, {0, 0}} {
		if got := LogDegreeBuckets(degrees); got != nil {
			t.Errorf("LogDegreeBuckets(%v) = %v, want no buckets", degrees, got)
		}
	}
}

func TestOutCSR(t *testing.T) {
	c := diamond().BuildOutCSR()
	want := map[VertexID][]VertexID{
		0: {1, 2}, 1: {3}, 2: {3}, 3: {0},
	}
	for v, neighbors := range want {
		if got := c.Neighbors(v); !reflect.DeepEqual(got, neighbors) {
			t.Errorf("out neighbors of %d = %v, want %v", v, got, neighbors)
		}
		if c.Degree(v) != len(neighbors) {
			t.Errorf("degree of %d = %d", v, c.Degree(v))
		}
	}
}

func TestInCSR(t *testing.T) {
	c := diamond().BuildInCSR()
	want := map[VertexID][]VertexID{
		0: {3}, 1: {0}, 2: {0}, 3: {1, 2},
	}
	for v, neighbors := range want {
		if got := c.Neighbors(v); !reflect.DeepEqual(got, neighbors) {
			t.Errorf("in neighbors of %d = %v, want %v", v, got, neighbors)
		}
	}
}

func TestUndirectedCSRDedup(t *testing.T) {
	// Both (0,1) and (1,0) present: the undirected sets should list each
	// neighbor once, in any order.
	g := &Graph{NumVertices: 3, Edges: []Edge{{0, 1}, {1, 0}, {1, 2}}}
	c := g.BuildUndirectedSets()
	want := map[VertexID][]VertexID{
		0: {1}, 1: {0, 2}, 2: {1},
	}
	for v, neighbors := range want {
		if got := slices.Sorted(slices.Values(c.Neighbors(v))); !reflect.DeepEqual(got, neighbors) {
			t.Errorf("undirected neighbors of %d = %v, want %v", v, got, neighbors)
		}
	}
}

func TestCSRRowsSorted(t *testing.T) {
	g := randomGraph(t, 1, 200, 3000)
	for _, c := range []*CSR{g.BuildOutCSR(), g.BuildInCSR()} {
		for v := 0; v < g.NumVertices; v++ {
			row := c.Neighbors(VertexID(v))
			if !slices.IsSorted(row) {
				t.Fatalf("row %d not sorted: %v", v, row)
			}
		}
	}
}

func TestCSREdgeConservation(t *testing.T) {
	g := randomGraph(t, 2, 100, 2000)
	out := g.BuildOutCSR()
	in := g.BuildInCSR()
	if len(out.Targets) != len(g.Edges) || len(in.Targets) != len(g.Edges) {
		t.Errorf("CSR target counts %d/%d, want %d", len(out.Targets), len(in.Targets), len(g.Edges))
	}
	// Sum of degrees equals edge count.
	sum := 0
	for v := 0; v < g.NumVertices; v++ {
		sum += out.Degree(VertexID(v))
	}
	if sum != len(g.Edges) {
		t.Errorf("sum of out-degrees %d != %d", sum, len(g.Edges))
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := randomGraph(t, 3, 50, 500)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != g.NumVertices && got.NumVertices > g.NumVertices {
		t.Errorf("vertices = %d, want <= %d", got.NumVertices, g.NumVertices)
	}
	if !reflect.DeepEqual(got.Edges, g.Edges) {
		t.Error("edges differ after text round trip")
	}
}

func TestTextDeclaredNodeCount(t *testing.T) {
	in := "# Nodes: 10 Edges: 1\n0\t1\n"
	g, err := ReadText(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 10 {
		t.Errorf("NumVertices = %d, want 10 from declaration", g.NumVertices)
	}
}

func TestTextRejectsGarbage(t *testing.T) {
	for _, in := range []string{"0\n", "a\tb\n", "1\tx\n"} {
		if _, err := ReadText(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q: expected parse error", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(t, 4, 64, 1000)
	g.Alpha = 2.17
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != g.NumVertices || got.Alpha != g.Alpha {
		t.Errorf("header mismatch: %d/%v vs %d/%v", got.NumVertices, got.Alpha, g.NumVertices, g.Alpha)
	}
	if !reflect.DeepEqual(got.Edges, g.Edges) {
		t.Error("edges differ after binary round trip")
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBufferString("NOPE....")); err == nil {
		t.Error("expected magic error")
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	g := randomGraph(t, 5, 16, 50)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewBuffer(trunc)); err == nil {
		t.Error("expected truncation error")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(t, 6, 32, 200)
	for _, name := range []string{"g.txt", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Edges, g.Edges) {
			t.Errorf("%s: edges differ", name)
		}
	}
}

func TestFootprintBytesMatchesTableII(t *testing.T) {
	// amazon: 3,387,388 edges, Table II footprint 46MB.
	g := &Graph{NumVertices: 403394, Edges: make([]Edge, 0)}
	got := float64(3387388) * 13.6 / (1 << 20)
	if got < 40 || got > 50 {
		t.Errorf("footprint model gives %.1f MB for amazon, want ~46", got)
	}
	_ = g
}

func BenchmarkBuildOutCSR(b *testing.B) {
	src := rng.New(1)
	const n, m = 100000, 1000000
	g := &Graph{NumVertices: n, Edges: make([]Edge, m)}
	for i := range g.Edges {
		g.Edges[i] = Edge{VertexID(src.Intn(n)), VertexID(src.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BuildOutCSR()
	}
}

func TestBinaryRejectsLyingHeader(t *testing.T) {
	// A header claiming 2^60 edges with no payload must error cleanly, not
	// attempt a giant allocation.
	var buf bytes.Buffer
	buf.WriteString("PGX1")
	hdr := make([]byte, 20)
	hdr[4] = 0
	// edge count = 1<<60
	for i := range hdr {
		hdr[i] = 0
	}
	hdr[11] = 0x10 // little-endian byte 7 of the count field (offset 4..11)
	buf.Write(hdr)
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("expected error for lying header")
	}
}
