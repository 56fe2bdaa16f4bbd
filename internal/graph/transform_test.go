package graph

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSampleEdges(t *testing.T) {
	g := randomGraph(t, 20, 500, 20000)
	s, err := SampleEdges(g, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(s.Edges)) / float64(len(g.Edges))
	if math.Abs(frac-0.25) > 0.03 {
		t.Errorf("kept fraction %v, want ~0.25", frac)
	}
	if s.NumVertices != g.NumVertices {
		t.Error("sampling should keep the vertex set")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every sampled edge exists in the original (it is a subset).
	set := map[Edge]bool{}
	for _, e := range g.Edges {
		set[e] = true
	}
	for _, e := range s.Edges {
		if !set[e] {
			t.Fatalf("sampled edge %v not in original", e)
		}
	}
}

func TestSampleEdgesValidation(t *testing.T) {
	g := diamond()
	for _, f := range []float64{0, -0.5, 1.5} {
		if _, err := SampleEdges(g, f, 1); err == nil {
			t.Errorf("fraction %v should error", f)
		}
	}
	full, err := SampleEdges(g, 1, 1)
	if err != nil || len(full.Edges) != len(g.Edges) {
		t.Error("fraction 1 should keep everything")
	}
}

func TestSampleChangesDegreeShape(t *testing.T) {
	// The motivating property: edge sampling thins neighborhoods, so the
	// sample's average degree drops while the vertex count stays — its
	// computational profile no longer matches the original.
	g := randomGraph(t, 21, 300, 9000)
	s, err := SampleEdges(g, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.AvgDegree() > g.AvgDegree()*0.2 {
		t.Errorf("sample avg degree %v vs original %v: expected ~10x thinner", s.AvgDegree(), g.AvgDegree())
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	g := randomGraph(t, 30, 200, 3000)
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAdjacency(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", back.NumEdges(), g.NumEdges())
	}
	// The adjacency format groups by source, so compare sorted out-CSRs.
	a, b := g.BuildOutCSR(), back.BuildOutCSR()
	for v := 0; v < g.NumVertices; v++ {
		av, bv := a.Neighbors(VertexID(v)), b.Neighbors(VertexID(v))
		if len(av) != len(bv) {
			t.Fatalf("vertex %d: degree %d != %d", v, len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("vertex %d neighbor %d differs", v, i)
			}
		}
	}
}

func TestAdjacencyRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"1\n",           // missing degree
		"1 x\n",         // bad degree
		"1 2 3\n",       // declared 2 neighbors, found 1
		"1 1 notanum\n", // bad neighbor
		"a 1 2\n",       // bad source
	} {
		if _, err := ReadAdjacency(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q should error", in)
		}
	}
}

func TestFileFormatsByExtension(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(t, 31, 100, 1200)
	for _, name := range []string{"g.txt", "g.bin", "g.adj", "g.txt.gz", "g.bin.gz", "g.adj.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.NumEdges() != g.NumEdges() {
			t.Errorf("%s: edges %d != %d", name, back.NumEdges(), g.NumEdges())
		}
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(t, 32, 500, 20000)
	plain := filepath.Join(dir, "g.txt")
	zipped := filepath.Join(dir, "g.txt.gz")
	if err := WriteFile(plain, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(zipped, g); err != nil {
		t.Fatal(err)
	}
	ps, _ := os.Stat(plain)
	zs, _ := os.Stat(zipped)
	if zs.Size() >= ps.Size() {
		t.Errorf("gzip file (%d) not smaller than plain (%d)", zs.Size(), ps.Size())
	}
}
