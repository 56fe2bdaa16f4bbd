package core

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"proxygraph/internal/cluster"
)

func TestPoolJSONRejectsInvalid(t *testing.T) {
	for _, tc := range []struct {
		name, data string
	}{
		{"duplicate app", `[{"app":"pagerank","ratios":{"a":1}},{"app":"pagerank","ratios":{"a":1,"b":2}}]`},
		{"empty app name", `[{"app":"","ratios":{"a":1}}]`},
		{"missing app name", `[{"ratios":{"a":1}}]`},
		{"empty ratios", `[{"app":"pagerank","ratios":{}}]`},
		{"missing ratios", `[{"app":"pagerank"}]`},
		{"zero ratio", `[{"app":"pagerank","ratios":{"a":1,"b":0}}]`},
		{"negative ratio", `[{"app":"pagerank","ratios":{"a":1,"b":-2}}]`},
		{"slowest above 1", `[{"app":"pagerank","ratios":{"a":1.5,"b":3}}]`},
		{"slowest below 1", `[{"app":"pagerank","ratios":{"a":0.5,"b":1}}]`},
		{"out of float range", `[{"app":"pagerank","ratios":{"a":1,"b":1e999}}]`},
		{"not a list", `{"app":"pagerank"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool()
			p.Put(CCR{App: "kept", Ratios: map[string]float64{"a": 1}})
			if err := json.Unmarshal([]byte(tc.data), p); err == nil {
				t.Fatalf("accepted %s: %v", tc.data, p.Apps())
			}
			if got := p.Apps(); len(got) != 1 || got[0] != "kept" {
				t.Errorf("a rejected pool changed the receiver: %v", got)
			}
		})
	}
}

func TestPoolJSONAcceptsProfiledPools(t *testing.T) {
	for _, data := range []string{
		`[]`,
		`null`,
		`[{"app":"pagerank","ratios":{"a":1}}]`,
		`[{"app":"pagerank","ratios":{"c4.xlarge":1,"c4.2xlarge":3.0000000000000004}},{"app":"coloring","ratios":{"c4.xlarge":1,"c4.2xlarge":1}}]`,
	} {
		var p Pool
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			t.Errorf("rejected %s: %v", data, err)
		}
	}
}

// FuzzPoolJSON holds the pool decoder to its contract on arbitrary input: it
// never panics, anything it accepts is a pool Eq 1 could have produced, and an
// accepted pool re-encodes to bytes that decode to the same encoding.
func FuzzPoolJSON(f *testing.F) {
	for _, seed := range []string{
		`[{"app":"pagerank","ratios":{"c4.xlarge":1,"c4.2xlarge":3.0000000000000004}}]`,
		`[{"app":"a","ratios":{"x":1}},{"app":"b","ratios":{"x":2,"y":1}}]`,
		`[{"app":"a","ratios":{"x":1}},{"app":"a","ratios":{"x":1}}]`,
		`[{"app":"a","ratios":{}}]`,
		`[{"app":"a","ratios":{"x":0.5}}]`,
		`[{"app":"","ratios":{"x":1}}]`,
		`null`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Pool
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		for _, name := range p.Apps() {
			c, _ := p.Get(name)
			if name == "" || c.App != name || len(c.Ratios) == 0 {
				t.Fatalf("accepted entry %q: %+v", name, c)
			}
			slowest := math.Inf(1)
			for g, r := range c.Ratios {
				if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
					t.Fatalf("accepted ratio %v for %q/%q", r, name, g)
				}
				slowest = math.Min(slowest, r)
			}
			if slowest != 1 {
				t.Fatalf("accepted %q with smallest ratio %v", name, slowest)
			}
		}
		enc, err := json.Marshal(&p)
		if err != nil {
			t.Fatalf("accepted pool does not encode: %v", err)
		}
		var back Pool
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded pool rejected: %v\n%s", err, enc)
		}
		if again, _ := json.Marshal(&back); !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the pool:\n%s\n%s", enc, again)
		}
	})
}

// TestPoolSharesFor: a pool builds each (app, cluster) share vector once and
// hands out the same slice after, with the values CCR.SharesFor gives; Put
// drops only the replaced app's vectors, and a decoded pool drops them all.
func TestPoolSharesFor(t *testing.T) {
	old := CCR{App: "pagerank", Ratios: map[string]float64{"c4.xlarge": 1, "c4.8xlarge": 4}}
	p := NewPool()
	p.Put(old)
	p.Put(CCR{App: "coloring", Ratios: map[string]float64{"c4.xlarge": 1, "c4.8xlarge": 2}})
	cl := mustCluster(t, "c4.xlarge", "c4.8xlarge", "c4.xlarge")
	other := mustCluster(t, "c4.8xlarge", "c4.xlarge")

	want, err := old.SharesFor(cl)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.SharesFor("pagerank", cl)
	if err != nil || !slices.Equal(first, want) {
		t.Fatalf("SharesFor = %v, %v; want %v", first, err, want)
	}
	if again, _ := p.SharesFor("pagerank", cl); &again[0] != &first[0] {
		t.Error("a second call built a new vector")
	}
	if o, _ := p.SharesFor("pagerank", other); len(o) != 2 || o[0] != 0.8 {
		t.Errorf("other cluster: %v, want [0.8 0.2]", o)
	}

	if _, err := p.SharesFor("bfs", cl); err == nil {
		t.Error("an app with no CCR got shares")
	}
	if _, err := p.SharesFor("pagerank", mustCluster(t, "c4.2xlarge")); err == nil {
		t.Error("a cluster with an unprofiled machine group got shares")
	}

	p.Put(CCR{App: "coloring", Ratios: map[string]float64{"c4.xlarge": 1, "c4.8xlarge": 3}})
	if again, _ := p.SharesFor("pagerank", cl); &again[0] != &first[0] {
		t.Error("replacing another app's CCR dropped this app's vector")
	}
	p.Put(CCR{App: "pagerank", Ratios: map[string]float64{"c4.xlarge": 1, "c4.8xlarge": 2}})
	if got, _ := p.SharesFor("pagerank", cl); &got[0] == &first[0] || !slices.Equal(got, []float64{0.25, 0.5, 0.25}) {
		t.Errorf("after Put: %v, want a new [0.25 0.5 0.25]", got)
	}
	if !slices.Equal(first, want) {
		t.Errorf("Put wrote into a vector already handed out: %v", first)
	}

	before, _ := p.SharesFor("coloring", cl)
	if err := json.Unmarshal([]byte(`[{"app":"coloring","ratios":{"c4.xlarge":1,"c4.8xlarge":1}}]`), p); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.SharesFor("coloring", cl); &got[0] == &before[0] || !slices.Equal(got, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}) {
		t.Errorf("after decoding: %v, want a new uniform vector", got)
	}
	if _, err := p.SharesFor("pagerank", cl); err == nil {
		t.Error("an app the decoded pool lacks still has shares")
	}
}

// TestPoolSharesForConcurrent has goroutines ask for every app's shares on
// two clusters while one Put replaces an app's CCR partway through: each
// worker runs a stretch of calls, signals, runs a second stretch concurrent
// with the Put, then waits for it and runs a third. Every answer must hold the
// old or the new ratios, and any call that starts after the Put returned
// must see the new ones.
func TestPoolSharesForConcurrent(t *testing.T) {
	const workers, rounds = 4, 100
	clusters := []*cluster.Cluster{
		mustCluster(t, "c4.xlarge", "c4.8xlarge"),
		mustCluster(t, "c4.8xlarge", "c4.xlarge", "c4.2xlarge"),
	}
	ccr := func(app string, fast float64) CCR {
		return CCR{App: app, Ratios: map[string]float64{"c4.xlarge": 1, "c4.2xlarge": 1.5, "c4.8xlarge": fast}}
	}
	expect := func(c CCR) [][]float64 {
		var out [][]float64
		for _, cl := range clusters {
			s, err := c.SharesFor(cl)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return out
	}
	names := []string{"pagerank", "coloring", "triangle_count"}
	p := NewPool()
	before := map[string][][]float64{}
	for i, name := range names {
		p.Put(ccr(name, float64(2+i)))
		before[name] = expect(ccr(name, float64(2+i)))
	}
	replaced := ccr("pagerank", 7)
	after := expect(replaced)

	var put atomic.Bool
	var half, wg sync.WaitGroup
	putDone := make(chan struct{})
	half.Add(workers)
	go func() {
		half.Wait()
		p.Put(replaced)
		put.Store(true)
		close(putDone)
	}()
	// stretch makes rounds passes over every app and cluster; false on error.
	stretch := func() bool {
		for range rounds {
			for _, name := range names {
				for ci, cl := range clusters {
					done := put.Load()
					got, err := p.SharesFor(name, cl)
					switch {
					case err != nil:
						t.Error(err)
						return false
					case name == "pagerank" && done && !slices.Equal(got, after[ci]):
						t.Errorf("cluster %d: %v after the Put, want %v", ci, got, after[ci])
						return false
					case !slices.Equal(got, before[name][ci]) && (name != "pagerank" || !slices.Equal(got, after[ci])):
						t.Errorf("%s on cluster %d: %v matches neither CCR", name, ci, got)
						return false
					}
				}
			}
		}
		return true
	}
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			ok := stretch()
			half.Done()
			if ok && stretch() {
				<-putDone
				stretch()
			}
		}()
	}
	wg.Wait()
	<-putDone
	for ci, cl := range clusters {
		if got, _ := p.SharesFor("pagerank", cl); !slices.Equal(got, after[ci]) {
			t.Errorf("cluster %d: %v after all calls, want %v", ci, got, after[ci])
		}
	}
}
