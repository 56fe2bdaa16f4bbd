package core

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
)

func mustCluster(t *testing.T, names ...string) *cluster.Cluster {
	t.Helper()
	machines := make([]cluster.Machine, len(names))
	for i, n := range names {
		m, ok := cluster.ByName(n)
		if !ok {
			t.Fatalf("unknown machine %q", n)
		}
		machines[i] = m
	}
	cl, err := cluster.New(machines...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestFromTimesEq1(t *testing.T) {
	c, err := FromTimes("pagerank", map[string]float64{"slow": 10, "fast": 5, "mid": 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratios["slow"] != 1 {
		t.Errorf("slowest ratio = %v, want 1", c.Ratios["slow"])
	}
	if c.Ratios["fast"] != 2 {
		t.Errorf("fast ratio = %v, want 2", c.Ratios["fast"])
	}
	if c.Ratios["mid"] != 1.25 {
		t.Errorf("mid ratio = %v, want 1.25", c.Ratios["mid"])
	}
}

func TestFromTimesErrors(t *testing.T) {
	if _, err := FromTimes("x", nil); err == nil {
		t.Error("empty times should error")
	}
	if _, err := FromTimes("x", map[string]float64{"a": 0}); err == nil {
		t.Error("zero time should error")
	}
	if _, err := FromTimes("x", map[string]float64{"a": -1}); err == nil {
		t.Error("negative time should error")
	}
	if _, err := FromTimes("x", map[string]float64{"a": math.NaN()}); err == nil {
		t.Error("NaN time should error")
	}
}

func TestSharesFor(t *testing.T) {
	cl := mustCluster(t, "c4.xlarge", "c4.2xlarge", "c4.xlarge")
	c := CCR{App: "pagerank", Ratios: map[string]float64{"c4.xlarge": 1, "c4.2xlarge": 2}}
	shares, err := c.SharesFor(cl)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if math.Abs(shares[i]-want[i]) > 1e-12 {
			t.Errorf("shares = %v, want %v", shares, want)
			break
		}
	}
	// Missing group errors.
	bad := CCR{App: "x", Ratios: map[string]float64{"c4.xlarge": 1}}
	if _, err := bad.SharesFor(cl); err == nil {
		t.Error("missing group should error")
	}
}

func TestCCRError(t *testing.T) {
	truth := CCR{Ratios: map[string]float64{"a": 1, "b": 2}}
	est := CCR{Ratios: map[string]float64{"a": 1, "b": 3}}
	got, err := est.Error(truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 { // (0 + 0.5)/2
		t.Errorf("error = %v, want 0.25", got)
	}
	if _, err := est.Error(CCR{}); err == nil {
		t.Error("empty truth should error")
	}
	if _, err := (CCR{Ratios: map[string]float64{"a": 1}}).Error(truth); err == nil {
		t.Error("missing group should error")
	}
}

func TestGroupsSorted(t *testing.T) {
	c := CCR{Ratios: map[string]float64{"z": 1, "a": 2, "m": 3}}
	gs := c.Groups()
	if len(gs) != 3 || gs[0] != "a" || gs[1] != "m" || gs[2] != "z" {
		t.Errorf("Groups() = %v", gs)
	}
}

func TestPoolBasics(t *testing.T) {
	p := NewPool()
	if p.Len() != 0 {
		t.Error("new pool not empty")
	}
	p.Put(CCR{App: "pagerank", Ratios: map[string]float64{"a": 1}})
	p.Put(CCR{App: "bfs", Ratios: map[string]float64{"a": 1}})
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
	if _, ok := p.Get("pagerank"); !ok {
		t.Error("pagerank missing")
	}
	if _, ok := p.Get("nope"); ok {
		t.Error("unexpected hit")
	}
	if got := p.Apps(); got[0] != "bfs" || got[1] != "pagerank" {
		t.Errorf("Apps() = %v", got)
	}
}

func TestPoolJSONRoundTrip(t *testing.T) {
	p := NewPool()
	p.Put(CCR{App: "pagerank", Ratios: map[string]float64{"c4.xlarge": 1, "c4.8xlarge": 5.5}})
	p.Put(CCR{App: "coloring", Ratios: map[string]float64{"c4.xlarge": 1, "c4.8xlarge": 4.2}})
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Pool
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip lost entries: %d", back.Len())
	}
	c, _ := back.Get("pagerank")
	if c.Ratios["c4.8xlarge"] != 5.5 {
		t.Errorf("ratio lost: %v", c.Ratios)
	}
}

func TestUniformEstimator(t *testing.T) {
	cl := mustCluster(t, "c4.xlarge", "c4.8xlarge")
	c, err := Uniform{}.Estimate(cl, apps.NewPageRank())
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratios["c4.xlarge"] != 1 || c.Ratios["c4.8xlarge"] != 1 {
		t.Errorf("uniform ratios = %v", c.Ratios)
	}
}

func TestThreadCountEstimatorPaperExample(t *testing.T) {
	// Paper Section III-B: machine A with 4 HW threads vs B with 8 gives
	// 1:3 after reserving 2 threads each.
	cl := mustCluster(t, "c4.xlarge", "c4.2xlarge") // 4 and 8 HW threads
	c, err := NewThreadCount().Estimate(cl, apps.NewPageRank())
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratios["c4.xlarge"] != 1 || c.Ratios["c4.2xlarge"] != 3 {
		t.Errorf("thread-count ratios = %v, want 1:3", c.Ratios)
	}
}

func TestThreadCountClampsTinyMachines(t *testing.T) {
	tiny := cluster.LocalXeon("tiny", 1, 1.0)
	tiny.HWThreads = 2 // 2-2 = 0 -> clamp to 1
	big, _ := cluster.ByName("c4.2xlarge")
	cl, err := cluster.New(tiny, big)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewThreadCount().Estimate(cl, apps.NewPageRank())
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratios["tiny"] != 1 || c.Ratios["c4.2xlarge"] != 6 {
		t.Errorf("ratios = %v, want 1:6", c.Ratios)
	}
}

func TestMeasureCCRSlowestIsOne(t *testing.T) {
	cl := mustCluster(t, "c4.xlarge", "c4.8xlarge")
	g, err := gen.Generate(gen.Spec{Name: "m", Vertices: 2000, Edges: 16000, Kind: gen.KindPowerLaw}, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MeasureCCR(cl, apps.NewPageRank(), g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratios["c4.xlarge"] != 1 {
		t.Errorf("xlarge should be the slowest: %v", c.Ratios)
	}
	if c.Ratios["c4.8xlarge"] <= 1.5 {
		t.Errorf("8xlarge ratio %v suspiciously low", c.Ratios["c4.8xlarge"])
	}
}

func TestProxyProfilerBeatsThreadCount(t *testing.T) {
	// The headline claim (Section V-A): proxy-profiled CCRs track real-graph
	// CCRs far better than thread-count estimates. Measure both errors on an
	// emulated natural graph across a heterogeneous ladder.
	cl := mustCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge")
	pp, err := NewProxyProfiler(1024, 7) // small proxies for test speed
	if err != nil {
		t.Fatal(err)
	}
	real, err := gen.Generate(gen.RealGraphs()[2].Scale(1024), 9) // social network
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.All() {
		truth, err := MeasureCCR(cl, app, real)
		if err != nil {
			t.Fatal(err)
		}
		proxyCCR, err := pp.Estimate(cl, app)
		if err != nil {
			t.Fatal(err)
		}
		threadsCCR, err := NewThreadCount().Estimate(cl, app)
		if err != nil {
			t.Fatal(err)
		}
		proxyErr, err := proxyCCR.Error(truth)
		if err != nil {
			t.Fatal(err)
		}
		threadErr, err := threadsCCR.Error(truth)
		if err != nil {
			t.Fatal(err)
		}
		if proxyErr >= threadErr {
			t.Errorf("%s: proxy error %.3f not better than thread-count %.3f",
				app.Name(), proxyErr, threadErr)
		}
		if proxyErr > 0.25 {
			t.Errorf("%s: proxy error %.3f too large", app.Name(), proxyErr)
		}
	}
}

func TestProxyProfilerErrors(t *testing.T) {
	cl := mustCluster(t, "c4.xlarge")
	empty := &ProxyProfiler{}
	if _, err := empty.Estimate(cl, apps.NewPageRank()); err == nil {
		t.Error("profiler without proxies should error")
	}
	var none *ProxyProfiler
	if _, err := none.Profile(apps.NewPageRank(), cl.Machines); err == nil {
		t.Error("nil profiler should error")
	}
}

// TestProfileConcurrent: Profile keeps no state, so four goroutines that
// profile the four applications on one profiler, each in its own order, get
// the sequential results bit for bit. make check runs it under the race
// detector at 1, 2 and 4 procs.
func TestProfileConcurrent(t *testing.T) {
	machines := mustCluster(t, "c4.xlarge", "c4.2xlarge", "c4.8xlarge").Machines
	pp, err := NewProxyProfiler(2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	all := apps.All()
	want := make([][]map[string]float64, len(all))
	for i, app := range all {
		if want[i], err = pp.Profile(app, machines); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	got := make([][][]map[string]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([][]map[string]float64, len(all))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range all {
				i := (w + k) % len(all)
				if got[w][i], errs[w] = pp.Profile(all[i], machines); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("goroutine %d profiled %v, want %v", w, got[w], want)
		}
	}
}

func TestBuildPool(t *testing.T) {
	cl := mustCluster(t, "c4.xlarge", "c4.2xlarge")
	pool, err := BuildPool(cl, apps.All(), NewThreadCount())
	if err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 4 {
		t.Fatalf("pool has %d apps, want 4", pool.Len())
	}
}

func TestProxyCCRAppSpecific(t *testing.T) {
	// CCRs must differ by application on the same cluster (Fig 2's point).
	cl := mustCluster(t, "c4.xlarge", "c4.8xlarge")
	pp, err := NewProxyProfiler(256, 11)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pp.Estimate(cl, apps.NewPageRank())
	if err != nil {
		t.Fatal(err)
	}
	tc, err := pp.Estimate(cl, apps.NewTriangleCount())
	if err != nil {
		t.Fatal(err)
	}
	rPR := pr.Ratios["c4.8xlarge"]
	rTC := tc.Ratios["c4.8xlarge"]
	if math.Abs(rPR-rTC) < 0.2 {
		t.Errorf("pagerank (%.2f) and triangle count (%.2f) CCRs should differ", rPR, rTC)
	}
	if rTC <= rPR {
		t.Errorf("compute-bound TC (%.2f) should scale better than memory-bound PR (%.2f)", rTC, rPR)
	}
}

var _ = graph.VertexID(0)

func TestPoolFileRoundTrip(t *testing.T) {
	p := NewPool()
	p.Put(CCR{App: "pagerank", Ratios: map[string]float64{"a": 1, "b": 2.5}})
	path := t.TempDir() + "/pool.json"
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPoolFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := back.Get("pagerank")
	if !ok || c.Ratios["b"] != 2.5 {
		t.Errorf("round trip lost data: %+v", c)
	}
	if _, err := LoadPoolFile(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
	bad := t.TempDir() + "/bad.json"
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := LoadPoolFile(bad); err == nil {
		t.Error("corrupt file should error")
	}
}

func TestMeasureCCRParallelDeterministic(t *testing.T) {
	// One recorded run is priced once per group; the assembled CCR must be the
	// same on every measurement, to the last bit.
	cl := mustCluster(t, "c4.xlarge", "c4.2xlarge", "c4.4xlarge", "c4.8xlarge")
	g, err := gen.Generate(gen.Spec{Name: "par", Vertices: 3000, Edges: 24000, Kind: gen.KindPowerLaw}, 77)
	if err != nil {
		t.Fatal(err)
	}
	base, err := MeasureCCR(cl, apps.NewPageRank(), g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := MeasureCCR(cl, apps.NewPageRank(), g)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range base.Ratios {
			if again.Ratios[k] != v {
				t.Fatalf("run %d: ratio %q changed: %v vs %v", i, k, again.Ratios[k], v)
			}
		}
	}
}
