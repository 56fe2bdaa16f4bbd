package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/service"
	"proxygraph/internal/workload"
)

// TestBuildConfigValidation pins the loud-failure contract: every malformed
// flag is rejected at startup, before sockets bind or graphs generate.
func TestBuildConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad port", []string{"-addr", ":notaport"}},
		{"port out of range", []string{"-addr", ":70000"}},
		{"no port separator", []string{"-addr", "localhost"}},
		{"negative queue bound", []string{"-queue", "-1"}},
		{"negative tenant queue", []string{"-tenant-queue", "-3"}},
		{"negative retries", []string{"-retries", "-1"}},
		{"negative workers", []string{"-workers", "-2"}},
		{"negative backoff", []string{"-base-backoff", "-0.5"}},
		{"zero scale", []string{"-scale", "0"}},
		{"bad cluster", []string{"-cluster", "xeon:four:2.5"}},
		{"bad tenant entry", []string{"-tenants", "gold"}},
		{"bad tenant priority", []string{"-tenants", "gold:high"}},
		{"bad tenant budget", []string{"-tenants", "gold:2:-5"}},
		{"duplicate tenants", []string{"-tenants", "a:1,a:2"}},
		{"unwritable trace sink", []string{"-trace-out", "/nonexistent-dir/trace.json"}},
	}
	for _, tc := range cases {
		if _, err := buildConfig(tc.args); err == nil {
			t.Errorf("%s: accepted %v", tc.name, tc.args)
		}
	}
}

func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.scale != 256 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if len(cfg.svc.Tenants) != 3 || cfg.svc.Tenants[0].Name != "gold" || cfg.svc.Tenants[0].Priority != 2 {
		t.Fatalf("tenants: %+v", cfg.svc.Tenants)
	}
	if cfg.svc.Cluster == nil || len(cfg.svc.Cluster.Machines) != 2 {
		t.Fatal("default cluster not built")
	}
}

func TestParseTenantsBudgets(t *testing.T) {
	ts, err := parseTenants("gold:2,silver:1:120.5,bronze:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[1].Budget.SimSeconds != 120.5 || ts[0].Budget.SimSeconds != 0 {
		t.Fatalf("parsed: %+v", ts)
	}
}

// TestServeHTTP drives the full HTTP surface against a live service: submit,
// status, list, tenants, healthz and a real Prometheus metrics endpoint.
func TestServeHTTP(t *testing.T) {
	cfg, err := buildConfig([]string{
		"-scale", "512", "-queue", "16", "-retries", "1",
		"-tenants", "gold:2,bronze:0:0.000001", // bronze: near-zero budget
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.svc.Close()
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		return resp, m
	}

	// Health first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Bad submissions.
	for _, bad := range []struct{ name, body string }{
		{"unknown app", `{"tenant":"gold","app":"nope","graph":"social_network"}`},
		{"unknown graph", `{"tenant":"gold","app":"pagerank","graph":"nope"}`},
		{"negative deadline", `{"tenant":"gold","app":"pagerank","graph":"social_network","deadline_seconds":-1}`},
		// Overflows time.Duration: accepted, it would expire at submission.
		{"deadline past time.Duration", `{"tenant":"gold","app":"pagerank","graph":"social_network","deadline_seconds":1e300}`},
	} {
		if resp, m := post(bad.body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %v", bad.name, resp.StatusCode, m)
		}
	}
	oversize := `{"tenant":"` + strings.Repeat("x", maxSubmitBytes) + `","app":"pagerank","graph":"social_network"}`
	if resp, _ := post(oversize); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over %d bytes: %d", maxSubmitBytes, resp.StatusCode)
	}

	// A good submission is accepted with an id.
	resp, m := post(`{"tenant":"gold","app":"pagerank","graph":"social_network"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, m)
	}
	id := int(m["id"].(float64))

	// Wait for it to finish, then check status over HTTP.
	deadline := time.Now().Add(30 * time.Second)
	var st service.JobStatus
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + strconv.Itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" || st.ExecSeconds <= 0 {
		t.Fatalf("status: %+v", st)
	}

	// An accepted job's deadline is released when the job ends, not when the
	// deadline would have fired: the context is cancelled (not expired) and
	// the goroutine that waited for the job is gone.
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	timed, err := srv.svc.SubmitKey(ctx, "gold", "", workload.Job{App: apps.NewBFS(), Graph: srv.graphs["social_network"], Seed: srv.seeds["social_network"]})
	if err != nil {
		t.Fatal(err)
	}
	srv.releaseWhenDone(ctx, cancel, timed)
	if st, err := srv.svc.Wait(context.Background(), timed); err != nil || st.State != "done" {
		t.Fatalf("job with a deadline: %+v %v", st, err)
	}
	select {
	case <-ctx.Done():
		if ctx.Err() != context.Canceled {
			t.Fatalf("the finished job's context ended with %v, want it cancelled", ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the job finished an hour before its deadline and the context is still live")
	}
	resp, m = post(`{"tenant":"gold","app":"bfs","graph":"social_network","deadline_seconds":3600}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with a deadline: %d %v", resp.StatusCode, m)
	}
	if st, err := srv.svc.Wait(context.Background(), int(m["id"].(float64))); err != nil || st.State != "done" {
		t.Fatalf("posted job with a deadline: %+v %v", st, err)
	}
	for waited := time.Duration(0); runtime.NumGoroutine() > goroutines; waited += 10 * time.Millisecond {
		if waited > 5*time.Second {
			t.Fatalf("%d goroutines before the jobs with deadlines, %d after they finished", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Budget: bronze has an effectively zero budget — once it completes one
	// job its spend crosses the cap and later submissions are 403s.
	resp, m = post(`{"tenant":"bronze","app":"pagerank","graph":"social_network"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bronze first submit: %d %v", resp.StatusCode, m)
	}
	bronzeID := int(m["id"].(float64))
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + strconv.Itoa(bronzeID))
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bronze job stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp, _ := post(`{"tenant":"bronze","app":"pagerank","graph":"social_network"}`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-budget submit: %d", resp.StatusCode)
	}
	// A rejected submission that asked for a deadline releases the deadline's
	// timer on the way out; the answer is the same 403.
	if resp, _ := post(`{"tenant":"bronze","app":"pagerank","graph":"social_network","deadline_seconds":3600}`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-budget submit with a deadline: %d", resp.StatusCode)
	}

	// Unknown job id is a 404; bad id a 400.
	if resp, err := http.Get(ts.URL + "/jobs/99999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %v %v", resp.StatusCode, err)
	}
	if resp, err := http.Get(ts.URL + "/jobs/abc"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: %v %v", resp.StatusCode, err)
	}

	// List and tenant filter.
	var list []service.JobStatus
	resp, err = http.Get(ts.URL + "/jobs?tenant=gold")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 3 || list[0].Tenant != "gold" {
		t.Fatalf("gold list: %+v", list)
	}
	// Paging: after the first gold job, one job per page.
	resp, err = http.Get(fmt.Sprintf("%s/jobs?tenant=gold&after=%d&limit=1", ts.URL, list[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	var page []service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(page) != 1 || page[0].ID != list[1].ID {
		t.Fatalf("page after job %d: %+v, want job %d", list[0].ID, page, list[1].ID)
	}
	for _, q := range []string{"after=-1", "after=x", "limit=-5", "limit=1.5"} {
		if resp, err := http.Get(ts.URL + "/jobs?" + q); err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /jobs?%s: %v %v, want 400", q, resp.StatusCode, err)
		}
	}

	// Tenants endpoint reports bronze's spend.
	var usage []service.TenantUsage
	resp, err = http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&usage); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	spent := false
	for _, u := range usage {
		if u.Tenant.Name == "bronze" && u.SpentSeconds > 0 {
			spent = true
		}
	}
	if !spent {
		t.Fatalf("bronze spend missing: %+v", usage)
	}

	// Metrics: real Prometheus exposition with both observer-fed series and
	// the service's own state — lifetime totals typed as counters,
	// point-in-time state as gauges.
	first := scrapeMetrics(t, ts.URL)
	if first.typ["proxygraph_admissions_total"] != "counter" {
		t.Error("metrics missing the observer-fed proxygraph_admissions_total")
	}
	counters := []string{
		"proxygraph_jobs_completed", "proxygraph_jobs_failed", "proxygraph_jobs_submitted", "proxygraph_jobs_deduped",
		"proxygraph_journal_appends", "proxygraph_journal_errors",
		"proxygraph_jobs_recovered_done", "proxygraph_jobs_recovered_requeued", "proxygraph_job_results_expired",
		"proxygraph_placement_cache_hits", "proxygraph_placement_cache_misses", "proxygraph_placement_cache_evictions",
	}
	// The runtime's GC cycle count is a counter too, but the runtime may
	// collect between two scrapes with no job in flight.
	for _, name := range append(counters, "proxygraph_go_gc_cycles") {
		if first.typ[name] != "counter" {
			t.Errorf("%s is exported as %q, want a counter", name, first.typ[name])
		}
	}
	for _, name := range []string{
		"proxygraph_degraded", "proxygraph_placement_cache_entries", "proxygraph_placement_cache_bytes",
		"proxygraph_go_heap_live_bytes", "proxygraph_go_goroutines",
	} {
		if first.typ[name] != "gauge" {
			t.Errorf("%s is exported as %q, want a gauge", name, first.typ[name])
		}
	}
	if first.value["proxygraph_go_heap_live_bytes"] <= 0 || first.value["proxygraph_go_goroutines"] <= 0 {
		t.Errorf("runtime gauges: live heap %v B, %v goroutines", first.value["proxygraph_go_heap_live_bytes"], first.value["proxygraph_go_goroutines"])
	}
	if got, want := first.value["proxygraph_jobs_completed"], float64(srv.svc.Counters().Completed); got != want || got < 4 {
		t.Errorf("proxygraph_jobs_completed %v, the service counts %v", got, want)
	}

	// A counter never decreases between scrapes, and a scrape adds only what
	// happened since the previous one: an idle scrape changes nothing, one
	// more job moves the totals by exactly that job.
	idle := scrapeMetrics(t, ts.URL)
	resp, m = post(`{"tenant":"gold","app":"bfs","graph":"wiki"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit between scrapes: %d %v", resp.StatusCode, m)
	}
	if st, err := srv.svc.Wait(context.Background(), int(m["id"].(float64))); err != nil || st.State != "done" {
		t.Fatalf("job between scrapes: %+v %v", st, err)
	}
	after := scrapeMetrics(t, ts.URL)
	for _, name := range counters {
		if idle.value[name] != first.value[name] {
			t.Errorf("%s moved from %v to %v with nothing submitted", name, first.value[name], idle.value[name])
		}
		if after.value[name] < idle.value[name] {
			t.Errorf("%s fell from %v to %v", name, idle.value[name], after.value[name])
		}
	}
	if after.value["proxygraph_go_gc_cycles"] < first.value["proxygraph_go_gc_cycles"] {
		t.Errorf("proxygraph_go_gc_cycles fell from %v to %v", first.value["proxygraph_go_gc_cycles"], after.value["proxygraph_go_gc_cycles"])
	}
	for _, name := range []string{"proxygraph_jobs_completed", "proxygraph_jobs_submitted", "proxygraph_placement_cache_misses"} {
		if after.value[name] != idle.value[name]+1 {
			t.Errorf("%s went from %v to %v over one more job on a new graph", name, idle.value[name], after.value[name])
		}
	}
}

// metricsScrape is one parsed /metrics response: the unlabelled samples and
// every family's declared type.
type metricsScrape struct {
	value map[string]float64
	typ   map[string]string
}

func scrapeMetrics(t *testing.T, base string) metricsScrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := metricsScrape{value: map[string]float64{}, typ: map[string]string{}}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE":
			out.typ[fields[2]] = fields[3]
		case len(fields) == 2 && !strings.HasPrefix(line, "#"):
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			out.value[fields[0]] = v
		}
	}
	return out
}

// TestGCPauseHistogram: /metrics exports the runtime's GC pauses as a
// histogram that a forced collection moves, and whose +Inf bucket is its
// count.
func TestGCPauseHistogram(t *testing.T) {
	cfg, err := buildConfig([]string{"-scale", "2048"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.svc.Close()
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	const name = "proxygraph_go_gc_pause_seconds"
	before := scrapeMetrics(t, ts.URL)
	if before.typ[name] != "histogram" {
		t.Fatalf("%s is exported as %q, want a histogram", name, before.typ[name])
	}
	runtime.GC()
	after := scrapeMetrics(t, ts.URL)
	if after.value[name+"_count"] <= before.value[name+"_count"] {
		t.Errorf("%s_count went from %v to %v over a forced collection", name, before.value[name+"_count"], after.value[name+"_count"])
	}
	if inf := after.value[name+`_bucket{le="+Inf"}`]; inf != after.value[name+"_count"] {
		t.Errorf("%s: +Inf bucket %v, count %v", name, inf, after.value[name+"_count"])
	}
	if after.value[name+"_sum"] <= before.value[name+"_sum"] {
		t.Errorf("%s_sum went from %v to %v over a forced collection", name, before.value[name+"_sum"], after.value[name+"_sum"])
	}
}

// TestPprofBehindFlag: the profile endpoints exist only when asked for.
func TestPprofBehindFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, http.StatusNotFound},
		{[]string{"-pprof"}, http.StatusOK},
	} {
		cfg, err := buildConfig(append([]string{"-scale", "2048"}, tc.args...))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := newServer(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.mux())
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1", "/debug/pprof/cmdline"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("serve %v: GET %s answered %d, want %d", tc.args, path, resp.StatusCode, tc.want)
			}
		}
		ts.Close()
		srv.svc.Close()
	}
}
