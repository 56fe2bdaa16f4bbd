package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"proxygraph/internal/service"
)

// postJob submits a job with an optional idempotency key and decodes the body.
func postJob(t *testing.T, url, body, key string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	return resp, m
}

// waitDone polls a job's status endpoint until it is terminal.
func waitDone(t *testing.T, url string, id int) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var st service.JobStatus
	for {
		resp, err := http.Get(url + "/jobs/" + strconv.Itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch st.State {
		case "done", "failed", "shed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceConfigDurabilityFlags pins the new flags' validation: a negative
// drain timeout and an unwritable journal path fail at startup, good values
// land in the config, and the journal probe creates the file without
// touching existing contents.
func TestServiceConfigDurabilityFlags(t *testing.T) {
	if _, err := buildConfig([]string{"-drain-timeout", "-1"}); err == nil {
		t.Error("negative -drain-timeout accepted")
	}
	if _, err := buildConfig([]string{"-journal", "/nonexistent-dir/jobs.journal"}); err == nil {
		t.Error("unwritable -journal accepted")
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, []byte("existing"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := buildConfig([]string{"-journal", path, "-drain-timeout", "2.5"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.journalPath != path || cfg.drainTimeout != 2500*time.Millisecond {
		t.Fatalf("config: %+v", cfg)
	}
	// The writability probe must not clobber what recovery will read.
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "existing" {
		t.Fatalf("probe altered journal: %q %v", data, err)
	}
	cfg2, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.journalPath != "" || cfg2.drainTimeout != 10*time.Second {
		t.Fatalf("defaults: %+v", cfg2)
	}
}

// TestServiceHTTPRestartRecovery is the crash-restart walk over the HTTP
// surface: a journaling server completes keyed jobs, the process "dies" (the
// journal even grows a torn tail, as kill -9 mid-write leaves), a second
// server recovers from the same file — and the old status URLs still resolve,
// resubmitted keys dedup to the old ids, and the metrics report the recovery.
func TestServiceHTTPRestartRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	args := []string{"-scale", "512", "-journal", path, "-seed", "9"}

	cfg, err := buildConfig(args)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())

	resp, m := postJob(t, ts.URL, `{"tenant":"gold","app":"pagerank","graph":"social_network"}`, "req-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, m)
	}
	idA := int(m["id"].(float64))
	// A duplicate POST (client retry) answers with the same id.
	if _, m := postJob(t, ts.URL, `{"tenant":"gold","app":"pagerank","graph":"social_network"}`, "req-a"); int(m["id"].(float64)) != idA {
		t.Fatalf("dup submit id %v, want %d", m["id"], idA)
	}
	// The same key with different work is a 409.
	if resp, _ := postJob(t, ts.URL, `{"tenant":"gold","app":"pagerank","graph":"wiki"}`, "req-a"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("key conflict: %d", resp.StatusCode)
	}
	first := waitDone(t, ts.URL, idA)
	if first.State != "done" {
		t.Fatalf("job: %+v", first)
	}
	ts.Close()
	srv.svc.Close()
	if srv.journal != nil {
		_ = srv.journal.Close()
	}

	// kill -9 leaves a torn tail; fake one so recovery exercises truncation.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 42, 42}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart against the same journal (fresh appConfig: newServer owns its
	// copy of the service config).
	cfg2, err := buildConfig(args)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := newServer(cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.svc.Close()
	ts2 := httptest.NewServer(srv2.mux())
	defer ts2.Close()

	// The pre-crash status URL still resolves, same id, same terminal state
	// and charges.
	st := waitDone(t, ts2.URL, idA)
	if st.State != "done" || st.ExecSeconds != first.ExecSeconds || st.Key != "req-a" {
		t.Fatalf("recovered status: %+v, want %+v", st, first)
	}
	// Idempotent resubmission after the restart dedups to the recovered job.
	resp, m = postJob(t, ts2.URL, `{"tenant":"gold","app":"pagerank","graph":"social_network"}`, "req-a")
	if resp.StatusCode != http.StatusAccepted || int(m["id"].(float64)) != idA {
		t.Fatalf("post-restart dup: %d %v, want id %d", resp.StatusCode, m, idA)
	}
	// New work continues the id sequence past the recovered records.
	resp, m = postJob(t, ts2.URL, `{"tenant":"gold","app":"bfs","graph":"wiki"}`, "req-b")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("new submit: %d %v", resp.StatusCode, m)
	}
	if idB := int(m["id"].(float64)); idB <= idA {
		t.Fatalf("post-restart id %d not past recovered id %d", idB, idA)
	}
	// Metrics expose the recovery and journal counters.
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"proxygraph_jobs_recovered_done 1",
		"proxygraph_journal_appends",
		"proxygraph_degraded 0",
		"proxygraph_jobs_deduped 1",
		"proxygraph_journal_compactions 0",
		"proxygraph_job_tombstones_pruned 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// /healthz is healthy — the torn tail was recovered, not fatal.
	hresp, err := http.Get(ts2.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after recovery: %v %v", hresp.StatusCode, err)
	}
	hresp.Body.Close()
}

// TestServiceHTTPDegraded pins the degraded-mode HTTP surface: with a journal
// that fails every write, submissions get 503 + Retry-After, /healthz flips to
// 503 so the instance leaves LB rotation, reads keep serving, and /metrics
// raises the degraded gauge.
func TestServiceHTTPDegraded(t *testing.T) {
	cfg, err := buildConfig([]string{"-scale", "512"})
	if err != nil {
		t.Fatal(err)
	}
	fj, err := service.NewFaultJournal(service.NewMemJournal(), 5, service.JournalFaultSpec{
		EveryN: 1, Kinds: []service.JournalFaultKind{service.JournalSyncError},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.svc.Journal = fj
	srv, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.svc.Close()
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	resp, m := postJob(t, ts.URL, `{"tenant":"gold","app":"pagerank","graph":"social_network"}`, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded submit: %d %v", resp.StatusCode, m)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("Retry-After %q not a positive integer", ra)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz: %v %v", hresp.StatusCode, err)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Error("degraded healthz without Retry-After")
	}
	hresp.Body.Close()
	// Reads still serve while degraded.
	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil || lresp.StatusCode != http.StatusOK {
		t.Fatalf("degraded list: %v %v", lresp.StatusCode, err)
	}
	lresp.Body.Close()
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(raw), "proxygraph_degraded 1") {
		t.Error("metrics missing degraded gauge")
	}
}

// TestServiceHTTPRetryAfterOverload pins the backpressure hint on 429s: with
// one worker and a one-slot queue, a burst of submissions must see at least
// one overload rejection, and every 429 carries Retry-After.
func TestServiceHTTPRetryAfterOverload(t *testing.T) {
	cfg, err := buildConfig([]string{"-scale", "512", "-queue", "1", "-workers", "1", "-retries", "0"})
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

	// A serial client cannot outrun the worker (a post's round trip is on the
	// order of the job itself), so each burst is concurrent: 16 submissions
	// land while at most one runs and one queues. Bound the rounds anyway.
	deadline := time.Now().Add(30 * time.Second)
	saw429 := false
	for !saw429 && time.Now().Before(deadline) {
		headers := make(chan http.Header, 16)
		var wg sync.WaitGroup
		for i := 0; i < cap(headers); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, _ := postJob(t, ts.URL, `{"tenant":"gold","app":"pagerank","graph":"social_network"}`, "")
				if resp.StatusCode == http.StatusTooManyRequests {
					headers <- resp.Header
				}
			}()
		}
		wg.Wait()
		close(headers)
		for h := range headers {
			saw429 = true
			if ra := h.Get("Retry-After"); ra == "" {
				t.Fatal("429 without Retry-After")
			} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
				t.Fatalf("Retry-After %q not a positive integer", ra)
			}
		}
	}
	if !saw429 {
		t.Fatal("concurrent bursts against a 1-slot queue never saw a 429")
	}
}
