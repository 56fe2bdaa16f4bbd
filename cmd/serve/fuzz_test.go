package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSubmitRequest drives POST /jobs through the server's mux with arbitrary
// bodies and Idempotency-Key values. Whatever the input, the answer is a 2xx
// or a 4xx: a malformed, oversized or out-of-range submission is the client's
// error, never a 5xx and never a panic.
func FuzzSubmitRequest(f *testing.F) {
	cfg, err := buildConfig([]string{"-scale", "2048", "-queue", "4", "-retries", "0"})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := newServer(cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.svc.Close)
	mux := srv.mux()

	for _, seed := range []struct{ body, key string }{
		{`{"tenant":"gold","app":"pagerank","graph":"social_network"}`, ""},
		{`{"tenant":"gold","app":"bfs","graph":"wiki","deadline_seconds":30}`, "retry-1"},
		{`{"tenant":"gold","app":"bfs","graph":"wiki","deadline_seconds":1e300}`, ""},
		{`{"tenant":"gold","app":"bfs","graph":"wiki","deadline_seconds":9223372036.854775807}`, ""},
		{`{"tenant":"gold","app":"bfs","graph":"wiki","deadline_seconds":-1e-9}`, ""},
		{`{"tenant":"gold","app":"bfs","graph":"wiki","deadline_seconds":1e-300}`, ""},
		{`{"tenant":"gold","app":"nope","graph":"wiki"}`, ""},
		{`{"tenant":"gold","app":"bfs","graph":"nope"}`, ""},
		{`{"tenant":"","app":"","graph":""}`, ""},
		{`{"tenant":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `}`, ""},
		{`{"tenant":"` + strings.Repeat("x", maxSubmitBytes) + `"}`, ""},
		{`{"tenant":"gold","app":"pagerank","graph":"social_network"}`, strings.Repeat("k", 4096)},
		{`{"tenant":"gold","app":"sssp","graph":"social_network"}`, "\x00\xff key"},
		{`{"tenant":"gold","app":"pagerank","graph":"social_network"}{}`, ""},
		{`null`, ""},
		{``, ""},
	} {
		f.Add(seed.body, seed.key)
	}
	f.Fuzz(func(t *testing.T, body, key string) {
		req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body))
		if key != "" {
			req.Header["Idempotency-Key"] = []string{key}
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("POST /jobs %q (Idempotency-Key %q): %d %s", body, key, rec.Code, rec.Body)
		}
	})
}
