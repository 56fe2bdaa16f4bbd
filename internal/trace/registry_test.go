package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.", "method", "get")
	c.Inc()
	c.Add(2)
	c.Add(-5)                                                              // counters never go down
	c.Add(math.NaN())                                                      // dropped
	c.Add(math.Inf(1))                                                     // dropped
	r.Counter("requests_total", "Requests served.", "method", "get").Inc() // same series
	g := r.Gauge("temperature", "Current temperature.")
	g.Set(20)
	g.Set(21.5)

	out := expose(t, r)
	for _, want := range []string{
		"# HELP requests_total Requests served.",
		"# TYPE requests_total counter",
		`requests_total{method="get"} 4`,
		"# TYPE temperature gauge",
		"temperature 21.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	out := expose(t, r)
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_sum 56.05",
		"latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The same five observations added as bucket counts expose the same
	// buckets, sum and count.
	batched := NewRegistry()
	b := batched.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	b.AddCounts([]uint64{1, 1, 0, 0}, 0.55)
	b.AddCounts([]uint64{0, 1, 1, 1}, 55.5)
	b.AddCounts([]uint64{1, 1, 1}, 1)             // wrong length: dropped
	b.AddCounts([]uint64{1, 1, 1, 1}, math.NaN()) // dropped
	if got := expose(t, batched); got != out {
		t.Errorf("bucket counts exposed\n%s\nobservations exposed\n%s", got, out)
	}
}

func TestRegistrySanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter("bad name-1!", "he\nlp", "bad key!", `va"l\ue`+"\n").Inc()
	out := expose(t, r)
	for _, want := range []string{
		"# HELP bad_name_1_ he\\nlp",
		`bad_name_1_{bad_key_="va\"l\\ue\n"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryTypeConflictAliases(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(7)
	out := expose(t, r)
	if !strings.Contains(out, "x 1\n") || !strings.Contains(out, "x_gauge 7\n") {
		t.Errorf("type conflict should alias to a suffixed family:\n%s", out)
	}
}

func TestRegistryDeterministicOrder(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		for _, m := range order {
			r.Counter("zz_total", "", "machine", m).Inc()
			r.Counter("aa_total", "").Inc()
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]string{"0", "2", "1"})
	b := build([]string{"1", "0", "2"})
	if a != b {
		t.Errorf("exposition depends on registration order:\n%s\nvs\n%s", a, b)
	}
	if strings.Index(a, "aa_total") > strings.Index(a, "zz_total") {
		t.Errorf("families not sorted:\n%s", a)
	}
}
