package trace

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a small self-contained counter/gauge/histogram registry with
// Prometheus text exposition (version 0.0.4). It exists so the simulator can
// expose run metrics in the format every metrics stack already parses without
// taking a client-library dependency. Handles are get-or-create: asking for
// the same (name, labels) twice returns the same series, so the Observer can
// resolve handles per event without bookkeeping.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// metricType is the TYPE line value of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

type family struct {
	name   string
	help   string
	typ    metricType
	series map[string]*series // keyed by rendered label set
}

type series struct {
	labels string // rendered `{k="v",...}` or ""
	// Scalar value for counters/gauges.
	val float64
	// Histogram state: ascending upper bounds (+Inf implicit) with
	// cumulative-at-render bucket counts, plus sum and count.
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// sanitizeName coerces s into a legal Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*); illegal runes become '_'. Empty input becomes
// "_". Label names get the same treatment minus the colon.
func sanitizeName(s string, allowColon bool) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(allowColon && r == ':') || (i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format; invalid
// UTF-8 bytes are replaced so the whole document stays valid UTF-8.
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(strings.ToValidUTF8(s, "�"))
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(strings.ToValidUTF8(s, "�"))
}

// renderLabels turns alternating key/value pairs into a canonical
// `{k="v",...}` string (sorted by key, so the same set always renders the
// same). An odd trailing key gets an empty value rather than failing.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		v := ""
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		pairs = append(pairs, pair{k: sanitizeName(kv[i], false), v: v})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the series for (name, typ, labels), creating family and
// series as needed. A name already registered with a different type gets a
// type-suffixed alias so both series survive with valid exposition output.
func (r *Registry) lookup(name, help string, typ metricType, labels []string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	name = sanitizeName(name, true)
	f, ok := r.families[name]
	if ok && f.typ != typ {
		name = name + "_" + string(typ)
		f, ok = r.families[name]
	}
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	}
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing series.
type Counter struct {
	mu *sync.Mutex
	s  *series
}

// Counter returns the counter series for (name, labels), creating it if
// needed. labels are alternating key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) Counter {
	return Counter{mu: &r.mu, s: r.lookup(name, help, typeCounter, labels)}
}

// Add increases the counter; negative or non-finite deltas are ignored
// (counters only go up).
func (c Counter) Add(v float64) {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	c.mu.Lock()
	c.s.val += v
	c.mu.Unlock()
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Gauge is a series that can move both ways.
type Gauge struct {
	mu *sync.Mutex
	s  *series
}

// Gauge returns the gauge series for (name, labels), creating it if needed.
func (r *Registry) Gauge(name, help string, labels ...string) Gauge {
	return Gauge{mu: &r.mu, s: r.lookup(name, help, typeGauge, labels)}
}

// Set stores v; non-finite values are dropped to keep exposition parseable.
func (g Gauge) Set(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.mu.Lock()
	g.s.val = v
	g.mu.Unlock()
}

// Histogram observes a value distribution into fixed buckets.
type Histogram struct {
	mu *sync.Mutex
	s  *series
}

// Histogram returns the histogram series for (name, labels), creating it with
// the given ascending bucket upper bounds (deduplicated; non-finite bounds
// dropped — +Inf is always implicit). The bounds of an existing series win.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) Histogram {
	s := r.lookup(name, help, typeHistogram, labels)
	r.mu.Lock()
	if s.bounds == nil {
		bounds := make([]float64, 0, len(buckets))
		for _, b := range buckets {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				continue
			}
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		bounds = slices.Compact(bounds)
		s.bounds = bounds
		s.counts = make([]uint64, len(bounds))
	}
	r.mu.Unlock()
	return Histogram{mu: &r.mu, s: s}
}

// Observe records v; NaN observations are dropped.
func (h Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	for i, b := range h.s.bounds {
		if v <= b {
			h.s.counts[i]++
			break
		}
	}
	h.s.count++
	if !math.IsInf(v, 0) {
		h.s.sum += v
	}
	h.mu.Unlock()
}

// AddCounts adds counts[i] observations to the bucket of the histogram's
// i-th ascending bound, counts[len(bounds)] to the implicit +Inf bucket, and
// sum to the running sum: how a source that keeps its own histogram, such as
// the Go runtime, folds what it saw since the last export in without
// replaying each observation. A counts of any other length, or a non-finite
// sum, is dropped whole.
func (h Histogram) AddCounts(counts []uint64, sum float64) {
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(counts) != len(h.s.bounds)+1 {
		return
	}
	for i, c := range counts[:len(h.s.counts)] {
		h.s.counts[i] += c
	}
	for _, c := range counts {
		h.s.count += c
	}
	h.s.sum += sum
}

// formatValue renders a sample value the way Prometheus clients do.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel splices an extra label (e.g. le) into a rendered label set.
func withLabel(labels, key, val string) string {
	extra := key + `="` + escapeLabelValue(val) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders every family in text exposition format, sorted by
// family name and series label set so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			if f.typ == typeHistogram {
				cum := uint64(0)
				for i, b := range s.bounds {
					cum += s.counts[i]
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.name, withLabel(s.labels, "le", formatValue(b)), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, withLabel(s.labels, "le", "+Inf"), s.count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatValue(s.sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.val)); err != nil {
				return err
			}
		}
	}
	return nil
}
