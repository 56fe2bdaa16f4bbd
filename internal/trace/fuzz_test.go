package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// eventsFromBytes decodes an arbitrary byte string into an event stream: 16
// bytes per event, every field driven by fuzzer-controlled data including
// non-finite floats and out-of-range kinds/machines. This is the shared
// hostile-input front end for both encoder fuzz targets.
func eventsFromBytes(data []byte) []Event {
	var events []Event
	for len(data) >= 16 {
		chunk := data[:16]
		data = data[16:]
		labels := []string{"sync", "async", "migrate", "checkpoint", "recover", "", "weird\xffbytes", "a\x00b"}
		bits := binary.LittleEndian.Uint64(chunk[8:])
		events = append(events, Event{
			Kind:          Kind(chunk[0]),
			Step:          int(int8(chunk[1])),
			Machine:       int(int8(chunk[2])),
			Label:         labels[int(chunk[3])%len(labels)],
			Frontier:      int(int8(chunk[4])),
			Resume:        int(int8(chunk[5])),
			Seconds:       math.Float64frombits(bits),
			GatherSeconds: math.Float64frombits(bits >> 1),
			ApplySeconds:  math.Float64frombits(bits << 1),
			BookSeconds:   float64(int8(chunk[6])),
			CommSeconds:   math.Float64frombits(^bits),
			Gathers:       math.Float64frombits(bits ^ 0xdead),
			Applies:       float64(chunk[7]),
			PartialsOut:   math.Float64frombits(bits * 3),
			UpdatesOut:    -float64(chunk[6]),
			Bytes:         int64(int8(chunk[1])) << 32,
			Moved:         int64(bits),
		})
	}
	return events
}

// FuzzChromeTrace asserts the Chrome exporter emits valid UTF-8 JSON for any
// event stream, however corrupt — the encoder must sanitize non-finite
// floats and out-of-range machine indices rather than crash or emit NaN
// literals encoding/json would reject.
func FuzzChromeTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{1, 0}, 40))
	var seed []byte
	for i := 0; i < 10; i++ {
		var chunk [16]byte
		chunk[0] = byte(i)
		chunk[2] = byte(i % 3)
		binary.LittleEndian.PutUint64(chunk[8:], math.Float64bits(float64(i)*0.25))
		seed = append(seed, chunk[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		events := eventsFromBytes(data)
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, events); err != nil {
			t.Fatalf("encode failed: %v", err)
		}
		out := buf.Bytes()
		if !json.Valid(out) {
			t.Fatalf("invalid JSON for %d events:\n%s", len(events), out)
		}
		if !utf8.Valid(out) {
			t.Fatalf("invalid UTF-8 output")
		}
		// Determinism: re-encoding the same stream is byte-identical.
		var again bytes.Buffer
		if err := WriteChromeTrace(&again, events); err != nil || !bytes.Equal(out, again.Bytes()) {
			t.Fatalf("re-encode differs (err=%v)", err)
		}
	})
}

// FuzzPrometheus drives the registry through arbitrary names, labels, values
// and event streams, and asserts the exposition output stays parseable: valid
// UTF-8, every line either a comment or `name[{labels}] value`.
func FuzzPrometheus(f *testing.F) {
	f.Add("metric", "label", []byte{1, 2, 3})
	f.Add("bad name!", "bad key\n", bytes.Repeat([]byte{0xff}, 32))
	f.Add("", "", []byte{})
	f.Fuzz(func(t *testing.T, name, label string, data []byte) {
		r := NewRegistry()
		for len(data) >= 9 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			switch data[0] % 3 {
			case 0:
				r.Counter(name, "fuzzed", label, string(data[:1])).Add(v)
			case 1:
				r.Gauge(name+"_g", "fuzzed", label, label).Set(v)
			case 2:
				r.Histogram(name+"_h", "fuzzed", []float64{v, 1, 10}).Observe(v)
			}
			data = data[9:]
		}
		Observe(r, eventsFromBytes(data))
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("exposition failed: %v", err)
		}
		out := buf.String()
		if !utf8.ValidString(out) {
			t.Fatalf("invalid UTF-8 exposition")
		}
		for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
			if line == "" || strings.HasPrefix(line, "# ") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("sample line has no value: %q", line)
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Fatalf("sample value unparseable in %q: %v", line, err)
			}
			ident := line[:sp]
			if i := strings.IndexByte(ident, '{'); i >= 0 {
				ident = ident[:i]
			}
			if ident == "" || !isMetricName(ident) {
				t.Fatalf("bad metric name in %q", line)
			}
		}
	})
}

func isMetricName(s string) bool {
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
