package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
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
