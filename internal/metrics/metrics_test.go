package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("empty geomean should be 0")
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("negative input should yield NaN")
	}
}

func TestMax(t *testing.T) {
	if got := Max([]float64{3, 1, 4, 1, 5}); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if Max(nil) != 0 {
		t.Error("empty maximum should be 0")
	}
}

func TestGeoMeanLeqMeanProperty(t *testing.T) {
	// AM-GM inequality as a property test.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableString(t *testing.T) {
	tab := NewTable("Demo", "graph", "speedup")
	tab.AddRow("amazon", "1.45x")
	tab.AddRow("wiki", "1.10x")
	tab.AddNote("average %.2fx", 1.275)
	out := tab.String()
	for _, want := range []string{"== Demo ==", "graph", "speedup", "amazon", "1.45x", "# average 1.27x", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableAlignsWideCells(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow("very-long-cell", "extra-column")
	out := tab.String()
	if !strings.Contains(out, "very-long-cell") || !strings.Contains(out, "extra-column") {
		t.Errorf("wide/extra cells lost:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("x", "name", "value")
	tab.AddRow("plain", "1")
	tab.AddRow("with,comma", "quo\"te")
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != `"with,comma","quo""te"` {
		t.Errorf("quoted row = %q", lines[2])
	}
}

func TestFormatters(t *testing.T) {
	if F(1.2345, 2) != "1.23" {
		t.Error(F(1.2345, 2))
	}
	if Pct(0.236) != "23.6%" {
		t.Error(Pct(0.236))
	}
	if Speedup(1.447) != "1.45x" {
		t.Error(Speedup(1.447))
	}
	cases := map[float64]string{
		150:    "150s",
		2.5:    "2.50s",
		0.0042: "4.20ms",
		1e-5:   "10µs",
	}
	for v, want := range cases {
		if got := Seconds(v); got != want {
			t.Errorf("Seconds(%v) = %q, want %q", v, got, want)
		}
	}
}
