package exp

import (
	"runtime"
	"slices"
	"testing"

	"proxygraph/internal/trace"
)

// TestFig9TraceStream pins the event stream Fig 9 sends the lab's collector:
// its cells run concurrently, yet the stream is the same at any GOMAXPROCS,
// in cell order. Run under -race it also checks that the cells never share a
// collector.
func TestFig9TraceStream(t *testing.T) {
	record := func(procs int) []trace.Event {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rec := trace.NewRecorder()
		if _, err := NewLab(Config{Scale: 1024, Seed: 42, Collector: rec}).Fig9(); err != nil {
			t.Fatal(err)
		}
		return rec.Events
	}
	want := record(1)
	if len(want) == 0 {
		t.Fatal("Fig9 sent the collector no events")
	}
	if got := record(4); !slices.Equal(got, want) {
		t.Fatalf("GOMAXPROCS 4 sent %d events, GOMAXPROCS 1 sent %d, and the streams differ", len(got), len(want))
	}
}

// TestLabRunsReachCollector counts the app runs each experiment reports to
// the lab's collector — one superstep-0 begin per run — against the runs its
// tables come from.
func TestLabRunsReachCollector(t *testing.T) {
	runsPerRow := map[string]func(rows int) int{
		// One run per threshold or gamma.
		"abl-hybrid": func(rows int) int { return rows },
		"abl-ginger": func(rows int) int { return rows },
		// Three placements' packed runs per graph, then the 64 scalar BFS
		// runs of the batch-amortization note.
		"clusterbfs": func(rows int) int { return 3*rows + 64 },
		// Three static systems and one dynamic run per graph.
		"dynamic": func(rows int) int { return 4 * rows },
	}
	for _, x := range Catalog() {
		want, ok := runsPerRow[x.Name]
		if !ok {
			continue
		}
		t.Run(x.Name, func(t *testing.T) {
			rec := trace.NewRecorder()
			tables, err := x.Run(NewLab(Config{Scale: 1024, Seed: 42, Collector: rec}))
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for _, tb := range tables {
				rows += len(tb.Rows)
			}
			runs := 0
			for _, e := range rec.Events {
				if e.Kind == trace.KindStepBegin && e.Step == 0 {
					runs++
				}
			}
			if runs != want(rows) {
				t.Fatalf("%d runs reached the collector, want %d for %d rows", runs, want(rows), rows)
			}
		})
	}
}
