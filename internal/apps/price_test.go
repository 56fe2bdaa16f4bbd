package apps

import (
	"math"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/dynamic"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// samePriced asserts a priced result charges what the direct run charged, bit
// for bit.
func samePriced(t *testing.T, label string, want, got *engine.Result) {
	t.Helper()
	bitsDiffer := func(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }
	if bitsDiffer(want.SimSeconds, got.SimSeconds) {
		t.Errorf("%s: SimSeconds %v, run %v", label, got.SimSeconds, want.SimSeconds)
	}
	if bitsDiffer(want.EnergyJoules, got.EnergyJoules) {
		t.Errorf("%s: EnergyJoules %v, run %v", label, got.EnergyJoules, want.EnergyJoules)
	}
	if want.Supersteps != got.Supersteps || want.Gathers != got.Gathers {
		t.Errorf("%s: %d supersteps, %v gathers; run %d, %v", label, got.Supersteps, got.Gathers, want.Supersteps, want.Gathers)
	}
	if len(want.BusySeconds) != len(got.BusySeconds) || len(want.CommBytes) != len(got.CommBytes) {
		t.Fatalf("%s: %d/%d machines priced, run %d/%d", label, len(got.BusySeconds), len(got.CommBytes), len(want.BusySeconds), len(want.CommBytes))
	}
	for p := range want.BusySeconds {
		if bitsDiffer(want.BusySeconds[p], got.BusySeconds[p]) || bitsDiffer(want.CommBytes[p], got.CommBytes[p]) {
			t.Errorf("%s: machine %d busy %v, comm %v; run %v, %v", label, p,
				got.BusySeconds[p], got.CommBytes[p], want.BusySeconds[p], want.CommBytes[p])
		}
	}
}

// TestPriceMatchesRun is the spec of solo profiling: a single-machine run's
// step counters do not depend on the machine, so one recorded run priced on
// each machine type charges what running it there would, for every app on the
// four real-graph shapes and a proxy, on every catalog machine.
func TestPriceMatchesRun(t *testing.T) {
	specs := append(gen.RealGraphs(), gen.ProxyGraphs()[1])
	graphs := make([]*graph.Graph, len(specs))
	for i, spec := range specs {
		g, err := gen.Generate(spec.Scale(1024), 3)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	catalog := cluster.Catalog()
	solos := make([]*cluster.Cluster, len(catalog))
	for i, m := range catalog {
		cl, err := cluster.New(m)
		if err != nil {
			t.Fatal(err)
		}
		solos[i] = cl
	}
	for _, app := range WithExtensions() {
		t.Run(app.Name(), func(t *testing.T) {
			for _, g := range graphs {
				pl := engine.SingleMachine(g)
				rec := trace.NewRecorder()
				if _, err := Run(app, pl, solos[0], engine.Options{Trace: rec}); err != nil {
					t.Fatal(err)
				}
				for i, solo := range solos {
					label := g.Name + " on " + catalog[i].Name
					want, err := app.Run(pl, solo)
					if err != nil {
						t.Fatal(err)
					}
					got, err := engine.Price(rec.Events, solo, app.Coeffs())
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					samePriced(t, label, want, got)
				}
			}
		})
	}
}

// TestPriceRefusesClusterDependentStreams: a stream whose charges or
// decisions depended on the recorded cluster cannot be priced elsewhere.
func TestPriceRefusesClusterDependentStreams(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)
	record := func(t *testing.T, app App, pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) []trace.Event {
		t.Helper()
		rec := trace.NewRecorder()
		opts.Trace = rec
		if _, err := Run(app, pl, cl, opts); err != nil {
			t.Fatal(err)
		}
		return rec.Events
	}
	has := func(events []trace.Event, k trace.Kind) bool {
		for _, e := range events {
			if e.Kind == k {
				return true
			}
		}
		return false
	}
	pr := NewPageRank()

	t.Run("clean run prices on its own cluster", func(t *testing.T) {
		want, err := pr.Run(pl, cl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.Price(record(t, pr, pl, cl, engine.Options{}), cl, pr.Coeffs())
		if err != nil {
			t.Fatal(err)
		}
		samePriced(t, "pagerank on 4 machines", want, got)
	})
	t.Run("fault-injected", func(t *testing.T) {
		events := record(t, pr, pl, cl, engine.Options{Fault: &engine.FaultConfig{
			Injector:        chaosSchedule(),
			CheckpointEvery: 2,
			Policy:          engine.RecoverCheckpoint,
		}})
		if !has(events, trace.KindFault) {
			t.Fatal("chaos run emitted no fault event")
		}
		if _, err := engine.Price(events, cl, pr.Coeffs()); err == nil {
			t.Error("priced a fault-injected run")
		}
	})
	t.Run("rebalanced", func(t *testing.T) {
		// The graph and cluster TestEngineEquivalenceRebalanced uses to make
		// the migrator fire.
		dense, err := gen.Generate(gen.Spec{Name: "equiv-rebalance", Vertices: 10000, Edges: 120000, Kind: gen.KindPowerLaw}, 42)
		if err != nil {
			t.Fatal(err)
		}
		skewed, err := cluster.New(
			cluster.LocalXeon("xeon-4c", 4, 2.5), cluster.LocalXeon("xeon-4c", 4, 2.5),
			cluster.LocalXeon("xeon-12c", 12, 2.5), cluster.LocalXeon("xeon-12c", 12, 2.5))
		if err != nil {
			t.Fatal(err)
		}
		mig := dynamic.NewMigrator(21)
		mig.Trigger = 1.05
		events := record(t, pr, moduloPlacement(t, dense, 4), skewed, engine.Options{Rebalancer: mig})
		if !has(events, trace.KindRebalance) {
			t.Fatal("the migrator never fired")
		}
		if _, err := engine.Price(events, skewed, pr.Coeffs()); err == nil {
			t.Error("priced a rebalanced run")
		}
	})
	t.Run("machine outside the cluster", func(t *testing.T) {
		if _, err := engine.Price(record(t, pr, pl, cl, engine.Options{}), singleCluster(t), pr.Coeffs()); err == nil {
			t.Error("priced a 4-machine run on 1 machine")
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		if _, err := engine.Price(nil, cl, pr.Coeffs()); err == nil {
			t.Error("priced an empty stream")
		}
	})
}
