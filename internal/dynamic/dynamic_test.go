package dynamic

import (
	"math"
	"testing"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
)

func caseTwoCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(
		cluster.LocalXeon("xeon-4c", 4, 2.5),
		cluster.LocalXeon("xeon-12c", 12, 2.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testGraph(t *testing.T, seed uint64, n, m int) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Spec{
		Name: "dyn-test", Vertices: int64(n), Edges: int64(m), Kind: gen.KindPowerLaw,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func uniformPlacement(t *testing.T, g *graph.Graph, m int) *engine.Placement {
	t.Helper()
	pl, err := partition.Apply(partition.NewRandomHash(), g, partition.UniformShares(m), 1)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestMigratorImprovesUniformPlacement(t *testing.T) {
	cl := caseTwoCluster(t)
	g := testGraph(t, 1, 20000, 240000)
	pr := apps.NewPageRank()
	pr.Tolerance = 0
	pr.MaxIters = 12

	static, err := pr.Run(uniformPlacement(t, g, 2), cl)
	if err != nil {
		t.Fatal(err)
	}
	mig := NewMigrator(7)
	dynamic, err := apps.Run(pr, uniformPlacement(t, g, 2), cl, engine.Options{Rebalancer: mig})
	if err != nil {
		t.Fatal(err)
	}
	if mig.Migrations == 0 {
		t.Fatal("migrator never fired on an imbalanced heterogeneous run")
	}
	if dynamic.SimSeconds >= static.SimSeconds {
		t.Errorf("dynamic balancing (%.5fs) should beat the static uniform run (%.5fs)",
			dynamic.SimSeconds, static.SimSeconds)
	}
	// Results stay exact.
	rs := static.Output.([]float64)
	rd := dynamic.Output.([]float64)
	for v := range rs {
		if math.Abs(rs[v]-rd[v]) > 1e-9 {
			t.Fatalf("migration changed ranks at vertex %d", v)
		}
	}
}

func TestMigratorQuietOnBalancedRun(t *testing.T) {
	// Two identical machines with a uniform partition: no trigger.
	m, _ := cluster.ByName("c4.2xlarge")
	cl, err := cluster.New(m, m)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 2, 5000, 60000)
	mig := NewMigrator(3)
	if _, err := apps.Run(apps.NewPageRank(), uniformPlacement(t, g, 2), cl, engine.Options{Rebalancer: mig}); err != nil {
		t.Fatal(err)
	}
	if mig.Migrations > 1 {
		t.Errorf("migrator fired %d times on a balanced run", mig.Migrations)
	}
}

func TestMigratorRespectsMaxMigrations(t *testing.T) {
	cl := caseTwoCluster(t)
	g := testGraph(t, 3, 10000, 120000)
	mig := NewMigrator(5)
	mig.MaxMigrations = 2
	pr := apps.NewPageRank()
	pr.Tolerance = 0
	pr.MaxIters = 15
	if _, err := apps.Run(pr, uniformPlacement(t, g, 2), cl, engine.Options{Rebalancer: mig}); err != nil {
		t.Fatal(err)
	}
	if mig.Migrations > 2 {
		t.Errorf("migrations = %d, cap was 2", mig.Migrations)
	}
}

func TestMigratorUnlimitedWhenZero(t *testing.T) {
	cl := caseTwoCluster(t)
	g := testGraph(t, 3, 10000, 120000)
	pr := apps.NewPageRank()
	pr.Tolerance = 0
	pr.MaxIters = 15

	capped := NewMigrator(5)
	capped.MaxMigrations = 1
	if _, err := apps.Run(pr, uniformPlacement(t, g, 2), cl, engine.Options{Rebalancer: capped}); err != nil {
		t.Fatal(err)
	}
	if capped.Migrations != 1 {
		t.Fatalf("capped migrator fired %d times, cap was 1", capped.Migrations)
	}

	// Zero disables the cap entirely: same run must migrate at least as often.
	unlimited := NewMigrator(5)
	unlimited.MaxMigrations = 0
	if _, err := apps.Run(pr, uniformPlacement(t, g, 2), cl, engine.Options{Rebalancer: unlimited}); err != nil {
		t.Fatal(err)
	}
	if unlimited.Migrations <= capped.Migrations {
		t.Fatalf("unlimited migrator fired %d times, capped one fired %d",
			unlimited.Migrations, capped.Migrations)
	}
}

func TestDecideIgnoresZeroTimeMachines(t *testing.T) {
	g := testGraph(t, 7, 100, 600)
	pl, err := engine.NewPlacement(g, make([]engine.Machine, len(g.Edges)), 3)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMigrator(1)
	// Machine 1 charged nothing (crashed or idle): it must not become the
	// migration target. Machine 2 is the only valid fastest machine.
	owner, moved, ok := m.Decide(0, []float64{4, 0, 1}, pl)
	if !ok || moved == 0 {
		t.Fatal("expected a migration onto the fastest alive machine")
	}
	for _, o := range owner {
		if o == 1 {
			t.Fatal("edge migrated onto a zero-time machine")
		}
	}
	// Only zero-time machines besides the straggler: refuse.
	if _, _, ok := m.Decide(1, []float64{4, 0, 0}, pl); ok {
		t.Error("migration triggered with no alive target")
	}
}

func TestMigrationChargedAsStall(t *testing.T) {
	cl := caseTwoCluster(t)
	g := testGraph(t, 4, 10000, 120000)
	pr := apps.NewPageRank()
	pr.Tolerance = 0
	pr.MaxIters = 8
	rec := trace.NewRecorder()
	if _, err := apps.Run(pr, uniformPlacement(t, g, 2), cl, engine.Options{Rebalancer: NewMigrator(9), Trace: rec}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range rec.Events {
		if e.Kind == trace.KindStall && e.Label == "migrate" {
			found = true
			if e.Seconds <= 0 {
				t.Error("migration stall carries no time")
			}
		}
	}
	if !found {
		t.Error("no migration stall recorded in the trace")
	}
}

func TestDecideEdgeCases(t *testing.T) {
	g := testGraph(t, 5, 100, 600)
	pl, err := engine.NewPlacement(g, make([]engine.Machine, len(g.Edges)), 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMigrator(1)
	// Zero fastest time: refuse.
	if _, _, ok := m.Decide(0, []float64{1, 0}, pl); ok {
		t.Error("zero-time machine should not trigger migration")
	}
	// Below trigger: refuse.
	if _, _, ok := m.Decide(0, []float64{1.0, 0.95}, pl); ok {
		t.Error("balanced times should not trigger migration")
	}
	// Valid trigger: machine 0 holds everything and is slow.
	owner, moved, ok := m.Decide(0, []float64{2, 1}, pl)
	if !ok || moved == 0 {
		t.Fatal("expected a migration")
	}
	movedCount := int64(0)
	for _, o := range owner {
		if o == 1 {
			movedCount++
		}
	}
	if movedCount != moved {
		t.Errorf("owner vector moved %d edges, reported %d", movedCount, moved)
	}
}

func TestConnectedComponentsRebalanced(t *testing.T) {
	cl := caseTwoCluster(t)
	g := testGraph(t, 6, 8000, 60000)
	res, err := apps.Run(apps.NewConnectedComponents(), uniformPlacement(t, g, 2), cl, engine.Options{Rebalancer: NewMigrator(11)})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := apps.NewConnectedComponents().Run(uniformPlacement(t, g, 2), cl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.(apps.Components).Count != plain.Output.(apps.Components).Count {
		t.Error("rebalancing changed the component count")
	}
}

// TestDecideSeedsDecorrelated is the regression test for the per-step RNG
// derivation: with the old Seed+step arithmetic, step k of a migrator seeded
// s+1 replayed step k+1 of a migrator seeded s, so adjacent-seed replicas
// sampled correlated edge sets. The hashed derivation must break that
// relationship while staying deterministic per (seed, step).
func TestDecideSeedsDecorrelated(t *testing.T) {
	g := testGraph(t, 8, 2000, 24000)
	times := []float64{4, 1}

	moved := func(seed uint64, step int) map[int32]bool {
		pl := uniformPlacement(t, g, 2)
		m := NewMigrator(seed)
		owner, _, ok := m.Decide(step, times, pl)
		if !ok {
			t.Fatalf("seed %d step %d: migration did not fire", seed, step)
		}
		set := map[int32]bool{}
		for i, o := range owner {
			if o != pl.EdgeOwner[i] {
				set[int32(i)] = true
			}
		}
		return set
	}
	overlap := func(a, b map[int32]bool) float64 {
		n := 0
		for i := range a {
			if b[i] {
				n++
			}
		}
		return float64(n) / float64(len(a))
	}

	// Determinism: same (seed, step) moves the same edges.
	if got := overlap(moved(5, 0), moved(5, 0)); got != 1 {
		t.Fatalf("same seed and step overlap %.3f, want 1", got)
	}
	// The old bug: seed s at step k+1 == seed s+1 at step k (full overlap).
	// Hashed streams must make these (and adjacent steps of one seed) nearly
	// disjoint — with ~50%% of edges moved, random sets overlap ~50%%.
	if got := overlap(moved(5, 1), moved(6, 0)); got > 0.9 {
		t.Errorf("adjacent seeds replay each other's steps: overlap %.3f", got)
	}
	if got := overlap(moved(5, 0), moved(5, 1)); got > 0.9 {
		t.Errorf("consecutive steps of one seed coincide: overlap %.3f", got)
	}
}
