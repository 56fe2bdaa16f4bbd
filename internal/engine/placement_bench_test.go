package engine

import "testing"

// BenchmarkNewPlacement times placement finalization — owner scan and master
// selection; gather blocks compile on first use — on the power-law bench graph
// (20,000 vertices, 80,000 edges, four machines).
func BenchmarkNewPlacement(b *testing.B) {
	g := benchPowerLaw(b)
	owner := moduloOwner(g, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlacement(g, owner, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleMachine times the one-machine placement every profiling
// run executes on, over benchPowerLawLarge's 2^20 edges: every vertex has a
// single replica, so master selection samples nothing.
func BenchmarkSingleMachine(b *testing.B) {
	g := benchPowerLawLarge(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SingleMachine(g)
	}
}

// BenchmarkCompileBothBlocks times the both-direction block compile that the
// first GatherBoth run on a placement pays lazily, on -cpu workers (-cpu 1
// gives the single-worker figure).
func BenchmarkCompileBothBlocks(b *testing.B) {
	pl := benchPlacement(b, benchPowerLaw(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blocks := pl.compileBlocks(true); len(blocks) != pl.M {
			b.Fatalf("compiled %d blocks for %d machines", len(blocks), pl.M)
		}
	}
}

// BenchmarkCompileInBlocks times the in-direction block compile that the first
// GatherIn run on a placement pays lazily — the destination grouping only; a
// sparse step's source grouping compiles separately — on -cpu workers.
func BenchmarkCompileInBlocks(b *testing.B) {
	pl := benchPlacement(b, benchPowerLaw(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blocks := pl.compileBlocks(false); len(blocks) != pl.M {
			b.Fatalf("compiled %d blocks for %d machines", len(blocks), pl.M)
		}
	}
}
