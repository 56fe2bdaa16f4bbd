// Package dynamic implements Mizan-style dynamic load balancing (Khayyat et
// al., EuroSys 2013 — reference [13] of the paper): instead of partitioning
// heterogeneity-aware up front, the engine monitors per-superstep runtimes
// and migrates edges from the straggler to underloaded machines between
// barriers. The paper positions its static proxy-guided ingress against this
// approach — dynamic balancing "avoids the negative impact of insufficient
// graph/data partitioning information in the initial stage" but pays
// migration traffic and converges over several supersteps; the DynamicStudy
// experiment quantifies the comparison.
package dynamic

import (
	"proxygraph/internal/engine"
	"proxygraph/internal/rng"
)

// Migrator is an engine.Rebalancer that moves a fraction of the straggler's
// edges to the fastest machine whenever the imbalance exceeds the trigger.
type Migrator struct {
	// Trigger is the straggler/fastest time ratio that provokes a migration
	// (default 1.15).
	Trigger float64
	// Fraction of the straggler's excess edges moved per migration
	// (default 0.5).
	Fraction float64
	// MaxMigrations caps the total number of migrations. Zero means
	// unlimited; NewMigrator sets the default cap of 16.
	MaxMigrations int
	// Seed drives the edge selection.
	Seed uint64

	// Migrations counts the migrations performed so far.
	Migrations int
	// EdgesMoved accumulates the migrated edge count.
	EdgesMoved int64
}

// NewMigrator returns a migrator with the defaults above.
func NewMigrator(seed uint64) *Migrator {
	return &Migrator{Trigger: 1.15, Fraction: 0.5, MaxMigrations: 16, Seed: seed}
}

// Decide implements engine.Rebalancer.
func (m *Migrator) Decide(step int, times []float64, pl *engine.Placement) ([]engine.Machine, int64, bool) {
	if m.MaxMigrations > 0 && m.Migrations >= m.MaxMigrations {
		return nil, 0, false
	}
	// The fastest machine is the cheapest positive-time one: machines that
	// charged nothing this step (crashed and retired by the fault layer, or
	// simply idle) are not migration targets.
	slowest, fastest := 0, -1
	for p, t := range times {
		if t > times[slowest] {
			slowest = p
		}
		if t > 0 && (fastest < 0 || t < times[fastest]) {
			fastest = p
		}
	}
	if fastest < 0 || slowest == fastest {
		return nil, 0, false
	}
	if times[slowest]/times[fastest] < m.Trigger {
		return nil, 0, false
	}

	// Move enough of the straggler's edges to close (Fraction of) the time
	// gap, assuming the straggler's time is proportional to its edge count.
	local := pl.LocalEdges()[slowest]
	if len(local) < 2 {
		return nil, 0, false
	}
	gap := (times[slowest] - times[fastest]) / (times[slowest] + times[fastest])
	move := int(m.Fraction * gap * float64(len(local)))
	if move < 1 {
		return nil, 0, false
	}
	if move >= len(local) {
		move = len(local) - 1
	}

	owner := make([]engine.Machine, len(pl.EdgeOwner))
	copy(owner, pl.EdgeOwner)
	// Derive the per-step stream by hashing, not adding: Seed+step makes
	// migrator seeds s and s+1 replay each other's streams one step apart
	// (step k of seed s+1 == step k+1 of seed s), so "independent" replicas
	// pick correlated edge samples. Hash2 keys each (seed, step) pair into an
	// unrelated SplitMix64 stream.
	src := rng.New(rng.Hash2(m.Seed, uint64(step)))
	moved := int64(0)
	// Sample without replacement by walking a random starting offset with a
	// coprime stride, deterministic and allocation-free.
	stride := 1 + int(src.Uint64n(uint64(len(local)-1)))
	for gcd(stride, len(local)) != 1 {
		stride++
	}
	idx := int(src.Uint64n(uint64(len(local))))
	for i := 0; i < move; i++ {
		owner[local[idx]] = engine.Machine(fastest)
		moved++
		idx = (idx + stride) % len(local)
	}
	m.Migrations++
	m.EdgesMoved += moved
	return owner, moved, true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
