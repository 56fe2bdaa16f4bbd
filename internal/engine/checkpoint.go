package engine

import (
	"fmt"
	"reflect"
)

// Checkpoint is the state a synchronous run keeps at a superstep barrier:
// everything needed to resume execution at Step after losing every machine's
// in-memory state — the vertex values and the frontier that will drive the
// next gather. The engine holds it in memory and charges the storage a real
// framework would write it to (see checkpointSize). Checkpoints are
// placement-independent, so a checkpoint written before a crash restores
// cleanly onto the repartitioned survivor placement.
type Checkpoint[V any] struct {
	// Step is the next superstep to execute when resuming from this state.
	Step int
	// Vals is the complete vertex-state vector at the barrier.
	Vals []V
	// Active is the frontier bitmap driving superstep Step; ActiveCount is
	// its population count (the hybrid frontier rebuilds its worklist from
	// these two on restore).
	Active      []bool
	ActiveCount int
}

// podType reports whether t is plain old data: fixed-size and pointer-free, so
// a copied value shares nothing with the live state and its in-memory size is
// what a checkpoint stores. Vertex states in this repository (floats, ints,
// bools, small structs of them) all qualify.
func podType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return podType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !podType(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// stateSize returns V's in-memory size in bytes, or an error when V is not
// plain old data (a checkpoint of pointers would alias the live state).
func stateSize[V any]() (int, error) {
	t := reflect.TypeFor[V]()
	if !podType(t) {
		return 0, fmt.Errorf("engine: vertex state %v holds pointers and cannot be checkpointed", t)
	}
	return int(t.Size()), nil
}

// checkpointSize is the footprint charged for one checkpoint of n vertices on
// m machines, V being vsize bytes: a fixed header (version tag, value size,
// step, vertex, active and machine counts), each vertex's value and frontier
// flag, each machine's busy seconds and sent bytes, and the run's simulated
// time, superstep and gather counters.
func checkpointSize(n, m, vsize int) int64 {
	const header = 6 + 4 + 8 + 8 + 8 + 4
	const acct = 8 + 8 + 8
	return int64(header) + int64(n)*int64(vsize+1) + int64(m)*16 + acct
}

// snapshotCheckpoint deep-copies the live engine state into a checkpoint
// resuming at step.
func snapshotCheckpoint[V any](step int, vals []V, active []bool, activeCount int) *Checkpoint[V] {
	return &Checkpoint[V]{
		Step:        step,
		Vals:        append([]V(nil), vals...),
		Active:      append([]bool(nil), active...),
		ActiveCount: activeCount,
	}
}
