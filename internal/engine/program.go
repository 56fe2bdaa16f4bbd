package engine

import "proxygraph/internal/graph"

// Direction selects which edge endpoints a program gathers from.
type Direction int

const (
	// GatherIn gathers along in-edges only (PageRank).
	GatherIn Direction = iota
	// GatherBoth gathers along both directions (label propagation).
	GatherBoth
)

// Runtime exposes per-run globals to vertex programs.
type Runtime struct {
	// NumVertices and NumEdges describe the input graph.
	NumVertices, NumEdges int
	// Step is the current superstep, starting at 0.
	Step int
}

// Program is a PowerGraph-style gather–apply–scatter vertex program.
// V is the per-vertex state, A the gather accumulator.
type Program[V, A any] interface {
	// Name labels the application.
	Name() string
	// Coeffs supplies the simulation cost constants.
	Coeffs() CostCoeffs
	// Direction selects the gather neighborhood.
	Direction() Direction
	// ApplyAll reports whether every vertex applies each superstep
	// (fixed-point style, PageRank) rather than only signalled ones.
	ApplyAll() bool
	// MaxSupersteps bounds the iteration count.
	MaxSupersteps() int
	// Init produces vertex v's initial state.
	Init(v graph.VertexID, outDeg, inDeg int32) V
	// Gather returns the contribution of a neighbor with state src along one
	// edge. src points into the engine's value array so that wide states are
	// read in place rather than copied per edge: Gather must not write
	// through it and must not keep it past the call.
	Gather(src *V) A
	// Sum combines two gather contributions (must be commutative and
	// associative, PowerGraph's requirement for distributing the gather).
	Sum(a, b A) A
	// Apply combines vertex v's old state with the gathered accumulator and
	// reports whether the state changed (changed vertices signal their
	// neighbors in scatter).
	Apply(v graph.VertexID, old V, acc A, hasAcc bool, rt *Runtime) (V, bool)
}

// Rebalancer lets a dynamic load-balancing policy (e.g. the Mizan-style
// migrator in internal/dynamic) reassign edges between supersteps, the
// related-work alternative to the paper's static CCR-guided ingress. After
// each barrier the engine reports the step's per-machine times; the policy
// may return a replacement owner vector plus the number of edges it moved,
// and the engine charges the migration traffic as a stall before continuing.
type Rebalancer interface {
	// Decide inspects the last superstep and optionally returns a new owner
	// assignment. moved is the number of edges that changed machines.
	Decide(step int, perMachineSeconds []float64, pl *Placement) (owner []int32, moved int64, ok bool)
}

// migratedEdgeBytes is the wire cost of moving one edge (endpoints plus the
// associated vertex state) during dynamic rebalancing.
const migratedEdgeBytes = 48

// gatherInto accumulates the contribution of src's state into dst.
func gatherInto[V, A any](prog Program[V, A], vals []V, acc []A, has []bool, src, dst graph.VertexID) {
	a := prog.Gather(&vals[src])
	if has[dst] {
		acc[dst] = prog.Sum(acc[dst], a)
	} else {
		acc[dst] = a
		has[dst] = true
	}
}
