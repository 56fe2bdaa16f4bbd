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
	// Init fills the value array once per run: vals arrives zeroed, one slot
	// per vertex of g, and Init leaves every vertex's initial state in it.
	// Whatever a program needs from the graph to do so (PageRank's
	// out-degrees) it counts itself, straight into the state where it can.
	Init(vals []V, g *graph.Graph)
	// Fold accumulates, in slice order, the contribution of every source s
	// in srcs with act == nil || act[s] into acc, and returns the
	// accumulator together with how many sources were folded. has reports
	// whether acc already holds contributions; when it is false the first
	// folded contribution replaces acc, and with nothing to fold acc comes
	// back untouched. vals is the engine's value array, indexed by vertex:
	// Fold reads wide states in place, must not write vals and must keep
	// none of its slices past the call.
	//
	// The engine hands Fold a destination's whole local neighbourhood on
	// dense supersteps and one-element slices from the sparse sweep and from
	// RunReference, so the per-edge arithmetic is compiled inside the
	// program's own loop instead of being reached through two calls per edge.
	// Three rules make those forms interchangeable:
	//
	//   - the combining operator ⊕ must be commutative and associative
	//     (PowerGraph's requirement for distributing the gather): machines
	//     and shards fold disjoint parts of a neighbourhood in any grouping;
	//   - contributions are folded in slice order, starting from the
	//     incoming acc, so splitting srcs at any point and chaining the calls
	//     gives the same bits as one call;
	//   - a loop may start from an identity instead of taking the first
	//     contribution explicitly only when identity ⊕ x is x bit for bit
	//     (0|x, min(MaxUint32, x)); floating-point programs take the first
	//     contribution explicitly, since 0+x is not x for x = -0.
	Fold(acc A, has bool, vals []V, srcs []graph.VertexID, act []bool) (A, int32)
	// Apply is the vertex phase for a whole list: for every v of vs, in
	// order, it folds acc[v] — meaningful only where has[v] — into vals[v] in
	// place and appends v to signal when v's neighbours must be signalled (v
	// joins the next frontier and its mirrors are charged the update). It
	// returns the extended signal. Whatever Apply leaves in vals[v] is the
	// vertex's new state, signalled or not; wide states are updated where
	// they live. Apply touches no vertex outside vs, writes neither acc nor
	// has and keeps none of its slices past the call.
	//
	// The engine hands Apply a machine's masters on ApplyAll supersteps, the
	// gathered vertices on dense frontier supersteps, a shard's gathered
	// destinations on sparse ones and one-element lists from RunReference, and
	// does the accounting from the two lists. One rule makes those forms
	// interchangeable: a vertex's new state and whether it signals depend on
	// that vertex's own slots (and rt) alone, so any split of vs, chained,
	// gives the same states and the same signalled set as one call.
	Apply(vs []graph.VertexID, vals []V, acc []A, has []bool, rt *Runtime, signal []graph.VertexID) []graph.VertexID
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
	// perMachineSeconds is the step's time per machine (0 for a crashed
	// one), lent for the call: the engine reuses the slice at the next
	// superstep, so Decide must not keep it.
	Decide(step int, perMachineSeconds []float64, pl *Placement) (owner []Machine, moved int64, ok bool)
}

// migratedEdgeBytes is the wire cost of moving one edge (endpoints plus the
// associated vertex state) during dynamic rebalancing.
const migratedEdgeBytes = 48
