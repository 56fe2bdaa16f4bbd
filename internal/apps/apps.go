// Package apps implements the paper's four MLDM graph applications —
// PageRank, Coloring, Connected Components and Triangle Count (Section IV) —
// plus seven extensions showing that "any special-purpose application can be
// sampled and fit into our flow" (Section III-B).
//
// PageRank and Connected Components run on the synchronous GAS engine;
// Coloring runs asynchronously (as in PowerGraph, which the paper notes
// limits its balancing benefit); Triangle Count is a one-shot edge-parallel
// computation. All compute real outputs: the simulated cluster affects time
// and energy, never results.
package apps

import (
	"errors"
	"fmt"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
)

// App is one runnable graph application.
type App interface {
	// Name is the application's label in CCR pools and experiment tables.
	Name() string
	// Run executes the application over a placement on a cluster.
	Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error)
	// Coeffs are its cost constants, with which engine.Price re-prices a run.
	Coeffs() engine.CostCoeffs
}

// ErrUnsupportedOption reports an engine option a run cannot honour (see Run).
var ErrUnsupportedOption = errors.New("apps: unsupported engine option")

// synchronous is implemented by the applications that execute on the
// synchronous GAS engine (PageRank, Connected Components, BFS, the batched
// traversals and the warm-started variants): their supersteps are what
// engine.Options act on.
type synchronous interface {
	run(pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error)
}

// offEngine is implemented by the applications that charge their own
// accountant instead of running on the engine (Coloring, SSSP, KCore,
// Triangle Count, delta PageRank): count charges runOffEngine's accountant.
type offEngine interface {
	App
	count(pl *engine.Placement, account *engine.Accountant) (any, error)
}

// Run executes app with engine options attached: rebalancing, fault injection
// and checkpointing, tracing, a warm-start frontier. Applications on the
// synchronous GAS engine honour them all; the off-engine ones honour
// opts.Trace alone, and an App defined outside this package none. An option
// the run cannot honour is an error wrapping ErrUnsupportedOption.
func Run(app App, pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	switch a := app.(type) {
	case synchronous:
		return a.run(pl, cl, opts)
	case offEngine:
		return runOffEngine(a, pl, cl, opts)
	}
	if err := refuse(app, opts, false); err != nil {
		return nil, err
	}
	return app.Run(pl, cl)
}

// Synchronous reports whether app executes on the synchronous GAS engine,
// that is whether Run takes the options that act on supersteps for it.
func Synchronous(app App) bool {
	_, ok := app.(synchronous)
	return ok
}

// runOffEngine is every off-engine run's frame: the refusal, the machine
// count check and an accountant reporting to opts.Trace around app.count.
func runOffEngine(app offEngine, pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) (*engine.Result, error) {
	if err := refuse(app, opts, true); err != nil {
		return nil, err
	}
	if pl.M != cl.Size() {
		return nil, fmt.Errorf("%s: placement has %d machines, cluster %d", app.Name(), pl.M, cl.Size())
	}
	account := engine.NewAccountant(cl, app.Coeffs())
	account.SetCollector(opts.Trace)
	out, err := app.count(pl, account)
	if err != nil {
		return nil, err
	}
	return account.Finish(app.Name(), pl.G.Name, out), nil
}

// refuse returns the error for the first option of opts that app, off the
// engine, cannot honour: any that acts on supersteps, Trace unless traced.
func refuse(app App, opts engine.Options, traced bool) error {
	option := "Trace"
	switch {
	case opts.Rebalancer != nil:
		option = "Rebalancer"
	case opts.Fault != nil:
		option = "Fault"
	case opts.InitialActive != nil:
		option = "InitialActive"
	case traced || opts.Trace == nil:
		return nil
	}
	return fmt.Errorf("%s does not run on the synchronous GAS engine: %w %s", app.Name(), ErrUnsupportedOption, option)
}

// runGAS executes a vertex program on the engine and attaches the
// application's output, derived from the final vertex states.
func runGAS[V, A, O any](prog engine.Program[V, A], pl *engine.Placement, cl *cluster.Cluster, opts engine.Options, output func([]V) O) (*engine.Result, error) {
	res, vals, err := engine.Run[V, A](prog, pl, cl, opts)
	if err != nil {
		return nil, err
	}
	res.Output = output(vals)
	return res, nil
}

// activeBit is 1 for an active gather source and 0 otherwise; the compiler
// turns it into a byte load, not a jump. The integer programs' Fold loops
// build masks from it — x|(on-1) is x or all ones, x&-on is x or zero — so an
// inactive source folds in as the operator's identity: on dense frontier
// steps about half the records are inactive in no predictable pattern, and a
// branch per record mispredicts where a mask costs two ALU ops.
//
// The frontier hot loops all follow one rule: mask a test of frontier data
// whose outcome flips on a large share of iterations — here, the empty fold's
// tail (a select, not an early return) and SSSP's whole edge pass, which adds
// and ORs both endpoints' bits into gathers and reach words; in the engine,
// the dense gather's per-group bookkeeping and the dense apply list; in graph,
// the undirected sets' dedup — and keep a branch that guards a loop or
// predicts well, such as SSSP's skip of the zero reach words.
func activeBit(on bool) uint32 {
	if on {
		return 1
	}
	return 0
}

// All returns the paper's four applications with default parameters, in the
// order the paper's figures list them.
func All() []App {
	return []App{
		NewPageRank(),
		NewColoring(),
		NewConnectedComponents(),
		NewTriangleCount(),
	}
}

// WithExtensions returns All plus the applications beyond the paper's set
// (BFS, SSSP over unit hops, k-core decomposition, asynchronous delta
// PageRank, and the bit-parallel batched-traversal family: ClusterBFS, the
// landmark distance oracle and k-seed reachability).
func WithExtensions() []App {
	return append(All(),
		NewBFS(), NewSSSP(), NewKCore(), NewPageRankDelta(),
		NewClusterBFS(), NewLandmarkOracle(), NewKSeedReach())
}

// ByName returns the application with the given name.
func ByName(name string) (App, error) {
	for _, a := range WithExtensions() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}
