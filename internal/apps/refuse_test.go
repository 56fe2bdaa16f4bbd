package apps

import (
	"errors"
	"strings"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/dynamic"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// superstepOptions builds, afresh for each run, one value of each engine
// option that acts on supersteps.
var superstepOptions = []struct {
	name string
	opts func() engine.Options
}{
	{"Rebalancer", func() engine.Options { return engine.Options{Rebalancer: dynamic.NewMigrator(3)} }},
	{"Fault", func() engine.Options { return engine.Options{Fault: &engine.FaultConfig{CheckpointEvery: 2}} }},
	{"InitialActive", func() engine.Options { return engine.Options{InitialActive: []graph.VertexID{0}} }},
}

// TestRunRefusesUnsupportedOptions: every app of WithExtensions either
// honours each superstep option or refuses it, never runs without it. The
// synchronous apps run with it (an ApplyAll program refuses a warm-start
// seed, see TestEnginesRefuseSeedOnApplyAll); the off-engine apps return
// ErrUnsupportedOption before charging a step.
func TestRunRefusesUnsupportedOptions(t *testing.T) {
	g := testGraph(t, 95, 400, 3200)
	pl, cl := moduloPlacement(t, g, 4), multiCluster(t, 4)
	for _, app := range WithExtensions() {
		prog, isProg := app.(interface{ ApplyAll() bool })
		for _, o := range superstepOptions {
			rec := trace.NewRecorder()
			opts := o.opts()
			opts.Trace = rec
			_, err := Run(app, pl, cl, opts)
			switch {
			case !Synchronous(app):
				want := app.Name() + " does not run on the synchronous GAS engine"
				if !errors.Is(err, ErrUnsupportedOption) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s with %s: %v, want %q wrapping %v", app.Name(), o.name, err, want, ErrUnsupportedOption)
				}
				if len(rec.Events) != 0 {
					t.Errorf("%s with %s: refused run emitted %d trace events", app.Name(), o.name, len(rec.Events))
				}
			case o.name == "InitialActive" && isProg && prog.ApplyAll():
				if err == nil {
					t.Errorf("%s ran with a warm-start seed it cannot honour", app.Name())
				}
			case err != nil:
				t.Errorf("%s with %s: %v", app.Name(), o.name, err)
			}
		}
	}
}

// foreignApp is an App that neither runs on the engine nor charges its own
// accountant through the package's frame: Run can hand it no option.
type foreignApp struct{ runs *int }

func (foreignApp) Name() string              { return "foreign" }
func (foreignApp) Coeffs() engine.CostCoeffs { return engine.CostCoeffs{} }
func (a foreignApp) Run(*engine.Placement, *cluster.Cluster) (*engine.Result, error) {
	*a.runs++
	return &engine.Result{}, nil
}

func TestRunRefusesOptionsOnForeignApp(t *testing.T) {
	g := testGraph(t, 95, 400, 3200)
	pl, cl := moduloPlacement(t, g, 4), multiCluster(t, 4)
	runs := 0
	app := foreignApp{&runs}
	if _, err := Run(app, pl, cl, engine.Options{Trace: trace.NewRecorder()}); !errors.Is(err, ErrUnsupportedOption) {
		t.Errorf("foreign app with a trace: %v, want %v", err, ErrUnsupportedOption)
	}
	for _, o := range superstepOptions {
		if _, err := Run(app, pl, cl, o.opts()); !errors.Is(err, ErrUnsupportedOption) {
			t.Errorf("foreign app with %s: %v, want %v", o.name, err, ErrUnsupportedOption)
		}
	}
	if runs != 0 {
		t.Fatalf("refused foreign app ran %d times", runs)
	}
	if _, err := Run(app, pl, cl, engine.Options{}); err != nil || runs != 1 {
		t.Fatalf("foreign app without options: %v after %d runs, want one clean run", err, runs)
	}
}
