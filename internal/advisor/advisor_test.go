package advisor

import (
	"math"
	"strings"
	"testing"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
)

func toyCatalog() []cluster.Machine {
	small, _ := cluster.ByName("c4.xlarge") // $0.209
	big, _ := cluster.ByName("c4.2xlarge")  // $0.419
	huge, _ := cluster.ByName("c4.8xlarge") // $1.675
	return []cluster.Machine{small, big, huge}
}

func toySpeeds() Speeds {
	return Speeds{"c4.xlarge": 1, "c4.2xlarge": 2.6, "c4.8xlarge": 6}
}

func TestRecommendRespectsBudget(t *testing.T) {
	best, top, err := Recommend(toyCatalog(), toySpeeds(), Request{BudgetPerHour: 1.0, Objective: MaxSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if best.CostPerHour > 1.0+1e-9 {
		t.Errorf("best composition costs $%.3f, budget was $1", best.CostPerHour)
	}
	for _, s := range top {
		if s.CostPerHour > 1.0+1e-9 {
			t.Errorf("ranked composition %v over budget", s.MachineNames)
		}
	}
}

func TestRecommendMaxSpeedPicksBestWithinBudget(t *testing.T) {
	// Budget $0.85: two 2xlarge ($0.838, speed 5.2/(1.04)=5.0) beat
	// 4x xlarge ($0.836, speed 4/(1.12)=3.57) and anything with one machine.
	best, _, err := Recommend(toyCatalog(), toySpeeds(), Request{BudgetPerHour: 0.85, Objective: MaxSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(best.MachineNames, ","); got != "c4.2xlarge,c4.2xlarge" {
		t.Errorf("best = %v (speed %.2f, $%.3f)", best.MachineNames, best.Speed, best.CostPerHour)
	}
}

func TestRecommendSpeedPerDollar(t *testing.T) {
	// Per dollar: xlarge gives 1/0.209 = 4.78, 2xlarge 2.6/0.419 = 6.2,
	// 8xlarge 6/1.675 = 3.58 -> a single 2xlarge wins (no coordination tax).
	best, _, err := Recommend(toyCatalog(), toySpeeds(), Request{Objective: MaxSpeedPerDollar, MaxMachines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(best.MachineNames) != 1 || best.MachineNames[0] != "c4.2xlarge" {
		t.Errorf("best per-dollar = %v", best.MachineNames)
	}
}

func TestRecommendMoreBudgetNeverSlower(t *testing.T) {
	prev := 0.0
	for _, budget := range []float64{0.25, 0.5, 1, 2, 4} {
		best, _, err := Recommend(toyCatalog(), toySpeeds(), Request{BudgetPerHour: budget, Objective: MaxSpeed, MaxMachines: 6})
		if err != nil {
			t.Fatal(err)
		}
		if best.Speed < prev-1e-9 {
			t.Errorf("budget $%v got slower composition (%.3f < %.3f)", budget, best.Speed, prev)
		}
		prev = best.Speed
	}
}

func TestRecommendMinMachines(t *testing.T) {
	best, _, err := Recommend(toyCatalog(), toySpeeds(), Request{MinMachines: 3, MaxMachines: 3, Objective: MaxSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if len(best.MachineNames) != 3 {
		t.Errorf("composition size = %d, want 3", len(best.MachineNames))
	}
}

func TestRecommendErrors(t *testing.T) {
	if _, _, err := Recommend(nil, toySpeeds(), Request{}); err == nil {
		t.Error("empty catalog should error")
	}
	if _, _, err := Recommend(toyCatalog(), Speeds{}, Request{}); err == nil {
		t.Error("missing speeds should error")
	}
	if _, _, err := Recommend(toyCatalog(), toySpeeds(), Request{BudgetPerHour: 0.01}); err == nil {
		t.Error("impossible budget should error")
	}
	if _, _, err := Recommend(toyCatalog(), toySpeeds(), Request{MinMachines: 5, MaxMachines: 2}); err == nil {
		t.Error("min > max should error")
	}
	local := cluster.LocalXeon("free", 4, 2.5)
	if _, _, err := Recommend([]cluster.Machine{local}, Speeds{"free": 1}, Request{}); err == nil {
		t.Error("unpriced machines should error")
	}
}

func TestMeasureSpeedsOrdersMachines(t *testing.T) {
	pp, err := core.NewProxyProfiler(1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := cluster.ByName("c4.xlarge")
	big, _ := cluster.ByName("c4.8xlarge")
	speeds, err := MeasureSpeeds([]cluster.Machine{small, big, small}, apps.All(), pp)
	if err != nil {
		t.Fatal(err)
	}
	if len(speeds) != 2 {
		t.Fatalf("speeds = %v (duplicates should collapse)", speeds)
	}
	if speeds["c4.8xlarge"] <= speeds["c4.xlarge"] {
		t.Errorf("8xlarge should profile faster: %v", speeds)
	}
	// Validation.
	if _, err := MeasureSpeeds(nil, apps.All(), pp); err == nil {
		t.Error("no machines should error")
	}
	if _, err := MeasureSpeeds([]cluster.Machine{small}, apps.All(), &core.ProxyProfiler{}); err == nil {
		t.Error("empty profiler should error")
	}
}

func TestEndToEndRecommendation(t *testing.T) {
	pp, err := core.NewProxyProfiler(1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	catalog := toyCatalog()
	speeds, err := MeasureSpeeds(catalog, apps.All(), pp)
	if err != nil {
		t.Fatal(err)
	}
	best, top, err := Recommend(catalog, speeds, Request{BudgetPerHour: 2, Objective: MaxSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if best.Speed <= 0 || best.SpeedPerDollar <= 0 {
		t.Errorf("degenerate recommendation %+v", best)
	}
	if len(top) == 0 || top[0].Speed != best.Speed {
		t.Error("ranking inconsistent with best")
	}
}

// zeroTimeApp reports a zero makespan from every run — the shape a stubbed or
// degenerate application produces. Folding it into the geometric mean would
// yield +Inf speeds; MeasureSpeeds must refuse instead.
type zeroTimeApp struct{}

func (zeroTimeApp) Name() string              { return "zero-stub" }
func (zeroTimeApp) Coeffs() engine.CostCoeffs { return engine.CostCoeffs{} }
func (zeroTimeApp) Run(pl *engine.Placement, cl *cluster.Cluster) (*engine.Result, error) {
	return &engine.Result{SimSeconds: 0}, nil
}

func TestMeasureSpeedsRejectsZeroMakespan(t *testing.T) {
	pp, err := core.NewProxyProfiler(1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := cluster.ByName("c4.xlarge")
	speeds, err := MeasureSpeeds([]cluster.Machine{small}, []apps.App{zeroTimeApp{}}, pp)
	if err == nil {
		t.Fatalf("zero-makespan profiling run must error, got speeds %v", speeds)
	}
	for _, s := range speeds {
		if math.IsInf(s, 0) || math.IsNaN(s) {
			t.Fatalf("non-finite speed leaked out alongside the error: %v", speeds)
		}
	}
}
