package apps

import (
	"math"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/trace"
)

// RankDistance returns the maximum absolute difference between two rank
// vectors, the convergence check of the PageRank tests.
func RankDistance(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestPageRankDeltaConvergesToSyncFixedPoint(t *testing.T) {
	g := testGraph(t, 90, 500, 4000)
	sync := NewPageRank()
	sync.Tolerance = 1e-7
	sync.MaxIters = 200
	syncRes, err := sync.Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	async := NewPageRankDelta()
	async.Tolerance = 1e-6
	asyncRes, err := async.Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	dist := RankDistance(syncRes.Output.([]float64), asyncRes.Output.([]float64))
	if dist > 0.01 {
		t.Errorf("async ranks diverge from sync fixed point by %v", dist)
	}
}

func TestPageRankDeltaInvariantAcrossPlacements(t *testing.T) {
	g := testGraph(t, 91, 300, 2400)
	a, err := NewPageRankDelta().Run(engine.SingleMachine(g), singleCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPageRankDelta().Run(moduloPlacement(t, g, 4), multiCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Different master orders change the push schedule, so ranks agree only
	// within the residual tolerance, not bit-exactly.
	if d := RankDistance(a.Output.([]float64), b.Output.([]float64)); d > 0.05 {
		t.Errorf("placement changed async ranks by %v", d)
	}
}

func TestPageRankDeltaUsesAsyncAccounting(t *testing.T) {
	g := testGraph(t, 92, 400, 3200)
	rec := trace.NewRecorder()
	res, err := Run(NewPageRankDelta(), moduloPlacement(t, g, 2), multiCluster(t, 2), engine.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 0 {
		t.Errorf("async run reports %d sync supersteps", res.Supersteps)
	}
	if sum := trace.Summarize(rec.Events); sum.AsyncRounds == 0 || sum.SyncSteps != 0 {
		t.Errorf("async run traced %d async rounds and %d sync steps", sum.AsyncRounds, sum.SyncSteps)
	}
	if res.SimSeconds <= 0 {
		t.Error("no simulated time charged")
	}
}

func TestRankDistance(t *testing.T) {
	if d := RankDistance([]float64{1, 2, 3}, []float64{1, 2.5, 3}); d != 0.5 {
		t.Errorf("RankDistance = %v", d)
	}
	if d := RankDistance(nil, nil); d != 0 {
		t.Errorf("empty distance = %v", d)
	}
}
