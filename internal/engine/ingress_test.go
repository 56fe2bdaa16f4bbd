package engine

import "testing"

func TestIngressReport(t *testing.T) {
	g := testGraph(10, 200, 4000)
	cl := testCluster(t, "c4.xlarge", "c4.8xlarge")
	pl, err := NewPlacement(g, moduloOwner(g, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Ingress(pl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("ingress makespan should be positive")
	}
	for p := 0; p < 2; p++ {
		if rep.LoadSeconds[p] <= 0 {
			t.Errorf("machine %d: zero load time", p)
		}
		if rep.LoadSeconds[p]+rep.ExchangeSeconds[p] > rep.Makespan+1e-12 {
			t.Errorf("machine %d exceeds makespan", p)
		}
	}
	// Mismatched cluster errors.
	one := testCluster(t, "c4.xlarge")
	if _, err := Ingress(pl, one); err == nil {
		t.Error("expected machine-count mismatch error")
	}
	// Skewed placements load the loaded machine longer.
	skewOwner := make([]Machine, len(g.Edges))
	for i := range skewOwner {
		if i%10 == 0 {
			skewOwner[i] = 1
		}
	}
	skewPl, err := NewPlacement(g, skewOwner, 2)
	if err != nil {
		t.Fatal(err)
	}
	skewRep, err := Ingress(skewPl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if skewRep.LoadSeconds[0] <= skewRep.LoadSeconds[1] {
		t.Error("machine holding 90% of edges should load longer")
	}
	// A single-machine placement exchanges nothing.
	soloRep, err := Ingress(SingleMachine(g), one)
	if err != nil {
		t.Fatal(err)
	}
	if soloRep.ExchangeSeconds[0] != 0 {
		t.Errorf("single machine exchange = %v, want 0", soloRep.ExchangeSeconds[0])
	}
}
