package cliutil

import (
	"math"
	"testing"
)

func TestParseClusterCatalogNames(t *testing.T) {
	cl, err := ParseCluster("m4.2xlarge, c4.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 2 || cl.Machines[0].Name != "m4.2xlarge" {
		t.Errorf("cluster = %v", cl.Machines)
	}
}

func TestParseClusterCustomXeons(t *testing.T) {
	cl, err := ParseCluster("xeon:4:2.5,xeon:12:2.5")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 2 {
		t.Fatalf("size = %d", cl.Size())
	}
	m := cl.Machines[0]
	if m.Name != "xeon-4c" || m.ComputeThreads != 4 || m.FreqGHz != 2.5 {
		t.Errorf("machine = %+v", m)
	}
}

func TestParseClusterMixedAndSpaces(t *testing.T) {
	cl, err := ParseCluster(" c4.xlarge , xeon:8:2.2 , ")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 2 {
		t.Errorf("size = %d", cl.Size())
	}
}

func TestParseClusterErrors(t *testing.T) {
	for _, spec := range []string{"nonexistent", "xeon:4", "xeon:x:2.5", "xeon:4:y", ""} {
		if _, err := ParseCluster(spec); err == nil {
			t.Errorf("spec %q should error", spec)
		}
	}
}

func TestParseSharesUniform(t *testing.T) {
	s, err := ParseShares("", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if v != 0.25 {
			t.Fatalf("uniform shares = %v", s)
		}
	}
}

func TestParseSharesWeighted(t *testing.T) {
	s, err := ParseShares("1, 3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-0.25) > 1e-12 || math.Abs(s[1]-0.75) > 1e-12 {
		t.Errorf("shares = %v", s)
	}
}

func TestParseSharesErrors(t *testing.T) {
	for _, spec := range []string{"1,x", "0,1", "-1,2", "NaN,1", "1,+Inf"} {
		if _, err := ParseShares(spec, 2); err == nil {
			t.Errorf("spec %q should error", spec)
		}
	}
	for _, machines := range []int{-1, 0, 65} {
		if s, err := ParseShares("", machines); err == nil {
			t.Errorf("%d machines should error, got shares %v", machines, s)
		}
	}
}

func TestParseEstimator(t *testing.T) {
	for _, name := range []string{"prior-work", "default"} {
		est, err := ParseEstimator(name, 64, 1)
		if err != nil || est == nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	est, err := ParseEstimator("proxy", 4096, 1)
	if err != nil || est.Name() != "proxy" {
		t.Errorf("proxy: %v", err)
	}
	if _, err := ParseEstimator("magic", 64, 1); err == nil {
		t.Error("unknown estimator should error")
	}
}
