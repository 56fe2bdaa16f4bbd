package engine

import "testing"

// ckptState is a representative POD vertex state (mirrors apps' prState).
type ckptState struct {
	Rank   float64
	InvOut float64
	Flag   bool
}

func TestCheckpointRejectsPointerStates(t *testing.T) {
	type bad struct{ P *int }
	if _, err := stateSize[bad](); err == nil {
		t.Fatal("a pointer-bearing state was accepted for checkpointing")
	}
	if _, err := stateSize[[]float64](); err == nil {
		t.Fatal("a slice state was accepted for checkpointing")
	}
	if n, err := stateSize[ckptState](); err != nil || n != 24 {
		t.Fatalf("stateSize[ckptState] = %d, %v; want 24 bytes", n, err)
	}
}
