package engine

import (
	"fmt"
	"math/bits"

	"proxygraph/internal/cluster"
)

// Ingress models the loading/finalization phase of Fig 7b: before execution,
// every machine reads its edge partition from storage and the cluster
// exchanges the mirror tables that connect masters to replicas ("the
// framework needs to finalize the graph by constructing the connections
// among machines"). Heterogeneity-aware partitions move more bytes onto the
// faster machines, so ingress, too, is skewed by the CCR shares.

// textBytesPerEdge matches Table II's text footprint (see
// graph.FootprintBytes).
const textBytesPerEdge = 13.6

// mirrorRecordBytes is the wire size of one (vertex, machine) mirror-table
// record exchanged during finalization.
const mirrorRecordBytes = 8.0

// IngressReport breaks down the loading phase per machine.
type IngressReport struct {
	// LoadSeconds is the time each machine spends reading its edges.
	LoadSeconds []float64
	// ExchangeSeconds is the time each machine spends sending its share of
	// the mirror tables.
	ExchangeSeconds []float64
	// Makespan is the ingress barrier: the slowest machine's total.
	Makespan float64
}

// Ingress estimates the loading/finalization cost of a placement on a
// cluster. Machines with zero configured storage bandwidth default to
// DefaultDiskGBs.
func Ingress(pl *Placement, cl *cluster.Cluster) (*IngressReport, error) {
	if cl.Size() != pl.M {
		return nil, fmt.Errorf("engine: ingress placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	rep := &IngressReport{
		LoadSeconds:     make([]float64, pl.M),
		ExchangeSeconds: make([]float64, pl.M),
	}
	// Mirror records are announced by every replica holder.
	mirrorRecords := make([]float64, pl.M)
	for v := range pl.ReplicaMask {
		mask := pl.ReplicaMask[v]
		if bits.OnesCount64(mask) < 2 {
			continue // purely local vertices need no connection setup
		}
		for m := mask; m != 0; m &= m - 1 {
			mirrorRecords[bits.TrailingZeros64(m)]++
		}
	}
	for p := 0; p < pl.M; p++ {
		m := cl.Machines[p]
		disk := m.DiskBWGBs
		if disk <= 0 {
			disk = cluster.DefaultDiskGBs
		}
		loadBytes := float64(pl.edgeCount[p]) * textBytesPerEdge
		rep.LoadSeconds[p] = loadBytes / (disk * 1e9)
		rep.ExchangeSeconds[p] = cl.Net.TransferTime(mirrorRecords[p] * mirrorRecordBytes)
		if t := rep.LoadSeconds[p] + rep.ExchangeSeconds[p]; t > rep.Makespan {
			rep.Makespan = t
		}
	}
	return rep, nil
}
