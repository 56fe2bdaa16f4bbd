package partition

import (
	"sort"

	"proxygraph/internal/engine"
)

// pickerBuckets sizes the quantized start-index table of picker. 512 buckets
// keep the forward scan near zero steps even for 64 machines with skewed
// shares, at 512 B per partition call.
const pickerBuckets = 512

// picker resolves weighted machine picks, each machine with probability
// proportional to its share (PowerGraph's random placement weighted by the
// CCR, Fig 4 of the paper), with exactly the semantics of pick, the binary
// search over the cumulative shares in reference_test.go, but in O(1)
// expected time: a
// start-index table quantizes [0,1) into buckets, each holding the first
// machine whose cumulative share reaches the bucket's lower bound, so a pick
// is one table lookup plus a short forward scan. Both the table and the scan
// reproduce sort.SearchFloat64s' "first index with cum[i] >= u" contract, so
// picker.pick(h) == pick(cum, h) for every hash — the property the ingress
// differential test pins.
type picker struct {
	cum   []float64
	table []engine.Machine
}

// newPicker builds the quantized lookup for a validated share vector.
func newPicker(shares []float64) picker {
	cum := cumulative(shares)
	table := make([]engine.Machine, pickerBuckets)
	for b := range table {
		table[b] = engine.Machine(sort.SearchFloat64s(cum, float64(b)/pickerBuckets))
	}
	return picker{cum: cum, table: table}
}

// pick maps a hash to a machine exactly as pick(cum, hash) does.
func (pk *picker) pick(hash uint64) engine.Machine {
	u := float64(hash>>11) / (1 << 53)
	idx := pk.table[int(u*pickerBuckets)]
	for pk.cum[idx] < u {
		idx++
	}
	return idx
}
