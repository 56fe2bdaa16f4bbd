package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// Checkpoint is the state a synchronous run persists at a superstep barrier:
// everything needed to resume execution at Step after losing every machine's
// in-memory state — the vertex values, the frontier that will drive the next
// gather, and the accumulated accounting a real framework would have to
// reconcile after recovery. Checkpoints are placement-independent, so a
// checkpoint written before a crash restores cleanly onto the repartitioned
// survivor placement.
type Checkpoint[V any] struct {
	// Step is the next superstep to execute when resuming from this state.
	Step int
	// Vals is the complete vertex-state vector at the barrier.
	Vals []V
	// Active is the frontier bitmap driving superstep Step; ActiveCount is
	// its population count (the hybrid frontier rebuilds its worklist from
	// these two on restore).
	Active      []bool
	ActiveCount int
	// Acct freezes the accumulated Result counters at the barrier.
	Acct AccountSnapshot
}

// checkpointMagic versions the binary encoding.
const checkpointMagic = "PGCK1\n"

// podType reports whether t is plain old data: fixed-size, pointer-free, and
// therefore safe to snapshot and restore as raw bytes. Vertex states in this
// repository (floats, ints, bools, small structs of them) all qualify.
func podType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return podType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !podType(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// stateSize returns V's in-memory size in bytes, or an error when V is not
// plain old data (pointers cannot be persisted).
func stateSize[V any]() (int, error) {
	t := reflect.TypeFor[V]()
	if !podType(t) {
		return 0, fmt.Errorf("engine: vertex state %v holds pointers and cannot be checkpointed", t)
	}
	return int(t.Size()), nil
}

// stateBytes reinterprets a vertex-state slice as its raw backing bytes.
func stateBytes[V any](vals []V, size int) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*size)
}

// checkpointSize returns the exact encoded footprint for n vertices and m
// machines given V's byte size.
func checkpointSize(n, m, vsize int) int64 {
	const header = len(checkpointMagic) + 4 + 8 + 8 + 8 + 4 // magic, vsize, step, n, activeCount, m
	const acct = 8 + 8 + 8                                  // sim, steps, gathers
	return int64(header) + int64(n)*int64(vsize+1) + int64(m)*16 + acct
}

// SizeBytes returns the encoded size of the checkpoint without encoding it —
// the footprint the engine charges to simulated storage at write time.
func (c *Checkpoint[V]) SizeBytes() (int64, error) {
	vsize, err := stateSize[V]()
	if err != nil {
		return 0, err
	}
	return checkpointSize(len(c.Vals), len(c.Acct.BusySeconds), vsize), nil
}

// EncodeBinary serializes the checkpoint (little-endian, versioned magic).
// DecodeCheckpoint round-trips it exactly.
func (c *Checkpoint[V]) EncodeBinary() ([]byte, error) {
	vsize, err := stateSize[V]()
	if err != nil {
		return nil, err
	}
	if len(c.Active) != len(c.Vals) {
		return nil, fmt.Errorf("engine: checkpoint has %d active flags for %d values", len(c.Active), len(c.Vals))
	}
	if len(c.Acct.CommBytes) != len(c.Acct.BusySeconds) {
		return nil, fmt.Errorf("engine: checkpoint has %d comm counters for %d busy counters",
			len(c.Acct.CommBytes), len(c.Acct.BusySeconds))
	}
	n, m := len(c.Vals), len(c.Acct.BusySeconds)
	buf := make([]byte, 0, checkpointSize(n, m, vsize))
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(vsize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Step))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.ActiveCount))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	buf = append(buf, stateBytes(c.Vals, vsize)...)
	for _, a := range c.Active {
		if a {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Acct.SimSeconds))
	for _, b := range c.Acct.BusySeconds {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b))
	}
	for _, b := range c.Acct.CommBytes {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Acct.Supersteps))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Acct.Gathers))
	return buf, nil
}

// DecodeCheckpoint parses a checkpoint written by EncodeBinary. Corrupt or
// truncated input produces a clean error; the declared counts are validated
// against the payload length before any allocation, so a hostile header
// cannot force a huge pre-allocation.
func DecodeCheckpoint[V any](data []byte) (*Checkpoint[V], error) {
	vsize, err := stateSize[V]()
	if err != nil {
		return nil, err
	}
	const fixedHeader = len(checkpointMagic) + 4 + 8 + 8 + 8 + 4
	if len(data) < fixedHeader {
		return nil, fmt.Errorf("engine: checkpoint truncated at %d bytes", len(data))
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("engine: bad checkpoint magic %q", data[:len(checkpointMagic)])
	}
	off := len(checkpointMagic)
	gotSize := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if int(gotSize) != vsize {
		return nil, fmt.Errorf("engine: checkpoint state size %d, decoder expects %d", gotSize, vsize)
	}
	step := binary.LittleEndian.Uint64(data[off:])
	off += 8
	n := binary.LittleEndian.Uint64(data[off:])
	off += 8
	activeCount := binary.LittleEndian.Uint64(data[off:])
	off += 8
	m := uint64(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	want := checkpointSize(int(n), int(m), vsize)
	if int64(len(data)) != want {
		return nil, fmt.Errorf("engine: checkpoint declares %d vertices, %d machines (%d bytes) but holds %d",
			n, m, want, len(data))
	}
	if activeCount > n {
		return nil, fmt.Errorf("engine: checkpoint active count %d exceeds %d vertices", activeCount, n)
	}
	c := &Checkpoint[V]{
		Step:        int(step),
		Vals:        make([]V, n),
		Active:      make([]bool, n),
		ActiveCount: int(activeCount),
	}
	copy(stateBytes(c.Vals, vsize), data[off:off+int(n)*vsize])
	off += int(n) * vsize
	popCount := uint64(0)
	for i := range c.Active {
		switch data[off+i] {
		case 0:
		case 1:
			c.Active[i] = true
			popCount++
		default:
			return nil, fmt.Errorf("engine: checkpoint active flag %d is %d, want 0 or 1", i, data[off+i])
		}
	}
	off += int(n)
	if popCount != activeCount {
		return nil, fmt.Errorf("engine: checkpoint active bitmap holds %d vertices, header says %d", popCount, activeCount)
	}
	c.Acct.SimSeconds = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	c.Acct.BusySeconds = make([]float64, m)
	for i := range c.Acct.BusySeconds {
		c.Acct.BusySeconds[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	c.Acct.CommBytes = make([]float64, m)
	for i := range c.Acct.CommBytes {
		c.Acct.CommBytes[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	c.Acct.Supersteps = int(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	c.Acct.Gathers = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	return c, nil
}

// snapshotCheckpoint deep-copies the live engine state into a checkpoint
// resuming at step.
func snapshotCheckpoint[V any](step int, vals []V, active []bool, activeCount int, a *Accountant) *Checkpoint[V] {
	return &Checkpoint[V]{
		Step:        step,
		Vals:        append([]V(nil), vals...),
		Active:      append([]bool(nil), active...),
		ActiveCount: activeCount,
		Acct:        a.Snapshot(),
	}
}
