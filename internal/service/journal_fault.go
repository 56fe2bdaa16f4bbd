package service

import (
	"fmt"
	"io"

	"proxygraph/internal/rng"
)

// JournalFaultKind classifies an injected journal write fault. The four kinds
// cover the failure surface a real log file has: partial persistence, no
// persistence, silent corruption, and durable-but-unacknowledged writes.
type JournalFaultKind int

const (
	// JournalTornTail persists a strict prefix of the frame and reports an
	// error — the on-disk state a crash mid-write leaves behind. Recovery
	// must truncate the tail back to the last intact record.
	JournalTornTail JournalFaultKind = iota
	// JournalShortWrite persists nothing and reports io.ErrShortWrite.
	JournalShortWrite
	// JournalCorruptBit flips one bit of the frame and reports success:
	// silent bit rot, invisible to the writer, caught only by the CRC at the
	// next recovery — which keeps the intact prefix and discards the rest.
	JournalCorruptBit
	// JournalSyncError persists the frame but fails the fsync, so the write
	// may or may not survive a power cut. The injector models the
	// conservative case: bytes present, acknowledgement withheld.
	JournalSyncError

	numJournalFaultKinds = iota
)

var journalFaultNames = [...]string{"torn-tail", "short-write", "corrupt-bit", "sync-error"}

// String names the fault kind.
func (k JournalFaultKind) String() string {
	if int(k) < len(journalFaultNames) {
		return journalFaultNames[k]
	}
	return fmt.Sprintf("journal-fault(%d)", int(k))
}

// JournalFaultSpec shapes a FaultJournal's deterministic schedule, in the
// style of internal/fault: which append indices fault, and which kinds fire,
// are pure functions of (Seed, append index), so every run with the same spec
// observes the identical fault sequence.
type JournalFaultSpec struct {
	// EveryN faults every n-th Append call (1-based: appends N, 2N, ...).
	// 0 disables injection entirely.
	EveryN int
	// Kinds restricts which fault kinds fire (deterministically chosen per
	// faulted append). Empty means all four.
	Kinds []JournalFaultKind
}

// Validate reports spec errors.
func (s JournalFaultSpec) Validate() error {
	if s.EveryN < 0 {
		return fmt.Errorf("service: journal fault EveryN is %d, need >= 0", s.EveryN)
	}
	for i, k := range s.Kinds {
		if k < 0 || int(k) >= numJournalFaultKinds {
			return fmt.Errorf("service: journal fault kind %d at index %d is unknown", int(k), i)
		}
	}
	return nil
}

// jfltDomain keys the fault schedule's hash stream (decorrelated from the
// backoff-jitter and graph-fingerprint domains).
const jfltDomain = 0x6a666c74 // "jflt"

// FaultJournal wraps a FileJournal or MemJournal and injects write faults on
// the spec's deterministic seed-driven schedule. It exists to prove the
// degraded-mode contract: any injected failure must flip the service into
// shedding mode — never panic it, never acknowledge lost work — and the
// journal image left behind must recover to a consistent prefix.
type FaultJournal struct {
	raw     rawJournal
	seed    uint64
	spec    JournalFaultSpec
	seq     uint64 // acknowledged records, continues the inner journal's
	appends uint64 // Append calls made, the schedule's clock
	frame   []byte // Append's scratch
}

// NewFaultJournal wraps inner (a *FileJournal or *MemJournal — the wrapper
// needs byte-level access to tear and corrupt frames) with the fault schedule.
//
// Test support: TestServiceHTTPDegraded in cmd/serve fails the server's
// journal through it.
func NewFaultJournal(inner Journal, seed uint64, spec JournalFaultSpec) (*FaultJournal, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fj := &FaultJournal{seed: seed, spec: spec}
	switch t := inner.(type) {
	case *FileJournal:
		fj.raw, fj.seq = t, t.seq
	case *MemJournal:
		fj.raw, fj.seq = t, t.seq
	default:
		return nil, fmt.Errorf("service: FaultJournal needs a *FileJournal or *MemJournal, got %T", inner)
	}
	return fj, nil
}

// faultFor returns the fault kind for the i-th append (1-based), or -1 when
// the append is clean.
func (j *FaultJournal) faultFor(i uint64) JournalFaultKind {
	if j.spec.EveryN <= 0 || i%uint64(j.spec.EveryN) != 0 {
		return -1
	}
	kinds := j.spec.Kinds
	if len(kinds) == 0 {
		kinds = []JournalFaultKind{JournalTornTail, JournalShortWrite, JournalCorruptBit, JournalSyncError}
	}
	return kinds[rng.Hash3(j.seed, jfltDomain, i)%uint64(len(kinds))]
}

// Append implements Journal, injecting the scheduled fault if the append's
// index is due. Clean appends pass through with write+sync semantics.
func (j *FaultJournal) Append(r Record) (uint64, error) {
	j.appends++
	j.frame = appendFrame(j.frame[:0], r)
	frame := j.frame
	switch j.faultFor(j.appends) {
	case JournalTornTail:
		cut := 1 + int(rng.Hash3(j.seed, jfltDomain+1, j.appends)%uint64(len(frame)-1))
		_ = j.raw.writeRaw(frame[:cut])
		_ = j.raw.syncRaw()
		return 0, fmt.Errorf("service: injected torn write (%d of %d bytes) at append %d", cut, len(frame), j.appends)
	case JournalShortWrite:
		return 0, fmt.Errorf("service: injected short write at append %d: %w", j.appends, io.ErrShortWrite)
	case JournalCorruptBit:
		h := rng.Hash3(j.seed, jfltDomain+2, j.appends)
		frame[h%uint64(len(frame))] ^= 1 << ((h >> 32) % 8)
		if err := j.raw.writeRaw(frame); err != nil {
			return 0, err
		}
		if err := j.raw.syncRaw(); err != nil {
			return 0, err
		}
		j.seq++ // silently acknowledged — that is the point
		return j.seq, nil
	case JournalSyncError:
		_ = j.raw.writeRaw(frame)
		return 0, fmt.Errorf("service: injected fsync error at append %d", j.appends)
	}
	if err := j.raw.writeRaw(frame); err != nil {
		return 0, err
	}
	if err := j.raw.syncRaw(); err != nil {
		return 0, err
	}
	j.seq++
	return j.seq, nil
}

// compact forwards a compaction to the wrapped journal, uninjected, with the
// wrapper's sequence as the snapshot's base.
func (j *FaultJournal) compact(body []byte) error { return j.raw.replace(j.seq, body) }

// Close closes the wrapped journal.
func (j *FaultJournal) Close() error { return j.raw.Close() }
