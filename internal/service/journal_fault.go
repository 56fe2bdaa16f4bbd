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
//
// Test support: TestServiceHTTPDegraded in cmd/serve builds one for
// NewFaultJournal.
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

// FaultJournal is a FileJournal or MemJournal whose writes fail on the
// spec's deterministic seed-driven schedule: the faults are injected beneath
// the one journal Append, in its store. It exists to prove the degraded-mode
// contract: any injected failure must flip the service into shedding mode —
// never panic it, never acknowledge lost work — and the journal image left
// behind must recover to a consistent prefix.
type FaultJournal struct{ journal }

// faultStore wraps a journal's store. Each write is one Append, and the
// schedule's clock counts them; compactions pass through uninjected.
type faultStore struct {
	store
	seed     uint64
	spec     JournalFaultSpec
	appends  uint64 // writes made, the schedule's clock
	failSync bool   // the last write's sync is to fail
}

// NewFaultJournal wraps inner (a *FileJournal or *MemJournal — the faults
// need byte-level access to its store to tear and corrupt frames) with the
// fault schedule. The sequence continues inner's.
//
// Test support: TestServiceHTTPDegraded in cmd/serve fails the server's
// journal through it.
func NewFaultJournal(inner Journal, seed uint64, spec JournalFaultSpec) (*FaultJournal, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var in *journal
	switch t := inner.(type) {
	case *FileJournal:
		in = &t.journal
	case *MemJournal:
		in = &t.journal
	default:
		return nil, fmt.Errorf("service: FaultJournal needs a *FileJournal or *MemJournal, got %T", inner)
	}
	return &FaultJournal{journal{store: &faultStore{store: in.store, seed: seed, spec: spec}, seq: in.seq}}, nil
}

// faultFor returns the fault kind for the i-th append (1-based), or -1 when
// the append is clean.
func (s *faultStore) faultFor(i uint64) JournalFaultKind {
	if s.spec.EveryN <= 0 || i%uint64(s.spec.EveryN) != 0 {
		return -1
	}
	kinds := s.spec.Kinds
	if len(kinds) == 0 {
		kinds = []JournalFaultKind{JournalTornTail, JournalShortWrite, JournalCorruptBit, JournalSyncError}
	}
	return kinds[rng.Hash3(s.seed, jfltDomain, i)%uint64(len(kinds))]
}

// write injects the scheduled fault if the append's index is due. A torn
// tail and a short write fail here; a corrupt bit is written and reported
// clean; a sync error is written and fails the sync that follows.
func (s *faultStore) write(frame []byte) error {
	s.appends++
	kind := s.faultFor(s.appends)
	switch kind {
	case JournalTornTail:
		cut := 1 + int(rng.Hash3(s.seed, jfltDomain+1, s.appends)%uint64(len(frame)-1))
		_ = s.store.write(frame[:cut])
		_ = s.store.sync()
		return fmt.Errorf("service: injected torn write (%d of %d bytes) at append %d", cut, len(frame), s.appends)
	case JournalShortWrite:
		return fmt.Errorf("service: injected short write at append %d: %w", s.appends, io.ErrShortWrite)
	case JournalCorruptBit:
		h := rng.Hash3(s.seed, jfltDomain+2, s.appends)
		frame[h%uint64(len(frame))] ^= 1 << ((h >> 32) % 8) // silently acknowledged — that is the point
	}
	err := s.store.write(frame)
	s.failSync = err == nil && kind == JournalSyncError
	return err
}

func (s *faultStore) sync() error {
	if s.failSync {
		s.failSync = false
		return fmt.Errorf("service: injected fsync error at append %d", s.appends)
	}
	return s.store.sync()
}
