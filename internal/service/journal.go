package service

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// The write-ahead job journal makes the control plane crash-safe: every
// durable state transition (a job's admission, dispatch, retry, completion,
// failure, eviction, and the tenant budget charge a completion implies) is
// appended to the journal before the service acknowledges it, so a process
// crash loses at most the transition being written. Recovery replays the
// journal to rebuild tenant budgets, completed results and the queue, and
// re-enqueues work that was in flight at crash time.
//
// The encoding follows the PR 3 checkpoint codec's conventions: versioned
// magic, little-endian fixed layout, and a hostile-input-safe decoder that
// validates every declared length against the payload before allocating. On
// top of that, each record is framed with a length prefix and a CRC-32C
// checksum so a torn tail — the expected on-disk state after kill -9 mid
// write — is detected and cleanly discarded rather than misparsed.

// RecordKind discriminates journal records.
type RecordKind uint8

const (
	// RecordSubmit declares a job's identity at admission time: tenant, app
	// and graph names, partitioning seed, the client's idempotency key, the
	// job's content fingerprint and the priority it was admitted under. The
	// record's sequence number IS the job id — ids are derived from the
	// journal sequence, which is what keeps status URLs valid across a
	// restart.
	RecordSubmit RecordKind = iota
	// RecordAdmit commits the submission to the queue. It is the
	// acknowledgement barrier: Submit returns success only after this record
	// is durable, so a job whose RecordSubmit survived a crash but whose
	// RecordAdmit did not was never acknowledged and is dropped at recovery.
	RecordAdmit
	// RecordStart marks an attempt (0-based Attempt) leaving the queue for a
	// worker. A started job with no terminal record was running at crash time
	// and is re-enqueued by recovery.
	RecordStart
	// RecordRetry marks a failed attempt rescheduled with backoff; Attempt is
	// the attempt count after the failure.
	RecordRetry
	// RecordComplete is a job's successful terminal transition, carrying the
	// charged accounting (Seconds = execution sim-seconds, Ingress, Energy)
	// and the placement-cache outcome (Flag). The application output itself
	// is not journaled; after recovery Status reports the charges but Result
	// returns ErrResultExpired.
	RecordComplete
	// RecordFail is a job's unsuccessful terminal transition; Error holds the
	// final attempt's error text.
	RecordFail
	// RecordShed is a queue eviction: Label("priority", "deadline") rides in
	// Error, and "canceled" marks jobs cancelled by a clean shutdown.
	RecordShed
	// RecordBudgetCharge applies a completed job's cost to its tenant's
	// budget: Seconds is the charged sim-seconds (execution plus ingress),
	// Energy the joules. It is written directly after RecordComplete; if a
	// crash separates the two, recovery derives the charge from the complete
	// record instead — the invariant is that a tenant is never charged twice
	// for one job, and never escapes a charge for a job journaled complete.
	RecordBudgetCharge
	// RecordSnapshot opens a compacted journal and is only ever its first
	// frame. Seed is the base sequence: the last sequence number the journal
	// had issued when it compacted. The RecordTenant and RecordJob frames
	// directly after it are the snapshot's body and share its sequence
	// number; the records after the body are numbered on from the base, so
	// job ids stay their submit records' sequence numbers across compaction.
	RecordSnapshot
	// RecordTenant is one tenant's state in a snapshot: Seconds and Energy
	// are its spend, Attempt its consecutive terminal failures, and Flag an
	// open (or half-open) circuit breaker.
	RecordTenant
	// RecordJob is one job the service still held at compaction: the submit
	// record's identity fields with the id explicit in ID, its lifecycle
	// State, its Attempt count, its charges and cache outcome (Seconds =
	// execution sim-seconds, Ingress, Energy, Flag) and its Error text.
	RecordJob

	numRecordKinds = iota
)

var recordKindNames = [...]string{
	"submit", "admit", "start", "retry", "complete", "fail", "shed", "budget-charge",
	"snapshot", "tenant", "job",
}

// String names the kind for logs and debugging.
func (k RecordKind) String() string {
	if int(k) < len(recordKindNames) {
		return recordKindNames[k]
	}
	return fmt.Sprintf("record(%d)", int(k))
}

// Record is one journal entry. Every field is always encoded (flat fixed
// layout plus five length-prefixed strings), so the codec is canonical:
// decode∘encode is the identity on accepted frames, which the fuzz target
// verifies.
type Record struct {
	// Kind discriminates the record.
	Kind RecordKind
	// Seq is the record's 1-based position in the journal. It is assigned by
	// the journal on append and by position on decode; it is not encoded.
	Seq uint64
	// ID is the job the record concerns (zero for RecordSubmit, whose own
	// sequence number becomes the id).
	ID int
	// Attempt is the 0-based attempt for start records and the post-failure
	// attempt count for retry/fail records.
	Attempt int
	// Priority is the priority the job was admitted under (RecordSubmit).
	Priority int
	// Tenant, App, Graph name the job's identity (RecordSubmit,
	// RecordBudgetCharge uses Tenant only).
	Tenant, App, Graph string
	// Key is the client-supplied idempotency key ("" when none).
	Key string
	// Seed is the job's partitioning seed (RecordSubmit).
	Seed uint64
	// Fingerprint is the job's content fingerprint (RecordSubmit) — recovery
	// and idempotent resubmission reject a key reused with different work.
	Fingerprint uint64
	// Seconds, Ingress, Energy carry charged accounting (complete,
	// budget-charge) or the backoff delay (retry).
	Seconds, Ingress, Energy float64
	// Flag is the placement-cache outcome of a completed job.
	Flag bool
	// State is a snapshotted job's lifecycle state (RecordJob only; zero
	// otherwise). It rides in the flag byte's upper bits, which journals
	// without snapshots leave zero.
	State State
	// Error is the failure text (fail) or the shed reason (shed).
	Error string
}

// journalMagic versions the journal encoding; it opens every journal.
const journalMagic = "PGWJ1\n"

// maxRecordPayload bounds a declared payload length: no legitimate record
// approaches it (strings are tenant/app/graph/key/error text), and the bound
// keeps a hostile length prefix from forcing a huge allocation.
const maxRecordPayload = 1 << 20

// recordFixedSize is the flat portion of a payload: kind, id, attempt,
// priority, seed, fingerprint, three float64s, flag.
const recordFixedSize = 1 + 8 + 4 + 4 + 8 + 8 + 8*3 + 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends a record's frame to dst: the payload's length and
// CRC-32C, then the canonical payload. It writes in place, so appending to a
// buffer with room allocates nothing.
func appendFrame(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, byte(r.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Attempt))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Priority)))
	dst = binary.LittleEndian.AppendUint64(dst, r.Seed)
	dst = binary.LittleEndian.AppendUint64(dst, r.Fingerprint)
	dst = appendFloat(dst, r.Seconds)
	dst = appendFloat(dst, r.Ingress)
	dst = appendFloat(dst, r.Energy)
	flags := byte(r.State) << 1
	if r.Flag {
		flags |= 1
	}
	dst = append(dst, flags)
	for _, s := range [...]string{r.Tenant, r.App, r.Graph, r.Key, r.Error} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// appendSnapshotHead appends the start of a compacted journal image: the
// magic and the RecordSnapshot frame whose base is seq.
func appendSnapshotHead(dst []byte, seq uint64) []byte {
	return appendFrame(append(dst, journalMagic...), Record{Kind: RecordSnapshot, Seed: seq})
}

// decodePayload parses one payload. The declared string lengths are validated
// against the remaining bytes before any slice is taken, and the payload must
// be consumed exactly — trailing bytes mean the frame was not produced by
// appendFrame and are rejected, which keeps decode∘encode an identity.
func decodePayload(data []byte) (Record, error) {
	var r Record
	if len(data) < recordFixedSize {
		return r, fmt.Errorf("service: journal record truncated at %d bytes", len(data))
	}
	if data[0] >= numRecordKinds {
		return r, fmt.Errorf("service: unknown journal record kind %d", data[0])
	}
	r.Kind = RecordKind(data[0])
	off := 1
	r.ID = int(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	r.Attempt = int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	r.Priority = int(int32(binary.LittleEndian.Uint32(data[off:])))
	off += 4
	r.Seed = binary.LittleEndian.Uint64(data[off:])
	off += 8
	r.Fingerprint = binary.LittleEndian.Uint64(data[off:])
	off += 8
	r.Seconds = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	r.Ingress = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	r.Energy = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	r.Flag = data[off]&1 == 1
	r.State = State(data[off] >> 1)
	if r.State != 0 && r.Kind != RecordJob || int(r.State) >= len(stateNames) {
		return r, fmt.Errorf("service: journal record flag byte is %d", data[off])
	}
	off++
	for _, dst := range []*string{&r.Tenant, &r.App, &r.Graph, &r.Key, &r.Error} {
		if len(data)-off < 4 {
			return r, fmt.Errorf("service: journal record string header truncated")
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || n > len(data)-off {
			return r, fmt.Errorf("service: journal record string length %d exceeds %d remaining", n, len(data)-off)
		}
		*dst = string(data[off : off+n])
		off += n
	}
	if off != len(data) {
		return r, fmt.Errorf("service: journal record has %d trailing bytes", len(data)-off)
	}
	return r, nil
}

// DecodeJournal parses a journal image, tolerating the torn or corrupt tail a
// crash leaves behind: it returns every cleanly framed record, the byte
// offset up to which the image is intact, and a non-nil err describing why
// decoding stopped early — nil when the whole image parsed. Seq is assigned
// by position, 1-based; in a compacted image the snapshot's frames carry its
// base sequence and the records after it count on from there. Decoding never
// panics and never allocates from a hostile length prefix; recovery keeps
// data[:good] and discards the rest.
func DecodeJournal(data []byte) (recs []Record, good int, err error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != journalMagic {
		return nil, 0, fmt.Errorf("service: bad journal magic")
	}
	off := len(journalMagic)
	var seq uint64  // the last sequence number issued
	inBody := false // inside a snapshot's body
	for off < len(data) {
		if len(data)-off < 8 {
			return recs, off, fmt.Errorf("service: torn frame header at offset %d", off)
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if plen > maxRecordPayload {
			return recs, off, fmt.Errorf("service: frame at offset %d declares %d bytes (max %d)", off, plen, maxRecordPayload)
		}
		if plen > len(data)-off-8 {
			return recs, off, fmt.Errorf("service: torn frame at offset %d (%d declared, %d available)", off, plen, len(data)-off-8)
		}
		payload := data[off+8 : off+8+plen]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, off, fmt.Errorf("service: checksum mismatch at offset %d", off)
		}
		r, derr := decodePayload(payload)
		if derr != nil {
			return recs, off, fmt.Errorf("service: frame at offset %d: %w", off, derr)
		}
		switch r.Kind {
		case RecordSnapshot:
			if len(recs) != 0 {
				return recs, off, fmt.Errorf("service: snapshot frame at offset %d is not the journal's first", off)
			}
			seq, inBody = r.Seed, true
		case RecordTenant, RecordJob:
			if !inBody {
				return recs, off, fmt.Errorf("service: %s frame at offset %d outside a snapshot", r.Kind, off)
			}
		default:
			seq, inBody = seq+1, false
		}
		off += 8 + plen
		r.Seq = seq
		recs = append(recs, r)
	}
	return recs, off, nil
}

// lastSeq is the sequence number a journal holding recs has issued last.
func lastSeq(recs []Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].Seq
}

// Journal is the durable record sink the service writes through. Append must
// persist the record before returning; the returned sequence number is the
// record's 1-based journal position (a RecordSubmit's sequence becomes its
// job's id). An Append error means durability is lost — the service responds
// by entering degraded mode rather than crashing or acknowledging
// un-journaled work. Implementations must be safe for use under the
// service's mutex (the service serializes calls itself).
//
// The service compacts the journals this package provides (FileJournal,
// MemJournal, FaultJournal); with any other Journal it never compacts, and so
// never prunes its job table either.
type Journal interface {
	Append(Record) (uint64, error)
	Close() error
}

// compactor is a Journal that can replace its whole image with a snapshot:
// the magic, a RecordSnapshot frame whose base is the journal's current
// sequence, and body, the snapshot's RecordTenant and RecordJob frames.
// Appends then continue the sequence. The replacement is atomic: on error
// the old image is intact.
type compactor interface {
	compact(body []byte) error
}

// Recovery is a decoded journal ready to replay into a new service.
type Recovery struct {
	// Records are the cleanly decoded records in journal order.
	Records []Record
	// GoodBytes is the intact prefix length; TotalBytes the raw image size.
	// They differ when a torn or corrupt tail was discarded.
	GoodBytes, TotalBytes int
	// Err describes why decoding stopped early (nil for a clean journal).
	// A torn tail is an expected crash artifact, not a recovery failure.
	Err error
}

// RecoverBytes decodes a journal image (e.g. a MemJournal snapshot).
func RecoverBytes(data []byte) *Recovery {
	recs, good, err := DecodeJournal(data)
	return &Recovery{Records: recs, GoodBytes: good, TotalBytes: len(data), Err: err}
}

// Recover reads and decodes the journal at path. A missing file is an empty
// recovery — the first boot of a durable service — while an unreadable one is
// an error the caller must surface rather than silently running state-free.
func Recover(path string) (*Recovery, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Recovery{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: read journal: %w", err)
	}
	return RecoverBytes(data), nil
}

// journal is the write path every Journal this package provides shares: it
// frames a record in a scratch buffer it keeps, writes and syncs the frame
// to its store, and numbers it. A FileJournal, a MemJournal and a
// FaultJournal differ only in their store.
type journal struct {
	mu    sync.Mutex
	store store
	seq   uint64
	frame []byte // Append's and compact's scratch, reused
}

// store is where a journal's bytes go. The journal's lock serializes the
// calls a journal makes.
type store interface {
	write(b []byte) error
	sync() error
	// swap replaces the whole image with image. The replacement is atomic:
	// on error the old image is intact.
	swap(image []byte) error
	Close() error
}

// Append implements Journal: frame, write, sync. A record is numbered only
// once its store has synced it.
func (j *journal) Append(r Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.frame = appendFrame(j.frame[:0], r)
	if err := j.store.write(j.frame); err != nil {
		return 0, err
	}
	if err := j.store.sync(); err != nil {
		return 0, err
	}
	j.seq++
	return j.seq, nil
}

// compact implements compactor: the new image is the magic, a snapshot frame
// whose base is the journal's sequence, and body.
func (j *journal) compact(body []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.frame = append(appendSnapshotHead(j.frame[:0], j.seq), body...)
	return j.store.swap(j.frame)
}

// Close releases the store. The journal is not usable afterwards.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.store.Close()
}

// compactSuffix names the temporary file a FileJournal writes its snapshot
// to before renaming it over the journal.
const compactSuffix = ".compact"

// FileJournal appends checksummed frames to a file, fsyncing each append so
// an acknowledged record survives power loss.
type FileJournal struct{ journal }

// fileStore is a FileJournal's store: the journal file.
type fileStore struct {
	f    *os.File
	path string
	// onStep, when set, runs after each compaction step ("written",
	// "synced", "renamed"); an error aborts the compaction there. Tests use
	// it to capture the files a crash at that step would leave.
	onStep func(step string) error
}

// OpenFileJournal opens (or creates) the journal at path for appending and
// decodes what is already there: the returned Recovery replays the prior
// incarnation's state, and any torn tail is truncated away so new appends
// extend the intact prefix. The journal's sequence continues after the
// recovered records, keeping job ids unique across restarts. A snapshot file
// left by a compaction that crashed before its rename is deleted: the journal
// it would have replaced is still whole.
func OpenFileJournal(path string) (*FileJournal, *Recovery, error) {
	if err := os.Remove(path + compactSuffix); err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("service: remove stale snapshot: %w", err)
	}
	rec, err := Recover(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: open journal: %w", err)
	}
	if rec.GoodBytes == 0 {
		// New (or unrecoverably headerless) journal: start fresh with magic.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(journalMagic), 0)
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("service: init journal: %w", err)
		}
		rec.GoodBytes = len(journalMagic)
	} else if rec.GoodBytes < rec.TotalBytes {
		if err := f.Truncate(int64(rec.GoodBytes)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("service: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(rec.GoodBytes), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &FileJournal{journal{store: &fileStore{f: f, path: path}, seq: lastSeq(rec.Records)}}, rec, nil
}

func (s *fileStore) write(b []byte) error {
	_, err := s.f.Write(b)
	return err
}

func (s *fileStore) sync() error { return s.f.Sync() }

// swap writes the image to a temporary file, fsyncs it, renames it over the
// journal and fsyncs the directory, so a crash at any point leaves either
// the old journal or the new one whole. The temporary file's handle becomes
// the journal's.
func (s *fileStore) swap(image []byte) error {
	tmp := s.path + compactSuffix
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("service: compact journal: %w", err)
	}
	_, err = f.Write(image)
	if err == nil {
		err = s.step("written")
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = s.step("synced")
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		f.Close()
		_ = os.Remove(tmp) // best effort: the next OpenFileJournal removes it too
		return fmt.Errorf("service: compact journal: %w", err)
	}
	// From here the new image is the journal; a failure leaves it in place.
	err = s.step("renamed")
	if err == nil {
		err = syncDir(filepath.Dir(s.path))
	}
	_ = s.f.Close() // the replaced image, fsynced with its last append
	s.f = f
	if err != nil {
		return fmt.Errorf("service: compact journal: %w", err)
	}
	return nil
}

func (s *fileStore) step(name string) error {
	if s.onStep == nil {
		return nil
	}
	return s.onStep(name)
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *fileStore) Close() error { return s.f.Close() }

// MemJournal is the in-memory Journal fake: same framing, no filesystem. It
// backs the crash-recovery tests — "kill -9" becomes truncating Bytes() at an
// arbitrary offset and recovering from the prefix.
type MemJournal struct {
	journal
	mem *memStore
}

// memStore is a MemJournal's store: the image in a buffer. Its own lock
// keeps Bytes safe while a journal appends or compacts, a FaultJournal
// wrapping the MemJournal among them.
type memStore struct {
	mu  sync.Mutex
	buf []byte
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal {
	mem := &memStore{buf: []byte(journalMagic)}
	return &MemJournal{journal: journal{store: mem}, mem: mem}
}

// write appends b to the image, so an append costs only the buffer's
// amortized growth.
func (s *memStore) write(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, b...)
	return nil
}

func (s *memStore) sync() error { return nil }

// swap copies the image into a fresh buffer with room for a tail as long as
// the image itself.
func (s *memStore) swap(image []byte) error {
	buf := append(make([]byte, 0, 2*len(image)), image...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = buf
	return nil
}

func (s *memStore) Close() error { return nil }

// Bytes snapshots the journal image.
func (j *MemJournal) Bytes() []byte {
	j.mem.mu.Lock()
	defer j.mem.mu.Unlock()
	return append([]byte(nil), j.mem.buf...)
}
