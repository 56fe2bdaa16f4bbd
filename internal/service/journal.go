package service

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
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

	numRecordKinds = iota
)

var recordKindNames = [...]string{
	"submit", "admit", "start", "retry", "complete", "fail", "shed", "budget-charge",
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

// encodePayload serializes a record's canonical payload.
func encodePayload(r Record) []byte {
	n := recordFixedSize + 5*4 + len(r.Tenant) + len(r.App) + len(r.Graph) + len(r.Key) + len(r.Error)
	buf := make([]byte, 0, n)
	buf = append(buf, byte(r.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Attempt))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(r.Priority)))
	buf = binary.LittleEndian.AppendUint64(buf, r.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, r.Fingerprint)
	buf = appendFloat(buf, r.Seconds)
	buf = appendFloat(buf, r.Ingress)
	buf = appendFloat(buf, r.Energy)
	if r.Flag {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, s := range []string{r.Tenant, r.App, r.Graph, r.Key, r.Error} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// encodeFrame wraps a record's payload with the length prefix and CRC-32C.
func encodeFrame(r Record) []byte {
	payload := encodePayload(r)
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// decodePayload parses one payload. The declared string lengths are validated
// against the remaining bytes before any slice is taken, and the payload must
// be consumed exactly — trailing bytes mean the frame was not produced by
// encodePayload and are rejected, which keeps decode∘encode an identity.
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
	switch data[off] {
	case 0:
	case 1:
		r.Flag = true
	default:
		return r, fmt.Errorf("service: journal record flag is %d, want 0 or 1", data[off])
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

// EncodeJournal renders records as a complete journal image (magic plus one
// frame per record) — the inverse of DecodeJournal on clean input.
func EncodeJournal(recs []Record) []byte {
	buf := []byte(journalMagic)
	for _, r := range recs {
		buf = append(buf, encodeFrame(r)...)
	}
	return buf
}

// DecodeJournal parses a journal image, tolerating the torn or corrupt tail a
// crash leaves behind: it returns every cleanly framed record (Seq assigned
// by position, 1-based), the byte offset up to which the image is intact, and
// a non-nil err describing why decoding stopped early — nil when the whole
// image parsed. Decoding never panics and never allocates from a hostile
// length prefix; recovery keeps data[:good] and discards the rest.
func DecodeJournal(data []byte) (recs []Record, good int, err error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != journalMagic {
		return nil, 0, fmt.Errorf("service: bad journal magic")
	}
	off := len(journalMagic)
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
		off += 8 + plen
		r.Seq = uint64(len(recs) + 1)
		recs = append(recs, r)
	}
	return recs, off, nil
}

// Journal is the durable record sink the service writes through. Append must
// persist the record before returning; the returned sequence number is the
// record's 1-based journal position (a RecordSubmit's sequence becomes its
// job's id). An Append error means durability is lost — the service responds
// by entering degraded mode rather than crashing or acknowledging
// un-journaled work. Implementations must be safe for use under the
// service's mutex (the service serializes calls itself).
type Journal interface {
	Append(Record) (uint64, error)
	Close() error
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

// rawJournal is the byte-level surface shared by the concrete journals; the
// fault-injecting wrapper corrupts frames through it.
type rawJournal interface {
	writeRaw(b []byte) error
	syncRaw() error
	Close() error
}

// FileJournal appends checksummed frames to a file, fsyncing each append so
// an acknowledged record survives power loss.
type FileJournal struct {
	mu  sync.Mutex
	f   *os.File
	seq uint64
}

// OpenFileJournal opens (or creates) the journal at path for appending and
// decodes what is already there: the returned Recovery replays the prior
// incarnation's state, and any torn tail is truncated away so new appends
// extend the intact prefix. The journal's sequence continues after the
// recovered records, keeping job ids unique across restarts.
func OpenFileJournal(path string) (*FileJournal, *Recovery, error) {
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
	return &FileJournal{f: f, seq: uint64(len(rec.Records))}, rec, nil
}

// Append implements Journal: frame, write, fsync.
func (j *FileJournal) Append(r Record) (uint64, error) {
	if err := j.writeRaw(encodeFrame(r)); err != nil {
		return 0, err
	}
	if err := j.syncRaw(); err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	return j.seq, nil
}

// writeRaw and syncRaw lock internally (rather than relying on Append's
// critical section) so the fault-injecting wrapper can drive them directly
// without racing a concurrent reader.
func (j *FileJournal) writeRaw(b []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.f.Write(b)
	return err
}

func (j *FileJournal) syncRaw() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Close releases the file. The journal is not usable afterwards.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// MemJournal is the in-memory Journal fake: same framing, no filesystem. It
// backs the crash-recovery tests — "kill -9" becomes truncating Bytes() at an
// arbitrary offset and recovering from the prefix.
type MemJournal struct {
	mu  sync.Mutex
	buf []byte
	seq uint64
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal {
	return &MemJournal{buf: []byte(journalMagic)}
}

// NewMemJournalFrom rebuilds a journal from a (possibly torn) image: the
// intact prefix is kept, the tail discarded, and the sequence continues after
// the recovered records — exactly what OpenFileJournal does on disk.
func NewMemJournalFrom(data []byte) (*MemJournal, *Recovery) {
	rec := RecoverBytes(data)
	j := NewMemJournal()
	if rec.GoodBytes > 0 {
		j.buf = append(j.buf[:0], data[:rec.GoodBytes]...)
	}
	j.seq = uint64(len(rec.Records))
	return j, rec
}

// Append implements Journal.
func (j *MemJournal) Append(r Record) (uint64, error) {
	if err := j.writeRaw(encodeFrame(r)); err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	return j.seq, nil
}

// writeRaw locks internally so the fault-injecting wrapper can drive it
// directly while Bytes snapshots concurrently.
func (j *MemJournal) writeRaw(b []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = append(j.buf, b...)
	return nil
}

func (j *MemJournal) syncRaw() error { return nil }

// Close implements Journal (a no-op for memory).
func (j *MemJournal) Close() error { return nil }

// Bytes snapshots the journal image.
func (j *MemJournal) Bytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]byte(nil), j.buf...)
}
