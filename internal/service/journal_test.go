package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"proxygraph/internal/workload"
)

// EncodeJournal renders records as a complete journal image (magic plus one
// frame per record) — the inverse of DecodeJournal on clean input.
func EncodeJournal(recs []Record) []byte {
	buf := []byte(journalMagic)
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	return buf
}

// NewMemJournalFrom rebuilds a journal from a (possibly torn) image: the
// intact prefix is kept, the tail discarded, and the sequence continues after
// the recovered records — exactly what OpenFileJournal does on disk.
func NewMemJournalFrom(data []byte) (*MemJournal, *Recovery) {
	rec := RecoverBytes(data)
	j := NewMemJournal()
	if rec.GoodBytes > 0 {
		j.mem.buf = append(j.mem.buf[:0], data[:rec.GoodBytes]...)
	}
	j.seq = lastSeq(rec.Records)
	return j, rec
}

// sampleRecords exercises every record kind, every string field, and the
// numeric edge cases (negative priority, NaN-free floats, max-ish ids).
func sampleRecords() []Record {
	return []Record{
		{Kind: RecordSubmit, Tenant: "gold", App: "pagerank", Graph: "LiveJournal", Key: "req-1",
			Seed: 0xdeadbeef, Fingerprint: 42, Priority: 2},
		{Kind: RecordAdmit, ID: 1},
		{Kind: RecordStart, ID: 1, Attempt: 0},
		{Kind: RecordRetry, ID: 1, Attempt: 1, Seconds: 0.125},
		{Kind: RecordComplete, ID: 1, Attempt: 1, Seconds: 3.5, Ingress: 0.25, Energy: 700.5, Flag: true},
		{Kind: RecordBudgetCharge, ID: 1, Tenant: "gold", Seconds: 3.75, Energy: 700.5},
		{Kind: RecordFail, ID: 2, Attempt: 3, Error: "service: transient attempt failure (injected)"},
		{Kind: RecordShed, ID: 3, Error: "priority"},
		{Kind: RecordSubmit, Tenant: "bronze", Priority: -1}, // empty strings, zero job
	}
}

// compactedRecords is a compacted journal: a snapshot with base 40 holding
// two tenants and three jobs (running, done, canceled), then a tail that
// admits a new job and completes the running one.
func compactedRecords() []Record {
	return []Record{
		{Kind: RecordSnapshot, Seed: 40},
		{Kind: RecordTenant, Tenant: "bronze", Seconds: 1.5, Energy: 20, Attempt: 2, Flag: true},
		{Kind: RecordTenant, Tenant: "gold", Seconds: 7.25, Energy: 900.5},
		{Kind: RecordJob, ID: 36, State: StateRunning, Attempt: 1, Priority: 2, Tenant: "gold",
			App: "pagerank", Graph: "LiveJournal", Key: "req-9", Seed: 3, Fingerprint: 42,
			Error: "service: injected transient fault"},
		{Kind: RecordJob, ID: 21, State: StateDone, Tenant: "gold", App: "bfs", Graph: "wiki",
			Seconds: 3.5, Ingress: 0.25, Energy: 700.5, Flag: true},
		{Kind: RecordJob, ID: 26, State: StateCanceled, Priority: -1, Tenant: "bronze", Error: "service: closed"},
		{Kind: RecordSubmit, Tenant: "gold", App: "sssp", Graph: "wiki", Key: "req-10", Priority: 2},
		{Kind: RecordAdmit, ID: 41},
		{Kind: RecordComplete, ID: 36, Attempt: 1, Seconds: 2, Energy: 10},
		{Kind: RecordBudgetCharge, ID: 36, Tenant: "gold", Seconds: 2, Energy: 10},
	}
}

// compactedSeqs are compactedRecords' sequence numbers: the snapshot's frames
// carry its base, the tail counts on from it.
var compactedSeqs = []uint64{40, 40, 40, 40, 40, 40, 41, 42, 43, 44}

// TestServiceJournalParentFormat pins the PGWJ1 encoding of journals without
// snapshots to the bytes the encoder wrote before compaction existed, so a
// journal an older build left behind still recovers.
func TestServiceJournalParentFormat(t *testing.T) {
	img := EncodeJournal(sampleRecords())
	sum := sha256.Sum256(img)
	if got, want := hex.EncodeToString(sum[:]), "f0d8d39b83f75680ba76dde7fd23d1ff2f2d6917c4385d7ffc0e2ac330eadd02"; len(img) != 871 || got != want {
		t.Fatalf("sample journal is %d bytes with sha256 %s, want 871 bytes with %s", len(img), got, want)
	}
}

// TestServiceJournalSnapshotFrames pins the compacted image's codec: snapshot
// frames round-trip, sequence numbers continue from the base, a snapshot is
// only accepted as the first frame and its body only directly after it, and
// a journal rebuilt from the image appends after the tail.
func TestServiceJournalSnapshotFrames(t *testing.T) {
	recs := compactedRecords()
	img := EncodeJournal(recs)
	got, good, err := DecodeJournal(img)
	if err != nil || good != len(img) || len(got) != len(recs) {
		t.Fatalf("decoded %d records, %d of %d bytes, err %v", len(got), good, len(img), err)
	}
	for i := range got {
		want := recs[i]
		want.Seq = compactedSeqs[i]
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	if out := EncodeJournal(got); !bytes.Equal(out, img) {
		t.Fatal("decode∘encode changed a compacted image")
	}
	j, rec := NewMemJournalFrom(img)
	if seq, err := j.Append(Record{Kind: RecordAdmit, ID: 45}); err != nil || seq != 45 || rec.Err != nil {
		t.Fatalf("append after the tail: seq %d, err %v, recovery err %v", seq, err, rec.Err)
	}

	for _, tc := range []struct {
		name string
		recs []Record
		keep int // records decoded before the error
	}{
		{"snapshot-not-first", append([]Record{{Kind: RecordAdmit, ID: 1}}, recs...), 1},
		{"body-after-tail", append(append([]Record(nil), recs...), recs[1]), len(recs)},
		{"body-without-snapshot", recs[1:], 0},
		{"state-outside-job", []Record{{Kind: RecordComplete, ID: 1, State: StateDone}}, 0},
	} {
		got, good, err := DecodeJournal(EncodeJournal(tc.recs))
		if err == nil || len(got) != tc.keep || good != len(EncodeJournal(tc.recs[:tc.keep])) {
			t.Errorf("%s: %d records, %d good bytes, err %v; want %d records and an error", tc.name, len(got), good, err, tc.keep)
		}
	}
}

// TestJournalAppendAllocs pins the in-place frame encoding: an append into a
// MemJournal with room, and a FileJournal append's frame build, allocate
// nothing; a snapshot's body allocates the same for ten kept jobs as for a
// hundred.
func TestJournalAppendAllocs(t *testing.T) {
	r := sampleRecords()[0]
	mem := NewMemJournal()
	for i := 0; i < 1000; i++ {
		mem.Append(r)
	}
	mem.mem.buf = mem.mem.buf[:len(journalMagic)]
	if n := testing.AllocsPerRun(500, func() { mem.Append(r) }); n != 0 {
		t.Errorf("MemJournal.Append into a pre-grown buffer: %v allocs, want 0", n)
	}

	file, _, err := OpenFileJournal(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if _, err := file.Append(r); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() { file.frame = appendFrame(file.frame[:0], r) }); n != 0 {
		t.Errorf("FileJournal frame build: %v allocs, want 0", n)
	}

	snapshotAllocs := func(jobs int) float64 {
		m := newMachine(Config{QueueBound: jobs, TenantQueueBound: jobs, Workers: 1})
		for i := 0; i < jobs; i++ {
			if _, _, err := m.submit(0, "t", "", workload.Job{}, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		buf := m.appendSnapshot(nil, 0)
		return testing.AllocsPerRun(50, func() { buf = m.appendSnapshot(buf[:0], 0) })
	}
	if few, many := snapshotAllocs(10), snapshotAllocs(100); few != many {
		t.Errorf("snapshot body allocates %v times for 10 jobs and %v for 100, want the same", few, many)
	}
}

// TestServiceJournalCompact pins compaction on both journals: the image
// becomes the snapshot, appends continue the sequence, and a reopened file
// journal recovers the snapshot and deletes a stale temporary file.
func TestServiceJournalCompact(t *testing.T) {
	recs := compactedRecords()
	body := EncodeJournal(recs[1:6])[len(journalMagic):]
	tail := recs[6:]

	mem := NewMemJournal()
	for i := 0; i < 40; i++ {
		mem.Append(Record{Kind: RecordAdmit, ID: i})
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	file, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		file.Append(Record{Kind: RecordAdmit, ID: i})
	}
	for _, j := range []interface {
		compactor
		Journal
	}{mem, file} {
		if err := j.compact(body); err != nil {
			t.Fatal(err)
		}
		for i, r := range tail {
			if seq, err := j.Append(r); err != nil || seq != uint64(41+i) {
				t.Fatalf("%T append %d after compaction: seq %d, err %v", j, i, seq, err)
			}
		}
	}
	want := EncodeJournal(recs)
	if got := mem.Bytes(); !bytes.Equal(got, want) {
		t.Fatal("compacted MemJournal image differs from the snapshot plus tail")
	}
	file.Close()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("compacted FileJournal image differs from the snapshot plus tail (err %v)", err)
	}

	stale := path + compactSuffix
	if err := os.WriteFile(stale, want[:20], 0o644); err != nil {
		t.Fatal(err)
	}
	file, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot file survived the reopen: %v", err)
	}
	if rec.Err != nil || len(rec.Records) != len(recs) {
		t.Fatalf("reopened journal: %d records, err %v", len(rec.Records), rec.Err)
	}
	if seq, err := file.Append(Record{Kind: RecordAdmit, ID: 45}); err != nil || seq != 45 {
		t.Fatalf("append after reopen: seq %d, err %v", seq, err)
	}
}

// TestJournalsWriteSameBytes holds every journal to one image: a MemJournal,
// a FileJournal and a FaultJournal that injects nothing over each of them
// append the same records, compact and append a tail. Before and after the
// compaction each image must be the records encoded, and every append must
// return the same sequence number.
func TestJournalsWriteSameBytes(t *testing.T) {
	recs := compactedRecords()
	body := EncodeJournal(recs[1:6])[len(journalMagic):]
	tail := recs[6:]
	var admits []Record
	for i := 0; i < 40; i++ {
		admits = append(admits, Record{Kind: RecordAdmit, ID: i})
	}

	dir := t.TempDir()
	file := func(name string) (*FileJournal, func() []byte) {
		path := filepath.Join(dir, name)
		j, _, err := OpenFileJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		return j, func() []byte {
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return img
		}
	}
	clean := func(inner Journal) *FaultJournal {
		fj, err := NewFaultJournal(inner, 1, JournalFaultSpec{EveryN: 0})
		if err != nil {
			t.Fatal(err)
		}
		return fj
	}
	mem, underFault := NewMemJournal(), NewMemJournal()
	fileJ, fileImage := file("file.journal")
	faultFile, faultFileImage := file("fault.journal")
	for _, tc := range []struct {
		name string
		j    interface {
			Journal
			compactor
		}
		image func() []byte
	}{
		{"mem", mem, mem.Bytes},
		{"file", fileJ, fileImage},
		{"fault-over-mem", clean(underFault), underFault.Bytes},
		{"fault-over-file", clean(faultFile), faultFileImage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, r := range admits {
				if seq, err := tc.j.Append(r); err != nil || seq != uint64(i+1) {
					t.Fatalf("append %d: seq %d, err %v", i, seq, err)
				}
			}
			if got := tc.image(); !bytes.Equal(got, EncodeJournal(admits)) {
				t.Fatal("image before compaction differs from the records encoded")
			}
			if err := tc.j.compact(body); err != nil {
				t.Fatal(err)
			}
			for i, r := range tail {
				if seq, err := tc.j.Append(r); err != nil || seq != uint64(41+i) {
					t.Fatalf("append %d after compaction: seq %d, err %v", i, seq, err)
				}
			}
			if err := tc.j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := tc.image(); !bytes.Equal(got, EncodeJournal(recs)) {
				t.Fatal("compacted image differs from the snapshot plus tail")
			}
		})
	}
}

// TestJournalConcurrent appends from four goroutines while others snapshot
// the image and compact, on a MemJournal and on a FaultJournal over one.
// Every snapshot must decode cleanly, and so must the final image, whose
// last sequence number counts every append. make check runs it under -race.
func TestJournalConcurrent(t *testing.T) {
	const writers, appends = 4, 200
	body := EncodeJournal(compactedRecords()[1:3])[len(journalMagic):]
	for _, name := range []string{"mem", "fault-over-mem"} {
		t.Run(name, func(t *testing.T) {
			mem := NewMemJournal()
			var j interface {
				Journal
				compactor
			} = mem
			if name == "fault-over-mem" {
				fj, err := NewFaultJournal(mem, 1, JournalFaultSpec{})
				if err != nil {
					t.Fatal(err)
				}
				j = fj
			}
			var wg, readers sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < appends; i++ {
						if _, err := j.Append(Record{Kind: RecordAdmit, ID: w*appends + i}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for _, op := range []func() error{
				func() error { _, _, err := DecodeJournal(mem.Bytes()); return err },
				func() error { return j.compact(body) },
			} {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := op(); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(done)
			readers.Wait()
			recs, _, err := DecodeJournal(mem.Bytes())
			if err != nil || lastSeq(recs) != writers*appends {
				t.Fatalf("final image: last sequence %d of %d appends, err %v", lastSeq(recs), writers*appends, err)
			}
		})
	}
}

// TestServiceJournalRoundTrip pins the canonical-codec property directly:
// encode∘decode is the identity, sequence numbers are positional, and a clean
// image decodes with no error and full coverage.
func TestServiceJournalRoundTrip(t *testing.T) {
	recs := sampleRecords()
	img := EncodeJournal(recs)
	got, good, err := DecodeJournal(img)
	if err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	if good != len(img) {
		t.Fatalf("good=%d, want %d", good, len(img))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		want := recs[i]
		want.Seq = uint64(i + 1)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

// TestServiceJournalTornTail pins crash-artifact tolerance: truncating a clean
// image at EVERY byte offset decodes without panic to an intact prefix of
// whole records, and the reported good offset is re-decodable and appendable.
func TestServiceJournalTornTail(t *testing.T) {
	recs := sampleRecords()
	img := EncodeJournal(recs)
	for cut := 0; cut <= len(img); cut++ {
		torn := img[:cut]
		got, good, err := DecodeJournal(torn)
		if good > cut {
			t.Fatalf("cut %d: good=%d beyond image", cut, good)
		}
		if cut == len(img) && err != nil {
			t.Fatalf("full image decode failed: %v", err)
		}
		// Every decoded record must match the original prefix exactly.
		for i := range got {
			want := recs[i]
			want.Seq = uint64(i + 1)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("cut %d record %d mismatch", cut, i)
			}
		}
		// The good prefix must itself decode cleanly (idempotent recovery).
		again, g2, err2 := DecodeJournal(torn[:good])
		if err2 != nil || g2 != good || len(again) != len(got) {
			t.Fatalf("cut %d: good prefix not clean: %v", cut, err2)
		}
	}
}

// TestServiceJournalCorruption flips every byte of a small image (one at a
// time) and asserts decode never panics, never fabricates extra records, and
// loses at most the records at or after the corrupted frame.
func TestServiceJournalCorruption(t *testing.T) {
	recs := sampleRecords()[:4]
	img := EncodeJournal(recs)
	for pos := 0; pos < len(img); pos++ {
		for _, bit := range []byte{0x01, 0x80} {
			corrupt := append([]byte(nil), img...)
			corrupt[pos] ^= bit
			got, good, _ := DecodeJournal(corrupt)
			if good > len(corrupt) {
				t.Fatalf("pos %d: good=%d beyond image", pos, good)
			}
			if len(got) > len(recs) {
				t.Fatalf("pos %d: decoded %d records from corrupt image of %d", pos, len(got), len(recs))
			}
			// Records decoded from before the corruption must be untouched.
			for i := range got {
				want := recs[i]
				want.Seq = uint64(i + 1)
				if !reflect.DeepEqual(got[i], want) && pos >= len(journalMagic) {
					t.Fatalf("pos %d: surviving record %d altered", pos, i)
				}
			}
		}
	}
}

// TestServiceFileJournal pins the file-backed journal end to end: append,
// reopen, recover, torn-tail truncation, and sequence continuation.
func TestServiceFileJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(rec.Records))
	}
	recs := sampleRecords()
	for i, r := range recs {
		seq, err := j.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate kill -9 mid-write: chop half of the final frame off.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img[:len(img)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec2.Err == nil {
		t.Fatal("torn tail not reported")
	}
	if len(rec2.Records) != len(recs)-1 {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(recs)-1)
	}
	// The torn tail must be truncated so the next append extends a clean image.
	seq, err := j2.Append(Record{Kind: RecordAdmit, ID: 99})
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(recs)) {
		t.Fatalf("sequence after recovery: %d, want %d", seq, len(recs))
	}
	img2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeJournal(img2)
	if err != nil {
		t.Fatalf("journal not clean after recovery+append: %v", err)
	}
	if len(got) != len(recs) || got[len(got)-1].ID != 99 {
		t.Fatalf("post-recovery image has %d records", len(got))
	}
}

// TestServiceMemJournalFrom pins the in-memory fake's recovery semantics
// against the file implementation's: same prefix keeping, same sequence.
func TestServiceMemJournalFrom(t *testing.T) {
	j := NewMemJournal()
	recs := sampleRecords()
	for _, r := range recs {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	img := j.Bytes()
	j2, rec := NewMemJournalFrom(img[:len(img)-3])
	if rec.Err == nil || len(rec.Records) != len(recs)-1 {
		t.Fatalf("recovered %d records, err %v", len(rec.Records), rec.Err)
	}
	seq, err := j2.Append(Record{Kind: RecordAdmit, ID: 7})
	if err != nil || seq != uint64(len(recs)) {
		t.Fatalf("seq %d err %v", seq, err)
	}
	if _, _, err := DecodeJournal(j2.Bytes()); err != nil {
		t.Fatalf("image not clean: %v", err)
	}
}

// TestServiceFaultJournal pins each injected fault kind's contract: what
// lands on disk, what error the writer sees, and what the next recovery
// salvages.
func TestServiceFaultJournal(t *testing.T) {
	r := Record{Kind: RecordSubmit, Tenant: "t", App: "a", Graph: "g"}

	t.Run("torn-tail", func(t *testing.T) {
		inner := NewMemJournal()
		fj, err := NewFaultJournal(inner, 1, JournalFaultSpec{EveryN: 2, Kinds: []JournalFaultKind{JournalTornTail}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fj.Append(r); err != nil {
			t.Fatal(err)
		}
		if _, err := fj.Append(r); err == nil || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("torn append err = %v", err)
		}
		recs, _, derr := DecodeJournal(inner.Bytes())
		if derr == nil || len(recs) != 1 {
			t.Fatalf("recovered %d records, err %v", len(recs), derr)
		}
	})

	t.Run("short-write", func(t *testing.T) {
		inner := NewMemJournal()
		fj, err := NewFaultJournal(inner, 2, JournalFaultSpec{EveryN: 1, Kinds: []JournalFaultKind{JournalShortWrite}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fj.Append(r); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("short write err = %v", err)
		}
		if recs, _, derr := DecodeJournal(inner.Bytes()); derr != nil || len(recs) != 0 {
			t.Fatalf("short write persisted something: %d records, err %v", len(recs), derr)
		}
	})

	t.Run("corrupt-bit", func(t *testing.T) {
		inner := NewMemJournal()
		fj, err := NewFaultJournal(inner, 3, JournalFaultSpec{EveryN: 3, Kinds: []JournalFaultKind{JournalCorruptBit}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := fj.Append(r); err != nil {
				t.Fatalf("append %d: bit rot must be silent, got %v", i, err)
			}
		}
		// The writer saw three successes; recovery catches the rot via CRC.
		recs, _, derr := DecodeJournal(inner.Bytes())
		if derr == nil {
			t.Fatal("corruption not detected at decode")
		}
		if len(recs) != 2 {
			t.Fatalf("recovered %d records, want the 2 intact ones", len(recs))
		}
	})

	t.Run("sync-error", func(t *testing.T) {
		inner := NewMemJournal()
		fj, err := NewFaultJournal(inner, 4, JournalFaultSpec{EveryN: 1, Kinds: []JournalFaultKind{JournalSyncError}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fj.Append(r); err == nil || !strings.Contains(err.Error(), "fsync") {
			t.Fatalf("sync err = %v", err)
		}
		// Bytes are present (the conservative model) but unacknowledged.
		if recs, _, derr := DecodeJournal(inner.Bytes()); derr != nil || len(recs) != 1 {
			t.Fatalf("sync-error image: %d records, err %v", len(recs), derr)
		}
	})

	t.Run("deterministic-schedule", func(t *testing.T) {
		pick := func() []JournalFaultKind {
			inner := NewMemJournal()
			fj, err := NewFaultJournal(inner, 9, JournalFaultSpec{EveryN: 2})
			if err != nil {
				t.Fatal(err)
			}
			var kinds []JournalFaultKind
			for i := uint64(1); i <= 10; i++ {
				kinds = append(kinds, fj.store.(*faultStore).faultFor(i))
			}
			return kinds
		}
		a := pick()
		if !reflect.DeepEqual(pick(), a) {
			t.Fatal("schedule not deterministic")
		}
		faulted := 0
		for i, k := range a {
			if (i+1)%2 == 0 {
				if k < 0 {
					t.Fatalf("append %d should fault", i+1)
				}
				faulted++
			} else if k >= 0 {
				t.Fatalf("append %d should be clean", i+1)
			}
		}
		if faulted != 5 {
			t.Fatalf("faulted %d of 10", faulted)
		}
	})

	t.Run("spec-validation", func(t *testing.T) {
		if _, err := NewFaultJournal(NewMemJournal(), 0, JournalFaultSpec{EveryN: -1}); err == nil {
			t.Error("negative EveryN accepted")
		}
		if _, err := NewFaultJournal(NewMemJournal(), 0, JournalFaultSpec{Kinds: []JournalFaultKind{99}}); err == nil {
			t.Error("unknown kind accepted")
		}
		if _, err := NewFaultJournal(badJournal{}, 0, JournalFaultSpec{}); err == nil {
			t.Error("non-raw journal accepted")
		}
	})
}

// badJournal is a Journal without byte-level access.
type badJournal struct{}

func (badJournal) Append(Record) (uint64, error) { return 0, nil }
func (badJournal) Close() error                  { return nil }
