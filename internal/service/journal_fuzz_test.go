package service

import (
	"bytes"
	"testing"
)

// FuzzDecodeJournal hammers the journal decoder with arbitrary bytes. The
// decoder faces whatever a crash, a torn write, or bit rot left on disk, so
// the contract is: never panic, never allocate for a hostile length prefix,
// report a good-byte offset inside the input, and hand back only records
// that re-encode to exactly the bytes they were decoded from (decode∘encode
// is the identity on the accepted prefix).
func FuzzDecodeJournal(f *testing.F) {
	good := EncodeJournal(sampleRecords())
	f.Add(good)
	f.Add(good[:len(good)-1]) // torn tail
	f.Add(append(bytes.Clone(good), 0xff))
	f.Add([]byte(journalMagic)) // empty journal
	f.Add([]byte{})
	f.Add([]byte("not a journal"))
	// Frame declaring a huge payload over a tiny image.
	huge := bytes.Clone(good[:len(journalMagic)+8])
	for i := len(journalMagic); i < len(journalMagic)+4; i++ {
		huge[i] = 0xff
	}
	f.Add(huge)
	// Valid length, corrupted checksum.
	badCRC := bytes.Clone(good)
	badCRC[len(journalMagic)+4] ^= 0x01
	f.Add(badCRC)
	// Compacted images: a snapshot and its tail, torn inside the snapshot
	// and inside the tail.
	compacted := EncodeJournal(compactedRecords())
	f.Add(compacted)
	f.Add(compacted[:len(EncodeJournal(compactedRecords()[:4]))+9])
	f.Add(compacted[:len(compacted)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodN, _ := DecodeJournal(data)
		if goodN < 0 || goodN > len(data) {
			t.Fatalf("good offset %d outside input of %d bytes", goodN, len(data))
		}
		if len(recs) > 0 && goodN < len(journalMagic) {
			t.Fatalf("%d records decoded from %d good bytes", len(recs), goodN)
		}
		// The accepted prefix must re-encode byte-for-byte and re-decode
		// cleanly — recovery truncates to goodN and must end up consistent.
		if goodN >= len(journalMagic) {
			out := EncodeJournal(recs)
			if !bytes.Equal(out, data[:goodN]) {
				t.Fatalf("decode∘encode not identity: %d good bytes in, %d out", goodN, len(out))
			}
			again, againN, err := DecodeJournal(data[:goodN])
			if err != nil || againN != goodN || len(again) != len(recs) {
				t.Fatalf("good prefix not clean: %d bytes, %d records, err %v", againN, len(again), err)
			}
		}
		// Sequence numbers are positional from the base: a snapshot's frames
		// carry its base, every other record the previous sequence plus one.
		var seq uint64
		for i, r := range recs {
			switch r.Kind {
			case RecordSnapshot:
				seq = r.Seed
			case RecordTenant, RecordJob:
			default:
				seq++
			}
			if r.Seq != seq {
				t.Fatalf("record %d (%s) has seq %d, want %d", i, r.Kind, r.Seq, seq)
			}
		}
	})
}

// TestServiceJournalFuzzSeedRoundTrips keeps the fuzz seed corpus honest
// under plain `go test`: the canonical encoding must decode with full
// coverage and re-encode to identical bytes, with and without a snapshot.
func TestServiceJournalFuzzSeedRoundTrips(t *testing.T) {
	for _, data := range [][]byte{EncodeJournal(sampleRecords()), EncodeJournal(compactedRecords())} {
		recs, good, err := DecodeJournal(data)
		if err != nil {
			t.Fatal(err)
		}
		if good != len(data) {
			t.Fatalf("good=%d, want %d", good, len(data))
		}
		if out := EncodeJournal(recs); !bytes.Equal(out, data) {
			t.Fatal("round trip changed bytes")
		}
	}
}
