package service

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"proxygraph/internal/workload"
)

// fuzzRecords turns fuzz bytes into a journal a live service could have
// written: submit records carry identity only, admit, start and retry
// records an id and an attempt, and terminal and charge records name a job
// submitted earlier (or one a snapshot frame introduced). Snapshot frames,
// tenant and job alike, may appear anywhere. Each byte pulled past the end
// reads as zero, so every input is a whole journal.
func fuzzRecords(data []byte) []Record {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tenants := []string{"gold", "silver", "bronze"}
	keys := []string{"", "", "k1", "k2"}
	var recs []Record
	var seq uint64
	var ids []int // submitted or snapshotted, oldest first
	tenantOf := map[int]string{}
	add := func(r Record) {
		if r.Kind != RecordTenant && r.Kind != RecordJob && r.Kind != RecordSnapshot {
			seq++
		}
		r.Seq = seq
		recs = append(recs, r)
	}
	pick := func() int {
		if len(ids) == 0 {
			return next()%4 + 1
		}
		return ids[next()%len(ids)]
	}
	for len(data) > 0 {
		switch op := next() % 12; op {
		case 0, 1:
			tenant := tenants[next()%len(tenants)]
			graph := "g"
			if next()%8 == 0 {
				graph = "lost" // resolves to an error at recovery
			}
			key := keys[next()%len(keys)]
			add(Record{Kind: RecordSubmit, Tenant: tenant, App: "pagerank", Graph: graph,
				Seed: uint64(next()), Key: key, Fingerprint: uint64(len(key)), Priority: next()%3 - 1})
			ids = append(ids, int(seq))
			tenantOf[int(seq)] = tenant
		case 2, 3:
			add(Record{Kind: RecordAdmit, ID: pick()})
		case 4:
			add(Record{Kind: RecordStart, ID: pick(), Attempt: next() % 3})
		case 5:
			add(Record{Kind: RecordRetry, ID: pick(), Attempt: next()%3 + 1, Seconds: 0.25})
		case 6:
			id := pick()
			secs, ingress, energy := float64(next())/8, float64(next())/16, float64(next())
			add(Record{Kind: RecordComplete, ID: id, Attempt: next() % 3,
				Seconds: secs, Ingress: ingress, Energy: energy, Flag: next()%2 == 0})
			if next()%4 != 0 { // else the crash fell between the pair
				add(Record{Kind: RecordBudgetCharge, ID: id, Tenant: tenantOf[id],
					Seconds: ingress + secs, Energy: energy})
			}
		case 7:
			add(Record{Kind: RecordFail, ID: pick(), Attempt: next()%3 + 1, Error: "service: boom"})
		case 8:
			reason := []string{"priority", "deadline", shedReasonCanceled}[next()%3]
			add(Record{Kind: RecordShed, ID: pick(), Error: reason})
		case 9:
			add(Record{Kind: RecordTenant, Tenant: tenants[next()%len(tenants)],
				Seconds: float64(next()) / 4, Energy: float64(next()), Attempt: next() % 4, Flag: next()%2 == 0})
		case 10:
			id := pick()
			if next()%2 == 0 {
				id = int(seq) + 1 + next()%4 // a job whose records were compacted away
			}
			state := State(next() % 6)
			r := Record{Kind: RecordJob, ID: id, State: state, Attempt: next() % 3,
				Tenant: tenants[next()%len(tenants)], App: "bfs", Graph: "g", Key: keys[next()%len(keys)]}
			switch state {
			case StateDone:
				r.Seconds, r.Ingress, r.Energy = float64(next())/8, 0.5, float64(next())
			case StateFailed:
				r.Error = "service: boom"
			case StateShed:
				r.Error = "service: shed (priority)"
			case StateCanceled:
				r.Error = ErrClosed.Error()
			}
			add(r)
			if _, ok := tenantOf[id]; !ok {
				ids = append(ids, id)
				tenantOf[id] = r.Tenant
			}
		case 11:
			add(Record{Kind: RecordSnapshot, Seed: seq})
		}
	}
	return recs
}

// restoreImage is everything a restore leaves behind that a later request or
// recovery can observe.
type restoreImage struct {
	Jobs          []JobStatus
	Usage         []TenantUsage
	Breakers      map[string][2]int // breaker state, consecutive failures
	Counters      Counters
	Queue         []int
	Retired       []int
	Idem          map[string]int
	NextID        int
	JournalWrites []byte
}

func imageOf(m *machine, journal *MemJournal) restoreImage {
	img := restoreImage{
		Jobs:          m.list("", 0, 0),
		Usage:         m.usage(),
		Breakers:      map[string][2]int{},
		Counters:      m.counters,
		Idem:          map[string]int{},
		NextID:        m.nextID,
		JournalWrites: journal.Bytes(),
	}
	for name, ts := range m.tenants {
		img.Breakers[name] = [2]int{ts.breaker, ts.consecFails}
	}
	for _, js := range m.queue {
		img.Queue = append(img.Queue, js.id)
	}
	for _, js := range m.retired {
		img.Retired = append(img.Retired, js.id)
	}
	for k, js := range m.idem {
		img.Idem[k] = js.id
	}
	return img
}

// FuzzRestore replays journals a live service could have written, with the
// breaker on and off. A restore must not panic, must queue every
// non-terminal job exactly once and no terminal one, must give each tenant a
// queued count equal to its jobs in the queue, must count every job it holds
// once as submitted and once under its state, and must be a function of its
// records: two restores of the same journal are equal.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 4, 0, 0, 6, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 1, 0, 2, 1, 2, 0, 7, 0, 1, 7, 0, 1, 7, 1, 1, 9, 0, 1, 2, 1, 10, 1, 1, 3})
	f.Add([]byte{9, 2, 0, 0, 1, 1, 10, 0, 0, 2, 1, 0, 0, 10, 1, 0, 4, 0, 0, 1, 8, 0, 2, 5, 0, 1})
	ramp := make([]byte, 256)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	f.Add(ramp)

	cl := caseTwo(f)
	resolve := func(app, graphName string, seed uint64) (workload.Job, error) {
		if graphName == "lost" {
			return workload.Job{}, errors.New("graph gone")
		}
		return workload.Job{Seed: seed}, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := fuzzRecords(data)
		for _, threshold := range []int{0, 2} {
			restored := func() (*machine, restoreImage) {
				cfg := Config{Cluster: cl, BreakerThreshold: threshold, BreakerCooldown: 5}
				journal := NewMemJournal()
				cfg.Journal = journal
				m := newMachine(mustNormalize(t, cfg))
				m.restore(slices.Clone(recs), resolve)
				return m, imageOf(m, journal)
			}
			m, img := restored()
			if _, again := restored(); !reflect.DeepEqual(img, again) {
				t.Fatalf("threshold %d: two restores differ\n%+v\n%+v", threshold, img, again)
			}
			inQueue := map[*jobState]int{}
			queued := map[string]int{}
			for _, js := range m.queue {
				inQueue[js]++
				queued[js.tenant]++
				if js.terminal() || m.jobs[js.id] != js {
					t.Fatalf("threshold %d: queue holds job %d (%s), not a live job of the table", threshold, js.id, js.state)
				}
			}
			for id, js := range m.jobs {
				if !js.terminal() && inQueue[js] != 1 {
					t.Fatalf("threshold %d: job %d (%s) queued %d times", threshold, id, js.state, inQueue[js])
				}
			}
			for name, ts := range m.tenants {
				if ts.queued != queued[name] {
					t.Fatalf("threshold %d: tenant %s counts %d queued, the queue holds %d", threshold, name, ts.queued, queued[name])
				}
			}
			// Counting laws L1 and L2 (see checkLaws): the journal records
			// no rejection, and a restore runs nothing.
			c := m.counters
			terminal := c.Completed + c.Failed + c.Canceled + c.ShedPriority + c.ShedDeadline
			if c.Submitted != c.Admitted || c.Admitted != terminal+uint64(len(m.queue)) {
				t.Fatalf("threshold %d: %d queued, counters %+v", threshold, len(m.queue), c)
			}
		}
	})
}
