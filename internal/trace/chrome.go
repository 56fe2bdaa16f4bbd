package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Chrome trace-event exporter. The output is the Trace Event Format's JSON
// object form ({"traceEvents": [...]}) loadable in chrome://tracing and
// Perfetto: one "process" per simulated machine plus a synthetic "cluster"
// process for barrier-level activity (stalls, checkpoints, recoveries,
// rebalances, frontier counters). Within a machine, thread 0 carries the
// whole-step span and threads 1-4 the gather/apply/bookkeeping/comm phase
// attribution.
//
// The exporter replays the event stream against a simulated-time cursor:
// sync steps start all machines at the same barrier-aligned instant and the
// following KindStepEnd advances the cursor by the barrier time; async rounds
// advance per-machine cursors independently (the fold to the common barrier
// happens at the next sync step or stall, exactly as the accountant folds
// async time). Output is a pure function of the event slice, so engines that
// emit identical events produce byte-identical JSON — the property the
// cross-engine differential test asserts on.

// chromeEvent is one Trace Event Format record. Field order is fixed and
// Args is a map (encoding/json sorts map keys), so encoding is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Thread IDs within a machine process.
const (
	tidStep = iota
	tidGather
	tidApply
	tidBook
	tidComm
)

// fin clamps non-finite or negative durations/timestamps to zero so hostile
// event streams (the fuzz targets) still encode to valid JSON —
// encoding/json rejects NaN and ±Inf outright.
func fin(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		return 0
	}
	return x
}

// usec converts simulated seconds to the format's microsecond timebase. The
// outer fin matters: a huge-but-finite seconds value can overflow to +Inf
// only after the multiply, and encoding/json rejects non-finite numbers.
func usec(seconds float64) float64 { return fin(fin(seconds) * 1e6) }

// WriteChromeTrace writes the event stream as Chrome trace JSON to w.
func WriteChromeTrace(w io.Writer, events []Event) error {
	// maxProcesses bounds the per-machine process list so a corrupt stream
	// with a huge machine index cannot force a gigantic header; events beyond
	// the cap are dropped. Real clusters in this repository are ≤ 64 machines.
	const maxProcesses = 4096
	numMachines := 0
	for _, e := range events {
		if e.Machine+1 > numMachines && e.Machine < maxProcesses {
			numMachines = e.Machine + 1
		}
	}
	clusterPID := numMachines

	out := make([]chromeEvent, 0, 4*len(events)+2*numMachines+2)
	meta := func(pid int, key, name string) {
		out = append(out, chromeEvent{Name: key, Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	for p := 0; p < numMachines; p++ {
		meta(p, "process_name", fmt.Sprintf("machine %d", p))
	}
	meta(clusterPID, "process_name", "cluster")

	// Simulated-time cursors, in seconds.
	global := 0.0
	machineT := make([]float64, numMachines)
	stepStart := 0.0
	fold := func() {
		for _, t := range machineT {
			if t > global {
				global = t
			}
		}
		for i := range machineT {
			machineT[i] = global
		}
	}
	instant := func(pid int, name string, args map[string]any) {
		out = append(out, chromeEvent{Name: name, Ph: "i", PID: pid, TID: tidStep, TS: usec(global), S: "p", Args: args})
	}

	for _, e := range events {
		switch e.Kind {
		case KindStepBegin:
			if e.Label != "async" {
				fold()
			}
			stepStart = global
			out = append(out, chromeEvent{
				Name: "frontier", Ph: "C", PID: clusterPID, TID: tidStep, TS: usec(global),
				Args: map[string]any{"active": e.Frontier},
			})
		case KindMachineStep:
			if e.Machine < 0 || e.Machine >= numMachines {
				continue
			}
			start := stepStart
			if e.Label == "async" {
				start = machineT[e.Machine]
			}
			machineT[e.Machine] = start + fin(e.Seconds)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("step %d", e.Step), Ph: "X", PID: e.Machine, TID: tidStep,
				TS: usec(start), Dur: usec(e.Seconds),
				Args: map[string]any{
					"gathers": fin(e.Gathers), "applies": fin(e.Applies),
					"partials_out": fin(e.PartialsOut), "updates_out": fin(e.UpdatesOut),
				},
			})
			phase := func(tid int, name string, at, dur float64) {
				if fin(dur) <= 0 {
					return
				}
				out = append(out, chromeEvent{Name: name, Ph: "X", PID: e.Machine, TID: tid, TS: usec(at), Dur: usec(dur)})
			}
			phase(tidGather, "gather", start, e.GatherSeconds)
			phase(tidApply, "apply", start+fin(e.GatherSeconds), e.ApplySeconds)
			phase(tidBook, "book", start+fin(e.GatherSeconds)+fin(e.ApplySeconds), e.BookSeconds)
			phase(tidComm, "comm", start, e.CommSeconds)
		case KindStepEnd:
			if e.Label != "async" {
				global = stepStart + fin(e.Seconds)
				for i := range machineT {
					machineT[i] = global
				}
			}
		case KindStall:
			fold()
			out = append(out, chromeEvent{
				Name: "stall:" + e.Label, Ph: "X", PID: clusterPID, TID: tidStep,
				TS: usec(global), Dur: usec(e.Seconds),
			})
			global += fin(e.Seconds)
			for i := range machineT {
				machineT[i] = global
			}
		case KindFault:
			instant(clusterPID, "fault:"+e.Label, map[string]any{"step": e.Step})
		case KindCheckpoint:
			instant(clusterPID, "checkpoint", map[string]any{"resume_step": e.Step, "bytes": e.Bytes})
		case KindCrash:
			pid := clusterPID
			if e.Machine >= 0 && e.Machine < numMachines {
				pid = e.Machine
			}
			instant(pid, "crash", map[string]any{"step": e.Step})
		case KindRecovery:
			instant(clusterPID, "recovery:"+e.Label, map[string]any{
				"step": e.Step, "machine": e.Machine, "resume_step": e.Resume, "moved_edges": e.Moved,
			})
		case KindRebalance:
			instant(clusterPID, "rebalance", map[string]any{"step": e.Step, "moved_edges": e.Moved})
		case KindIngress:
			// Ingress precedes the job's supersteps: render it like a stall so
			// the charged makespan pushes the whole cluster forward.
			fold()
			out = append(out, chromeEvent{
				Name: "ingress:" + e.Label, Ph: "X", PID: clusterPID, TID: tidStep,
				TS: usec(global), Dur: usec(e.Seconds),
			})
			global += fin(e.Seconds)
			for i := range machineT {
				machineT[i] = global
			}
		case KindAdmit:
			instant(clusterPID, "admit:"+e.Label, map[string]any{"job": e.Step})
		case KindQueue:
			instant(clusterPID, "dequeue", map[string]any{"job": e.Step, "tenant": e.Label, "wait_s": fin(e.Seconds)})
		case KindRetry:
			instant(clusterPID, "retry", map[string]any{"job": e.Step, "attempt": e.Resume, "backoff_s": fin(e.Seconds)})
		case KindShed:
			instant(clusterPID, "shed:"+e.Label, map[string]any{"job": e.Step})
		case KindBreaker:
			instant(clusterPID, "breaker:"+e.Label, nil)
		}
	}

	// One record per line: deterministic, and diffs stay readable.
	if _, err := io.WriteString(w, "{\"traceEvents\": [\n"); err != nil {
		return err
	}
	for i, ev := range out {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(out)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
