#!/usr/bin/env bash
# Crash-restart smoke for the durable control plane: build cmd/serve, run it
# with a write-ahead journal and a result window of three jobs (-queue 2
# -workers 1), submit a dozen keyed jobs over HTTP one after another so the
# journal compacts, kill -9 the process, restart it against the same journal,
# and verify that the latest job's status URL still resolves, idempotent
# resubmission dedups to its id, and /metrics reports the recovery with the
# degraded gauge at 0. Finishes with a SIGTERM to exercise the bounded drain
# path.
#
# Needs only bash, curl and the Go toolchain. Used by CI's
# crash-restart-smoke job and runnable locally: make crash-smoke
set -euo pipefail

ADDR=${ADDR:-127.0.0.1:18080}
DIR=$(mktemp -d)
PID=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT
JOURNAL="$DIR/jobs.journal"
BASE="http://$ADDR"

say() { echo "crash-smoke: $*"; }
die() { say "FAIL: $*"; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  die "server on $ADDR never became healthy"
}

job_state() {
  curl -fsS "$BASE/jobs/$1" | grep -o '"state":"[a-z]*"' | cut -d'"' -f4
}

go build -o "$DIR/serve" ./cmd/serve

metric() {
  curl -fsS "$BASE/metrics" | awk -v name="$1" '$1 == name { print $2 }'
}

submit() {
  curl -fsS -X POST "$BASE/jobs" -H "Idempotency-Key: smoke-$1" \
    -d '{"tenant":"gold","app":"pagerank","graph":"social_network"}' | tr -dc 0-9
}

serve() {
  "$DIR/serve" -addr "$ADDR" -scale 512 -queue 2 -workers 1 -journal "$JOURNAL" -drain-timeout 5 &
  PID=$!
  wait_healthy
}

say "starting server with journal $JOURNAL"
serve

JOBS=12
for n in $(seq 1 "$JOBS"); do
  ID=$(submit "$n")
  [ -n "$ID" ] || die "submit $n returned no id"
  for _ in $(seq 1 200); do
    [ "$(job_state "$ID")" = done ] && break
    sleep 0.05
  done
  [ "$(job_state "$ID")" = done ] || die "job $ID never completed"
done
say "submitted and completed $JOBS jobs; the latest is job $ID"

COMPACTIONS=$(metric proxygraph_journal_compactions)
[ "${COMPACTIONS:-0}" -gt 0 ] || die "journal never compacted (proxygraph_journal_compactions ${COMPACTIONS:-missing})"
say "journal compacted $COMPACTIONS times; killing server with SIGKILL"

kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

say "restarting against the same journal"
serve

STATE=$(job_state "$ID")
[ "$STATE" = done ] || die "recovered job $ID is '$STATE', want done"
say "status URL /jobs/$ID survived the crash (state done)"

ID2=$(submit "$JOBS")
[ "$ID2" = "$ID" ] || die "idempotent resubmit returned id $ID2, want $ID"
say "idempotent resubmission deduped to job $ID"

RECOVERED=$(metric proxygraph_jobs_recovered_done)
[ "${RECOVERED:-0}" -gt 0 ] || die "metrics report no recovered jobs (proxygraph_jobs_recovered_done ${RECOVERED:-missing})"
[ "$(metric proxygraph_degraded)" = 0 ] || die "metrics missing proxygraph_degraded 0"
say "recovery metrics present ($RECOVERED jobs recovered)"

say "graceful shutdown via SIGTERM"
kill -TERM "$PID"
for _ in $(seq 1 100); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then
  die "server did not exit within 10s of SIGTERM"
fi
wait "$PID" 2>/dev/null || die "server exited non-zero on SIGTERM"
PID=""

say "PASS"
