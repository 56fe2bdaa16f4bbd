#!/usr/bin/env bash
# Paired comparison of benchmark workloads between a parent commit and the
# working tree, by the rule a claimed gain has to pass (choosing-metrics §8):
# alternating pairs, one seed per pair, the contract's run length on both
# sides; for every end-to-end metric it prints both medians, both quartile
# ranges, how many pairs the working tree won and a verdict, one table per
# workload. The verdict reads "unresolved" when the parent's quartile spread,
# (q3-q1)/median, is wider than the metric's bound, unless every change run
# lies beyond every parent run on one side. A second table per workload gives
# each job class's floor (the benchmark record's classes[].floor_ms): both
# medians, the delta and the pairs the working tree won, which shows where a
# change of cycle_floor_ms comes from.
#
#   scripts/bench_compare.sh <parent-ref> '<workload> [<workload>...]' [pairs (default 10, at least 2)]
#   make bench-compare PARENT=<parent-ref> WORKLOAD='<workload> [<workload>...]' [PAIRS=10]
#
# The two binaries are built once and every workload's pairs run before the
# next workload starts; its table prints as soon as its pairs are done. After
# each pair, one stderr row gives both sides' value of every end-to-end metric
# and both sides' failed operations, so a single seed (seed 7 confirms a
# claim) can be read from the script's own output. The parent is exported
# with git archive into a temporary directory and both benchmark binaries run
# from temporary directories, so nothing is written into the repository.
# Needs bash, tar, python3 and the Go toolchain; run it on an otherwise idle
# host.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,25p' "$0" | cut -c3- >&2
  exit 2
fi
ref=$1
read -r -a workloads <<<"$2"
pairs=${3:-10}
if ! [[ $pairs =~ ^[0-9]+$ ]] || [ "$pairs" -lt 2 ]; then
  echo "bench-compare: pairs must be a whole number of at least 2 (quartiles need two runs a side), got $pairs" >&2
  exit 2
fi
if [ ${#workloads[@]} -eq 0 ]; then
  echo "bench-compare: no workload named" >&2
  exit 2
fi

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent" "$tmp/run-parent" "$tmp/run-change"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
(cd "$tmp/parent/benchmark" && go build -o "$tmp/parent.bin" .)
(cd "$root/benchmark" && go build -o "$tmp/change.bin" .)
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

# table prints one workload's comparison from its runs file.
table() {
python3 - "$@" <<'EOF'
import json, statistics, sys
runs, spec, ref, workload = sys.argv[1:5]
metrics = json.load(open(spec))["end_to_end"]
sides = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for line in open(runs):
    row = json.loads(line)
    result = row["result"]
    if not result["correct"]:
        sys.exit(f"pair {row['pair']}: the {row['side']} run failed its checks")
    failed[row["side"]] += result["failed"]
    for name, m in result["metrics"].items():
        sides[row["side"]].setdefault(name, {})[row["pair"]] = m["value"]

def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

print(f"{workload}: parent {ref} against the working tree, {len(sides['parent'][metrics[0]['name']])} pairs; operations failed: parent {failed['parent']}, change {failed['change']}")
print(f"{'metric':20} {'parent median':>14} {'parent q1..q3':>24} {'change median':>14} {'change q1..q3':>24} {'delta':>8} {'pairs won':>9}  verdict")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p, c = sides["parent"][name], sides["change"][name]
    pv, cv = list(p.values()), list(c.values())
    pm, cm = statistics.median(pv), statistics.median(cv)
    (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
    won = sum(1 for k in p if (c[k] < p[k] if lower else c[k] > p[k]))
    lost = sum(1 for k in p if (c[k] > p[k] if lower else c[k] < p[k]))
    delta = (cm - pm) / pm if pm else 0.0
    worse = delta if lower else -delta
    # A parent spread wider than the bound cannot tell a regression from
    # noise, unless the change's runs all lie on one side of the parent's.
    spread = (p3 - p1) / pm if pm else 0.0
    below, above = all(x < min(pv) for x in cv), all(x > max(pv) for x in cv)
    if 10 * won >= 9 * len(p) and abs(cm - pm) > p3 - p1:
        verdict = "gain"
    elif spread > m["bound"] and not (below or above):
        verdict = f"unresolved (parent spread {spread:.0%} > bound {m['bound']:.0%})"
    elif worse > m["bound"]:
        verdict = f"REGRESSION beyond the {m['bound']:.0%} bound"
    elif won == 0 and lost == 0:
        verdict = "identical"
    else:
        verdict = "within bound"
    print(f"{name:20} {pm:14.6g} {p1:11.6g} ..{p3:11.6g} {cm:14.6g} {c1:11.6g} ..{c3:11.6g} {delta:+8.1%} {won:>6}/{len(p):<2}  {verdict}")
EOF
}

# classes prints one workload's per-class floors from its runs file.
classes() {
python3 - "$@" <<'EOF'
import json, statistics, sys
runs, workload = sys.argv[1:3]
floors = {"parent": {}, "change": {}}
for line in open(runs):
    row = json.loads(line)
    for c in row["record"]["classes"]:
        floors[row["side"]].setdefault(c["class"], {})[row["pair"]] = c["floor_ms"]
print(f"{workload} class floors (ms):")
print(f"{'class':36} {'parent median':>14} {'change median':>14} {'delta':>8} {'pairs won':>9}")
for name, p in floors["parent"].items():
    c = floors["change"].get(name, {})
    pm = statistics.median(p.values())
    cm = statistics.median(c.values()) if c else float("nan")
    won = sum(1 for k in p if k in c and c[k] < p[k])
    delta = (cm - pm) / pm if pm else 0.0
    print(f"{name:36} {pm:14.6g} {cm:14.6g} {delta:+8.1%} {won:>6}/{len(p):<2}")
EOF
}

# pair_row prints one pair's row on stderr: parent/change for every
# end-to-end metric, then both sides' failed operations.
pair_row() {
python3 - "$@" >&2 <<'EOF'
import json, sys
runs, spec, workload, pair = sys.argv[1:5]
names = [m["name"] for m in json.load(open(spec))["end_to_end"]]
sides = {}
for line in open(runs):
    row = json.loads(line)
    if row["pair"] == int(pair):
        sides[row["side"]] = row["result"]
p, c = sides["parent"], sides["change"]
cells = " ".join(f"{n}={p['metrics'][n]['value']:.6g}/{c['metrics'][n]['value']:.6g}" for n in names)
print(f"bench-compare: {workload} pair {pair} seed {pair}, parent/change: {cells} failed={p['failed']}/{c['failed']}")
EOF
}

for workload in "${workloads[@]}"; do
  runs="$tmp/runs-$workload.jsonl"
  for pair in $(seq 1 "$pairs"); do
    # Odd pairs run the parent first, even pairs the change.
    order="parent change"
    [ $((pair % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
      echo "bench-compare: pair $pair/$pairs $side $workload seed $pair" >&2
      # The run's stderr is kept: a run that fails its checks exits 1, and
      # its own report of why is the last thing it wrote there.
      stderr="$tmp/stderr-$workload-$pair-$side"
      # The last two stdout lines are the full record and the summary.
      if ! lines=$(cd "$tmp/run-$side" && "$tmp/$side.bin" -workload "$workload" -seed "$pair" -seconds "$seconds" -trace 0 2>"$stderr" | tail -n 2); then
        echo "bench-compare: pair $pair/$pairs, $side side, workload $workload, seed $pair: the benchmark exited non-zero; the end of its stderr:" >&2
        tail -n 20 "$stderr" >&2
        exit 1
      fi
      { read -r record; read -r line; } <<<"$lines"
      echo "{\"pair\":$pair,\"side\":\"$side\",\"result\":$line,\"record\":$record}" >>"$runs"
    done
    pair_row "$runs" "$root/BENCHMARK.json" "$workload" "$pair"
  done
  table "$runs" "$root/BENCHMARK.json" "$ref" "$workload"
  echo
  classes "$runs" "$workload"
  echo
done
