#!/bin/bash
# A/A check: two interleaved sets of runs of the same commit. For every
# workload × end-to-end metric it prints both sets' medians, the gap between
# them, each set's quartile spread and the bound BENCHMARK.json fixes, and
# flags what the bound does not cover. Both sets run the same seeds, one per
# run, as the driver's runs do.
#
#   benchmark/aa.sh [runs-per-set (default 5, the least that is allowed)] [first seed (default 1)]
#
# Run it on an otherwise idle host; everything it writes goes to benchmark/out/.
set -euo pipefail

runs=${1:-5}
first=${2:-1}
if [ "$runs" -lt 5 ]; then
	echo "aa.sh: a set is at least 5 runs" >&2
	exit 2
fi
cd "$(dirname "$0")"
out=out
mkdir -p "$out"
go build -o "$out/benchmark.bin" .
seconds=$(python3 -c 'import json; print(json.load(open("../BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("../BENCHMARK.json"))["workloads"]))')
: >"$out/aa-A.jsonl"
: >"$out/aa-B.jsonl"
for i in $(seq 0 $((runs - 1))); do
	seed=$((first + i))
	for w in $workloads; do
		for set in A B; do
			echo "aa.sh: set $set run $((i + 1))/$runs $w seed $seed" >&2
			line=$("$out/benchmark.bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 2>/dev/null | tail -n 1)
			echo "{\"workload\":\"$w\",\"seed\":$seed,\"result\":$line}" >>"$out/aa-$set.jsonl"
		done
	done
done

python3 - "$out" <<'EOF'
import json, statistics, sys
out = sys.argv[1]
spec = json.load(open("../BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
sets = {}
for name in "AB":
    for line in open(f"{out}/aa-{name}.jsonl"):
        row = json.loads(line)
        if not row["result"]["correct"]:
            sys.exit(f"set {name}: {row['workload']} seed {row['seed']} failed its checks")
        for metric, m in row["result"]["metrics"].items():
            sets.setdefault((row["workload"], metric), {}).setdefault(name, []).append(m["value"])

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"{'workload':15} {'metric':20} {'median A':>12} {'median B':>12} {'gap':>7} {'iqr A':>7} {'iqr B':>7} {'bound':>6}")
bad = 0
for (workload, metric), ab in sorted(sets.items()):
    a, b = statistics.median(ab["A"]), statistics.median(ab["B"])
    gap = abs(a - b) / a
    sa, sb = spread(ab["A"]), spread(ab["B"])
    bound = bounds[metric]
    flag = ""
    if gap > bound or (metric != "setup_s" and max(sa, sb) > bound):
        flag, bad = "  <-- outside the bound", bad + 1
    print(f"{workload:15} {metric:20} {a:12.5f} {b:12.5f} {gap:7.2%} {sa:7.2%} {sb:7.2%} {bound:6.0%}{flag}")
sys.exit(1 if bad else 0)
EOF
