#!/usr/bin/env bash
# Agreement check: the same code, measured twice on different seeds, must
# agree with itself within the benchmark's own bounds.
#
#   bash benchmark/agree.sh [seed_a seed_b]
#
# Runs every workload end to end on seed_a and on seed_b (default 1 and 2),
# prints per metric x workload both values, their ratio and the bound from
# BENCHMARK.json, then runs every workload traced twice on seed_a and checks
# that every count metric repeats exactly. Exits non-zero on any breach, and
# prints the total wall time so the driver's time cap is visibly met.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
seed_a="${1:-1}"
seed_b="${2:-2}"
mkdir -p benchmark/out
tmp="$(mktemp -d benchmark/out/agree.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
start=$(date +%s)

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

run() { # <trace> <seed> <workload> <file>
    bash benchmark/run.sh --workload "$3" --seed "$2" --seconds "$seconds" --trace "$1" | tail -n 1 >"$4"
}

for w in $workloads; do
    run 0 "$seed_a" "$w" "$tmp/e2e-$w-a.json"
    run 0 "$seed_b" "$w" "$tmp/e2e-$w-b.json"
    run 1 "$seed_a" "$w" "$tmp/trace-$w-1.json"
    run 1 "$seed_a" "$w" "$tmp/trace-$w-2.json"
done

status=0
python3 - "$tmp" $workloads <<'PY' || status=$?
import json, sys
tmp, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
load = lambda name: json.load(open(f"{tmp}/{name}.json"))
breaches = 0
print(f"{'workload':<10} {'metric':<22} {'seed a':>14} {'seed b':>14} {'b/a':>8} {'bound':>6}")
for w in workloads:
    a, b = load(f"e2e-{w}-a"), load(f"e2e-{w}-b")
    for run in (a, b):
        if not run["correct"] or run["failed"]:
            print(f"{w}: {run['failed']} of {run['attempted']} operations failed")
            breaches += 1
    for m in spec["end_to_end"]:
        va, vb = a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
        ratio = vb / va
        worse = max(ratio, 1 / ratio) - 1
        flag = "" if worse <= m["bound"] else "  BREACH"
        breaches += bool(flag)
        print(f"{w:<10} {m['name']:<22} {va:>14.4f} {vb:>14.4f} {ratio:>8.4f} {m['bound']:>6.2f}{flag}")
print()
for w in workloads:
    one, two = load(f"trace-{w}-1"), load(f"trace-{w}-2")
    names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count" and not m["name"].endswith(("_per_pkt", "_per_msg"))]
    differ = [n for n in names if one["metrics"][n]["value"] != two["metrics"][n]["value"]]
    breaches += len(differ)
    print(f"{w:<10} {len(names)} counts, same seed twice: " + ("identical" if not differ else f"DIFFER {differ}"))
sys.exit(1 if breaches else 0)
PY
echo "total wall time: $(( $(date +%s) - start )) s for $(( 4 * $(echo $workloads | wc -w) )) runs"
exit "$status"
