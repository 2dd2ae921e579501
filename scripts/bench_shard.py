#!/usr/bin/env python3
"""Run the shard_scale bench and commit its numbers to BENCH_shard.json.

Usage: python3 scripts/bench_shard.py

Runs `cargo bench -p pepc-bench --bench shard_scale`, parses the
`bench <name> <ns> ns/iter` lines, and writes BENCH_shard.json with, per
shard count (1, 2, 4, 8):

- aggregate ns/packet (max per-shard busy time over packets — the
  wall-clock the slowest shard imposes when each runs on its own core)
  and the aggregate Mpps it implies; each steer offers `burst` x shards
  packets, so every width's shards run `burst`-packet sub-bursts,
- scaling vs the 1-shard pipeline plus the perfect-scaling reference,
- per-stage (parse / lookup / enforce) ns/packet medians,
- steering imbalance (max/mean packets).

Exits non-zero when the pinned perf contract is violated:
- aggregate throughput must scale >= 3x from 1 to 4 shards,
- every per-stage median must stay within its ns/packet budget.
"""
import json
import re
import statistics
import subprocess
import sys

SHARD_COUNTS = [1, 2, 4, 8]
STAGES = ["parse", "lookup", "enforce"]
# 1 -> 4 shards must buy at least this much aggregate throughput.
MIN_SCALING_1_TO_4 = 3.0
# Per-stage ns/packet ceilings: ~3x the medians measured at commit time
# (parse 24-30, lookup 22-31, enforce 38-50 ns), so the gate trips on a
# real pipeline regression, not on a slower CI host.
STAGE_BUDGET_NS = {"parse": 100, "lookup": 120, "enforce": 160}
# Medians across whole-bench runs shed one-off scheduler outliers.
RUNS = 3


def bench_once():
    proc = subprocess.run(
        ["cargo", "bench", "-p", "pepc-bench", "--bench", "shard_scale"],
        capture_output=True,
        text=True,
        cwd=".",
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(proc.returncode)
    cases = {}
    for line in proc.stdout.splitlines():
        m = re.match(r"bench\s+(\S+)\s+([\d.]+)\s+ns/iter", line)
        if m:
            cases[m.group(1)] = float(m.group(2))
    return cases


def main():
    samples = {}
    for _ in range(RUNS):
        for name, ns in bench_once().items():
            samples.setdefault(name, []).append(ns)
    cases = {name: statistics.median(vals) for name, vals in samples.items()}

    results = {
        "bench": "shard_scale",
        "users": 10000,
        "burst": 64,
        "median_of_runs": RUNS,
        "stage_budget_ns": STAGE_BUDGET_NS,
        "shards": {},
    }
    for n in SHARD_COUNTS:
        name = f"shard_scale/aggregate/{n}"
        if name not in cases:
            sys.stderr.write(f"missing {name} in bench output\n")
            sys.exit(1)
        ns_pkt = cases[name]
        row = {
            "aggregate_ns_per_packet": round(ns_pkt, 2),
            "aggregate_mpps": round(1e3 / ns_pkt, 2),
            "stage_ns_per_packet": {},
            # max/mean steered packets; the bench prints it x1000.
            "imbalance": round(cases.get(f"shard_scale/imbalance/{n}", 0.0) / 1000.0, 3),
        }
        for stage in STAGES:
            sname = f"shard_scale/stage_{stage}/{n}"
            if sname not in cases:
                sys.stderr.write(f"missing {sname} in bench output\n")
                sys.exit(1)
            row["stage_ns_per_packet"][stage] = round(cases[sname], 1)
        results["shards"][str(n)] = row

    base = results["shards"]["1"]["aggregate_ns_per_packet"]
    for n in SHARD_COUNTS:
        row = results["shards"][str(n)]
        row["scaling_vs_1"] = round(base / row["aggregate_ns_per_packet"], 2)
        row["perfect_scaling"] = float(n)

    with open("BENCH_shard.json", "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    print(json.dumps(results, indent=2))

    failed = False
    scaling4 = results["shards"]["4"]["scaling_vs_1"]
    if scaling4 < MIN_SCALING_1_TO_4:
        sys.stderr.write(
            f"shard scaling regression: 4 shards only {scaling4}x the "
            f"1-shard pipeline (floor {MIN_SCALING_1_TO_4}x)\n"
        )
        failed = True
    for n in SHARD_COUNTS:
        for stage, budget in STAGE_BUDGET_NS.items():
            got = results["shards"][str(n)]["stage_ns_per_packet"][stage]
            if got > budget:
                sys.stderr.write(
                    f"stage budget exceeded at {n} shard(s): {stage} "
                    f"{got} ns/packet (budget {budget})\n"
                )
                failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
