#!/usr/bin/env python3
"""Run the shard_scale bench and commit its numbers to BENCH_shard.json.

Usage: python3 scripts/bench_shard.py

Runs `cargo bench -p pepc-bench --bench shard_scale`, parses the
`bench <name> <ns> ns/iter` lines, and writes BENCH_shard.json with, per
node slice count (1, 2, 4, 8):

- per-slice ns/packet (summed slice busy time over packets, measured on
  one thread; each slice runs `burst`-packet bursts at every width),
- per-stage (parse / lookup / enforce) ns/packet medians,
- imbalance (max/mean packets per slice).

Exits non-zero when the pinned perf contract is violated:
- every width's per-slice ns/packet must stay within 3x the point
  committed in BENCH_shard.json before this run,
- every per-stage median must stay within its ns/packet budget.
"""
import json
import re
import statistics
import subprocess
import sys

SLICE_COUNTS = [1, 2, 4, 8]
STAGES = ["parse", "lookup", "enforce"]
# Headroom over the committed point, for the per-slice figure and for
# the stage budgets alike, so the gate trips on a real pipeline
# regression, not on a slower CI host.
HEADROOM = 3.0
# Per-stage ns/packet ceilings: ~3x the medians measured at commit time.
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


def committed_points():
    """Per-slice ns/packet by width from the committed file, if any."""
    try:
        with open("BENCH_shard.json") as f:
            old = json.load(f)
    except (OSError, ValueError):
        return {}
    return {n: row["slice_ns_per_packet"] for n, row in old.get("slices", {}).items() if "slice_ns_per_packet" in row}


def main():
    previous = committed_points()
    samples = {}
    for _ in range(RUNS):
        for name, ns in bench_once().items():
            samples.setdefault(name, []).append(ns)
    cases = {name: statistics.median(vals) for name, vals in samples.items()}

    def case(name):
        if name not in cases:
            sys.stderr.write(f"missing {name} in bench output\n")
            sys.exit(1)
        return cases[name]

    results = {
        "bench": "shard_scale",
        "users": 10000,
        "burst": 64,
        "median_of_runs": RUNS,
        "stage_budget_ns": STAGE_BUDGET_NS,
        "slices": {},
    }
    for n in SLICE_COUNTS:
        results["slices"][str(n)] = {
            "slice_ns_per_packet": round(case(f"shard_scale/slice/{n}"), 2),
            "stage_ns_per_packet": {s: round(case(f"shard_scale/stage_{s}/{n}"), 1) for s in STAGES},
            # max/mean packets per slice; the bench prints it x1000.
            "imbalance": round(case(f"shard_scale/imbalance/{n}") / 1000.0, 3),
        }

    with open("BENCH_shard.json", "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    print(json.dumps(results, indent=2))

    failed = False
    for n in SLICE_COUNTS:
        row = results["slices"][str(n)]
        was = previous.get(str(n))
        if was is not None and row["slice_ns_per_packet"] > HEADROOM * was:
            sys.stderr.write(
                f"per-slice regression at {n} slice(s): {row['slice_ns_per_packet']} "
                f"ns/packet (committed {was}, ceiling {HEADROOM}x)\n"
            )
            failed = True
        for stage, budget in STAGE_BUDGET_NS.items():
            got = row["stage_ns_per_packet"][stage]
            if got > budget:
                sys.stderr.write(
                    f"stage budget exceeded at {n} slice(s): {stage} "
                    f"{got} ns/packet (budget {budget})\n"
                )
                failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
