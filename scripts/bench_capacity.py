#!/usr/bin/env python3
"""Run the capacity bench and commit its numbers to BENCH_capacity.json.

Usage: python3 scripts/bench_capacity.py

Runs `cargo bench -p pepc-bench --bench capacity`, parses the
`bench <name> <ns> ns/iter` lines, and writes BENCH_capacity.json with,
per milestone population (default 1M / 5M / 10M, override with
CAPACITY_SCALES=a,b,c — CI runs a reduced curve, the committed file is
a full-scale dev-box run):

- process RSS and the RSS delta per user over the pre-population
  baseline (measurement buffers are allocated before the baseline, so
  the delta is state, not harness),
- the arena's own audit: slab bytes, table bytes, and state bytes per
  user ((slab + tables) / users),
- per-packet pipeline cost against uniformly random users (the fig5
  lookup-scaling curve extended past the paper's populations),
- attach latency p99 over the ramp segment (which contains every
  incremental table-growth round) vs a steady window of equal-work
  attaches at constant occupancy, plus the single worst ramp attach.

Exits non-zero when the capacity contract is violated:
- state bytes per user above budget at any milestone (the slab +
  incremental tables must hold their density as the population grows),
- ramp attach p99 above 5x steady attach p99 at any milestone (growth
  must be incremental: a stop-the-world rehash parks a users-sized
  stall in the ramp, visible orders of magnitude before this gate),
- the ns/packet curve collapsing (forwarding must stay flat-ish in
  users: the fig5 claim this extends).
"""
import json
import os
import re
import statistics
import subprocess
import sys

SCALES = [int(s) for s in os.environ.get("CAPACITY_SCALES", "1000000,5000000,10000000").split(",")]
METRICS = [
    "users",
    "rss_bytes",
    "rss_delta_per_user",
    "slab_bytes",
    "table_bytes",
    "state_bytes_per_user",
    "pkt_ns",
    "attach_ramp_p99_ns",
    "attach_ramp_max_ns",
    "attach_steady_p99_ns",
]
# Slab slot + index entries, with growth headroom. A slab slot is 164 B
# (128 B UeContext + 32 B identity entry + its generation word); a native
# user takes no data-index entry, a foreign one two 16 B buckets at
# post-doubling load. The budget leaves room for load-factor phase, not
# for a per-user regression (an Arc + Box per user blows straight
# through it).
MAX_STATE_BYTES_PER_USER = 640
# Incremental growth: attaches that land during a table-growth round
# must stay within this multiple of steady-state attach p99.
MAX_RAMP_P99_OVER_STEADY = 5.0
# ns/packet from the smallest to the largest milestone may grow with
# cache footprint, but must not collapse (fig5's flat-ish claim).
MAX_PKT_NS_GROWTH = 4.0
# Whole-bench runs; medians per metric. The ramp is 10M timed attaches,
# so even one run has enormous sample depth — keep CI wall-clock sane.
RUNS = 2


def bench_once():
    proc = subprocess.run(
        ["cargo", "bench", "-p", "pepc-bench", "--bench", "capacity"],
        capture_output=True,
        text=True,
        cwd=".",
        env={**os.environ, "CAPACITY_SCALES": ",".join(str(s) for s in SCALES)},
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


def label(n):
    if n % 1_000_000 == 0:
        return f"{n // 1_000_000}M"
    if n % 1_000 == 0:
        return f"{n // 1_000}k"
    return str(n)


def main():
    samples = {}
    for _ in range(RUNS):
        for name, ns in bench_once().items():
            samples.setdefault(name, []).append(ns)
    cases = {name: statistics.median(vals) for name, vals in samples.items()}

    results = {
        "bench": "capacity",
        "scales": SCALES,
        "median_of_runs": RUNS,
        "max_state_bytes_per_user": MAX_STATE_BYTES_PER_USER,
        "milestones": {},
    }
    for n in SCALES:
        row = {}
        for metric in METRICS:
            name = f"capacity/{metric}/{n}"
            if name not in cases:
                sys.stderr.write(f"missing {name} in bench output\n")
                sys.exit(1)
            row[metric] = round(cases[name], 1)
        results["milestones"][label(n)] = row

    with open("BENCH_capacity.json", "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    print(json.dumps(results, indent=2))

    failed = False
    for n in SCALES:
        row = results["milestones"][label(n)]
        bpu = row["state_bytes_per_user"]
        if bpu > MAX_STATE_BYTES_PER_USER:
            sys.stderr.write(
                f"state density regression at {label(n)}: {bpu} bytes/user "
                f"(budget {MAX_STATE_BYTES_PER_USER})\n"
            )
            failed = True
        ramp, steady = row["attach_ramp_p99_ns"], row["attach_steady_p99_ns"]
        if ramp > MAX_RAMP_P99_OVER_STEADY * steady:
            sys.stderr.write(
                f"growth spike at {label(n)}: ramp attach p99 {ramp} ns vs steady "
                f"{steady} ns (ceiling {MAX_RAMP_P99_OVER_STEADY}x) — table growth "
                f"is no longer incremental\n"
            )
            failed = True
    first, last = results["milestones"][label(SCALES[0])], results["milestones"][label(SCALES[-1])]
    if last["pkt_ns"] > MAX_PKT_NS_GROWTH * first["pkt_ns"]:
        sys.stderr.write(
            f"lookup scaling collapsed: {last['pkt_ns']} ns/packet at {label(SCALES[-1])} vs "
            f"{first['pkt_ns']} at {label(SCALES[0])} (ceiling {MAX_PKT_NS_GROWTH}x)\n"
        )
        failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
