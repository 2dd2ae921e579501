#!/usr/bin/env python3
"""Refresh EXPERIMENTS.md's measured blocks from a `figures` output file.

Usage: python3 scripts/fill_experiments.py [figures_quick.txt]

Each measured block sits right after a `<!-- figures:KEY -->` line, and
only those blocks are rewritten, so the script can be re-run after any
run. KEY is a figure number or `ablation` (the rows under that title in
the output; for 4, the measured columns of the table), or `storm` /
`capacity` (from BENCH_storm.json / BENCH_capacity.json, written by
scripts/bench_storm.py / bench_capacity.py). A block whose source is
absent is left as it was.
"""
import json
import os
import re
import sys

MARKER = re.compile(r"<!-- figures:(\w+) -->")
TITLE = re.compile(r"(?:Figure (\d+)|(Ablation)) — ")


def sections(text):
    """Figure number (or 'ablation') -> the lines after its title line."""
    out, key = {}, None
    for line in text.splitlines():
        m = TITLE.match(line)
        if m:
            key = m.group(1) or "ablation"
            out[key] = []
        elif key is not None:
            out[key].append(line)
    return {k: "\n".join(v).strip("\n").splitlines() for k, v in out.items()}


def fig4_table(table, rows):
    """Rewrite the measured Mpps and ratio columns of the Fig 4 table."""
    mpps = {m[1]: float(m[2]) for m in (re.match(r"(\S+)\s+\d+\s+\d+\s+([\d.]+)$", r) for r in rows) if m}
    out = []
    for line in table:
        cells = line.split("|")
        if len(cells) == 7 and cells[1].strip() in mpps:
            name = cells[1].strip()
            cells[3] = f" {mpps[name]:.2f} "
            cells[5] = " 1× " if name == "PEPC" else f" {mpps['PEPC'] / mpps[name]:.1f}× "
        out.append("|".join(cells))
    return out


def storm_rows():
    data = json.load(open("BENCH_storm.json"))
    lines = ["admission    offered    goodput %    steady p99 (ms)       shed"]
    for mode, label in [("none", "off"), ("admission", "on")]:
        for mult, row in data["modes"][mode].items():
            lines.append(
                f"{label:<12} {mult:>7} {row['goodput_pct']:>12.1f} "
                f"{row['steady_p99_ms']:>18.1f} {int(row['shed']):>10}"
            )
    return lines


def capacity_rows():
    data = json.load(open("BENCH_capacity.json"))
    lines = ["users    RSS (MB)    state B/user    ns/packet    attach p99 ramp/steady (ns)"]
    for label, row in data["milestones"].items():
        lines.append(
            f"{label:<8} {row['rss_bytes'] / 1e6:>11.0f} {row['state_bytes_per_user']:>15.0f} "
            f"{row['pkt_ns']:>12.1f} {int(row['attach_ramp_p99_ns']):>14} / {int(row['attach_steady_p99_ns'])}"
        )
    return lines


def main(path):
    fills = {k: (lambda old, r=r: fig4_table(old, r)) if k == "4" else (lambda _, r=r: r)
             for k, r in sections(open(path).read()).items()}
    for key, rows in [("storm", storm_rows), ("capacity", capacity_rows)]:
        if os.path.exists(f"BENCH_{key}.json"):
            fills[key] = lambda _, rows=rows: rows()
    lines, out, i = open("EXPERIMENTS.md").read().split("\n"), [], 0
    while i < len(lines):
        out.append(lines[i])
        m = MARKER.fullmatch(lines[i].strip())
        i += 1
        if m and m[1] in fills:
            fence = lines[i].startswith("```")
            end = lines.index("```", i + 1) if fence else i
            while not fence and end < len(lines) and lines[end].startswith("|"):
                end += 1
            new = fills[m[1]](lines[i + fence : end])
            out += [lines[i], *new, "```"] if fence else new
            i = end + fence
    open("EXPERIMENTS.md", "w").write("\n".join(out))
    print("EXPERIMENTS.md refreshed from", path)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "figures_quick.txt")
