#!/usr/bin/env python3
"""Diffs two sets of benchmark captures, layer by layer.

    python3 perfbench/compare.py --base A1.json A2.json A3.json \\
                                 --head B1.json B2.json B3.json

Each file is a capture that perfbench/run.py writes under
.bench_build/captures/ (one per run; --trace 1 captures hold the
per-layer metrics). Give several captures per side, one per seed, made with
the same workload, run length and trace setting.

For every metric both sides report, the tool prints the base median with
its quartiles, the head median and the relative shift, grouped by layer
(the metric-name prefix before the first dot; end-to-end metrics have
none). A shift is flagged with '*' when it is wider than the base side's
own quartile spread (Q3 - Q1), so a saving or a slowdown shows in the layer
where it happened. With a single base capture the spread is 0 and every
change is flagged.
"""

import argparse
import json
import statistics
import sys


def load(paths):
    """Returns (meta of the first capture, {metric: [values]}, {metric: unit})."""
    values, units, meta = {}, {}, None
    for path in paths:
        with open(path, encoding="utf-8") as f:
            cap = json.load(f)
        if meta is None:
            meta = cap.get("meta", {})
        for name, m in cap["metrics"].items():
            values.setdefault(name, []).append(float(m["value"]))
            units[name] = m.get("unit", "")
    return meta or {}, values, units


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def layer_of(name):
    return name.split(".", 1)[0] if "." in name else "end_to_end"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="captures of the parent commit")
    parser.add_argument("--head", nargs="+", required=True,
                        help="captures of the change")
    args = parser.parse_args()

    base_meta, base, units = load(args.base)
    head_meta, head, _ = load(args.head)
    for key in ("workload", "seconds", "trace", "fanout_threads", "rows",
                "topology", "backend"):
        if base_meta.get(key) != head_meta.get(key):
            print(f"warning: {key} differs: base {base_meta.get(key)!r}, "
                  f"head {head_meta.get(key)!r}", file=sys.stderr)
    print(f"workload {base_meta.get('workload')}: "
          f"base {base_meta.get('commit')} x{len(args.base)}, "
          f"head {head_meta.get('commit')} x{len(args.head)}")

    names = [n for n in base if n in head]
    flagged = 0
    for layer in sorted({layer_of(n) for n in names}):
        print(f"\n[{layer}]")
        for name in (n for n in names if layer_of(n) == layer):
            q1, med, q3 = quartiles(base[name])
            new = statistics.median(head[name])
            shift = new - med
            rel = f"{100 * shift / med:+8.2f}%" if med else "     n/a"
            wide = abs(shift) > (q3 - q1)
            flagged += wide
            print(f" {'*' if wide else ' '} {name:40s} {med:14.4f} "
                  f"[{q1:.4f}, {q3:.4f}] -> {new:14.4f} {rel} "
                  f"{units.get(name, '')}")
    only = sorted(set(base) ^ set(head))
    if only:
        print("\nreported by one side only: " + ", ".join(only))
    print(f"\n{flagged} of {len(names)} metrics shifted by more than the "
          "base quartile spread")
    return 0


if __name__ == "__main__":
    sys.exit(main())
