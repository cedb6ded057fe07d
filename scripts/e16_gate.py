#!/usr/bin/env python3
"""Checks bench_e16_governor's report: the fast mix at 2 threads narrows no
block.

Two threads racing 4-arm blocks against 8 tokens never run short, since a
block returns its tokens at its verdict. The check holds only while the
budget stays at 8: when host CPU or memory pressure shrank it during the
row (its pressure_shrinks metric), the check is reported as skipped.

Usage: e16_gate.py BENCH_e16_governor.json   (exit 1 on a narrowed block)
"""
import json
import sys


def main(path):
    rows = json.load(open(path))["rows"]
    row = next(r for r in rows
               if r["name"] == "fast" and r["params"]["threads"] == 2)
    m = row["metrics"]
    narrowed = int(m["narrowed"])
    shrinks = int(m.get("pressure_shrinks", 0))
    print(f"fast mix, 2 threads: narrowed {narrowed}, "
          f"pressure shrinks {shrinks}")
    if shrinks > 0:
        print("skipped: host pressure shrank the token budget")
        return 0
    return 1 if narrowed > 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
