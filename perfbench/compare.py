"""Compare two record files written by ``run.py --record``.

    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds one JSON line per run, usually several seeds per workload.
For every workload and metric found in both files this prints each side's
median and first and third quartiles over its runs, and the change of the
medians relative to the base.  End-to-end metrics registered in
BENCHMARK.json are marked ``WORSE`` when the change's median is worse than
the base median by more than the registered bound, and ``unresolved`` when
the base's own quartile spread is wider than that bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> tuple[dict, dict]:
    """(workload, trace, metric) -> values, and metric -> unit."""
    values: dict[tuple, list[float]] = {}
    units: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, (value, unit) in {**rec["metrics"], **rec["extra"]}.items():
                if value is None:
                    continue
                values.setdefault((rec["workload"], rec["trace"], name), []).append(float(value))
                units[name] = unit
    return values, units


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def bounds() -> dict[str, dict]:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return {m["name"]: m for m in json.load(fh)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def verdict(spec: dict | None, base: list[float], change: list[float]) -> str:
    if spec is None:
        return ""
    q1, med, q3 = quartiles(base)
    if med == 0:
        return ""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse = sign * (statistics.median(change) - med) / abs(med)
    if worse > spec["bound"]:
        return "WORSE"
    if (q3 - q1) / abs(med) > spec["bound"]:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    base, units = load(args.base)
    change, more_units = load(args.change)
    units.update(more_units)
    specs = bounds()
    print(f"{'workload':10s} {'metric':36s} {'unit':6s} "
          f"{'base median [q1, q3] n':>36s} {'change median [q1, q3] n':>36s} {'delta':>8s}")
    for key in sorted(set(base) & set(change)):
        workload, trace, name = key
        a, b = base[key], change[key]
        cols = []
        for vals in (a, b):
            q1, med, q3 = quartiles(vals)
            cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {len(vals)}")
        med_a = statistics.median(a)
        delta = f"{(statistics.median(b) - med_a) / abs(med_a):+.2%}" if med_a else "n/a"
        spec = specs.get(name) if not trace else None
        print(f"{workload:10s} {name:36s} {units[name]:6s} {cols[0]:>36s} {cols[1]:>36s} "
              f"{delta:>8s} {verdict(spec, a, b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
