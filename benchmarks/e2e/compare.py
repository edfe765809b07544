"""Compare two sets of end-to-end benchmark runs, or summarize one.

    python3 benchmarks/e2e/compare.py parent.jsonl change.jsonl
    python3 benchmarks/e2e/compare.py runs.jsonl          # one set

Inputs are the JSONL files ``run.py --out`` appends to. For each
(workload, metric) the table gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the bound from BENCHMARK.json and
a verdict, by the rules of the choosing-metrics method:

* ``better``: the change wins at least 9 of 10 run pairs (runs pair up in
  file order; ties count for neither) and the medians differ by more than
  the parent's own quartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median); for a metric without a
  bound, the gain rule in the other direction;
* ``unresolved``: either side's spread, (q3 - q1) / median, exceeds the
  bound, unless every run of the change reads better than every run of
  the parent;
* ``same``: none of the above.

With one file the table shows the spread of each metric against its
bound. The exit code is 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values in file order."""
    runs: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                runs[(record["workload"], name)].append(metric["value"])
    return runs


def load_metrics(spec_path: Path) -> Dict[str, dict]:
    spec = json.loads(spec_path.read_text())
    return {entry["name"]: entry
            for entry in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> Optional[float]:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else None


def _gain(parent: Sequence[float], change: Sequence[float],
          lower: bool) -> bool:
    """The change wins >= 90% of pairs and the medians differ by more
    than the parent's quartile distance."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    moved = (p_med - c_med) if lower else (c_med - p_med)
    return bool(pairs) and wins >= 0.9 * len(pairs) and moved > q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: Optional[float]) -> str:
    lower = better == "lower"
    if _gain(parent, change, lower):
        return "better"
    if bound is None:
        return "worse" if _gain(parent, change, not lower) else "same"
    p_med, c_med = quartiles(parent)[1], quartiles(change)[1]
    worsened = (c_med - p_med) if lower else (p_med - c_med)
    if p_med and worsened / abs(p_med) > bound:
        return "worse"
    wide = any(s is not None and s > bound
               for s in (spread(parent), spread(change)))
    all_better = all((c < p) if lower else (c > p)
                     for p in parent for c in change)
    if wide and not all_better:
        return "unresolved"
    return "same"


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark run sets (see module docstring)")
    parser.add_argument("runs", nargs="+", type=Path,
                        help="one file to summarize, or parent then change")
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    if len(args.runs) > 2:
        parser.error("give one or two run files")
    metrics = load_metrics(args.bench)
    sides = [load_runs(path) for path in args.runs]
    keys = sorted(set.intersection(*(set(side) for side in sides)),
                  key=lambda key: (key[0], list(metrics).index(key[1])
                                   if key[1] in metrics else len(metrics),
                                   key[1]))
    flagged = 0
    if len(sides) == 1:
        print(f"{'workload':<12} {'metric':<26} {'n':>3} "
              f"{'median [q1, q3]':<32} {'spread':>7} {'bound':>6}")
        for key in keys:
            values = sides[0][key]
            bound = metrics.get(key[1], {}).get("bound")
            s = spread(values)
            mark = ""
            if bound is not None and s is not None and s > bound:
                mark, flagged = "  > bound", flagged + 1
            print(f"{key[0]:<12} {key[1]:<26} {len(values):>3} "
                  f"{_fmt(values):<32} "
                  f"{'-' if s is None else f'{s:.3f}':>7} "
                  f"{'-' if bound is None else bound:>6}{mark}")
        return 1 if flagged else 0
    print(f"{'workload':<12} {'metric':<26} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'bound':>6}  verdict")
    for key in keys:
        entry = metrics.get(key[1], {"better": "lower"})
        parent, change = sides[0][key], sides[1][key]
        result = verdict(parent, change, entry["better"], entry.get("bound"))
        if result in ("worse", "unresolved"):
            flagged += 1
        bound = entry.get("bound")
        print(f"{key[0]:<12} {key[1]:<26} {_fmt(parent):<32} "
              f"{_fmt(change):<32} {'-' if bound is None else bound:>6}  "
              f"{result}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
