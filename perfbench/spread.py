"""Spread of the end-to-end metrics over runs, per workload.

    python3 perfbench/spread.py perfbench/out/*-trace0.json

Reads the record files that ``run.py`` writes and prints, for each workload
and metric, the median over the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of that
median: the spread that the bounds in ``BENCHMARK.json`` are set against.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def main(paths: list[str]) -> int:
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, metric in record["result"]["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    for workload, metrics in sorted(values.items()):
        for name, runs in metrics.items():
            median = statistics.median(runs)
            q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            print(f"{workload:10s} {name:18s} runs {len(runs):3d}  median {median:12.6g}  iqr/median {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
