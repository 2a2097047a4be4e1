"""Compare two result files written by ``run.py``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric: both medians with their
quartiles over the trials, the ratio B/A, the bound from
``BENCHMARK.json`` and a verdict.  ``worse`` means B's median is worse
than A's by more than the bound; ``unresolved`` means the spread between
trials (quartile distance over median, on either side) is itself wider
than the bound, so the files cannot tell.  Per-layer counts that differ
are listed after the table.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def summarise(values: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartile of one metric's per-trial values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines for two loaded result files, and whether any
    end-to-end metric got worse."""
    lines = [f"{'workload/metric':<26} {'A median [q1, q3]':>34} "
             f"{'B median [q1, q3]':>34} {'B/A':>7} {'bound':>6}  verdict"]
    any_worse = False
    count_diffs = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        work_a, work_b = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            med_a, q1_a, q3_a = summarise([t[key] for t in work_a["trials"]])
            med_b, q1_b, q3_b = summarise([t[key] for t in work_b["trials"]])
            ratio = med_b / med_a
            worsening = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
            if spread > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "ok"
            lines.append(
                f"{name + '/' + key:<26} "
                f"{med_a:>12.5g} [{q1_a:>8.5g}, {q3_a:>8.5g}] "
                f"{med_b:>12.5g} [{q1_b:>8.5g}, {q3_b:>8.5g}] "
                f"{ratio:>7.3f} {bound:>6.0%}  {verdict}"
            )
        layers_a = work_a.get("per_layer", {})
        layers_b = work_b.get("per_layer", {})
        for metric in spec["per_layer"]:
            key = metric["name"]
            if (metric["unit"] == "count" and key in layers_a
                    and key in layers_b and layers_a[key] != layers_b[key]):
                count_diffs.append(
                    f"{name}/{key}: A={layers_a[key]:g} B={layers_b[key]:g}"
                )
    lines.append("per-layer counts that differ: "
                 + ("none" if not count_diffs else ""))
    lines += [f"  {diff}" for diff in count_diffs]
    return lines, any_worse


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = []
    for path in paths:
        with open(path) as handle:
            loaded.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    print(f"A = {paths[0]} (seed {loaded[0]['seed']}, commit "
          f"{loaded[0]['host']['git_commit']})")
    print(f"B = {paths[1]} (seed {loaded[1]['seed']}, commit "
          f"{loaded[1]['host']['git_commit']})")
    lines, any_worse = compare(loaded[0], loaded[1], spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
