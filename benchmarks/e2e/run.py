"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke] [--out FILE]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs; without
``--trace`` both the untraced trials (end-to-end metrics) and the traced
trial (per-layer metrics) run.  Each metric is printed with its unit;
with one workload and one ``--trace`` value the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``.

A workload's run is TRIALS fresh child interpreters (``trial.py``), one
at a time, each with the BLAS thread pools pinned to one thread; every
end-to-end metric is the median over the trials of the per-trial
statistic.  See README.md for why the run has this shape.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ARTIFACTS = ROOT / "bench-artifacts" / "e2e"

TRIALS = 5
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150

#: Set before the child imports NumPy.  Only the BLAS pool is pinned:
#: the engine's own executor and intra-op threads stay at their defaults
#: and are part of what is measured; pinned, the two no longer
#: oversubscribe the cores.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, **options) -> dict:
    """One ``trial.py`` process; returns the JSON object it printed."""
    command = [sys.executable, str(HERE / "trial.py"),
               "--workload", workload, "--seed", str(seed)]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        command += [flag] if value is True else [flag, str(value)]
    child = subprocess.Popen(
        command, cwd=ROOT, env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The child leads its own process group, workers included.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{workload}: trial timed out")
    if child.returncode != 0:
        raise SystemExit(f"{workload}: trial exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def trial_statistics(trial: dict) -> dict:
    """The per-trial value of every end-to-end metric."""
    durations = trial["durations"]
    return {
        "setup_s": trial["setup_s"],
        "op_p50_s": statistics.median(durations),
        "op_p90_s": statistics.quantiles(durations, n=10,
                                         method="inclusive")[8],
        "ops_per_s": len(durations) / trial["timed_wall_s"],
        "peak_rss_mb": trial["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: float, smoke: bool,
                 traces: set[int]) -> dict:
    """Run one workload's trials; returns its raw and summarised results.

    ``--smoke`` is one traced child on tiny inputs whose untraced section
    also stands in for the trials.
    """
    timing = ({"smoke": True, "budget": 0, "min_ops": 3, "warmups": 0}
              if smoke else {"budget": seconds / TRIALS})
    traced_options = {
        **timing, "traced": 1, "mode_ops": 1 if smoke else 5,
        "trace_out": ARTIFACTS / f"trace-{name}-seed{seed}.json",
    }
    children: list[dict] = []
    result: dict = {"name": name}
    if smoke:
        children.append(run_child(name, seed, **traced_options))
        trials = children
    else:
        # Untimed: compiles .pyc files and warms the page cache, so a
        # fresh checkout does not make trial 1 the slow one.
        run_child(name, seed, smoke=True, budget=0, min_ops=1, warmups=0)
        trials = [run_child(name, seed, **timing)
                  for _ in range(TRIALS if 0 in traces else 0)]
        children += trials
        if 1 in traces:
            children.append(run_child(name, seed, **traced_options))
    if trials:
        per_trial = [trial_statistics(t) for t in trials]
        result["trials"] = per_trial
        result["end_to_end"] = {
            metric: statistics.median(t[metric] for t in per_trial)
            for metric in per_trial[0]
        }
        result["n"] = sum(len(t["durations"]) for t in trials)
    if 1 in traces:
        result["per_layer"] = children[-1]["per_layer"]
    result["size"] = children[0]["size"]
    result["attempted"] = sum(c["attempted"] for c in children)
    result["failed"] = sum(c["failed"] for c in children)
    result["libraries"] = children[0]["host"]
    return result


def host_facts(libraries: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **libraries,
        "child_env": CHILD_ENV,
        "git_commit": commit,
    }


def print_metrics(result: dict, spec: dict) -> None:
    name = result["name"]
    print(f"== {name}  size={result['size']}  attempted={result['attempted']}"
          f"  failed={result['failed']}  timed_ops={result.get('n', 0)}")
    for section in ("end_to_end", "per_layer"):
        values = result.get(section)
        if values is None:
            continue
        for metric in spec[section]:
            print(f"{name}/{metric['name']:<34} "
                  f"{values[metric['name']]:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per run, split over the trials")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one trial, three ops")
    parser.add_argument("--out", type=Path,
                        help="write the raw results here (default, when "
                        "every workload runs: bench-artifacts/e2e/"
                        "results-seed<N>.json)")
    args = parser.parse_args(argv)

    traces = {0, 1} if args.trace is None or args.smoke else {args.trace}
    selected = [args.workload] if args.workload else names
    # Timed runs go one at a time; a smoke run times nothing worth
    # keeping, so its children may share the cores.
    results = {}
    with ThreadPoolExecutor(os.cpu_count() if args.smoke else 1) as pool:
        for result in pool.map(
            lambda name: run_workload(name, args.seed, args.seconds,
                                      args.smoke, traces),
            selected,
        ):
            results[result["name"]] = result
            print_metrics(result, spec)

    out = args.out
    if out is None and not args.workload:
        out = ARTIFACTS / f"results-seed{args.seed}.json"
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        libraries = [r.pop("libraries") for r in results.values()][0]
        with open(out, "w") as handle:
            json.dump({
                "claim": None, "seed": args.seed, "seconds": args.seconds,
                "smoke": args.smoke, "trials": TRIALS,
                "host": host_facts(libraries), "workloads": results,
            }, handle, indent=1)
        print(f"results written to {out}")

    if args.workload and args.trace is not None:
        result = results[args.workload]
        section = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric["name"]: {"value": result[section][metric["name"]],
                                 "unit": metric["unit"]}
                for metric in spec[section]
            },
        }))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
