"""One trial of one workload, in its own interpreter.

The runner (``run.py``) starts this file as a fresh child process with
the BLAS thread pools pinned to one thread, and reads one JSON object
from the last line of its standard output.  A trial is

    generate inputs and the reference answer (untimed)
    -> set-up: ``import repro``, open the session, first op   (setup_s)
    -> warm-up ops -> gc.collect(); gc.freeze()
    -> timed ops, one after the other, until the budget is used

and, with ``--traced 1``, in the same process afterwards: the layer
wrappers of ``tracing.py`` go in, a second timed section runs under
them, and then a few ops run under each of the paper's other engine
modes.  Traced and untraced ops share a process because the op time
shifts by several percent from one process to the next, which would
swamp the tracing overhead the two are compared for.

Every op's result is checked: the first against the NumPy reference,
each later one against the first, bit for bit.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from benchmarks.e2e.workloads import MODES, WORKLOADS  # noqa: E402

_SHM_DIR = Path("/dev/shm")

#: ``engine.stats`` fields behind the per-op counts, by metric name.
STAT_COUNTS = {
    "codegen.partitions": "n_partitions",
    "codegen.plans_evaluated": "n_plans_evaluated",
    "codegen.plans_skipped": "n_plans_skipped",
    "codegen.cplans_constructed": "n_cplans_constructed",
    "codegen.plan_cache_lookups": "plan_cache_lookups",
    "codegen.classes_compiled": "n_classes_compiled",
    "codegen.source_cache_hits": "n_source_cache_hits",
    "compiler.programs_compiled": "n_programs_compiled",
    "compiler.instructions_lowered": "n_instructions_lowered",
    "compiler.recompiles": "n_recompiles",
    "runtime.instructions_executed": "n_instructions_executed",
    "runtime.intermediates": "n_intermediates",
    "runtime.compiled_runs": "n_compiled_runs",
    "runtime.interpreted_runs": "n_interpreted_runs",
    "runtime.kernel_failures": "n_kernel_failures",
    "runtime.format_conversions": "n_format_conversions",
    "runtime.dist_ops": "n_distributed_ops",
    "runtime.mp_tasks": "n_mp_tasks",
    "runtime.mp_block_ships": "n_mp_block_ships",
    "runtime.mp_task_retries": "n_task_retries",
    "runtime.tree_reduces": "n_tree_reduces",
    "runtime.collects": "n_collects",
}


class OpRunner:
    """Runs, times and checks ops; counts attempts and failures."""

    def __init__(self, expected):
        self.expected = expected  # (loss, model) from the reference
        self.first = None
        self.attempted = 0
        self.failed = 0

    def run(self, session, exact: bool = True) -> float:
        """One op; returns its wall time.  ``exact=False`` checks against
        the reference only (other engine modes round differently)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = session.op()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - start
        duration = time.perf_counter() - start
        if not exact or self.first is None:
            ok = _close(result, self.expected)
            if exact and ok:
                self.first = result
        else:
            ok = _identical(result, self.first)
        self.failed += not ok
        return duration

    def timed_section(self, session, budget: float, min_ops: int,
                      before_op=None) -> tuple[list[float], float]:
        """Closed loop, one client: ops back to back until ``budget``
        seconds have passed and ``min_ops`` ops have run."""
        durations: list[float] = []
        start = time.perf_counter()
        while (len(durations) < min_ops
               or time.perf_counter() - start < budget):
            if before_op is not None:
                before_op(len(durations))
            durations.append(self.run(session))
        return durations, time.perf_counter() - start


def _close(result, expected) -> bool:
    loss, model = result
    want_loss, want_model = expected
    if not np.isclose(loss, want_loss, rtol=1e-6, atol=0.0):
        return False
    return model.keys() == want_model.keys() and all(
        got.shape == want_model[name].shape
        and np.allclose(got, want_model[name], rtol=1e-6,
                        atol=1e-9 * np.abs(want_model[name]).max())
        for name, got in model.items()
    )


def _identical(result, first) -> bool:
    return result[0] == first[0] and all(
        np.array_equal(got, first[1][name]) for name, got in result[1].items()
    )


def _shm_segments() -> set[str]:
    return set(os.listdir(_SHM_DIR)) if _SHM_DIR.is_dir() else set()


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for
    child (the worker processes, once the pool is shut down)."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _host_libraries() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _mode_comparison(workload, inputs, runner, n_ops: int) -> dict:
    """Median op time under each of the paper's other engine modes."""
    medians = {}
    for mode in MODES:
        if mode == "gen":
            continue
        session = workload.open(inputs, mode)
        try:
            runner.run(session, exact=False)  # compiles, ships blocks
            medians[mode] = statistics.median(
                runner.run(session, exact=False) for _ in range(n_ops)
            )
        finally:
            session.close()
    return medians


def _traced_section(session, runner, args, untraced_p50) -> dict:
    from benchmarks.e2e.tracing import SpanTracer

    tracer = SpanTracer()
    tracer.install()

    def before_op(op_id):
        tracer.op_id = op_id

    before = session.stats_totals()
    durations, _ = runner.timed_section(session, args.budget, args.min_ops,
                                        before_op)
    after = session.stats_totals()
    n_ops = len(durations)
    op_mean = sum(durations) / n_ops

    def per_op(field):
        return (after[field] - before[field]) / n_ops

    out = tracer.summarize(durations)
    out.update({metric: per_op(field)
                for metric, field in STAT_COUNTS.items()})
    out["codegen.plan_cache_hit_ratio"] = (
        per_op("plan_cache_hits") / max(per_op("plan_cache_lookups"), 1.0)
    )
    out["runtime.mp_locality_hit_ratio"] = (
        per_op("n_mp_locality_hits") / max(per_op("n_mp_tasks"), 1.0)
    )
    out["runtime.bytes_written_mb"] = per_op("bytes_written") / 1e6
    out["runtime.mp_shm_mb"] = per_op("mp_shm_bytes") / 1e6
    out["runtime.mp_pickle_mb"] = per_op("mp_pickle_bytes") / 1e6
    out["runtime.mp_wait_s"] = out["runtime.mp_run_s"] - out["runtime.mp_encode_s"]
    out["compiler.compile_share"] = out["compiler.compile_s"] / op_mean
    out["traced_op_p50_s"] = statistics.median(durations)
    out["trace.overhead_share"] = out["traced_op_p50_s"] / untraced_p50 - 1.0
    out["trace.traced_ops"] = n_ops
    if args.trace_out:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(args.trace_out)
    return out


def run_trial(args) -> dict:
    workload = WORKLOADS[args.workload]
    size = workload.smoke_size if args.smoke else workload.size
    generate_start = time.perf_counter()
    inputs = workload.make_inputs(args.seed, size)
    generate_s = time.perf_counter() - generate_start
    runner = OpRunner(workload.reference(inputs))
    shm_before = _shm_segments()

    open_start = time.perf_counter()
    session = workload.open(inputs)
    open_s = time.perf_counter() - open_start
    first_op_s = runner.run(session)
    setup_s = open_s + first_op_s  # the check of the first op is not set-up
    try:
        for _ in range(args.warmups):
            runner.run(session)
        gc.collect()
        gc.freeze()
        durations, timed_wall_s = runner.timed_section(
            session, args.budget, args.min_ops
        )
        out = {
            "workload": workload.name,
            "size": size,
            "setup_s": setup_s,
            "durations": durations,
            "timed_wall_s": timed_wall_s,
            "host": _host_libraries(),
        }
        if args.traced:
            per_layer = _traced_section(session, runner, args,
                                        statistics.median(durations))
            # After the traced section, so that their blocks cannot push
            # the measured engine's out of the workers' caches; under the
            # wrappers, like the traced gen ops they are compared with.
            modes = _mode_comparison(workload, inputs, runner, args.mode_ops)
            modes["gen"] = per_layer.pop("traced_op_p50_s")
            per_layer.update({
                f"algorithms.{mode.removeprefix('gen-')}_op_p50_s": p50
                for mode, p50 in modes.items() if mode != "gen"
            })
            per_layer["codegen.plan_regret"] = (
                modes["gen"] / min(modes.values())
            )
            per_layer["algorithms.final_loss"] = (
                runner.first[0] if runner.first else float("nan")
            )
            per_layer["compiler.first_op_s"] = first_op_s
            per_layer["data.generate_s"] = generate_s
            out["per_layer"] = per_layer
    finally:
        session.close()
        if "repro.runtime.mpexec" in sys.modules:
            sys.modules["repro.runtime.mpexec"].shutdown_pool()
    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        print(f"shared-memory segments left behind: {leaked}", file=sys.stderr)
        runner.failed = runner.attempted  # the whole trial fails
    out.update(attempted=runner.attempted, failed=runner.failed,
               shm_leaked=leaked, peak_rss_mb=_peak_rss_mb())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs")
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds a timed section lasts")
    parser.add_argument("--min-ops", type=int,
                        help="ops a timed section runs at least "
                        "(default: the workload's)")
    parser.add_argument("--warmups", type=int,
                        help="checked, untimed ops after set-up "
                        "(default: the workload's)")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode-ops", type=int, default=5,
                        help="timed ops under each other engine mode")
    parser.add_argument("--trace-out", default="",
                        help="where to write the Chrome trace JSON")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.min_ops is None:
        args.min_ops = workload.min_ops
    if args.warmups is None:
        args.warmups = workload.warmups
    print(json.dumps(run_trial(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
