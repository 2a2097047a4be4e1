"""Tracing and profiling a run that triggers an adaptive recompile.

The workload compiles a scoring chain over a dense-stored matrix whose
sparsity is hidden from the compiler (``nnz_unknown=True``).  With
``trace_level="full"`` the engine records every phase — the compiler
passes, per-instruction execution with format/bytes annotations,
generated-operator bodies, kernel compiles, and the mid-run
``recompile-splice`` where the executor observes the real non-zero
count and re-enters the pipeline.

The script exports the span buffer as Chrome ``trace_event`` JSON
(open the exported file at https://ui.perfetto.dev — each thread is a
flame lane, and the recompile splice nests inside its request) and
prints the per-operator profile table.  The trace is written under a
temporary directory unless ``--out`` names a destination.

Run:  PYTHONPATH=src python examples/trace_profile.py [--out PATH]
"""

import argparse
import os
import tempfile

import numpy as np

from repro import api
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime.matrix import MatrixBlock


def _trace_path() -> str:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(tempfile.mkdtemp(prefix="repro_trace_"),
                             "trace_profile.json"),
        help="destination for the Chrome trace JSON "
             "(default: a fresh temp directory)",
    )
    return parser.parse_args().out


def main():
    trace_path = _trace_path()
    rng = np.random.default_rng(42)
    rows, cols, density = 2_000, 1_500, 0.01
    arr = np.zeros((rows, cols))
    mask = rng.random((rows, cols)) < density
    arr[mask] = rng.random(int(mask.sum())) + 0.5
    block = MatrixBlock(arr)  # dense-stored, 1% non-zero

    engine = Engine("gen", CodegenConfig(trace_level="full",
                                         adaptive_recompile=True))
    x = api.matrix(block, name="X", nnz_unknown=True)
    api.eval((x * 3.0) * api.abs_(x) * 0.5, engine=engine)

    print(f"recompiles triggered : {engine.stats.n_recompiles}")
    print(f"spans recorded       : {len(engine.tracer.events())}")
    path = engine.export_trace(trace_path)
    print(f"trace exported       : {path} "
          "(open at https://ui.perfetto.dev)\n")

    splice = [s for s in engine.tracer.events()
              if s.name == "recompile-splice"]
    if splice:
        print(f"recompile-splice     : {splice[0].duration * 1e3:.2f} ms "
              f"at instruction {splice[0].args.get('at_instruction')} "
              f"({splice[0].args.get('op')})\n")

    print(engine.profile_report())
    engine.close()


if __name__ == "__main__":
    main()
