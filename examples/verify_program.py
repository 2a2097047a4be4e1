"""Static verification walkthrough: an L2SVM compile under the verifier.

The analysis layer (``repro.analysis``) checks what the test suite only
samples — IR invariants at pipeline boundaries, the generated-kernel
contract, and the runtime's locking conventions.  This example:

1. builds the L2SVM inner-iteration DAG and verifies it pre-compile,
2. compiles it under ``verify_level="full"`` (every pass boundary
   re-verified, every generated kernel linted before ``exec``),
3. dumps the verification report of the lowered program,
4. seeds two mutants — a corrupted refcount and corrupted dims — and
   shows the pointed diagnostics the verifier produces,
5. runs the kernel lint on a deliberately hostile source.

Run with::

    PYTHONPATH=src python examples/verify_program.py
"""

import numpy as np

from repro import api
from repro.analysis.kernel_lint import lint_source
from repro.analysis.verify import format_report, verify_dag, verify_program
from repro.compiler.execution import Engine
from repro.config import CodegenConfig


def l2svm_iteration_roots(rng):
    """The hinge-loss core of one L2SVM outer iteration.

    out  = max(1 - y * (X w), 0)        element-wise hinge
    loss = sum(out^2) + (lambda/2) w'w
    grad = lambda w - X' (y * 2 out)
    """
    x = api.matrix(rng.random((200, 30)), "X")
    y = api.matrix(np.sign(rng.random((200, 1)) - 0.5), "y")
    w = api.matrix(rng.random((30, 1)), "w")
    lam = 0.01

    out = api.maximum(1.0 - y * (x @ w), 0.0)
    loss = (out * out).sum() + (w * w).sum() * (lam / 2.0)
    grad = w * lam - x.T @ (y * (out * 2.0))
    return [loss.hop, grad.hop]


def main() -> None:
    rng = np.random.default_rng(7)

    # 1. Pre-compile DAG verification (acyclicity, link symmetry, dims
    # per op semantics, exec-type legality, fused-operator coverage).
    roots = l2svm_iteration_roots(rng)
    print("== HOP DAG (pre-compile) ==")
    print(format_report(verify_dag(roots, stage="pre-compile")))

    # 2. Compile under full verification: the pipeline re-verifies the
    # DAG after every pass and the lowered program after lowering (every
    # generated kernel source is linted before exec() at any level).
    engine = Engine(mode="gen", config=CodegenConfig(verify_level="full"))
    program = engine.compile(l2svm_iteration_roots(rng))
    print(f"\ncompiled: {program.n_instructions} instructions over "
          f"{program.n_slots} slots, "
          f"{engine.plan_cache.size} generated operator(s) in the "
          "process-wide plan cache")

    # 3. The lowered program's own report (slot discipline, refcounts,
    # static use-after-free, recompile markers, parallelism).
    print("\n== lowered program ==")
    print(format_report(verify_program(program, stage="post-lowering")))
    stats = engine.stats
    print(f"\nanalysis counters: verified={stats.n_verified_programs} "
          f"findings={stats.n_verifier_findings} "
          f"lint_rejects={stats.n_lint_rejects} "
          f"lockset_reports={stats.n_lockset_reports}")

    # 4a. Mutant: overstate a refcount — the executor would leak the
    # slot; the diagnostic names the producing instruction.
    slot = program.instructions[0].output_slot
    program.consumer_counts[slot] += 1
    print("\n== mutant: corrupted refcount ==")
    print(format_report(verify_program(program, stage="mutant")))
    program.consumer_counts[slot] -= 1

    # 4b. Mutant: corrupt a hop's dims mid-DAG — as a bad rewrite
    # would; the diagnostic names the hop whose semantics disagree.
    roots = l2svm_iteration_roots(rng)
    victim = roots[1].inputs[0]
    victim.rows = 999
    print("\n== mutant: corrupted dims ==")
    print(format_report(verify_dag(roots, stage="mutant")))

    # 5. The kernel lint on a hostile "generated" source: every rule
    # class fires (imports, I/O builtins, nondeterminism, loops).
    hostile = (
        "import os\n"
        "import numpy as np\n"
        "def genbody(a, b, s):\n"
        "    open('/tmp/x', 'w')\n"
        "    acc = 0.0\n"
        "    for i in range(3):\n"
        "        acc = acc + np.random.rand()\n"
        "    return acc\n"
    )
    print("\n== kernel lint: hostile source ==")
    for finding in lint_source("HOSTILE", hostile):
        print(f"  {finding}")

    engine.close()


if __name__ == "__main__":
    main()
