"""CodegenConfig holds only settings a caller varies or a calibration
fits; every other threshold is a constant where it is read."""

import dataclasses

from repro.config import CodegenConfig

KEPT_FIELDS = {
    # Cost model constants.
    "read_bandwidth", "write_bandwidth", "peak_flops", "op_flop_weights",
    # Placement and the distributed backend.
    "local_mem_budget", "cluster", "distributed_backend", "mp_workers",
    # Optimizer and recompilation switches.
    "adaptive_recompile", "enable_cost_pruning", "enable_structural_pruning",
    # Parallelism.
    "intra_op_threads",
    # Diagnostics and code generation.
    "verify_level", "trace_level", "compiler", "plan_cache_enabled",
}


def test_fields_are_pinned():
    """Adding or removing a knob is a visible edit of this list."""
    assert {f.name for f in dataclasses.fields(CodegenConfig)} == KEPT_FIELDS
