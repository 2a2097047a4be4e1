"""Serving subsystem: prepared programs and a concurrent scheduler.

The layer that makes the paper's repetition-amortizing design
observable end to end: scripts and expression DAGs are compiled once
against symbolic input slots, cached per input-shape signature
(dynamic recompilation on mismatch), and executed concurrently for many
requests over one shared engine — with admission control, micro-
batching, and per-request telemetry.

Quick start::

    from repro.compiler.execution import Engine
    from repro.serve import SessionScheduler

    engine = Engine(mode="gen")
    scorer = engine.prepare_script(
        "input X, w\\nscores = X %*% w",
        batch_inputs=("X",),
    )
    with SessionScheduler(engine) as server:
        ticket = server.submit(scorer, {"X": features, "w": weights})
        print(ticket.result()["scores"])
"""

from repro.compiler.symbolic import SymbolicBlock, sparsity_class
from repro.serve.prepared import BatchBound, BoundRequest, PreparedProgram
from repro.serve.scheduler import ServeTicket, SessionScheduler
from repro.serve.symbolic import input_signature, normalize_inputs

__all__ = [
    "BatchBound",
    "BoundRequest",
    "PreparedProgram",
    "ServeTicket",
    "SessionScheduler",
    "SymbolicBlock",
    "input_signature",
    "normalize_inputs",
    "sparsity_class",
]
