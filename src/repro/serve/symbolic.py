"""Request inputs and shape signatures for prepared programs.

A prepared program is traced against
:class:`~repro.compiler.symbolic.SymbolicBlock` placeholders (the
compile-time stand-in the engine's own program cache uses), so its
lowered ``Program`` holds symbolic blocks in its constant slots and each
request's real blocks go in through the executor's ``bindings`` overlay.

:func:`input_signature` is the specialization key: exact dimensions,
the dense/sparse storage class, and the coarse
:func:`~repro.compiler.symbolic.sparsity_class` per matrix input, and
the value per scalar input.  Unlike ``Engine.execute``, which binds
non-integer literals at run time, a prepared program *bakes* its scalar
inputs: a builder is plain Python and may branch on them, so a new
scalar value must be a new specialization.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.symbolic import sparsity_class
from repro.errors import ServingError
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock

_SCALAR_TYPES = (int, float, np.floating, np.integer)


def normalize_inputs(inputs: dict) -> dict:
    """Coerce a request's input dict to floats and MatrixBlocks.

    Compressed matrices are passed through: they are baked into the
    specialization as constants (read-only model data), keyed by
    identity in the signature.
    """
    if not inputs:
        raise ServingError("a served request needs at least one input")
    normalized: dict = {}
    for name, value in inputs.items():
        if isinstance(value, _SCALAR_TYPES):
            normalized[name] = float(value)
        elif isinstance(value, (MatrixBlock, CompressedMatrix)):
            normalized[name] = value
        else:
            normalized[name] = MatrixBlock(np.asarray(value, dtype=np.float64))
    return normalized


def input_signature(inputs: dict) -> tuple:
    """The specialization key for a normalized input dict."""
    items = []
    for name in sorted(inputs):
        value = inputs[name]
        if isinstance(value, float):
            items.append((name, "s", value))
        elif isinstance(value, CompressedMatrix):
            items.append((name, "c", id(value)))
        else:
            storage = "sparse" if value.is_sparse else "dense"
            items.append((name, "m", value.rows, value.cols, storage,
                          sparsity_class(value)))
    return tuple(items)


def same_data(a, b) -> bool:
    """Do two normalized inputs share the same underlying data?

    Two ``MatrixBlock`` wrappers created from the same numpy array (or
    the same block) count as identical — the scheduler uses this to
    recognize shared model inputs across batched requests.
    """
    if a is b:
        return True
    if isinstance(a, MatrixBlock) and isinstance(b, MatrixBlock):
        if a._dense is not None:
            return a._dense is b._dense
        return a._sparse is not None and a._sparse is b._sparse
    return False


def request_bytes(inputs: dict) -> float:
    """Admission-control estimate of a request's input footprint."""
    total = 0.0
    for value in inputs.values():
        if isinstance(value, float):
            total += 8.0
        else:
            total += value.size_bytes
    return total
