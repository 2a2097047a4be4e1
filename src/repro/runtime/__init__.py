"""Runtime substrate: matrices, kernels, fused-operator skeletons."""

from repro.runtime.matrix import MatrixBlock, recommend_format

__all__ = ["MatrixBlock", "recommend_format"]
