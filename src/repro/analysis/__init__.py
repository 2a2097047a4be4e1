"""Static analysis subsystem: IR verifier, kernel lint, lockset detector.

Three passes: the first is wired behind ``CodegenConfig.verify_level``
(``off`` / ``boundaries`` / ``full``), the second runs on every
generated source, the third is switched on for a ``with`` block by
:func:`repro.analysis.lockset.lockset_debug`:

* :mod:`repro.analysis.verify` — structural + semantic validation of
  HOP DAGs and lowered :class:`~repro.compiler.program.Program` values
  at pipeline stage boundaries,
* :mod:`repro.analysis.kernel_lint` — an AST pass over every generated
  operator's one source, ``genbody``, before it is compiled,
* :mod:`repro.analysis.lockset` — Eraser-style lockset race detection
  over the shared mutable runtime structures.

This ``__init__`` stays import-light on purpose: ``runtime.stats``
imports :mod:`repro.analysis.lockset` (stdlib-only), and pulling
:mod:`repro.analysis.verify` here would close an import cycle through
the compiler packages.
"""

__all__ = ["kernel_lint", "lockset", "verify"]
