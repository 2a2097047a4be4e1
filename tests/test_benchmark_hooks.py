"""The e2e benchmark measures ``repro`` from outside: it wraps the
callables named in ``benchmarks/e2e/tracing.py::TARGETS`` and calls
``repro.runtime.mpexec.shutdown_pool()`` after a trial.  Moving or
renaming one of them must fail here, not in a traced benchmark trial.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks/e2e/tracing.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("_e2e_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _resolve(module_name: str, qualname: str):
    """Look a target up the way ``SpanTracer.install`` does: a method in
    its owner's own ``__dict__`` (so it must be *defined* on that class,
    not inherited), a function as a module attribute."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        return getattr(module, attr)
    raw = getattr(module, owner_name).__dict__[attr]
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_every_traced_target_resolves():
    pairs = {pair for targets in _targets().values() for pair in targets}
    assert ("repro.runtime.mpexec", "encode_value") in pairs
    broken = []
    for module_name, qualname in sorted(pairs):
        try:
            resolved = _resolve(module_name, qualname)
        except (ImportError, AttributeError, KeyError) as exc:
            broken.append((module_name, qualname, repr(exc)))
            continue
        if not callable(resolved):
            broken.append((module_name, qualname, "not callable"))
    assert not broken


def test_mpexec_keeps_the_names_the_benchmark_uses():
    """``install`` swaps the function object it finds at
    ``mpexec.encode_value`` wherever a ``repro`` module holds it, so the
    re-export must be the transport's own function; ``trial.py`` stops
    the workers through ``mpexec.shutdown_pool``."""
    from repro.runtime import mpexec, mptransport

    assert mpexec.encode_value is mptransport.encode_value
    assert callable(mpexec.shutdown_pool)
