"""Every function the benchmark's tracer wraps still exists where it is wrapped.

``bench/tracing.py`` times layers by replacing ``module.attribute`` for each
entry of its ``WRAPS`` table; a name the package no longer has is silently
reported as absent and its metrics read 0.  This test makes such a removal
fail loudly instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attribute",
    [(module, attribute) for module, attribute, *_ in _tracing.WRAPS],
    ids=[f"{module}.{attribute}" for module, attribute, *_ in _tracing.WRAPS],
)
def test_wrapped_name_resolves(module, attribute):
    target = importlib.import_module(f"{_tracing.PACKAGE}.{module}")
    assert callable(getattr(target, attribute))
