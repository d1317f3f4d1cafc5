"""Every name the benchmark's tracer wraps must still exist in dcrep.

``bench/tracing.py`` is loaded as a plain module and only read: no wrapper is
installed.  A refactor that drops or renames a traced function otherwise
fails only a traced benchmark run (``bench/run.py --trace 1``).
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("path,attr", [(t[0], t[1]) for t in tracing.TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in tracing.TARGETS])
def test_traced_name_is_defined_by_its_owner(path, attr):
    owner = tracing._owner(path)
    assert attr in vars(owner), f"{path} has no attribute {attr!r} of its own"
    assert callable(vars(owner)[attr])
