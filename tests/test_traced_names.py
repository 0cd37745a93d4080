"""Every name the benchmark tracer patches exists in `qpirlab`.

The tracer (`bench/tracing.py`) wraps functions by name; a rename or a
deletion in `src/` would break the benchmark without failing any test
here, so this loads the tracer's tables by path and resolves each entry.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("qpirlab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing()
ENTRIES = ([(module, path) for module, path, _, _ in _TRACING.TARGETS]
           + [(module, path) for module, path, _ in _TRACING.COUNTERS])


@pytest.mark.parametrize("module, path", ENTRIES,
                         ids=[f"{m}.{p}" for m, p in ENTRIES])
def test_traced_name_resolves(module, path):
    """A module attribute, or for `Class.method` an entry of the class's
    own `__dict__`, as the tracer patches it."""
    owner = importlib.import_module(f"qpirlab.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, path))
