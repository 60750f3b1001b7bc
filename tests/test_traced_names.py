"""Every name the benchmark tracer wraps still exists where it looks for it.

``perfbench/tracer.py`` wraps kassoc functions and methods by name from
outside the package; a renamed, deleted or moved name breaks the traced
benchmark run, so each entry of its ``WRAPPED`` table is resolved here the
way ``Tracer.install`` resolves it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import kassoc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only
    return module


ENTRIES = [(layer, path) for layer, entries in _load_tracer().WRAPPED.items()
           for path, _ in entries]


@pytest.mark.parametrize("layer,path", ENTRIES, ids=[f"{l}.{p}" for l, p in ENTRIES])
def test_wrapped_name_resolves(layer, path):
    importlib.import_module(f"kassoc.{layer}")
    module = getattr(kassoc, layer)
    if "." in path:
        cls_name, meth = path.split(".")
        # install reads the class's own __dict__: an inherited method fails
        assert meth in vars(getattr(module, cls_name)), path
    else:
        assert callable(getattr(module, path)), path
