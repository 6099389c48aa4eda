"""Every function the traced benchmark wraps still exists in entmon.

``perfbench/run.py --trace`` wraps each ``(module, attribute)`` of
``perfbench/tracing.py``'s ``TARGETS``; a deleted or renamed function
breaks that run, so the names are checked here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name,module_name,attr", _targets(), ids=lambda v: str(v))
def test_traced_target_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:  # a method, wrapped on its class
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, attr))
