"""The benchmark's tracer wraps pendrotor functions by name; each must exist.

``perfbench/spans.py`` names its targets as (module, attribute) strings, so
a rename in the package would only show when ``perfbench/run.py --trace 1``
runs.  The file is loaded read-only here, without installing anything.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _spans()


@pytest.mark.parametrize("module,attr",
                         [t[:2] for t in spans.TARGETS] + [spans.COUNTED])
def test_wrapped_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,meth", [m[:3] for m in spans.METHODS])
def test_wrapped_method_exists(module, cls, meth):
    assert callable(vars(getattr(importlib.import_module(module), cls))[meth])


def test_tau_star_criterion_position():
    # the span name of a tau* solve is read from its fifth argument
    kernels = importlib.import_module("pendrotor._kernels")
    params = list(inspect.signature(kernels.tau_star_kernel).parameters)
    assert params[4] == "crit"
