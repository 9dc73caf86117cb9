"""The benchmark's layer tracer (bench/tracing.py) patches critflow's
functions and methods by name. A rename that it would miss fails here,
without a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import critflow.fields

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("critflow_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tables and classes only
    return module


TRACING_MODULE = _tracing_module()


@pytest.mark.parametrize("module, attr, name", TRACING_MODULE.SPANS + TRACING_MODULE.LEAVES)
def test_traced_function_exists(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


@pytest.mark.parametrize("cls_name, method, name, leaf", TRACING_MODULE.METHODS)
def test_traced_method_is_defined_on_its_own_class(cls_name, method, name, leaf):
    # the tracer wraps cls.__dict__[method]; an inherited method is not there
    cls = getattr(critflow.fields, cls_name)
    assert callable(cls.__dict__.get(method)), (cls_name, method)
