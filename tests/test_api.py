"""Public names that the benchmark under perfbench/ relies on.

The traced benchmark run wraps program functions by module attribute and
imports the package's public API; losing one of those names breaks it.
These tests only read files under perfbench/.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import chiralcp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("checks", "tracing", "verify"):
        sys.modules.pop(name, None)


def test_all_names_resolve():
    for name in chiralcp.__all__:
        assert hasattr(chiralcp, name), name


def test_benchmark_verify_imports(perfbench_path):
    importlib.import_module("verify")


def test_benchmark_wrap_points_exist(perfbench_path):
    tracing = importlib.import_module("tracing")
    assert tracing.WRAP_POINTS
    for mod_name, attr, _ in tracing.WRAP_POINTS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (
            f"{mod_name}.{attr}"
        )


def test_run_scenario_keywords():
    params = inspect.signature(chiralcp.run_scenario).parameters
    for name in ("workers", "seed_override"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
