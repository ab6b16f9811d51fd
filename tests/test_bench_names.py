"""The functions the benchmark's per-layer figures name must exist.

A traced benchmark run reports ``<module>.<function>.<stat>`` for every
public function defined in a ``lieiso`` module, and fails when a figure named
in BENCHMARK.json has no such function.  These tests make a rename or a
deletion fail here first.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FUNCTION_FIGURES = [
    m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"] if m["name"].count(".") == 2
]


def test_benchmark_names_function_figures():
    # an empty list would leave the parametrized test below with no cases
    assert FUNCTION_FIGURES


@pytest.mark.parametrize("name", FUNCTION_FIGURES)
def test_named_function_exists(name):
    module, function, _ = name.split(".")
    mod = importlib.import_module(f"lieiso.{module}")
    fn = getattr(mod, function, None)
    assert inspect.isfunction(fn), f"lieiso.{module}.{function} is not a function"
    assert fn.__module__ == mod.__name__, f"lieiso.{module}.{function} is defined in {fn.__module__}"
