"""The functions the benchmark's per-layer figures name must exist.

A traced benchmark run reports ``<module>.<function>.<stat>`` for every
public function defined in a ``lieiso`` module, and fails when a figure named
in BENCHMARK.json has no such function.  These tests make a rename or a
deletion fail here first.
"""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import lieiso

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


def test_public_functions_are_not_generators():
    # The traced run times each public function from call to return and
    # checks that every frame of one is entered through its wrapper; the body
    # of a generator function runs later, from its consumer's frame.
    modules = [info.name for info in pkgutil.iter_modules(lieiso.__path__)]
    generators = [
        f"{short}.{name}"
        for short in modules
        for name, fn in vars(importlib.import_module(f"lieiso.{short}")).items()
        if inspect.isgeneratorfunction(fn) and not name.startswith("_")
    ]
    assert generators == []
