"""The functions the benchmark's per-layer figures name must exist.

A traced benchmark run reports ``<module>.<function>.<stat>`` for every
public function defined in a ``lieiso`` module, and fails when a figure named
in BENCHMARK.json has no such function.  These tests make a rename or a
deletion fail here first.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
from pathlib import Path

import pytest

import lieiso
from lieiso import metrics
from lieiso.algebra import make_algebra_c, make_algebra_I
from lieiso.cli import main
from lieiso.metrics import metric_from_table
from lieiso.reports import build_report, stratification_rows
from lieiso.symmetry import scan_moduli

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


def _verify_metrics():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--which", "metrics", "--points", "2"]) == 0


@pytest.mark.parametrize("op", [
    lambda: build_report(make_algebra_c(4.0), metric_from_table(make_algebra_c(4.0), mu=2.9, nu=1.5)),
    lambda: build_report(make_algebra_I(), metric_from_table(make_algebra_I(), nu=1.5)),
    lambda: stratification_rows("c", 0.25),
    lambda: scan_moduli("I"),
    _verify_metrics,
], ids=["build_report", "build_report_isotropic", "stratification_rows", "scan_moduli", "verify_metrics"])
def test_each_workload_reaches_rank_and_kernel_through_metrics(monkeypatch, op):
    # The traced run's self-test unwraps the binding of rank_and_kernel in
    # lieiso.metrics and needs the first operation of every workload to
    # reach it there: check_spd decides the rank of every Gram matrix
    # through that binding when its metric is built.
    calls = []
    original = metrics.rank_and_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "rank_and_kernel", counting)
    op()
    assert calls
