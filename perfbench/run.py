#!/usr/bin/env python3
"""Benchmark of lieiso: four workloads, timed from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify_isotropic --seed 3 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout and called only through
the public functions of its modules.  One client runs operations back to
back (a closed loop) in whole passes over the seeded inputs until
``--seconds`` have elapsed.  Every output is checked; the last line of
standard output is one JSON object with the run's metrics.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` wraps the public functions (see ``spans.py``), self-tests the
wrapping, runs every operation once untraced and once traced, and reports
per-layer metrics.  Both modes print a ``details`` line (the environment,
the host-speed probe, the output digest and workload-specific figures) before
the result line, and write the same record under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The CLI reads a default rank cutoff from the environment; the benchmark runs the defaults.
os.environ.pop("LIEISO_TOL_RANK", None)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("classify_translations", "classify_isotropic", "atlas", "cli_oneshot")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
VERIFY_POINTS = 20
CHILD_TIMEOUT_S = 60
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _load_program():
    if not (SRC / "lieiso" / "__init__.py").is_file():
        sys.exit(f"error: no lieiso package under {SRC}; run from the root of a lieiso checkout")
    sys.path.insert(0, str(SRC))
    import lieiso  # noqa: F401  (registers every lieiso module in sys.modules)
    from lieiso import algebra, cli, metrics, reports, symmetry

    return algebra, cli, metrics, reports, symmetry


algebra = cli = metrics = reports = symmetry = None


# ---------------------------------------------------------------------------
# operations
#
# An operation is (run, check, points): ``run()`` is the timed call into the
# program; ``check(result)`` returns the output bytes and a problem string
# (None when the output is right); ``points`` is the number of catalog
# metrics the operation analyses.


def _algebra_for(family: str, c):
    return algebra.make_algebra_I() if family == "I" else algebra.make_algebra_c(c)


def classify_in_process(point):
    alg = _algebra_for(point.family, point.c)
    g = metrics.metric_from_table(alg, **point.kwargs())
    report = reports.build_report(alg, g)
    return report, reports.to_json(report)


def check_report(point, report) -> str | None:
    tag, index = point.expected
    got_tag = report["isometry"]["group_tag"]
    got_index = report["symmetry"]["index"]
    if (got_tag, got_index) != (tag, index):
        return f"{point.stratum}: got ({got_tag}, {got_index}), expected ({tag}, {index})"
    tols = reports.RESIDUAL_TOLS
    if set(report["residuals"]) != set(tols):
        return f"{point.stratum}: residual names {sorted(report['residuals'])}"
    over = [name for name, r in report["residuals"].items() if not r["value"] <= tols[name]]
    return f"{point.stratum}: residuals over tolerance: {over}" if over else None


def classify_op(point):
    def check(result):
        report, text = result
        return text.encode(), check_report(point, report)

    return (lambda: classify_in_process(point)), check, 1


def table_op(family, c):
    def run():
        rows = reports.stratification_rows(family, c)
        return rows, reports.rows_to_csv(rows, reports.TABLE_COLUMNS)

    def check(result):
        rows, text = result
        c_cell = "" if c is None else "%.12g" % c
        want = []
        for key in inputs.table_strata(family, c):
            _, index, metric, constraint = inputs.STRATA[key]
            want.append((family, c_cell, metric, constraint, str(index)))
        got = [(r["family"], r["c"], r["metric"], r["constraint"], r["index"]) for r in rows]
        if got != want:
            return text.encode(), f"table {family} c={c}: rows {got} != {want}"
        for r in rows:
            gen = r["generator"]
            ok = {"0": gen == "", "3": gen == "all"}.get(r["index"], len(gen.split()) == 3)
            if not ok:
                return text.encode(), f"table {family} c={c}: generator cell {gen!r} for index {r['index']}"
        return text.encode(), None

    return run, check, 3 * len(inputs.table_strata(family, c))


def scan_op(family, c):
    def run():
        result = symmetry.scan_moduli(family, c, grid_mu=9, grid_nu=3)
        text = reports.to_json({"summary": reports.scan_summary(result), "points": reports.scan_point_rows(result)})
        return result, text

    def check(result):
        res, text = result
        if not res.passed:
            return text.encode(), f"scan {family} c={c} did not pass"
        wrong = [(pt.stratum, pt.group_tag, pt.index) for pt in res.points
                 if (pt.group_tag, pt.index) != inputs.STRATA[pt.stratum][:2]]
        return text.encode(), (f"scan {family} c={c}: misclassified {wrong}" if wrong else None)

    return run, check, None  # points are counted from the result


def cli_op(argv, expected_stdout: bytes | None, in_process: bool):
    """One ``lieiso`` command: a fresh interpreter, or ``cli.main`` in this one."""

    def run_subprocess():
        proc = subprocess.run([sys.executable, "-m", "lieiso.cli", *argv], cwd=ROOT, env=_child_env(),
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def run_in_process():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue().encode()

    def check(result):
        code, out = result
        if code != 0:
            return out, f"{' '.join(argv)}: exit code {code}"
        if expected_stdout is not None and out != expected_stdout:
            return out, f"{' '.join(argv)}: stdout differs from the in-process report"
        if expected_stdout is None and out.splitlines()[-1:] != [b"PASS"]:
            return out, f"{' '.join(argv)}: verify did not print PASS"
        return out, None

    points = 1 if argv[0] == "classify" else VERIFY_POINTS
    return (run_in_process if in_process else run_subprocess), check, points


# ---------------------------------------------------------------------------
# workloads: seeded inputs -> one pass of operations


def build_pass(workload: str, seed: int, in_process_cli: bool = False) -> list[tuple]:
    if workload == "classify_translations":
        return [classify_op(p) for p in inputs.stratified_points(seed, inputs.TRANSLATION_STRATA, 4)]
    if workload == "classify_isotropic":
        return [classify_op(p) for p in inputs.stratified_points(seed, inputs.ISOTROPIC_STRATA, 2)]
    if workload == "atlas":
        groups = inputs.atlas_groups(seed)
        return [table_op(f, c) for f, c in groups] + [scan_op(f, c) for f, c in groups]
    # cli_oneshot: two translation points and two isotropic points, each
    # followed by one verify run
    points = (inputs.stratified_points(seed, inputs.TRANSLATION_STRATA, 1)[:2]
              + inputs.stratified_points(seed, inputs.ISOTROPIC_STRATA, 1)[:2])
    ops = []
    for point, vseed in zip(points, inputs.verify_seeds(seed, len(points))):
        expected = classify_in_process(point)[1].encode()
        ops.append(cli_op(["classify", "--json", *point.cli_args()], expected, in_process_cli))
        ops.append(cli_op(["verify", "--which", "metrics", "--points", str(VERIFY_POINTS), "--seed", str(vseed)],
                          None, in_process_cli))
    return ops


def execute(op) -> tuple[float, bytes, int, str | None]:
    """Run one operation: (seconds, output bytes, points, problem)."""
    run, check, points = op
    t0 = perf_counter()
    try:
        result = run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return perf_counter() - t0, b"", 0, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    out, problem = check(result)
    if points is None:
        points = len(result[0].points)
    return elapsed, out, points, problem


def setup(workload: str, seed: int) -> list[tuple]:
    """Everything before the first timed operation: inputs, then one warm-up op."""
    ops = build_pass(workload, seed)
    execute(ops[0])
    return ops


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has set up, repeated."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {code}")
    return times


def measure_import() -> list[float]:
    """Milliseconds a fresh interpreter spends in ``import lieiso``."""
    code = "import time; t = time.perf_counter(); import lieiso; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(1000.0 * float(proc.stdout))
    return out


def host_probe_ms() -> float:
    """Fixed work, unrelated to the program: reported, never used to rescale."""
    import numpy as np

    m = np.linspace(-1.0, 1.0, 1053 * 3).reshape(1053, 3) ** 3
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    np.linalg.svd(m)
    return 1000.0 * (perf_counter() - t0)


def environment() -> dict:
    import numpy as np

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "load": "untuned, wall clock, one client, closed loop",
    }


# ---------------------------------------------------------------------------
# measurement


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the ladder with at least
    ten samples beyond it."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return 0.0, min(values)


class Run:
    """What one run records: per-op latencies, failures, the first pass's outputs."""

    def __init__(self) -> None:
        self.records: list[tuple[int, int, float, int]] = []  # (pass, op index, seconds, points)
        self.attempted = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def add(self, pass_no: int, i: int, result) -> None:
        elapsed, out, points, problem = result
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)
            points = 0
        self.records.append((pass_no, i, elapsed, points))
        if pass_no == 0:
            self.digest.update(out)


def run_untraced(ops, seconds: float) -> tuple[Run, float, int]:
    run = Run()
    t0 = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - t0 < seconds:
        for i, op in enumerate(ops):
            run.add(passes, i, execute(op))
        passes += 1
    return run, perf_counter() - t0, passes


def end_to_end(workload: str, run: Run, wall: float, passes: int, setup_s: list[float]) -> tuple[dict, dict]:
    lat = [r[2] for r in run.records]
    points = sum(r[3] for r in run.records)
    by_pass = [sum(r[2] for r in run.records if r[0] == p) for p in range(passes)]
    if workload.startswith("classify"):
        op_ms = [1000.0 * x for x in lat]
    elif workload == "atlas":
        op_ms = [1000.0 * x for x in by_pass]
    else:  # a classify process and the verify process after it
        op_ms = [1000.0 * (run.records[k][2] + run.records[k + 1][2]) for k in range(0, len(lat) - 1, 2)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli_oneshot":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics_out = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "points_per_s": {"value": points / wall, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }
    details = {
        "failed_frac": {"value": len(run.problems) / run.attempted, "unit": "1"},
        "op_samples": len(op_ms),
        "passes": passes,
        "setup_s_samples": setup_s,
    }
    if workload.startswith("classify"):
        p, v = tail(op_ms)
        details.update({
            "reports_per_s": {"value": len(lat) / wall, "unit": "1/s"},
            "report_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "report_tail_ms": {"value": v, "unit": "ms", "percentile": p, "samples": len(op_ms)},
        })
    elif workload == "atlas":
        details.update({
            "atlas_pass_s": {"value": statistics.median(by_pass), "unit": "s", "samples": passes},
            "scan_points_per_s": {"value": points / wall, "unit": "1/s"},
        })
    else:
        for kind, start in (("classify", 0), ("verify", 1)):
            ms = [1000.0 * r[2] for r in run.records[start::2]]
            details[f"cli_{kind}_p50_ms"] = {"value": statistics.median(ms), "unit": "ms", "samples": len(ms)}
    return metrics_out, details


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    ops = build_pass(workload, seed, in_process_cli=True)
    # the self-test runs the first operation under the binding checks
    selftest = tracer.self_test(lambda: ops[0][0]())

    run = Run()
    untraced_ms, traced_ms = [], []
    traced_points = 0
    t0 = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - t0 < seconds:
        for i, op in enumerate(ops):
            tracer.on = False
            plain = execute(op)
            tracer.op = len(traced_ms)
            tracer.on = True
            traced = execute(op)
            tracer.on = False
            run.add(passes, i, traced)
            run.attempted += 1
            if plain[3] is not None:
                run.problems.append(plain[3])
            elif plain[1] != traced[1]:
                run.problems.append(f"op {i}: traced output differs from the untraced output")
            untraced_ms.append(1000.0 * plain[0])
            traced_ms.append(1000.0 * traced[0])
            traced_points += traced[2]
        passes += 1

    ops_count = traced_points if workload == "atlas" else len(traced_ms)
    layers = tracer.aggregate(ops_count)
    layers["cli.import_ms"] = statistics.median(measure_import())
    layers["isometry.singer_isotropy.nonempty_share"] = tracer.nonempty_singer_share()
    layers["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced_ms)

    OUT.mkdir(exist_ok=True)
    first_pass_ops = len(ops)
    tracer.spans[:] = [s for s in tracer.spans if s[4] < first_pass_ops]
    tracer.write(OUT / f"{workload}-seed{seed}.spans.jsonl")
    details = {
        "selftest": selftest,
        "traced_ops": len(traced_ms),
        "ops_per_layer_denominator": ops_count,
        "untraced_p50_ms": statistics.median(untraced_ms),
        "traced_p50_ms": statistics.median(traced_ms),
        "passes": passes,
        "failed_frac": {"value": len(run.problems) / run.attempted, "unit": "1"},
        "all_layers": layers,
    }
    return run, layers, details


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    global algebra, cli, metrics, reports, symmetry
    algebra, cli, metrics, reports, symmetry = _load_program()

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    env = environment()
    probe = [host_probe_ms() for _ in range(5)]
    if args.trace:
        run, layers, details = run_traced(args.workload, args.seed, args.seconds)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        ops = setup(args.workload, args.seed)
        run, wall, passes = run_untraced(ops, args.seconds)
        metrics_out, details = end_to_end(args.workload, run, wall, passes, setup_s)
    probe += [host_probe_ms() for _ in range(5)]
    if args.trace:
        layers["host.probe_ms"] = statistics.median(probe)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics_out = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec}

    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "output_sha256": run.digest.hexdigest(),
        "host_probe_ms": statistics.median(probe),
        "environment": env,
        "problems": run.problems[:20],
    })
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": metrics_out,
    }
    OUT.mkdir(exist_ok=True)
    record = {"details": details, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
