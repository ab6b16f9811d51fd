import csv
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lieiso
from lieiso.cli import DEFAULT_GROUPS, build_parser, main
from lieiso.reports import SCAN_COLUMNS, TABLE_COLUMNS
from lieiso.symmetry import scan_moduli


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_report(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--family", "c", "--c", "0", "--mu", "1", "--nu", "1"
    )
    assert code == 0 and err == ""
    assert "Product_SO2" in out
    assert "index of symmetry" in out.lower()


def test_classify_json_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "--family", "c", "--c", "0", "--mu", "1", "--nu", "1", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1.0"
    assert report["input"]["family"] == "c"
    assert report["input"]["metric"] == "g_mu_nu"
    assert report["isometry"]["group_tag"] == "Product_SO2"
    assert report["isometry"]["total_dim"] == 4
    assert report["symmetry"]["index"] == 1
    np.testing.assert_allclose(report["symmetry"]["generator"], [1.0, -0.5, 0.0], atol=1e-9)
    assert report["curvature"]["scalar"] == pytest.approx(-8.5)
    assert report["killing"]["basis_labels"] == ["r0", "r1", "r2", "A1"]
    for entry in report["residuals"].values():
        assert entry["value"] <= entry["tol"]


def test_classify_family_I(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "I", "--nu", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["isometry"]["group_tag"] == "SO31"
    assert report["curvature"]["sectional_constant"] == pytest.approx(-0.5)
    assert report["curvature"]["parallel_curvature"] is True
    assert report["symmetry"]["index"] == 3


def test_classify_with_gram_matrix(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "--family", "c", "--c", "0",
        "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["input"]["metric"] == "gram"
    assert report["curvature"]["scalar"] == pytest.approx(-8.5)


def test_classify_gram_conflicts_with_parameters(capsys):
    code, _, err = run_cli(
        capsys,
        "classify", "--family", "c", "--c", "0", "--mu", "1", "--nu", "1",
        "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1",
    )
    assert code == 2
    assert "error:" in err


def test_exit_code_for_out_of_range_parameter(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--family", "c", "--c", "-2", "--mu", "5", "--nu", "1"
    )
    assert code == 2
    assert "violates the catalog constraint" in err


def test_exit_code_for_missing_c(capsys):
    code, _, err = run_cli(capsys, "classify", "--family", "c", "--mu", "1", "--nu", "1")
    assert code == 2
    assert "requires --c" in err


def test_exit_code_for_bad_gram(capsys):
    code, _, err = run_cli(
        capsys,
        "classify", "--family", "c", "--c", "0",
        "--gram", "1", "0", "0", "0", "-1", "0", "0", "0", "1",
    )
    assert code == 3
    assert "positive definite" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["classify", "--family", "c", "--c", "0.25", "--mu", "0.5", "--nu", "1", "--tol-rank", "1e-8"],
         "unrecognized arguments: --tol-rank 1e-8"),
        (["classify", "--family", "c", "--c", "0.25", "--mu", "0.5", "--nu", "1", "--tol-case", "0"],
         "unrecognized arguments: --tol-case 0"),
        (["scan", "--family", "c", "--c", "0.25", "--grid", "5"],
         "unrecognized arguments: --grid 5"),
        (["verify", "--which", "metrics", "--points", "3", "--seed", "1", "--family", "c", "--c", "4"],
         "unrecognized arguments: --family c --c 4"),
    ],
)
def test_deleted_options_are_unknown_arguments(capsys, argv, message):
    # The rank cutoff and the snap distance are constants, the scan's mu grid
    # has one flag, and verify draws its own groups.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--j", "--family", "I", "--nu", "1"],
        ["scan", "--family", "c", "--c", "4", "--grid-m", "5"],
    ],
)
def test_option_prefixes_are_unknown_arguments(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--family", "c", "--mu", "1", "--nu", "1"],
        ["table", "--family", "c"],
        ["scan", "--family", "c"],
    ],
)
def test_family_c_without_c_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: family c requires --c\n"


@pytest.mark.parametrize(
    "command,c,code,error",
    [
        ("scan", "1e-6", 3, "symmetric form is degenerate (rank 1)"),
        ("table", "1e-6", 3, "symmetric form is degenerate (rank 1)"),
        ("scan", "1e-9", 3, "symmetric form is degenerate (rank 1)"),
        ("table", "1e-9", 3, "symmetric form is degenerate (rank 1)"),
        ("scan", "0.999999999", 3, "symmetric form is degenerate (rank 1)"),
        ("table", "0.999999999", 3, "symmetric form is degenerate (rank 1)"),
        ("scan", "-1e-9", 3, "symmetric form is degenerate (rank 2)"),
        ("table", "-1e-9", 3, "symmetric form is degenerate (rank 2)"),
        ("scan", "1e8", 1, "constant curvature must give the full index"),
        ("table", "1e8", 1, "constant curvature must give the full index"),
        ("scan", "1.000000001", 3, "symmetric form is degenerate (rank 2)"),
        ("table", "1.000000001", 3, "symmetric form is degenerate (rank 2)"),
        ("table", "1.0001", 3, "symmetric form is degenerate (rank 2)"),
        ("scan", "-1e-6", 0, None),
        ("table", "-1e-6", 0, None),
        ("scan", "-1e8", 0, None),
        ("table", "-1e8", 0, None),
        ("table", "1.002", 0, None),
    ],
)
def test_outcomes_of_scans_and_tables_near_the_branch_points(capsys, command, c, code, error):
    # The first point that fails decides the outcome, whatever the order in
    # which the points are analysed.
    got, out, err = run_cli(capsys, command, "--family", "c", f"--c={c}")
    assert got == code
    if error is None:
        assert err == "" and out
    else:
        assert out == ""
        assert err == f"error: {error}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--c", "4"],
        ["classify", "--family", "I", "--c", "4", "--nu", "1"],
        ["scan", "--family", "I", "--c", "4"],
    ],
)
def test_c_without_family_c_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --c applies only to --family c\n"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["classify", "--family", "c", "--c", "0", "--gram", "nan", "0", "0", "0", "1", "0", "0", "0", "1"], 3),
        (["classify", "--family", "c", "--c", "0", "--gram", "1", "0", "0", "0", "inf", "0", "0", "0", "1"], 3),
        (["classify", "--family", "c", "--c", "0", "--mu", "inf", "--nu", "1"], 2),
        (["classify", "--family", "c", "--c", "0", "--mu", "1", "--nu", "inf"], 2),
        (["classify", "--family", "c", "--c", "1", "--lambda", "nan", "--nu", "1"], 2),
        (["classify", "--family", "c", "--c", "nan", "--mu", "1", "--nu", "1"], 2),
        (["table", "--family", "c", "--c", "nan"], 2),
        (["scan", "--family", "c", "--c", "inf"], 2),
    ],
)
def test_non_finite_input_is_rejected(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "argv,code,outcome",
    [
        (["--c", "4", "--gram", "1", "1", "0", "1", "4.000000001", "0", "0", "0", "1.5"], 0, "TranslationsOnly"),
        # the metric mu = 3.9999999 of the catalog, unsnapped
        (["--c", "4", "--gram", "1", "1", "0", "1", "3.9999999", "0", "0", "0", "1.5"], 0, "TranslationsOnly"),
        # 1e-10 off the line, the parallel-curvature decision and the Singer
        # residual test disagree
        (["--c", "2", "--gram", "1", "1.0000000001", "0", "1.0000000001", "2", "0", "0", "0", "0.3"],
         1, "a symmetric metric cannot have trivial isotropy here"),
        (["--c", "2", "--gram", "1", "1.000000001", "0", "1.000000001", "2", "0", "0", "0", "0.3"],
         0, "TranslationsOnly"),
        # the Ricci spectrum has three distinct eigenvalues here; an e-frame
        # search space once found an isotropy that did not close
        (["--c", "2", "--gram", "1", "1.000000002", "0", "1.000000002", "2", "0", "0", "0", "0.3"],
         0, "TranslationsOnly"),
        # the Ricci spread is within RICCI_TOL, but the Singer residual test
        # drops the stabilizer; once printed a constant curvature beside
        # TranslationsOnly
        (["--c", "2", "--gram", "1", "1.0000000002", "0", "1.0000000002", "2", "0", "0", "0", "0.3"],
         1, "constant curvature must give the full index"),
    ],
)
def test_outcomes_next_to_an_so31_line(capsys, argv, code, outcome):
    # Outcomes at the default tolerances, as printed when --tol-rank and
    # --tol-case were still options.
    got, out, err = run_cli(capsys, "classify", "--family", "c", "--json", *argv)
    assert got == code
    if code == 0:
        assert json.loads(out)["isometry"]["group_tag"] == outcome
    else:
        assert err.strip() == f"error: {outcome}"


def test_no_constant_curvature_from_curvatures_near_zero(capsys):
    # every curvature is about 1e-8 here; an absolute spread test once
    # printed a constant sectional curvature beside TranslationsOnly
    code, out, err = run_cli(
        capsys, "classify", "--json", "--family", "c", "--c", "0.999999999", "--mu", "0.99", "--nu", "1e8"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["isometry"]["group_tag"] == "TranslationsOnly"
    assert report["curvature"]["sectional_constant"] is None


@pytest.mark.parametrize(
    "argv,code,error",
    [
        # on the SO(3,1) line the Singer residual test drops so(g) at c = 1e8
        (["--c", "1e8", "--mu", "1e8", "--nu", "1"], 1, "constant curvature must give the full index"),
        # diagonal Gram matrices of condition number above 1e9, rejected when
        # built although positive definite
        (["--c", "0", "--mu", "1e-8", "--nu", "1e8"], 3, "symmetric form is degenerate (rank 2)"),
        (["--c=-2", "--mu", "2e-8", "--nu", "100"], 3, "symmetric form is degenerate (rank 2)"),
        (["--c", "4", "--mu", "1.00000003", "--nu", "100"], 3, "symmetric form is degenerate (rank 2)"),
        (["--c", "0.25", "--mu", "0", "--nu", "1e-8"], 3, "symmetric form is degenerate (rank 2)"),
        # nu is only a homothety, yet extreme nu fails
        (["--c", "0.25", "--mu", "0.5", "--nu", "1e-9"], 3, "symmetric form is degenerate (rank 2)"),
        (["--family", "I", "--nu", "1e-9"], 3, "symmetric form is degenerate (rank 2)"),
        # a Gram matrix singular at the rank cutoff in its nu entry
        (["--c", "0", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1e-10"], 3,
         "symmetric form is degenerate (rank 2)"),
        (["--c", "0.25", "--mu", "0.5", "--nu", "1e9"], 3, "symmetric form is degenerate (rank 2)"),
        # and in its mu entry
        (["--c", "0", "--gram", "1", "0", "0", "0", "1e-10", "0", "0", "0", "1"], 3,
         "symmetric form is degenerate (rank 2)"),
        # the branch points c -> 1 and c -> 0
        (["--c", "1.000000001", "--mu", "1", "--nu", "1"], 3, "symmetric form is degenerate (rank 2)"),
        (["--c", "1e-6", "--mu", "0.5", "--nu", "1"], 3, "symmetric form is degenerate (rank 1)"),
        (["--c", "0.999999999", "--mu", "0.9999999995", "--nu", "1"], 3, "Gram matrix is not symmetric"),
    ],
)
def test_outcomes_of_in_range_inputs_that_still_fail(capsys, argv, code, error):
    # In-range inputs at extreme scales and near the branch points that the
    # analysis does not classify yet; pinned so that a change of outcome shows.
    family = [] if argv[0] == "--family" else ["--family", "c"]
    got, out, err = run_cli(capsys, "classify", "--json", *family, *argv)
    assert got == code
    assert out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize(
    "argv,tag,index",
    [
        (["--c", "0", "--mu", "1e4", "--nu", "1"], "Product_SO2", 1),
        (["--c", "0", "--mu", "1e6", "--nu", "1"], "Product_SO2", 1),
        (["--c", "0", "--mu", "1e8", "--nu", "1"], "Product_SO2", 1),
        (["--c", "0.25", "--mu", "0.5", "--nu", "1e8"], "TranslationsOnly", 1),
        (["--c=-2", "--mu", "1e-5", "--nu", "1"], "TranslationsOnly", 0),
        (["--c", "4", "--mu", "1.000003", "--nu", "1"], "TranslationsOnly", 0),
        (["--c", "0.25", "--mu", "0", "--nu", "1e-7"], "TranslationsOnly", 1),
        (["--c=-2", "--mu", "2e-7", "--nu", "1e-8"], "TranslationsOnly", 0),
        (["--c", "0", "--mu", "1e4", "--nu", "1e8"], "Product_SO2", 1),
        (["--c", "0.6", "--mu", "0.5", "--nu", "1e-8"], "TranslationsOnly", 0),
        (["--c=-2", "--mu", "2e-6", "--nu", "1e-8"], "TranslationsOnly", 0),
        (["--family", "I", "--nu", "1e8"], "SO31", 3),
        (["--c", "0", "--mu", "1e-8", "--nu", "1"], "Product_SO2", 1),
        (["--c", "0", "--mu", "1e-6", "--nu", "1"], "Product_SO2", 1),
        (["--c", "0", "--mu", "1e-5", "--nu", "1"], "Product_SO2", 1),
        (["--c", "0", "--mu", "1e8", "--nu", "1e8"], "Product_SO2", 1),
        (["--c", "4", "--mu", "4", "--nu", "1e7"], "SO31", 3),
        (["--c", "0.25", "--mu", "0.5", "--nu", "1e-7"], "TranslationsOnly", 1),
        (["--c", "1e6", "--mu", "1e6", "--nu", "1"], "SO31", 3),
        (["--c", "1e7", "--mu", "1e7", "--nu", "1"], "SO31", 3),
    ],
)
def test_outcomes_of_in_range_inputs_that_once_failed(capsys, argv, tag, index):
    # These failed the Killing closure check while the Singer search space
    # was solved in the e-frame (the first five), while the brackets were
    # formed pair by pair from a recomputed copy of the connection (the next
    # three) or while the closure test was absolute (the next four).  The
    # last eight failed while the index was decided in the e-frame, against
    # an absolute certificate (index 2, a certificate too large, or on the
    # SO(3,1) line at c = 1e6 an isotropy dropped by nabla^2 R).  Each
    # classifies as its stratum says, and its relative closure residual and
    # certificate are within the tolerances the report prints beside them.
    family = [] if argv[0] == "--family" else ["--family", "c"]
    got, out, err = run_cli(capsys, "classify", "--json", *family, *argv)
    assert got == 0 and err == ""
    report = json.loads(out)
    assert report["isometry"]["group_tag"] == tag
    assert report["symmetry"]["index"] == index
    for name in ("killing_closure", "symmetry_certificate"):
        assert report["residuals"][name]["value"] <= report["residuals"][name]["tol"], name


def test_exit_code_for_unwritable_output(capsys):
    code, _, err = run_cli(
        capsys,
        "classify", "--family", "I", "--nu", "1",
        "--out", "/nonexistent-dir/report.json",
    )
    assert code == 4
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    assert main(["classify"]) == 2  # --family is required
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "c", "--c", "4", "--grid-mu", "0"],
        ["scan", "--family", "c", "--c", "1", "--grid-mu", "0"],
        ["scan", "--family", "c", "--c", "-2", "--grid-mu", "-1"],
        ["scan", "--family", "c", "--c", "0.25", "--grid-nu", "0"],
        ["scan", "--family", "c", "--c", "0.25", "--grid-nu", "-3"],
        ["verify", "--which", "metrics", "--points", "0"],
    ],
)
def test_sizes_below_one_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at least 1" in err


def test_table_csv_covers_all_strata(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 14
    assert list(rows[0].keys()) == TABLE_COLUMNS
    by_key = {(r["family"], r["c"], r["metric"], r["constraint"]): r for r in rows}
    assert len(by_key) == 14
    indices = sorted(int(r["index"]) for r in rows)
    assert indices.count(0) == 5 and indices.count(1) == 6 and indices.count(3) == 3
    for r in rows:
        if r["index"] == "3":
            assert r["generator"] == "all"
        elif r["index"] == "0":
            assert r["generator"] == ""
        else:
            assert len(r["generator"].split()) == 3


def test_table_single_group(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "c", "--c", "0.25")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert {r["constraint"] for r in rows} == {
        "mu = 0",
        "0 < mu < 1, mu != sqrt(c)",
        "mu = sqrt(c)",
    }


def test_table_json_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "I", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["index"] == "3"


def test_scan_json_and_csv(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "c", "--c", "0.25", "--grid-mu", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["containment_ok"] is True
    assert payload["summary"]["max_index"] == 1
    assert {"params", "group_tag", "singular"} <= set(payload["points"][0].keys())

    target = tmp_path / "scan.csv"
    code = main(
        ["scan", "--family", "c", "--c", "0.25", "--grid-mu", "5",
         "--format", "csv", "--out", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(target.open()))
    assert list(rows[0].keys()) == SCAN_COLUMNS
    assert len(rows) == len(payload["points"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_exits_1_when_its_audit_fails(capsys, monkeypatch, fmt):
    # the output is written as for a passing scan, then the exit code says
    # that the verification failed
    failed = dataclasses.replace(scan_moduli("c", 0.25, grid_mu=5), containment_ok=False)
    monkeypatch.setattr(lieiso.cli, "scan_moduli", lambda *args, **kwargs: failed)
    code, out, err = run_cli(capsys, "scan", "--family", "c", "--c", "0.25", "--format", fmt)
    assert code == 1
    assert err == "error: the singular-locus audit of the scan failed\n"
    if fmt == "json":
        assert json.loads(out)["summary"]["passed"] is False
    else:
        assert len(list(csv.DictReader(io.StringIO(out)))) == len(failed.points)


@pytest.mark.parametrize("order", [("-0.0", "0.0"), ("0.0", "-0.0")])
def test_scans_at_c_zero_print_the_sign_they_were_given(capsys, order):
    # both groups snap onto the same boundary lines, which are built once
    # per group, but each scan prints its own c, in either order
    for c in order:
        code, out, _ = run_cli(capsys, "scan", "--family", "c", "--c", c, "--grid-mu", "2", "--grid-nu", "1")
        assert code == 0
        payload = json.loads(out)
        negative = c.startswith("-")
        assert {row["c"] for row in payload["points"]} == {"-0" if negative else "0"}
        assert payload["summary"]["c"] == 0.0 and np.signbit(payload["summary"]["c"]) == negative


def test_scan_grid_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--family", "I", "--grid-mu", "4", "--grid-nu", "2", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4  # family I has a single parameter line


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--points", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "PASS"
    assert all(line.startswith("ok") for line in lines[:-1])


@pytest.mark.parametrize("argv", [
    ["--c", "2", "--gram", "1", "1.0000000001", "0", "1.0000000001", "2", "0", "0", "0", "0.3"],
    ["--c", "1e8", "--mu", "1e8", "--nu", "1"],
], ids=["gram", "1e8"])
def test_internal_consistency_failure_is_reported_cleanly(capsys, argv):
    # These in-range inputs still fail an internal consistency check; the
    # CLI reports the failure as one error line with exit 1, not a traceback.
    code, out, err = run_cli(capsys, "classify", "--family", "c", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_import_leaves_test_and_symbolic_packages_unloaded():
    # Every CLI process pays for what `lieiso.cli` imports at the top level.
    src = str(Path(lieiso.__file__).resolve().parents[1])
    code = (
        "import sys, lieiso.cli; "
        "print(sorted(m for m in ('sympy', 'hypothesis', 'scipy', 'pytest') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}, cwd=src)
    assert done.stdout.strip() == "[]"


def test_verify_subsets(capsys):
    code, out, _ = run_cli(capsys, "verify", "--which", "symmetry")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # six groups + verdict
    assert lines[-1] == "PASS"


def test_outputs_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "classify", "--family", "c", "--c", "0.25",
                          "--mu", "0.3", "--nu", "1.0", "--json")
    _, second, _ = run_cli(capsys, "classify", "--family", "c", "--c", "0.25",
                           "--mu", "0.3", "--nu", "1.0", "--json")
    assert first == second
    _, t1, _ = run_cli(capsys, "table")
    _, t2, _ = run_cli(capsys, "table")
    assert t1 == t2
    _, v1, _ = run_cli(capsys, "verify", "--points", "3", "--seed", "5")
    _, v2, _ = run_cli(capsys, "verify", "--points", "3", "--seed", "5")
    assert v1 == v2


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["classify", "--family", "I", "--nu", "1", "--json",
                 "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(target.read_text())
    assert report["isometry"]["group_tag"] == "SO31"


def test_boundary_snap_is_reported(capsys):
    _, out, _ = run_cli(
        capsys,
        "classify", "--family", "c", "--c", "4",
        "--mu", "3.99999999", "--nu", "1", "--json",
    )
    report = json.loads(out)
    assert report["input"]["boundary_snapped"] is True
    assert report["isometry"]["group_tag"] == "SO31"


# Output of `lieiso table` and `lieiso scan --format csv`, byte for byte, as
# printed before the stratum decisions were gathered into one table, and of
# `lieiso verify --which metrics`, as printed by the scalar finite-difference
# stencils before they were evaluated as stacks.
CLI_GOLDENS = Path(__file__).parent / "cli_goldens"


def test_table_matches_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    assert out == (CLI_GOLDENS / "table.csv").read_bytes().decode("utf-8")


@pytest.mark.parametrize("grid", [5, 7])
@pytest.mark.parametrize("family,c", DEFAULT_GROUPS)
def test_scan_csv_matches_golden_bytes(capsys, family, c, grid):
    argv = ["scan", "--family", family, "--grid-mu", str(grid), "--format", "csv"]
    if c is not None:
        argv += ["--c", f"{c:g}"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    name = f"scan_{family}{'' if c is None else f'{c:g}'}_grid{grid}.csv"
    assert out == (CLI_GOLDENS / name).read_bytes().decode("utf-8")


# `lieiso classify --json` at one sample point of each row of `lieiso table`,
# as printed before the tolerances that only one value reached became
# constants and constant sectional curvature was decided once.
CLASSIFY_GOLDENS = [
    ("I", None, None), ("c", "-2", ("mu", "1.7")), ("c", "-2", ("mu", "2")), ("c", "0", ("mu", "2")),
    ("c", "0", None), ("c", "0.25", ("mu", "0")), ("c", "0.25", ("mu", "0.7")), ("c", "0.25", ("mu", "0.5")),
    ("c", "1", ("mu", "0.8")), ("c", "1", ("mu", "1")), ("c", "1", ("lambda", "0.8")),
    ("c", "4", ("mu", "2.9")), ("c", "4", ("mu", "2")), ("c", "4", ("mu", "4")),
]


@pytest.mark.parametrize("family,c,param", CLASSIFY_GOLDENS)
def test_classify_json_matches_golden_bytes(capsys, family, c, param):
    argv = ["classify", "--family", family, "--nu", "1.5", "--json"]
    name = f"classify_{family}"
    if c is not None:
        argv += ["--c", c]
        name += c
    if param is not None:
        argv += [f"--{param[0]}", param[1]]
        name += f"_{param[0]}{param[1]}"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (CLI_GOLDENS / f"{name}_nu1.5.json").read_bytes().decode("utf-8")


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_metrics_matches_golden_bytes(capsys, seed):
    code, out, _ = run_cli(capsys, "verify", "--which", "metrics", "--points", "20", "--seed", str(seed))
    assert code == 0
    assert out == (CLI_GOLDENS / f"verify_metrics_seed{seed}.txt").read_bytes().decode("utf-8")


def test_readme_commands_parse():
    # Parses, runs nothing: a flag deleted from the CLI cannot stay documented.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("lieiso ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
