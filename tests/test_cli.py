"""The command-line interface: exit codes, artifacts, determinism."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpkit
import dpkit.solve
from dpkit.cli import main


def write_config(tmp_path, name="run.json", **extra):
    data = {
        "mesh": {"kind": "interval", "n": 32},
        "fields": {"p": 2.0, "q": 3.0, "mu": 1.0, "dim": 3},
        "output_dir": "out",
        "seed": 0,
    }
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_report(tmp_path):
    return json.loads((tmp_path / "out" / "report.json").read_text())


# ---------------------------------------------------------------------------
# validate


def test_validate_default_gate_passes(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate", str(path), "--no-timestamp"]) == 0
    rep = read_report(tmp_path)
    assert rep["passed"] is True
    assert rep["reports"]["H"]["passed"] is True
    assert "Hprime" in rep["reports"]  # all checks always reported


def test_validate_failing_gate_exits_one(tmp_path):
    path = write_config(tmp_path)
    # q/p = 1.5 > 1 + 1/3 violates the ratio condition
    assert main(["validate", str(path), "--check", "Hprime", "--no-timestamp"]) == 1


def test_validate_reports_witness_when_q_supercritical(tmp_path):
    path = write_config(
        tmp_path, fields={"p": 2.0, "q": 6.5, "mu": 1.0, "dim": 3}
    )  # p* = 6 < q
    assert main(["validate", str(path), "--check", "H", "--no-timestamp"]) == 1
    rep = read_report(tmp_path)
    checks = {c["name"]: c for c in rep["reports"]["H"]["checks"]}
    assert not checks["q < p*"]["passed"]
    assert "witness" in checks["q < p*"]


def test_validate_malformed_config_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


# ---------------------------------------------------------------------------
# norm


def test_norm_constant_two(tmp_path):
    cfgpath = write_config(
        tmp_path, fields={"p": 2.0, "q": 2.0, "mu": 0.0, "dim": 3}
    )
    fn = tmp_path / "u.csv"
    rows = ["node_index,value"] + [f"{i},2.0" for i in range(33)]
    fn.write_text("\n".join(rows) + "\n")
    assert main(["norm", str(cfgpath), "--input", str(fn), "--no-timestamp"]) == 0
    rep = read_report(tmp_path)
    assert rep["norm"] == pytest.approx(2.0, abs=1e-10)
    assert rep["modular"]["total"] == pytest.approx(4.0, rel=1e-12)


def test_norm_plastic_number_fixture(tmp_path):
    cfgpath = write_config(tmp_path)
    fn = tmp_path / "u.csv"
    rows = ["node_index,value"] + [f"{i},1.0" for i in range(33)]
    fn.write_text("\n".join(rows) + "\n")
    assert main(["norm", str(cfgpath), "--input", str(fn), "--no-timestamp"]) == 0
    assert read_report(tmp_path)["norm"] == pytest.approx(1.3247180, abs=1e-6)


def test_norm_zero_function(tmp_path):
    cfgpath = write_config(tmp_path)
    fn = tmp_path / "u.csv"
    rows = ["node_index,value"] + [f"{i},0.0" for i in range(33)]
    fn.write_text("\n".join(rows) + "\n")
    assert main(["norm", str(cfgpath), "--input", str(fn), "--no-timestamp"]) == 0
    assert read_report(tmp_path)["norm"] == 0.0


def test_norm_node_mismatch_exits_two(tmp_path):
    cfgpath = write_config(tmp_path)
    fn = tmp_path / "u.csv"
    fn.write_text("node_index,value\n0,1.0\n1,2.0\n")
    assert main(["norm", str(cfgpath), "--input", str(fn)]) == 2


def test_norm_missing_input_exits_two(tmp_path, capsys):
    cfgpath = write_config(tmp_path)
    missing = tmp_path / "missing.csv"
    assert main(["norm", str(cfgpath), "--input", str(missing), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("missing file:") and "missing.csv" in err


def test_norm_one_column_input_exits_two(tmp_path, capsys):
    # node_index alone: no row holds a value to read
    cfgpath = write_config(tmp_path)
    fn = tmp_path / "u.csv"
    fn.write_text("node_index\n" + "".join(f"{i}\n" for i in range(33)))
    assert main(["norm", str(cfgpath), "--input", str(fn), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: every row needs a node_index and a value")
    assert not (tmp_path / "out" / "report.json").exists()


# ---------------------------------------------------------------------------
# eigen


def test_eigen_linear_interval(tmp_path):
    cfgpath = write_config(tmp_path, mesh={"kind": "interval", "n": 128})
    out = tmp_path / "eig.csv"
    code = main(
        ["eigen", str(cfgpath), "--r", "2.0", "--eigenfunction", str(out), "--no-timestamp"]
    )
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["lambda"] == pytest.approx(np.pi**2, rel=1e-3)
    assert rep["r"] == 2.0
    assert rep["iterations"] >= 1
    assert out.exists()


def test_eigen_rect_below_two(tmp_path, recwarn):
    cfgpath = write_config(tmp_path, mesh={"kind": "rect", "nx": 8, "ny": 8})
    assert main(["eigen", str(cfgpath), "--r", "1.8", "--no-timestamp"]) == 0
    rep = read_report(tmp_path)
    assert rep["r"] == 1.8 and rep["lambda"] > 0.0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_eigen_rejects_bad_exponent(tmp_path):
    cfgpath = write_config(tmp_path)
    assert main(["eigen", str(cfgpath), "--r", "0.5"]) == 2


@pytest.mark.parametrize("r", ["nan", "inf"])
def test_eigen_rejects_non_finite_exponent(tmp_path, capsys, r):
    cfgpath = write_config(tmp_path)
    assert main(["eigen", str(cfgpath), "--r", r]) == 2
    assert f"requires a finite r > 1, got r = {r}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_builtin_poisson(tmp_path):
    cfgpath = write_config(
        tmp_path,
        mesh={"kind": "interval", "n": 64},
        problem={"kind": "builtin", "name": "poisson-1d"},
    )
    assert main(["solve", str(cfgpath), "--no-timestamp"]) == 0
    rep = read_report(tmp_path)
    assert rep["converged"] is True
    assert rep["residual"] <= 1e-10
    assert rep["l2_error"] <= 2e-4
    out = tmp_path / "out"
    for artifact in ("solution.csv", "nodes.csv", "elements.csv", "boundary.csv"):
        assert (out / artifact).exists()
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "node_index,x,value"


def test_solve_rhs_expression_with_vtk(tmp_path):
    cfgpath = write_config(tmp_path, problem={"kind": "rhs", "expr": "sin(pi * x)"})
    assert main(["solve", str(cfgpath), "--vtk", "--no-timestamp"]) == 0
    assert (tmp_path / "out" / "solution.vtk").exists()
    rep = read_report(tmp_path)
    assert rep["residual_recomputed"] == pytest.approx(rep["residual"], rel=1e-14, abs=1e-300)


def test_solve_convection_builds_hat_norms_once(tmp_path, hat_norm_builds):
    # f = 1 + 0.2 xi satisfies |f| <= 1 + 0.2 |xi| and, by Young's
    # inequality, f s <= 0.1 |xi|^2 + 0.35 s^2 + 1
    cfgpath = write_config(
        tmp_path,
        problem={
            "kind": "term",
            "expr": "1 + 0.2 * xi1",
            "r": 2.0,
            "a1": 0.2,
            "a2": 0.0,
            "alpha": 1.0,
            "b1": 0.1,
            "b2": 0.35,
            "omega": 1.0,
        },
    )
    assert main(["solve", str(cfgpath), "--no-timestamp"]) == 0
    # the Picard loop and the report's recomputed residual share one build
    assert hat_norm_builds == [(4, 1e-12)]
    rep = read_report(tmp_path)
    assert rep["converged"] is True
    assert rep["residual_recomputed"] == rep["residual"]


@pytest.mark.parametrize(
    "extra",
    [
        {"seed": True},
        {"quadrature_order": True},
        {"mesh": {"kind": "interval", "n": True}},
        {"mesh": {"kind": "rect", "nx": True}},
        {"fields": {"p": 2.0, "q": 3.0, "mu": 1.0, "dim": True}},
        {"tolerances": {"norm_tol": True}},
    ],
    ids=["seed", "quadrature_order", "n", "nx", "dim", "norm_tol"],
)
def test_boolean_where_a_number_is_expected_exits_two(tmp_path, capsys, extra):
    cfgpath = write_config(tmp_path, problem={"kind": "rhs", "expr": "1"}, **extra)
    assert main(["solve", str(cfgpath), "--no-timestamp"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "mesh, p",
    [
        ('"xspan": [false, true]', "2.0"),
        ('"xspan": ["a", "b"]', "2.0"),
        ('"yspan": [0, "1"]', "2.0"),
        ('"xspan": [0, 1e400]', "2.0"),
        ('"xspan": [0, 1' + "0" * 400 + "]", "2.0"),
        ("", '{"kind": "affine", "a": [true, 0.0], "b": 2.0}'),
    ],
    ids=["bool-span", "string-span", "string-yspan", "overflow-span", "huge-int-span", "bool-slope"],
)
def test_bad_span_or_slope_element_exits_two(tmp_path, capsys, mesh, p):
    cfgpath = tmp_path / "run.json"
    cfgpath.write_text(
        '{"mesh": {"kind": "rect", "nx": 4, "ny": 4' + (", " + mesh if mesh else "") + "}, "
        '"fields": {"p": ' + p + ', "q": 3.0, "mu": 1.0}, '
        '"problem": {"kind": "rhs", "expr": "1"}, "output_dir": "out"}'
    )
    assert main(["solve", str(cfgpath), "--no-timestamp"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


BIG = 10**400  # a JSON int too large for a float
HUGE = 10**18  # a cell count whose first array (8 EiB) exceeds any address space


@pytest.mark.parametrize(
    "extra",
    [
        {"fields": {"p": BIG, "q": 3.0, "mu": 1.0, "dim": 3}},
        {"problem": {"kind": "term", "expr": "0.1 * s", "r": BIG,
                     "a1": 0.1, "a2": 0.0, "b1": 0.1, "b2": 0.0}},
        {"problem": {"kind": "term", "expr": "0.1 * s", "alpha": BIG,
                     "a1": 0.1, "a2": 0.0, "b1": 0.1, "b2": 0.0}},
        {"tolerances": {"newton_tol": BIG}},
        {"fields": {"p": 2.0, "q": 3.0, "mu": 1.0, "dim": BIG}},
        {"seed": 2**1024},
        {"output_dir": 5},
        {"mesh": {"kind": "files", "path": 5}},
        {"fields": {"p": 2.0, "q": 3.0, "mu": {"kind": "table", "path": 5}}},
        {"fields": {"p": 2.0, "q": 3.0, "mu": {"kind": "table", "path": "mu.csv"}}},
        {"mesh": {"kind": "interval", "n": HUGE}},
        {"mesh": {"kind": "rect", "nx": HUGE, "ny": HUGE}},
    ],
    ids=["bigint-p", "bigint-r", "bigint-alpha", "bigint-tolerance", "bigint-dim",
         "bigint-seed", "output-dir-number", "mesh-path-number", "table-path-number",
         "one-column-table", "huge-interval", "huge-rect"],
)
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_malformed_config_value_exits_two(tmp_path, capsys, command, extra):
    # node_index alone: every node's index would be read as its value
    (tmp_path / "mu.csv").write_text("node_index\n" + "".join(f"{i}\n" for i in range(9)))
    data = {
        "mesh": {"kind": "interval", "n": 8},
        "fields": {"p": 2.0, "q": 3.0, "mu": 1.0, "dim": 3},
        "problem": {"kind": "rhs", "expr": "1"},
        "output_dir": "out",
    }
    data.update(extra)
    cfgpath = tmp_path / "run.json"
    cfgpath.write_text(json.dumps(data))
    assert main([command, str(cfgpath), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_solve_without_problem_exits_two(tmp_path):
    cfgpath = write_config(tmp_path)
    assert main(["solve", str(cfgpath)]) == 2


def test_solve_bad_margin_exits_one(tmp_path):
    cfgpath = write_config(
        tmp_path,
        problem={
            "kind": "term",
            "expr": "0.1 * s",
            "a1": 0.1,
            "a2": 0.1,
            "b1": 2.0,
            "b2": 0.0,
            "r": 2.0,
        },
    )
    assert main(["solve", str(cfgpath)]) == 1


def test_solve_numeric_failure_exits_three(tmp_path):
    cfgpath = write_config(
        tmp_path,
        problem={
            "kind": "term",
            "expr": "100 * s + 1",
            "a1": 0.0,
            "a2": 100.0,
            "b1": 0.01,
            "b2": 0.01,
            "r": 2.0,
        },
    )
    assert main(["solve", str(cfgpath)]) == 3


@pytest.mark.parametrize(
    "problem",
    [
        {"kind": "rhs", "expr": "1/(x-x)"},
        # the Picard warm start is u = 0, where 1/s is infinite
        {"kind": "term", "expr": "1/s", "a1": 0.1, "a2": 0.1, "b1": 0.1, "b2": 0.1, "r": 2.0},
    ],
)
def test_solve_non_finite_forcing_exits_three(tmp_path, capsys, recwarn, problem):
    cfgpath = write_config(tmp_path, problem=problem)
    assert main(["solve", str(cfgpath)]) == 3
    assert "non-finite integrand on element 0" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_solve_non_finite_phase_exits_two(tmp_path, capsys, recwarn):
    cfgpath = write_config(
        tmp_path,
        fields={"p": 2.0, "q": 3.0, "mu": {"kind": "expr", "expr": "1/(x-x)"}, "dim": 3},
        problem={"kind": "rhs", "expr": "1"},
    )
    assert main(["solve", str(cfgpath)]) == 2
    assert "field mu takes non-finite values on the mesh" in capsys.readouterr().err
    assert not recwarn.list


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", ["1 + x/0", "1 + 1/0", "1 + 10^400", "1 + (0-2)^0.5"])
def test_non_finite_weight_is_rejected_by_solve_and_reported_by_validate(tmp_path, capsys, mu):
    cfgpath = write_config(
        tmp_path,
        mesh={"kind": "interval", "n": 8},
        fields={"p": 2.0, "q": 3.0, "mu": {"kind": "expr", "expr": mu}},
        problem={"kind": "rhs", "expr": "1"},
    )
    assert main(["solve", str(cfgpath), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert "invalid input: field mu takes non-finite values on the mesh" in err
    assert "Traceback" not in err
    assert main(["validate", str(cfgpath), "--no-timestamp"]) == 1
    assert capsys.readouterr().err == ""
    holder = {"name": "holder constant mu (empirical)", "passed": False, "margin": "nan"}
    assert holder in read_report(tmp_path)["reports"]["A1-sufficient"]["checks"]


MU_NEGATIVE = "the weight mu must be nonnegative"
EXPONENT_AT_MOST_ONE = "exponent fields must satisfy p, q > 1 on the mesh"
RECT_8 = {"kind": "rect", "nx": 8, "ny": 8}


@pytest.mark.parametrize(
    "mesh, fields, message, failing_check",
    [
        (None, {"p": 2.0, "q": 3.0, "mu": -0.5, "dim": 3}, MU_NEGATIVE, "mu >= 0"),
        (
            None,
            {"p": 2.0, "q": 3.0, "mu": {"kind": "expr", "expr": "x - 0.5"}, "dim": 3},
            MU_NEGATIVE,
            "mu >= 0",
        ),
        (RECT_8, {"p": 2.0, "q": 3.0, "mu": -1.0}, MU_NEGATIVE, "mu >= 0"),
        (RECT_8, {"p": 0.5, "q": 3.0, "mu": 1.0}, EXPONENT_AT_MOST_ONE, "p > 1"),
        (RECT_8, {"p": 2.0, "q": 0.5, "mu": 1.0}, EXPONENT_AT_MOST_ONE, "q >= 1"),
    ],
    ids=["mu-negative", "mu-sign-change", "mu-negative-2d", "p-below-one", "q-below-one"],
)
def test_solve_rejects_inadmissible_phase_that_validate_reports(
    tmp_path, capsys, mesh, fields, message, failing_check
):
    extra = {"mesh": mesh} if mesh else {}
    cfgpath = write_config(
        tmp_path, fields=fields, problem={"kind": "rhs", "expr": "1"}, **extra
    )
    assert main(["solve", str(cfgpath), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert f"invalid input: {message}" in err
    assert "Traceback" not in err
    assert main(["validate", str(cfgpath), "--no-timestamp"]) == 1
    assert f"  {failing_check}: margin" in capsys.readouterr().out
    checks = [c for r in read_report(tmp_path)["reports"].values() for c in r["checks"]]
    assert any(c["name"] == failing_check and not c["passed"] for c in checks)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_reports_no_feasible_beta_for_a_negative_weight(tmp_path):
    cfgpath = write_config(
        tmp_path, fields={"p": 2.0, "q": 3.0, "mu": {"kind": "expr", "expr": "x - 0.5"}, "dim": 3}
    )
    assert main(["validate", str(cfgpath), "--check", "all", "--no-timestamp"]) == 1
    report = read_report(tmp_path)
    assert report["beta_max"] == "-inf"
    (check,) = report["reports"]["A1"]["checks"]
    assert check["margin"] == "-inf" and check["witness"]["x"][0] < 0.5 < check["witness"]["y"][0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_reports_a_non_finite_phase(tmp_path, capsys):
    cfgpath = write_config(
        tmp_path, fields={"p": {"kind": "expr", "expr": "2 + 1/x"}, "q": 6.0, "mu": 1.0, "dim": 3}
    )  # p = inf at x = 0
    assert main(["validate", str(cfgpath), "--check", "all", "--no-timestamp"]) == 1
    assert "  p bounded: margin inf" in capsys.readouterr().out
    reports = read_report(tmp_path)["reports"]
    assert {"name": "p bounded", "passed": False, "margin": "inf"} in reports["Hpp"]["checks"]
    lipschitz = {"name": "lipschitz constant p (empirical)", "passed": False, "margin": "inf"}
    assert lipschitz in reports["Hprime"]["checks"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "p, q, failing, margin",
    [
        (2.0, -1.0, "holder constant q (empirical)", "nan"),
        (2.0, 0.0, "holder constant q (empirical)", "nan"),
        (0.0, 3.0, "q/p <= 1 + alpha/N", "-inf"),
    ],
    ids=["q-negative", "q-zero", "p-zero"],
)
def test_validate_reports_a_non_positive_exponent(tmp_path, capsys, p, q, failing, margin):
    cfgpath = write_config(tmp_path, fields={"p": p, "q": q, "mu": 1.0, "dim": 3})
    assert main(["validate", str(cfgpath), "--no-timestamp"]) == 1
    assert capsys.readouterr().err == ""
    report = read_report(tmp_path)["reports"]["A1-sufficient"]
    assert not report["passed"]
    checks = {c["name"]: c for c in report["checks"]}
    assert not checks[failing]["passed"] and checks[failing]["margin"] == margin


def test_norm_of_a_builtin_solve_matches_its_solution_norm(tmp_path):
    # the builtin's phase, not ``fields``, is the config's phase for every command
    cfgpath = write_config(
        tmp_path,
        fields={"p": 3.5, "q": 4.0, "mu": 1.0},
        problem={"kind": "builtin", "name": "dp-1d"},
    )
    assert main(["solve", str(cfgpath), "--no-timestamp"]) == 0
    solution_norm = read_report(tmp_path)["solution_norm"]
    solution = str(tmp_path / "out" / "solution.csv")
    argv = ["norm", str(cfgpath), "--input", solution, "--which", "gradient", "--no-timestamp"]
    assert main(argv) == 0
    assert read_report(tmp_path)["norm"] == solution_norm


def test_norm_rejects_negative_weight(tmp_path, capsys):
    cfgpath = write_config(tmp_path, fields={"p": 2.0, "q": 3.0, "mu": -0.5, "dim": 3})
    fn = tmp_path / "u.csv"
    values = np.sin(np.pi * np.linspace(0.0, 1.0, 33)).tolist()
    rows = ["node_index,value"] + [f"{i},{v!r}" for i, v in enumerate(values)]
    fn.write_text("\n".join(rows) + "\n")
    assert main(["norm", str(cfgpath), "--input", str(fn), "--no-timestamp"]) == 2
    assert f"invalid input: {MU_NEGATIVE}" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_merit_overflow_is_a_quiet_numeric_failure(tmp_path, capsys, monkeypatch):
    # for p = 6 and a load of 1e30 the squares of the trial residuals
    # overflow in the line-search merit; every such trial is rejected
    # without a numpy warning
    merits = []
    merit = dpkit.solve._merit

    def recorded_merit(residual):
        merits.append(merit(residual))
        return merits[-1]

    monkeypatch.setattr(dpkit.solve, "_merit", recorded_merit)
    cfgpath = write_config(
        tmp_path,
        mesh={"kind": "rect", "nx": 8, "ny": 8},
        fields={"p": 6.0, "q": 8.0, "mu": 1.0},
        problem={"kind": "rhs", "expr": "1e30"},
    )
    assert main(["solve", str(cfgpath)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numeric failure: Newton line search stalled")
    assert err[0].endswith("(iteration 0)")
    assert np.isinf(merits).any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_trial_residual_overflow_is_a_quiet_numeric_failure(tmp_path, capsys):
    # at a load of 1e60 the trial steps overflow the power weights of the
    # residual itself; such trials read non-finite and are rejected
    cfgpath = write_config(
        tmp_path,
        mesh={"kind": "rect", "nx": 8, "ny": 8},
        fields={"p": 6.0, "q": 8.0, "mu": 1.0},
        problem={"kind": "rhs", "expr": "1e60"},
    )
    assert main(["solve", str(cfgpath)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numeric failure: Newton line search stalled")


def test_importing_the_cli_loads_no_quadrature_or_root_finder():
    # scipy.integrate and scipy.optimize serve only sobolev_conjugate_inverse;
    # numpy must wait until --threads has capped the BLAS worker pool
    code = (
        "import sys, dpkit, dpkit.cli; "
        "print([m for m in ('numpy', 'scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    )
    src = str(Path(dpkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# every name the package exports, by the module that defines it
_EXPORTS = {
    "eigen": (
        "EigenResult", "coercivity_margin", "first_eigenvalue", "mass_matrix",
        "rayleigh_quotient", "stiffness_matrix", "uniqueness_margin",
    ),
    "errors": ("ConfigError", "DpkitError", "NumericError", "PreconditionError"),
    "fem": (
        "DiscreteFunction", "Mesh", "Quadrature", "build_interval_mesh", "build_rect_mesh",
        "integrate", "interpolate",
    ),
    "fields": (
        "ConditionCheck", "ConditionReport", "DoublePhase", "ScalarField",
        "check_A1_characterization", "check_A1_sufficient", "check_condition_H",
        "check_condition_Hpp", "check_condition_Hprime", "check_condition_base",
        "constant_phase", "critical_exponent", "critical_exponent_field", "estimate_holder",
        "estimate_log_holder", "field_bounds",
    ),
    "modular": (
        "LuxemburgResult", "ModularReport", "NormModularReport", "check_norm_modular",
        "luxemburg_norm", "luxemburg_report", "modular_sobolev", "poincare_ratio",
        "reverse_holder_check", "sobolev_conjugate_inverse", "truncate",
        "uniform_convexity_probe", "weighted_seminorm",
    ),
    "operator": (
        "DualBoundResult", "SimonResult", "apply_operator", "assemble_jacobian",
        "assemble_load", "assemble_residual", "boundedness_estimate", "energy",
        "gradient_check", "monotonicity_probe", "simon_inequality",
    ),
    "problems": ("ManufacturedCase", "case_names", "growth_example_term", "manufactured_case"),
    "solve": (
        "ConvectionTerm", "SolveReport", "SolverOptions", "UniquenessReport", "check_growth",
        "solve_convection", "solve_monotone", "verify_uniqueness", "weak_residual",
    ),
}  # fmt: skip


def test_package_exports_each_name_from_its_module():
    assert sorted(dpkit.__all__) == sorted(n for names in _EXPORTS.values() for n in names)
    for module, names in _EXPORTS.items():
        home = importlib.import_module(f"dpkit.{module}")
        for name in names:
            assert getattr(dpkit, name) is getattr(home, name)
            assert name in home.__all__, (module, name)
    # the submodule, never the function of the same name
    assert dpkit.modular is importlib.import_module("dpkit.modular")


def test_unset_settings_are_module_constants(monkeypatch):
    """No caller set the removed parameters, members or environment variable;
    each setting is now a module constant with the old default."""
    from dpkit import fem, fields, io, modular, operator, properties

    removed = {
        fields.check_condition_Hprime: {"pair_budget"},
        fields.check_condition_Hpp: {"pair_budget"},
        fields.check_A1_sufficient: {"pair_budget"},
        fields.check_A1_characterization: {"pair_budget"},
        fields.estimate_holder: {"pair_budget"},
        fields.estimate_log_holder: {"pair_budget"},
        dpkit.solve.check_growth: {"n_samples", "s_bound", "xi_bound"},
        dpkit.solve.verify_uniqueness: {"n_samples", "n_starts", "match_tol"},
        operator.boundedness_estimate: {"n_random", "tol"},
        modular.check_norm_modular: {"tol", "norm_tol"},
        modular.sobolev_conjugate_inverse: {"tol"},
        modular.reverse_holder_check: {"tol"},
        properties.random_smooth_function: {"modes"},
        io.save_vtk: {"name"},
        fem.Quadrature: {"order"},
        fields.ScalarField: {"kind", "params"},
    }
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__name__
    assert not hasattr(fem.gauss_interval(4), "order")
    for member in ("kind", "params", "describe"):
        assert not hasattr(fields.ScalarField.constant(2.0), member)
    assert (fields.PAIR_BUDGET, fields.A1_PAIR_BUDGET) == (2000, 4000)
    solve = dpkit.solve
    assert (solve.GROWTH_SAMPLES, solve.GROWTH_BOX) == (10_000, 1e3)
    assert (solve.UNIQUENESS_SAMPLES, solve.UNIQUENESS_MATCH_TOL) == (2000, 1e-8)
    assert (operator.DUAL_DIRECTIONS, operator.DUAL_BOUND_TOL) == (100, 1e-9)
    assert (modular.NORM_MODULAR_TOL, modular.REVERSE_HOLDER_TOL) == (1e-12, 1e-12)
    assert (modular.NORM_ROOT_TOL, modular.UNIT_NORM_BAND) == (1e-14, 1e-12)
    assert modular.SOBOLEV_QUAD_TOL == 1e-10
    # DPKIT_THREADS is not read: a count that --threads refuses changes nothing
    monkeypatch.setenv("DPKIT_THREADS", "0")
    assert main(["verify", "x.json", "--list"]) == 0


def test_solve_output_dir_override(tmp_path):
    cfgpath = write_config(
        tmp_path, problem={"kind": "builtin", "name": "poisson-1d"},
        mesh={"kind": "interval", "n": 16},
    )
    other = tmp_path / "elsewhere"
    assert main(
        ["solve", str(cfgpath), "--output-dir", str(other), "--no-timestamp"]
    ) == 0
    assert (other / "report.json").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_subset_and_list(tmp_path, capsys):
    assert main(["verify", write_config(tmp_path).as_posix(), "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "modular-unit-ball" in names
    cfgpath = write_config(tmp_path)
    code = main(
        [
            "verify",
            str(cfgpath),
            "--names",
            "modular-unit-ball,fem-partition-of-unity",
            "--no-timestamp",
        ]
    )
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["passed"] is True
    assert len(rep["properties"]) == 2


def test_verify_deterministic_bytes(tmp_path):
    cfgpath = write_config(tmp_path)
    args = [
        "verify",
        str(cfgpath),
        "--names",
        "modular-unit-ball,operator-strict-monotonicity",
        "--no-timestamp",
    ]
    assert main(args) == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == first


def test_verify_unknown_property_exits_two(tmp_path, capsys):
    cfgpath = write_config(tmp_path)
    assert main(["verify", str(cfgpath), "--names", "no-such-property"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: unknown properties: no-such-property;")
    assert not (tmp_path / "out" / "report.json").exists()


def test_verify_seed_override_changes_details(tmp_path):
    cfgpath = write_config(tmp_path)
    base = ["verify", str(cfgpath), "--names", "modular-unit-ball", "--no-timestamp"]
    assert main(base) == 0
    rep_a = read_report(tmp_path)
    assert main(base + ["--seed", "7"]) == 0
    rep_b = read_report(tmp_path)
    assert rep_a["seed"] == 0 and rep_b["seed"] == 7


# ---------------------------------------------------------------------------
# convergence


def test_convergence_poisson_1d(tmp_path):
    cfgpath = write_config(
        tmp_path, problem={"kind": "builtin", "name": "poisson-1d"}
    )
    code = main(
        ["convergence", str(cfgpath), "--meshes", "16,32,64", "--no-timestamp"]
    )
    assert code == 0
    rep = read_report(tmp_path)
    assert len(rep["l2_errors"]) == 3
    assert all(3.5 <= r <= 4.5 for r in rep["ratios"])


def test_convergence_without_a_case_exits_two(tmp_path, capsys):
    cfgpath = write_config(tmp_path)
    assert main(["convergence", str(cfgpath), "--meshes", "8,16"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: no case given")


def test_convergence_requires_exact_solution(tmp_path):
    cfgpath = write_config(tmp_path, problem={"kind": "builtin", "name": "dp-1d"})
    assert main(["convergence", str(cfgpath), "--meshes", "8,16"]) == 2


def test_convergence_bad_mesh_list(tmp_path):
    cfgpath = write_config(tmp_path)
    assert main(["convergence", str(cfgpath), "--case", "poisson-1d", "--meshes", "8"]) == 2
    assert main(["convergence", str(cfgpath), "--case", "poisson-1d", "--meshes", "a,b"]) == 2


def test_convergence_oversized_mesh_exits_two(tmp_path, capsys):
    cfgpath = write_config(tmp_path)
    argv = ["convergence", str(cfgpath), "--case", "poisson-1d", "--meshes", f"16,{HUGE}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# global flags


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_threads_flag_sets_environment(tmp_path, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfgpath = write_config(tmp_path)
    assert main(["--threads", "2", "validate", str(cfgpath), "--no-timestamp"]) == 0
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_rejects_nonpositive_count(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", threads, "verify", "whatever.json", "--list"])
    assert exc.value.code == 2
    assert "--threads must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_row", ["33,1.0", "-1,1.0", "0,1.0"], ids=["past-end", "negative", "repeated"]
)
def test_table_field_rejects_bad_node_index(tmp_path, capsys, bad_row):
    # the 32-cell interval has nodes 0..32; the bad row takes node 32's place
    rows = ["node_index,value"] + [f"{i},1.0" for i in range(32)] + [bad_row]
    (tmp_path / "mu.csv").write_text("\n".join(rows) + "\n")
    path = write_config(tmp_path)
    data = json.loads(path.read_text())
    data["fields"]["mu"] = {"kind": "table", "path": "mu.csv"}
    path.write_text(json.dumps(data))
    assert main(["validate", str(path), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot load table" in err and "node indices must" in err
