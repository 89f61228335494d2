"""Run-configuration parsing and its error taxonomy."""

import dataclasses
import json

import numpy as np
import pytest

from dpkit.config import load_config, parse_config
from dpkit.eigen import DEFAULT_EIGEN_TOL
from dpkit.errors import ConfigError
from dpkit.fem import DiscreteFunction, build_rect_mesh
from dpkit.io import save_solution
from dpkit.solve import SolverOptions


BASE = {
    "mesh": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 16},
    "fields": {"p": 2.0, "q": 3.0, "mu": 1.0, "dim": 3},
}


def cfg(**overrides):
    data = json.loads(json.dumps(BASE))
    data.update(overrides)
    return data


def test_minimal_config_defaults():
    rc = parse_config(cfg())
    assert rc.mesh.num_nodes == 17
    assert rc.order == 4
    assert rc.seed == 0
    assert rc.solver_options() == SolverOptions()
    assert rc.solver_options().eps_reg == pytest.approx(1e-8)
    assert rc.eigen_tol == DEFAULT_EIGEN_TOL == 1e-10
    assert rc.case is None and rc.rhs is None and rc.term is None


def test_solver_options_are_the_config_settings():
    # every SolverOptions field is a config setting, and each is read from it
    settings = {"newton_tol": 1e-9, "outer_tol": 1e-7, "norm_tol": 1e-11,
                "eps_reg": 1e-6, "order": 6}
    assert {f.name for f in dataclasses.fields(SolverOptions)} == set(settings)
    assert all(getattr(SolverOptions(), k) != v for k, v in settings.items())
    rc = parse_config(cfg(
        tolerances={k: settings[k] for k in ("newton_tol", "outer_tol", "norm_tol")},
        eps_reg=settings["eps_reg"], quadrature_order=settings["order"],
    ))
    assert rc.solver_options() == SolverOptions(**settings)


def test_field_shorthand_and_specs(tmp_path):
    table = tmp_path / "mu.csv"
    rows = ["node_index,value"] + [f"{i},{0.5 + 0.01 * i}" for i in range(17)]
    table.write_text("\n".join(rows) + "\n")
    data = cfg()
    data["fields"] = {
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "affine", "a": [0.5], "b": 2.5},
        "mu": {"kind": "table", "path": "mu.csv"},
        "dim": 3,
    }
    rc = parse_config(data, base_dir=tmp_path)
    pts = np.array([[0.5]])
    assert rc.phase.p(pts)[0] == 2.0
    assert rc.phase.q(pts)[0] == pytest.approx(2.75)


def test_node_table_roundtrip(tmp_path):
    # rows out of order are placed by node_index
    values = [0.5 + 0.01 * i for i in range(17)]
    rows = ["node_index,value"] + [f"{i},{values[i]!r}" for i in reversed(range(17))]
    (tmp_path / "mu.csv").write_text("\n".join(rows) + "\n")
    data = cfg()
    data["fields"]["mu"] = {"kind": "table", "path": "mu.csv"}
    rc = parse_config(data, base_dir=tmp_path)
    np.testing.assert_array_equal(rc.phase.mu(rc.mesh.nodes), values)
    # a save_solution file carries coordinate columns before the value
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 3, 3)
    u = DiscreteFunction(mesh, 1.0 + np.sin(np.arange(mesh.num_nodes)) / 3.0)
    save_solution(tmp_path / "p.csv", u)
    data = {
        "mesh": {"kind": "rect", "nx": 3, "ny": 3},
        "fields": {"p": {"kind": "table", "path": "p.csv"}, "q": 3.0, "mu": 1.0},
    }
    rc = parse_config(data, base_dir=tmp_path)
    np.testing.assert_array_equal(rc.phase.p(rc.mesh.nodes), u.values)


def test_expr_field_kind():
    data = cfg()
    data["fields"]["mu"] = {"kind": "expr", "expr": "x ^ 2"}
    rc = parse_config(data)
    assert rc.phase.mu(np.array([[0.5]]))[0] == pytest.approx(0.25)


def test_rect_mesh_spec():
    rc = parse_config(
        {"mesh": {"kind": "rect", "nx": 4, "ny": 4, "xspan": [0.0, 2.0]}}
    )
    assert rc.mesh.dim == 2
    assert rc.mesh.measures.sum() == pytest.approx(2.0)


def test_mesh_files_kind(tmp_path, interval_mesh):
    from dpkit.io import save_mesh

    save_mesh(interval_mesh, tmp_path)
    rc = parse_config({"mesh": {"kind": "files", "path": "."}}, base_dir=tmp_path)
    assert rc.mesh.num_nodes == interval_mesh.num_nodes


def test_builtin_problem_and_phase_fallback():
    rc = parse_config(
        {"mesh": {"kind": "interval", "n": 8}, "problem": {"kind": "builtin", "name": "dp-1d"}}
    )
    assert rc.case is not None
    assert rc.require_phase() is rc.case.phase


def test_builtin_problem_replaces_fields():
    rc = parse_config(cfg(problem={"kind": "builtin", "name": "dp-1d"}))
    assert rc.require_phase() is rc.phase is rc.case.phase
    assert rc.rhs is rc.case.rhs and rc.term is rc.case.term


def test_builtin_dimension_mismatch():
    data = {"mesh": {"kind": "rect"}, "problem": {"kind": "builtin", "name": "poisson-1d"}}
    with pytest.raises(ConfigError, match="mesh"):
        parse_config(data)


def test_rhs_problem_expression():
    data = cfg(problem={"kind": "rhs", "expr": "sin(pi * x)"})
    rc = parse_config(data)
    out = rc.rhs(np.array([[0.5], [0.25]]))
    np.testing.assert_allclose(out, [1.0, np.sin(np.pi * 0.25)])


def test_term_problem_with_uniqueness_trio():
    data = cfg(
        problem={
            "kind": "term",
            "expr": "0.5 * xi1 + s",
            "a1": 0.5,
            "a2": 1.0,
            "b1": 0.25,
            "b2": 1.0,
            "r": 2.0,
            "c1": 1.0,
            "c2": 0.5,
            "rho": 0.0,
        }
    )
    rc = parse_config(data)
    assert rc.term is not None and rc.term.has_uniqueness_data
    vals = rc.term(np.array([[0.5]]), np.array([2.0]), np.array([[3.0]]))
    assert vals[0] == pytest.approx(3.5)


def test_solver_options_inherit_tolerances():
    data = cfg(tolerances={"newton_tol": 1e-8}, quadrature_order=3, eps_reg=1e-6)
    rc = parse_config(data)
    opts = rc.solver_options()
    assert opts.newton_tol == 1e-8
    assert opts.order == 3
    assert opts.eps_reg == 1e-6


def test_output_dir_resolves_relative(tmp_path):
    rc = parse_config(cfg(output_dir="results"), base_dir=tmp_path)
    assert rc.output_dir == tmp_path / "results"


# ---------------------------------------------------------------------------
# error taxonomy: every malformed input is a ConfigError


@pytest.mark.parametrize(
    "data",
    [
        [],
        {},
        {"mesh": 5},
        {"mesh": {"kind": "tetrahedral"}},
        {"mesh": {"kind": "interval", "n": 0}},
        {"mesh": {"kind": "interval", "n": 2.5}},
        {"mesh": {"kind": "interval", "a": 1.0, "b": 0.0}},
        {"mesh": {"kind": "rect", "nx": -1}},
        {"mesh": {"kind": "rect", "xspan": [1.0, 0.0]}},
    ],
    ids=lambda d: str(d)[:40],
)
def test_bad_mesh_specs(data):
    with pytest.raises(ConfigError):
        parse_config(data)


def test_missing_field_spec():
    data = cfg()
    del data["fields"]["mu"]
    with pytest.raises(ConfigError, match="mu"):
        parse_config(data)


def test_bad_field_kind():
    data = cfg()
    data["fields"]["p"] = {"kind": "quadratic"}
    with pytest.raises(ConfigError):
        parse_config(data)


def test_affine_slope_must_match_mesh_dim():
    data = cfg()
    data["fields"]["p"] = {"kind": "affine", "a": [1.0, 2.0], "b": 2.0}
    with pytest.raises(ConfigError, match="slope"):
        parse_config(data)


def test_table_must_cover_every_node(tmp_path):
    table = tmp_path / "p.csv"
    table.write_text("node_index,value\n0,2.0\n")
    data = cfg()
    data["fields"]["p"] = {"kind": "table", "path": "p.csv"}
    with pytest.raises(ConfigError, match="has 1 rows but the mesh has 17 nodes"):
        parse_config(data, base_dir=tmp_path)


def test_unknown_tolerance_rejected():
    with pytest.raises(ConfigError, match="fancy_tol"):
        parse_config(cfg(tolerances={"fancy_tol": 1e-3}))


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError):
        parse_config(cfg(tolerances={"newton_tol": 0.0}))


def test_bad_quadrature_order():
    with pytest.raises(ConfigError):
        parse_config(cfg(quadrature_order=0))
    with pytest.raises(ConfigError):
        parse_config(cfg(quadrature_order=9))
    with pytest.raises(ConfigError):
        parse_config(cfg(quadrature_order=2.5))


def test_bad_seed():
    with pytest.raises(ConfigError):
        parse_config(cfg(seed=-1))
    with pytest.raises(ConfigError):
        parse_config(cfg(seed="zero"))


def test_unknown_problem_kind():
    with pytest.raises(ConfigError):
        parse_config(cfg(problem={"kind": "variational"}))


def test_unknown_builtin_name():
    with pytest.raises(ConfigError, match="available"):
        parse_config(cfg(problem={"kind": "builtin", "name": "mystery"}))


def test_term_requires_growth_constants():
    with pytest.raises(ConfigError, match="a1"):
        parse_config(cfg(problem={"kind": "term", "expr": "s"}))


def test_term_expression_grammar_errors():
    data = cfg(
        problem={"kind": "term", "expr": "s +", "a1": 0, "a2": 0, "b1": 0, "b2": 0}
    )
    with pytest.raises(ConfigError):
        parse_config(data)


def test_require_phase_without_fields():
    rc = parse_config({"mesh": {"kind": "interval", "n": 4}})
    with pytest.raises(ConfigError):
        rc.require_phase()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_load_config_reads_relative_paths(tmp_path):
    table = tmp_path / "mu.csv"
    rows = ["node_index,value"] + [f"{i},1.0" for i in range(17)]
    table.write_text("\n".join(rows) + "\n")
    doc = cfg()
    doc["fields"]["mu"] = {"kind": "table", "path": "mu.csv"}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    rc = load_config(path)
    assert rc.phase.mu(np.array([[0.5]]))[0] == pytest.approx(1.0)
