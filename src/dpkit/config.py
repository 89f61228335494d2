"""Run configurations: one JSON document describing mesh, fields, and problem.

Example::

    {
      "mesh": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 64},
      "fields": {
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "affine", "a": [0.5], "b": 2.5},
        "mu": {"kind": "table", "path": "mu.csv"},
        "dim": 3
      },
      "problem": {"kind": "builtin", "name": "dp-1d"},
      "tolerances": {"newton_tol": 1e-9},
      "quadrature_order": 4,
      "eps_reg": 1e-8,
      "seed": 0,
      "output_dir": "out"
    }

Field specs accept a number or the kinds ``constant``, ``affine``, ``table``
(a solution CSV on the config mesh, read by ``io.load_solution``) and
``expr`` (an expression in the coordinates).  Problems are either a built-in
case name, a plain right-hand side ``{"kind": "rhs", "expr": ...}`` (built as
an ``expr`` field), or a convection term with declared growth constants.  A
built-in case brings its own phase, which replaces ``fields`` for every
command.  ``quadrature_order``, ``eps_reg`` and every tolerance but
``eigen_tol`` make one ``SolverOptions``.  Every number is an int or float, not
a bool, and finite as a float (:func:`_finite`); every path is a string,
relative to the config file (:func:`_path`).  All structural errors raise
ConfigError, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .eigen import DEFAULT_EIGEN_TOL
from .errors import ConfigError
from .expressions import parse_expression
from .fem import (
    MAX_QUAD_ORDER,
    MIN_QUAD_ORDER,
    DEFAULT_QUAD_ORDER,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
)
from .fields import DoublePhase, ScalarField
from .io import load_mesh, load_solution
from .operator import DEFAULT_EPS_REG
from .problems import ManufacturedCase, manufactured_case
from .solve import ConvectionTerm, SolverOptions

__all__ = ["RunConfig", "load_config", "parse_config"]


@dataclass
class RunConfig:
    """A fully resolved run: mesh and coefficient objects, not raw specs."""

    mesh: Mesh
    phase: DoublePhase | None
    case: ManufacturedCase | None
    rhs: object | None
    term: ConvectionTerm | None
    options: SolverOptions
    eigen_tol: float
    seed: int
    output_dir: Path

    @property
    def order(self) -> int:
        return self.options.order

    def solver_options(self) -> SolverOptions:
        return self.options

    def require_phase(self) -> DoublePhase:
        if self.phase is None:
            raise ConfigError("config declares neither fields nor a built-in problem")
        return self.phase


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"missing {key!r} in {where}")
    return data[key]


def _finite(v, what: str) -> float:
    """``v`` as a float: it must be an int or float, not a bool, and finite."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an int too large for a float
            x = np.inf
        if np.isfinite(x):
            return x
    raise ConfigError(f"{what} must be a finite number, got {v!r}")


def _number(data: dict, key: str, where: str, default=None, positive=False) -> float:
    if key not in data:
        if default is None:
            raise ConfigError(f"missing {key!r} in {where}")
        return default
    v = _finite(data[key], f"{where}.{key}")
    if positive and v <= 0:
        raise ConfigError(f"{where}.{key} must be positive, got {data[key]!r}")
    return v


def _integer(data: dict, key: str, where: str, default: int, minimum: int) -> int:
    v = data.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or _finite(v, f"{where}.{key}") < minimum:
        raise ConfigError(f"{where}.{key} must be an integer >= {minimum}, got {v!r}")
    return v


def _path(data: dict, key: str, where: str, base_dir: Path, default=None) -> Path:
    """``data[key]`` as a path: a string, relative to ``base_dir`` unless absolute."""
    v = _require(data, key, where) if default is None else data.get(key, default)
    if not isinstance(v, str):
        raise ConfigError(f"{where}.{key} must be a path string, got {v!r}")
    return base_dir / v


def _coords(points: np.ndarray) -> dict:
    """Bind the columns of points (m, dim) to the coordinate names x (and y)."""
    return dict(zip(("x", "y"), points.T))


def _build_mesh(spec, base_dir: Path) -> Mesh:
    if not isinstance(spec, dict):
        raise ConfigError("mesh spec must be an object")
    kind = _require(spec, "kind", "mesh")
    if kind == "interval":
        a = _number(spec, "a", "mesh", default=0.0)
        b = _number(spec, "b", "mesh", default=1.0)
        n = _integer(spec, "n", "mesh", 64, 1)
        if not a < b:
            raise ConfigError(f"mesh interval needs a < b, got [{a}, {b}]")
        return build_interval_mesh(a, b, n)
    if kind == "rect":
        spans = []
        for name in ("xspan", "yspan"):
            span = spec.get(name, [0.0, 1.0])
            if not (isinstance(span, list) and len(span) == 2):
                raise ConfigError(f"mesh.{name} must be [lo, hi] with lo < hi")
            lo, hi = (_finite(v, f"mesh.{name}[{i}]") for i, v in enumerate(span))
            if not lo < hi:
                raise ConfigError(f"mesh.{name} must be [lo, hi] with lo < hi")
            spans.append((lo, hi))
        nx, ny = _integer(spec, "nx", "mesh", 16, 1), _integer(spec, "ny", "mesh", 16, 1)
        return build_rect_mesh(spans[0], spans[1], nx, ny)
    if kind == "files":
        path = _path(spec, "path", "mesh", base_dir)
        try:
            return load_mesh(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load mesh from {path}: {exc}") from exc
    raise ConfigError(f"unknown mesh kind {kind!r} (expected interval, rect, or files)")


def _build_field(spec, mesh: Mesh, base_dir: Path, where: str) -> ScalarField:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return ScalarField.constant(_finite(spec, where))
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a number or a field spec object")
    kind = _require(spec, "kind", where)
    try:
        if kind == "constant":
            return ScalarField.constant(_number(spec, "value", where))
        if kind == "affine":
            slope = _require(spec, "a", where)
            offset = _number(spec, "b", where, default=0.0)
            if not isinstance(slope, list) or len(slope) != mesh.dim:
                raise ConfigError(
                    f"{where}.a must be a list of {mesh.dim} slope(s) for this mesh"
                )
            slope = [_finite(v, f"{where}.a[{i}]") for i, v in enumerate(slope)]
            return ScalarField.affine(slope, offset)
        if kind == "table":
            path = _path(spec, "path", where, base_dir)
            try:
                values = load_solution(path, mesh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot load table {path}: {exc}") from exc
            return ScalarField.from_table(mesh, values)
        if kind == "expr":
            allowed = ("x", "y")[: mesh.dim]
            expr = parse_expression(str(_require(spec, "expr", where)), allowed)
            return ScalarField(lambda pts: expr(n=pts.shape[0], **_coords(pts)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"unknown field kind {kind!r} in {where} (expected constant, affine, table, or expr)"
    )


def _build_phase(spec, mesh: Mesh, base_dir: Path) -> DoublePhase:
    if not isinstance(spec, dict):
        raise ConfigError("'fields' must be an object with p, q, mu specs")
    for name in ("p", "q", "mu"):
        if name not in spec:
            raise ConfigError(f"missing field spec 'fields.{name}'")
    dim = _integer(spec, "dim", "fields", mesh.dim, 1)
    return DoublePhase(
        _build_field(spec["p"], mesh, base_dir, "fields.p"),
        _build_field(spec["q"], mesh, base_dir, "fields.q"),
        _build_field(spec["mu"], mesh, base_dir, "fields.mu"),
        dim,
    )


def _term_evaluator(expr_text: str, mesh: Mesh):
    names = ("x", "y")[: mesh.dim] + ("s",) + ("xi1", "xi2")[: mesh.dim]
    expr = parse_expression(expr_text, names)

    def fn(points, s, xi):
        grads = dict(zip(("xi1", "xi2"), np.asarray(xi).T))
        return expr(n=points.shape[0], s=np.asarray(s), **_coords(points), **grads)

    return fn


def _build_problem(spec, mesh: Mesh, base_dir: Path):
    """Returns (case, rhs, term); a built-in case also brings its rhs or term."""
    if not isinstance(spec, dict):
        raise ConfigError("'problem' must be an object")
    kind = _require(spec, "kind", "problem")
    if kind == "builtin":
        name = _require(spec, "name", "problem")
        try:
            case = manufactured_case(str(name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if case.mesh_dim != mesh.dim:
            raise ConfigError(
                f"case {case.name!r} needs a {case.mesh_dim}d mesh, config mesh is {mesh.dim}d"
            )
        return case, case.rhs, case.term
    if kind == "rhs":
        expr = {"kind": "expr", "expr": _require(spec, "expr", "problem")}
        return None, _build_field(expr, mesh, base_dir, "problem.expr"), None
    if kind == "term":
        try:
            fn = _term_evaluator(str(_require(spec, "expr", "problem")), mesh)
        except ValueError as exc:
            raise ConfigError(f"problem.expr: {exc}") from exc
        has_uniq = all(k in spec for k in ("c1", "c2", "rho"))
        try:
            term = ConvectionTerm(
                fn=fn,
                r=_build_field(spec.get("r", 2.0), mesh, base_dir, "problem.r"),
                a1=_number(spec, "a1", "problem"),
                a2=_number(spec, "a2", "problem"),
                alpha=_build_field(spec.get("alpha", 0.0), mesh, base_dir, "problem.alpha"),
                b1=_number(spec, "b1", "problem"),
                b2=_number(spec, "b2", "problem"),
                omega=_build_field(spec.get("omega", 0.0), mesh, base_dir, "problem.omega"),
                c1=_number(spec, "c1", "problem") if has_uniq else None,
                c2=_number(spec, "c2", "problem") if has_uniq else None,
                rho=_build_field(spec["rho"], mesh, base_dir, "problem.rho")
                if has_uniq
                else None,
            )
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from exc
        return None, None, term
    raise ConfigError(f"unknown problem kind {kind!r} (expected builtin, rhs, or term)")


def parse_config(data: dict, base_dir=".") -> RunConfig:
    """Resolve a configuration dict into meshes, fields, and solver settings."""
    if not isinstance(data, dict):
        raise ConfigError("the configuration document must be a JSON object")
    base_dir = Path(base_dir)
    mesh = _build_mesh(_require(data, "mesh", "config"), base_dir)
    phase = None
    if "fields" in data:
        phase = _build_phase(data["fields"], mesh, base_dir)
    case = rhs = term = None
    if "problem" in data:
        case, rhs, term = _build_problem(data["problem"], mesh, base_dir)
    if case is not None:
        phase = case.phase  # one phase per config, for every command
    tol_spec = data.get("tolerances", {})
    if not isinstance(tol_spec, dict):
        raise ConfigError("'tolerances' must be an object")
    unknown = set(tol_spec) - {"norm_tol", "newton_tol", "outer_tol", "eigen_tol"}
    if unknown:
        raise ConfigError(f"unknown tolerance name(s): {', '.join(sorted(unknown))}")
    tols = {k: _number(tol_spec, k, "tolerances", positive=True) for k in tol_spec}
    eigen_tol = tols.pop("eigen_tol", DEFAULT_EIGEN_TOL)
    order = _integer(data, "quadrature_order", "config", DEFAULT_QUAD_ORDER, MIN_QUAD_ORDER)
    if order > MAX_QUAD_ORDER:
        raise ConfigError(
            f"config.quadrature_order must be at most {MAX_QUAD_ORDER}, got {order}"
        )
    eps_reg = _number(data, "eps_reg", "config", default=DEFAULT_EPS_REG, positive=True)
    return RunConfig(
        mesh=mesh,
        phase=phase,
        case=case,
        rhs=rhs,
        term=term,
        options=SolverOptions(order=order, eps_reg=eps_reg, **tols),
        eigen_tol=eigen_tol,
        seed=_integer(data, "seed", "config", 0, 0),
        output_dir=_path(data, "output_dir", "config", base_dir, default="out"),
    )


def load_config(path) -> RunConfig:
    """Read and resolve a JSON configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, path.parent)
