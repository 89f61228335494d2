"""Variable exponents, weights, and the structural hypothesis checks.

A :class:`ScalarField` is a scalar coefficient sampled at arbitrary points:
the exponents p, q, the weight mu, and any data coefficients all use it.
:class:`DoublePhase` bundles the triple (p, q, mu) together with the ambient
dimension N that enters the Sobolev-exponent formulas.

The ``check_*`` functions evaluate the structural conditions on a mesh's
node and quadrature samples and return a :class:`ConditionReport`; failures
are report entries with witness points, never exceptions.  All continuity
moduli (Lipschitz / Hölder / log-Hölder constants) are empirical maxima over
a budgeted pair set and therefore lower bounds of the true constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import DEFAULT_QUAD_ORDER, Mesh, _unique_pairs

__all__ = [
    "ScalarField",
    "DoublePhase",
    "ConditionCheck",
    "ConditionReport",
    "field_bounds",
    "critical_exponent",
    "critical_exponent_field",
    "check_condition_base",
    "check_condition_H",
    "check_condition_Hprime",
    "check_condition_Hpp",
    "estimate_holder",
    "estimate_log_holder",
    "check_A1_sufficient",
    "check_A1_characterization",
    "sample_points",
    "sample_pairs",
]


class ScalarField:
    """A scalar coefficient field evaluable at arbitrary points.

    Construct through one of the classmethods; ``kind`` is one of
    ``"constant"``, ``"affine"``, ``"table"`` or ``"callback"``.
    """

    def __init__(self, fn, kind: str, params: dict | None = None):
        self._fn = fn
        self.kind = kind
        self.params = params or {}

    @classmethod
    def constant(cls, value: float) -> "ScalarField":
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("constant field value must be finite")
        return cls(lambda pts: np.full(pts.shape[0], value), "constant", {"value": value})

    @classmethod
    def affine(cls, slope, offset: float) -> "ScalarField":
        """The field x -> slope . x + offset."""
        slope = np.atleast_1d(np.asarray(slope, dtype=float))
        offset = float(offset)
        if not (np.all(np.isfinite(slope)) and np.isfinite(offset)):
            raise ValueError("affine coefficients must be finite")

        def fn(pts):
            return pts[:, : slope.size] @ slope + offset

        return cls(fn, "affine", {"slope": slope, "offset": offset})

    @classmethod
    def from_table(cls, mesh: Mesh, values) -> "ScalarField":
        """Piecewise-linear field through nodal values of ``mesh``.

        In 1d the interpolant is exact P1 interpolation; in 2d it is built on
        a Delaunay triangulation of the nodes (which for structured meshes may
        split cells along the other diagonal), so values at the tabulating
        nodes are exact while interior values are one valid piecewise-linear
        extension of the table.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_nodes,):
            raise ValueError("table must provide one value per mesh node")
        if not np.all(np.isfinite(values)):
            raise ValueError("table values must be finite")
        if mesh.dim == 1:
            xs = mesh.nodes[:, 0]
            order = np.argsort(xs)
            xs, vs = xs[order], values[order]

            def fn(pts):
                return np.interp(pts[:, 0], xs, vs)

        else:
            from scipy.interpolate import LinearNDInterpolator

            interp = LinearNDInterpolator(mesh.nodes, values)

            def fn(pts):
                out = interp(pts)
                if np.any(np.isnan(out)):
                    raise ValueError("table field queried outside the tabulated domain")
                return out

        return cls(fn, "table", {"values": values})

    @classmethod
    def from_callable(cls, fn) -> "ScalarField":
        return cls(lambda pts: np.asarray(fn(pts), dtype=float), "callback", {})

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        vals = np.asarray(self._fn(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise ValueError("field evaluation must return one value per point")
        return float(vals[0]) if single else vals

    def describe(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.params["value"]}
        if self.kind == "affine":
            return {
                "kind": "affine",
                "a": list(self.params["slope"]),
                "b": self.params["offset"],
            }
        return {"kind": self.kind}


@dataclass
class DoublePhase:
    """The field triple (p, q, mu) plus the ambient dimension N.

    N is the dimension appearing in the Sobolev-exponent formulas; it is
    independent of the mesh dimension (a 1d mesh can carry fields analysed
    with N = 3).
    """

    p: ScalarField
    q: ScalarField
    mu: ScalarField
    dim: int = 2

    def __post_init__(self):
        self.dim = int(self.dim)
        if self.dim < 1:
            raise ValueError("ambient dimension must be a positive integer")

    def at(self, points):
        """Sample (p, q, mu) at points; arrays share the points' leading shape."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, pts.shape[-1])
        shape = pts.shape[:-1]
        return (
            np.asarray(self.p(flat)).reshape(shape),
            np.asarray(self.q(flat)).reshape(shape),
            np.asarray(self.mu(flat)).reshape(shape),
        )

    def at_quadrature(self, mesh: Mesh, order: int = DEFAULT_QUAD_ORDER):
        """Read-only (p, q, mu, w) at the quadrature points, shape (nelems, nq).

        The mesh keeps the latest samples per order in :meth:`Mesh.cached`,
        keyed by the three field objects: reassigning a field (say
        ``phase.mu``) misses the cache, and a new phase frees the old samples.
        Each fill checks that the samples are finite (ValueError, as
        :meth:`validate` raises).
        """

        def build():
            pts, w, _ = mesh.quadrature_points(order)
            pqmu = self.at(pts)
            _check_finite(pqmu)
            return (*pqmu, w)

        return mesh.cached(("phase", order), (self.p, self.q, self.mu), build)

    def h_at(self, points, t):
        """The integrand H(x, t) = t^p(x) + mu(x) t^q(x) for t >= 0."""
        p, q, mu = self.at(points)
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("H(x, t) is defined for t >= 0")
        return np.power(t, p) + mu * np.power(t, q)

    def validate(self, mesh: Mesh, order: int = DEFAULT_QUAD_ORDER) -> None:
        """Raise ValueError unless p, q > 1 and mu >= 0 on the sample set."""
        pts = sample_points(mesh, order)
        p, q, mu = self.at(pts)
        _check_finite((p, q, mu))
        if p.min() <= 1.0 or q.min() <= 1.0:
            raise ValueError("exponent fields must satisfy p, q > 1 on the mesh")
        if mu.min() < 0.0:
            raise ValueError("the weight mu must be nonnegative")


def _check_finite(pqmu) -> None:
    """ValueError naming the first of the sampled (p, q, mu) with a non-finite value."""
    for name, vals in zip(("p", "q", "mu"), pqmu):
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"field {name} takes non-finite values on the mesh")


def constant_phase(p: float, q: float, mu: float, dim: int = 2) -> DoublePhase:
    """Convenience constructor for constant (p, q, mu)."""
    return DoublePhase(
        ScalarField.constant(p), ScalarField.constant(q), ScalarField.constant(mu), dim
    )


@dataclass
class ConditionCheck:
    """One named inequality check with its exact margin at the worst sample."""

    name: str
    passed: bool
    margin: float
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed), "margin": float(self.margin)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class ConditionReport:
    """Aggregated result of a structural hypothesis check."""

    condition: str
    checks: list[ConditionCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in report {self.condition!r}")

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def sample_points(mesh: Mesh, order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
    """Mesh nodes plus physical quadrature points, shape (m, dim)."""
    if mesh.num_nodes == 0:
        raise ValueError("empty mesh")
    pts, _, _ = mesh.quadrature_points(order)
    return np.vstack([mesh.nodes, pts.reshape(-1, mesh.dim)])


def sample_pairs(mesh: Mesh, pair_budget: int = 2000, seed: int = 0):
    """Index pairs for modulus estimation: all mesh edges plus random pairs.

    Returns (i, j) int index arrays into ``mesh.nodes``: the distinct pairs
    with i < j, sorted by (i, j).
    """
    if pair_budget < 0:
        raise ValueError("pair_budget must be nonnegative")
    pairs = [mesh.edges()]
    n = mesh.num_nodes
    if pair_budget > 0 and n > 1:
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, n, size=(pair_budget, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        pairs.append(np.sort(raw, axis=1))
    allp = _unique_pairs(np.vstack(pairs), n)
    return allp[:, 0], allp[:, 1]


def field_bounds(field: ScalarField, mesh: Mesh, order: int = DEFAULT_QUAD_ORDER):
    """Exact (min, max) of the field over nodes + quadrature points, computed per call."""
    vals = field(sample_points(mesh, order))
    if not np.all(np.isfinite(vals)):
        raise ValueError("field takes non-finite values on the sample set")
    return float(vals.min()), float(vals.max())


def critical_exponent(p: ScalarField, x, dim: int) -> float:
    """The Sobolev conjugate exponent N p(x) / (N - p(x)) at a point."""
    val = p(np.atleast_1d(np.asarray(x, dtype=float)))
    val = float(np.asarray(val).reshape(-1)[0])
    if val >= dim:
        raise ValueError(f"critical exponent undefined: p(x) = {val} >= N = {dim}")
    return dim * val / (dim - val)


def critical_exponent_field(p: ScalarField, dim: int) -> ScalarField:
    """The Sobolev conjugate exponent as a field; errors where p(x) >= N."""

    def fn(pts):
        vals = np.asarray(p(pts), dtype=float)
        if np.any(vals >= dim):
            bad = pts[np.argmax(vals >= dim)]
            raise ValueError(
                f"critical exponent undefined at {bad.tolist()}: p >= N = {dim}"
            )
        return dim * vals / (dim - vals)

    return ScalarField(fn, "callback", {"derived": "critical-exponent"})


def _extremum_check(
    name, values, points, *, strict=True, floor=0.0, **extra
) -> ConditionCheck:
    """Build a check from per-sample margins (pass iff min margin > / >= floor).

    A failing check carries the worst sample's point as its witness, plus
    that sample's entry of every ``extra`` per-sample array (e.g. ``s=s``).
    """
    values = np.asarray(values, dtype=float)
    k = int(np.argmin(values))
    margin = float(values[k])
    passed = margin > floor if strict else margin >= floor
    witness = None
    if not passed:
        witness = {"point": [float(c) for c in points[k]]}
        witness.update((key, np.asarray(arr)[k].tolist()) for key, arr in extra.items())
    return ConditionCheck(name, passed, margin, witness)


def _finite_check(name, value) -> ConditionCheck:
    value = float(value)
    return ConditionCheck(name, bool(np.isfinite(value)), value)


def check_condition_base(
    phase: DoublePhase, mesh: Mesh, order: int = DEFAULT_QUAD_ORDER
) -> ConditionReport:
    """Baseline structure: 1 < p < N, p < q, mu >= 0, mu integrable."""
    pts = sample_points(mesh, order)
    p, q, mu = phase.at(pts)
    N = phase.dim
    report = ConditionReport("base")
    report.checks.append(_extremum_check("p > 1", p - 1.0, pts))
    report.checks.append(_extremum_check("p < N", N - p, pts))
    report.checks.append(_extremum_check("p < q", q - p, pts))
    report.checks.append(_extremum_check("mu >= 0", mu, pts, strict=False))
    _, w, _ = mesh.quadrature_points(order)
    mu_q = mesh.sample(phase.mu, order)
    report.checks.append(_finite_check("mu integrable", np.sum(w * mu_q)))
    return report


def check_condition_H(
    phase: DoublePhase, mesh: Mesh, order: int = DEFAULT_QUAD_ORDER
) -> ConditionReport:
    """Condition (H): base plus q < p* pointwise and mu bounded."""
    report = check_condition_base(phase, mesh, order)
    report.condition = "H"
    pts = sample_points(mesh, order)
    p, q, mu = phase.at(pts)
    N = phase.dim
    ok = p < N
    crit = np.where(ok, N * p / np.where(ok, N - p, 1.0), np.inf)
    report.checks.append(_extremum_check("q < p*", crit - q, pts))
    report.checks.append(_finite_check("mu bounded", mu.max()))
    return report


def check_condition_Hprime(
    phase: DoublePhase,
    mesh: Mesh,
    order: int = DEFAULT_QUAD_ORDER,
    relaxed: bool = False,
    pair_budget: int = 2000,
    seed: int = 0,
) -> ConditionReport:
    """Condition (H'): base plus q+/p- < 1 + 1/N and Lipschitz coefficients.

    With ``relaxed=True`` the ratio inequality is tested non-strictly,
    matching the density statement that only needs q+/p- <= 1 + 1/N.
    """
    report = check_condition_base(phase, mesh, order)
    report.condition = "Hprime-relaxed" if relaxed else "Hprime"
    p_minus, _ = field_bounds(phase.p, mesh, order)
    _, q_plus = field_bounds(phase.q, mesh, order)
    gap = 1.0 + 1.0 / phase.dim - q_plus / p_minus
    name = "q+/p- <= 1 + 1/N" if relaxed else "q+/p- < 1 + 1/N"
    passed = gap >= 0.0 if relaxed else gap > 0.0
    report.checks.append(ConditionCheck(name, passed, float(gap)))
    for label, fld in (("p", phase.p), ("q", phase.q), ("mu", phase.mu)):
        c = estimate_holder(fld, mesh, 1.0, pair_budget=pair_budget, seed=seed)
        report.checks.append(_finite_check(f"lipschitz constant {label} (empirical)", c))
    return report


def check_condition_Hpp(
    phase: DoublePhase,
    mesh: Mesh,
    order: int = DEFAULT_QUAD_ORDER,
    pair_budget: int = 2000,
    seed: int = 0,
) -> ConditionReport:
    """Condition (H''): p, q >= 1 bounded and log-Hölder, p <= q, mu bounded.

    The decay part of the log-Hölder condition concerns unbounded domains
    and is not tested on (bounded) meshes.
    """
    pts = sample_points(mesh, order)
    p, q, mu = phase.at(pts)
    report = ConditionReport("Hpp")
    report.checks.append(_extremum_check("p >= 1", p - 1.0, pts, strict=False))
    report.checks.append(_extremum_check("q >= 1", q - 1.0, pts, strict=False))
    report.checks.append(_extremum_check("p <= q", q - p, pts, strict=False))
    report.checks.append(_extremum_check("mu >= 0", mu, pts, strict=False))
    report.checks.append(_finite_check("mu bounded", mu.max()))
    report.checks.append(_finite_check("p bounded", p.max()))
    report.checks.append(_finite_check("q bounded", q.max()))
    for label, fld in (("p", phase.p), ("q", phase.q)):
        c = estimate_log_holder(fld, mesh, pair_budget=pair_budget, seed=seed)
        report.checks.append(_finite_check(f"log-holder constant {label} (empirical)", c))
    return report


def estimate_holder(
    field: ScalarField,
    mesh: Mesh,
    alpha: float,
    pair_budget: int = 2000,
    seed: int = 0,
) -> float:
    """Empirical alpha-Hölder constant: max over pairs of |f(x)-f(y)| / |x-y|^alpha.

    A lower bound of the true constant (finite samples cannot certify an
    upper bound).
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    i, j = sample_pairs(mesh, pair_budget, seed)
    if i.size == 0:
        raise ValueError("need at least two distinct sample points")
    xi, xj = mesh.nodes[i], mesh.nodes[j]
    dist = np.sqrt(np.sum((xi - xj) ** 2, axis=1))
    keep = dist > 0
    fi, fj = field(xi[keep]), field(xj[keep])
    return float(np.max(np.abs(fi - fj) / dist[keep] ** alpha, initial=0.0))


def estimate_log_holder(
    field: ScalarField,
    mesh: Mesh,
    pair_budget: int = 2000,
    seed: int = 0,
) -> float:
    """Empirical local log-Hölder constant of a field.

    Maximizes |f(x)-f(y)| * |log|x-y|| over sampled pairs with |x-y| < 1/2.
    """
    i, j = sample_pairs(mesh, pair_budget, seed)
    xi, xj = mesh.nodes[i], mesh.nodes[j]
    dist = np.sqrt(np.sum((xi - xj) ** 2, axis=1))
    keep = (dist > 0.0) & (dist < 0.5)
    if not np.any(keep):
        raise ValueError("no sample pairs with |x-y| < 1/2; refine the mesh")
    fi, fj = field(xi[keep]), field(xj[keep])
    return float(np.max(np.abs(fi - fj) * np.abs(np.log(dist[keep]))))


def check_A1_sufficient(
    phase: DoublePhase,
    mesh: Mesh,
    alpha: float,
    order: int = DEFAULT_QUAD_ORDER,
    pair_budget: int = 2000,
    seed: int = 0,
) -> ConditionReport:
    """Sufficient condition for (A1): ratio bound plus Hölder regularity.

    Checks q(x)/p(x) <= 1 + alpha/N at every sample and reports the empirical
    alpha/q_- Hölder constant of q and alpha-Hölder constant of mu.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    pts = sample_points(mesh, order)
    p, q, _ = phase.at(pts)
    report = ConditionReport("A1-sufficient")
    bound = 1.0 + alpha / phase.dim
    report.checks.append(_extremum_check("q/p <= 1 + alpha/N", bound - q / p, pts, strict=False))
    q_minus, _ = field_bounds(phase.q, mesh, order)
    c_q = estimate_holder(phase.q, mesh, min(1.0, alpha / q_minus), pair_budget, seed)
    c_mu = estimate_holder(phase.mu, mesh, alpha, pair_budget, seed)
    report.checks.append(_finite_check("holder constant q (empirical)", c_q))
    report.checks.append(_finite_check("holder constant mu (empirical)", c_mu))
    return report


def check_A1_characterization(
    phase: DoublePhase,
    mesh: Mesh,
    pair_budget: int = 4000,
    seed: int = 0,
):
    """Empirical feasibility constant for the (A1) characterization.

    For sampled ordered pairs (x, y) with mu(y) > 0 evaluates

        (|x-y|^(N (1/p(y) - 1/q(y))) + mu(x)^(1/q(x))) / mu(y)^(1/q(y))

    and returns ``(beta_max, report)`` where beta_max is the minimum — the
    largest constant beta compatible with the sampled inequality.  Pairs with
    mu(y) = 0 are skipped (the inequality is vacuous there); if the weight
    vanishes identically beta_max is +inf.
    """
    if pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")
    i, j = sample_pairs(mesh, pair_budget, seed)
    # both orientations: the inequality is not symmetric in (x, y)
    xi = np.vstack([mesh.nodes[i], mesh.nodes[j]])
    yj = np.vstack([mesh.nodes[j], mesh.nodes[i]])
    dist = np.sqrt(np.sum((xi - yj) ** 2, axis=1))
    px, qx, mux = phase.at(xi)
    py, qy, muy = phase.at(yj)
    keep = (muy > 0.0) & (dist > 0.0)
    report = ConditionReport("A1-characterization")
    if not np.any(keep):
        report.checks.append(ConditionCheck("feasible beta", True, np.inf))
        return np.inf, report
    N = phase.dim
    lhs = dist[keep] ** (N * (1.0 / py[keep] - 1.0 / qy[keep])) + mux[keep] ** (
        1.0 / qx[keep]
    )
    ratio = lhs / muy[keep] ** (1.0 / qy[keep])
    k = int(np.argmin(ratio))
    beta_max = float(ratio[k])
    witness = None if beta_max > 0 else {
        "x": [float(c) for c in xi[keep][k]],
        "y": [float(c) for c in yj[keep][k]],
    }
    report.checks.append(ConditionCheck("feasible beta", beta_max > 0.0, beta_max, witness))
    return beta_max, report
