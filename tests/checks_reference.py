"""Frozen copies of the hypothesis checks before they shared one sampling.

Each ``check_*`` body here sampled (p, q, mu) on its own, some of them up to
three times, and the (H') ratio and the (A1) characterization built their
checks inline.  The checks in ``dpkit.fields`` must reproduce every report
of these bodies, margins and witnesses bit for bit, on phases with finite
samples and mu >= 0.  The bodies are kept verbatim, with the estimators and
``field_bounds`` they called, as the reference.
"""

import numpy as np

from dpkit.fem import DEFAULT_QUAD_ORDER, Mesh
from dpkit.fields import (
    ConditionCheck,
    ConditionReport,
    DoublePhase,
    ScalarField,
    _critical_exponent,
    sample_pairs,
    sample_points,
)


def field_bounds(field: ScalarField, mesh: Mesh, order: int = DEFAULT_QUAD_ORDER):
    """Exact (min, max) of the field over nodes + quadrature points, computed per call."""
    vals = field(sample_points(mesh, order))
    if not np.all(np.isfinite(vals)):
        raise ValueError("field takes non-finite values on the sample set")
    return float(vals.min()), float(vals.max())


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
    crit = _critical_exponent(p, phase.dim)
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
