"""Seeded invariant catalogue behind the ``verify`` subcommand.

Every entry is a self-contained, deterministic check of one structural
property the package is supposed to guarantee — norm/modular relations,
operator monotonicity, discretization identities, eigenvalue bounds, solver
behavior.  Each property receives only a seed, builds its own meshes and
samples, and returns a pass flag plus a one-line numeric detail, so the suite
doubles as a quick regression harness and as the determinism fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import first_eigenvalue, rayleigh_quotient
from .fem import (
    DiscreteFunction,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
    gauss_interval,
    gauss_triangle,
    interpolate,
)
from .fields import (
    DoublePhase,
    ScalarField,
    check_A1_characterization,
    check_A1_sufficient,
    check_condition_H,
    constant_phase,
    critical_exponent_field,
    estimate_holder,
    field_bounds,
    sample_points,
)
from .modular import (
    check_norm_modular,
    luxemburg_norm,
    modular,
    reverse_holder_check,
    truncate,
    weighted_seminorm,
)
from .operator import (
    apply_operator,
    assemble_jacobian,
    gradient_check,
    monotonicity_probe,
)
from .problems import manufactured_case
from .solve import SolverOptions, solve_monotone, verify_uniqueness

__all__ = [
    "PropertyResult",
    "property_names",
    "run_properties",
    "random_smooth_function",
    "standard_phase_configs",
    "gradient_check_pair",
]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def random_smooth_function(mesh: Mesh, rng, zero_boundary: bool = True) -> DiscreteFunction:
    """A random low-frequency function: a sum of three sine/cosine products.

    Low frequencies keep element gradients O(1) on coarse meshes, which is
    what the norm and modular routines are designed around.  Boundary values
    are zeroed exactly when requested.
    """
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    t = (mesh.nodes - lo) / span
    vals = np.zeros(mesh.num_nodes)
    for _ in range(3):
        amp = rng.uniform(-1.0, 1.0)
        freq = rng.integers(1, 4, size=mesh.dim)
        factor = np.ones(mesh.num_nodes)
        for d in range(mesh.dim):
            if zero_boundary:
                factor *= np.sin(freq[d] * np.pi * t[:, d])
            else:
                factor *= np.cos(freq[d] * np.pi * t[:, d] + rng.uniform(0.0, np.pi))
        vals += amp * factor
    if zero_boundary:
        vals[mesh.boundary_nodes] = 0.0
    if np.max(np.abs(vals)) < 1e-2:  # rare degenerate draw; add a fixed bump
        bump = np.prod(np.sin(np.pi * t), axis=1)
        if zero_boundary:
            bump[mesh.boundary_nodes] = 0.0
        vals = vals + bump
    return DiscreteFunction(mesh, vals, zero_boundary=zero_boundary)


def standard_phase_configs(dim: int) -> list:
    """Five exponent/weight configurations spanning the implemented regimes.

    Constant exponents above and below 2, affine variable exponents, a
    vanishing weight (mu = first coordinate), and a pure single-phase case
    (mu = 0).  Ambient dimension is chosen so p < N holds in each.
    """
    e1 = [1.0] + [0.0] * (dim - 1)

    def affine(slope, offset):
        return ScalarField.affine([slope * c for c in e1], offset)

    return [
        ("p2-q3-mu1", constant_phase(2.0, 3.0, 1.0, dim=3)),
        ("p1.5-q2.5-mu0.5", constant_phase(1.5, 2.5, 0.5, dim=3)),
        (
            "affine-pq-mux",
            DoublePhase(affine(0.4, 1.8), affine(0.4, 2.6), affine(0.8, 0.2), 3),
        ),
        ("p2-q4-mu0", constant_phase(2.0, 4.0, 0.0, dim=3)),
        (
            "p3-q4.5-mux",
            DoublePhase(
                ScalarField.constant(3.0),
                ScalarField.constant(4.5),
                affine(1.0, 0.0),
                5,
            ),
        ),
    ]


def _verify_meshes() -> list:
    return [build_interval_mesh(0.0, 1.0, 32), build_rect_mesh((0, 1), (0, 1), 8, 8)]


def _sample_functions(seed: int, per_mesh: int = 6) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for mesh in _verify_meshes():
        for _ in range(per_mesh):
            out.append(random_smooth_function(mesh, rng))
    return out


# --------------------------------------------------------------------------
# exponent-field properties


def _prop_field_bounds(seed: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for mesh in _verify_meshes():
        for _, phase in standard_phase_configs(mesh.dim):
            pts = rng.uniform(
                mesh.nodes.min(axis=0), mesh.nodes.max(axis=0), size=(400, mesh.dim)
            )
            for f in (phase.p, phase.q, phase.mu):
                lo, hi = field_bounds(f, mesh)
                v = f(pts)
                worst = max(worst, float(lo - v.min()), float(v.max() - hi))
    return worst <= 1e-12, f"max bound violation {worst:.3e}"


def _random_smooth_triples(seed: int, count: int):
    """Random Lipschitz (p, q, mu) triples as nodal tables on a 1d mesh."""
    rng = np.random.default_rng(seed)
    mesh = build_interval_mesh(0.0, 1.0, 32)
    x = mesh.nodes[:, 0]
    out = []
    for _ in range(count):
        p_vals = rng.uniform(1.4, 1.9) + rng.uniform(0.05, 0.3) * np.sin(
            rng.integers(1, 4) * np.pi * x + rng.uniform(0, np.pi)
        )
        ratio = 1.0 + rng.uniform(0.5, 1.5) / 3.0  # straddles the (A1) bound 1 + 1/N
        mu_vals = rng.uniform(0.1, 1.0) + rng.uniform(0.0, 0.5) * np.sin(
            rng.integers(1, 4) * np.pi * x + rng.uniform(0, np.pi)
        ) ** 2
        phase = DoublePhase(
            ScalarField.from_table(mesh, p_vals),
            ScalarField.from_table(mesh, ratio * p_vals),
            ScalarField.from_table(mesh, np.maximum(mu_vals, 0.0)),
            3,
        )
        out.append((mesh, phase))
    return out


def _prop_a1_sufficient_implies_characterized(seed: int, count: int = 12):
    hits = 0
    for mesh, phase in _random_smooth_triples(seed, count):
        if check_A1_sufficient(phase, mesh, alpha=1.0).passed:
            hits += 1
            beta, _ = check_A1_characterization(phase, mesh)
            if not beta > 0.0:
                return False, f"sufficient triple with beta_max = {beta}"
    return True, f"{hits}/{count} triples passed the sufficient test; all had beta > 0"


def _prop_holder_monotone(seed: int):
    rng = np.random.default_rng(seed)
    mesh = build_interval_mesh(0.0, 1.0, 64)
    u = random_smooth_function(mesh, rng, zero_boundary=False)
    f = ScalarField.from_table(mesh, u.values)
    alphas = [0.25, 0.5, 0.75, 1.0]
    est = [estimate_holder(f, mesh, a, seed=seed) for a in alphas]
    ok = all(b >= a * (1.0 - 1e-12) for a, b in zip(est, est[1:]))
    return ok, "estimates " + ", ".join(f"{e:.4g}" for e in est)


def _prop_critical_exponent(seed: int):
    worst = np.inf
    for mesh in _verify_meshes():
        for _, phase in standard_phase_configs(mesh.dim):
            if not check_condition_H(phase, mesh).passed:
                continue
            pts = sample_points(mesh)
            gap = critical_exponent_field(phase.p, phase.dim)(pts) - phase.q(pts)
            worst = min(worst, float(gap.min()))
    return worst > 0.0, f"min p* - q gap {worst:.6g}"


# --------------------------------------------------------------------------
# modular / norm properties


def _prop_unit_ball(seed: int):
    worst = 0.0
    for u in _sample_functions(seed):
        for _, phase in standard_phase_configs(u.mesh.dim)[:3]:
            for which in ("value", "sobolev"):
                lam = luxemburg_norm(u, phase, which)
                scaled = u * (1.0 / lam)
                rho = modular(scaled, phase, which).total
                worst = max(worst, abs(rho - 1.0))
    return worst <= 1e-10, f"max |rho(u/||u||) - 1| = {worst:.3e}"


def _prop_norm_modular_relations(seed: int):
    worst = np.inf
    rng = np.random.default_rng(seed)
    for u in _sample_functions(seed):
        scale = rng.choice([0.05, 0.3, 1.0, 3.0, 20.0])
        v = u * scale
        for _, phase in standard_phase_configs(u.mesh.dim)[:3]:
            for which in ("value", "sobolev"):
                rep = check_norm_modular(v, phase, which)
                worst = min(worst, min(s for _, s in rep.slacks))
                if not rep.passed:
                    return False, f"violated in regime {rep.regime}: slack {worst:.3e}"
    return True, f"min relation slack {worst:.3e}"


def _prop_homogeneity(seed: int):
    phase = constant_phase(2.5, 3.5, 0.0, dim=3)
    worst = 0.0
    for u in _sample_functions(seed, per_mesh=4):
        _, w, _ = u.mesh.quadrature_points(4)
        classical = float(np.sum(w * np.abs(u.values_at(4)) ** 2.5)) ** (1.0 / 2.5)
        lam = luxemburg_norm(u, phase, "value")
        worst = max(worst, abs(lam - classical) / max(classical, 1e-300))
    return worst <= 1e-10, f"max relative gap to the classical p-norm {worst:.3e}"


def _prop_seminorm_bound(seed: int):
    worst = -np.inf
    for u in _sample_functions(seed, per_mesh=4):
        for _, phase in standard_phase_configs(u.mesh.dim)[:3]:
            semi = weighted_seminorm(u, phase)
            lam = luxemburg_norm(u, phase, "value")
            worst = max(worst, semi - lam)
    return worst <= 1e-10, f"max ||u||_(q,mu) - ||u||_H = {worst:.3e}"


def _prop_reverse_holder(seed: int):
    rng = np.random.default_rng(seed)
    mesh = build_interval_mesh(0.0, 1.0, 24)
    worst = np.inf
    for _ in range(40):
        fv = rng.uniform(0.1, 3.0, mesh.num_nodes)
        gv = rng.uniform(0.1, 3.0, mesh.num_nodes)
        f = DiscreteFunction(mesh, fv)
        g = DiscreteFunction(mesh, gv)
        r = ScalarField.affine([rng.uniform(-1.0, 1.0)], rng.uniform(2.0, 2.5))
        res = reverse_holder_check(f, g, r)
        worst = min(worst, res.slack)
        if not res.passed:
            return False, f"slack {res.slack:.3e}"
    return True, f"min slack {worst:.3e}"


def _nodal_modular(u: DiscreteFunction, phase: DoublePhase) -> float:
    """The modular with mass-lumped nodal quadrature.

    Truncation satisfies |u+-(x)| <= |u(x)| only at the nodes (a P1
    interpolant of max(u, 0) can exceed |u| inside sign-changing elements),
    so the truncation comparison is stated against this nodal evaluation.
    """
    mesh = u.mesh
    lumped = np.broadcast_to((mesh.measures / (mesh.dim + 1.0))[:, None], mesh.elements.shape)
    w = mesh.scatter_vector(lumped)
    p, q, mu = phase.at(mesh.nodes)
    a = np.abs(u.values)
    return float(np.sum(w * (a**p + mu * a**q)))


def _prop_truncation(seed: int):
    for u in _sample_functions(seed, per_mesh=3):
        phase = standard_phase_configs(u.mesh.dim)[0][1]
        plus, minus = truncate(u, 1), truncate(u, -1)
        if not np.array_equal(plus.values - minus.values, u.values):
            return False, "u+ - u- != u at some node"
        rho = _nodal_modular(u, phase)
        for part in (plus, minus):
            if _nodal_modular(part, phase) > rho + 1e-12 * (1.0 + rho):
                return False, "truncation increased the nodal modular"
    return True, "u = u+ - u- exactly; nodal modulars never increased"


# --------------------------------------------------------------------------
# discretization properties


def _prop_partition_of_unity(seed: int):
    worst = 0.0
    for order in range(1, 9):
        for rule in (gauss_interval(order), gauss_triangle(order)):
            worst = max(worst, float(np.max(np.abs(rule.basis.sum(axis=1) - 1.0))))
    return worst <= 1e-14, f"max |sum(basis) - 1| = {worst:.3e}"


def _prop_gradient_consistency(seed: int):
    worst = 0.0
    for mesh in _verify_meshes():
        u = interpolate(mesh, lambda x: x[:, 0])
        val = float(np.sum(mesh.measures * np.sum(u.gradients**2, axis=1)))
        volume = float(mesh.measures.sum())
        worst = max(worst, abs(val - volume) / volume)
    return worst <= 1e-14, f"max relative defect {worst:.3e}"


def _prop_refinement_monotone(seed: int):
    phase = constant_phase(2.0, 3.0, 1.0, dim=3)
    errs = []
    for n in (8, 16, 32, 64):
        mesh = build_interval_mesh(0.0, 1.0, n)
        u = interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        g_exact = mesh.sample(lambda x: np.pi * np.cos(np.pi * x[:, 0]), 4)
        diff = np.abs(u.gradients[:, None, 0] - g_exact)
        p, q, mu, w = phase.at_quadrature(mesh, 4)
        errs.append(float(np.sum(w * (diff**p + mu * diff**q))))
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    return ok, "errors " + ", ".join(f"{e:.3e}" for e in errs)


# --------------------------------------------------------------------------
# operator properties


def gradient_check_pair(mesh: Mesh, rng) -> tuple:
    """A (u, h) pair suited to measuring the O(eps^2) difference-check decay.

    Gradients are normalized to unit maximum so the finite-difference noise
    floor stays near machine epsilon, and h is mostly parallel to u: along
    that direction the third energy derivative is a strictly positive
    integral for exponents above 2, so the eps^2 term cannot cancel away.
    """
    u = random_smooth_function(mesh, rng)
    u = u * float(1.0 / np.max(u.gradient_norms()))
    v = random_smooth_function(mesh, rng)
    v = v * float(1.0 / np.max(v.gradient_norms()))
    h = u * float(rng.uniform(0.5, 1.5)) + v * 0.05
    return u, h


def _prop_gradient_check(seed: int):
    rng = np.random.default_rng(seed)
    phase = constant_phase(2.5, 3.5, 1.0, dim=3)
    lo, hi = np.inf, -np.inf
    for mesh in _verify_meshes():
        for _ in range(3):
            u, h = gradient_check_pair(mesh, rng)
            r1 = gradient_check(u, h, phase, eps=1e-4)
            r2 = gradient_check(u, h, phase, eps=5e-5)
            ratio = r1 / r2
            lo, hi = min(lo, ratio), max(hi, ratio)
    ok = 3.5 <= lo and hi <= 4.5
    return ok, f"eps-halving error ratios in [{lo:.3f}, {hi:.3f}]"


def _prop_strict_monotonicity(seed: int):
    rng = np.random.default_rng(seed)
    worst = np.inf
    for mesh in _verify_meshes():
        for _, phase in standard_phase_configs(mesh.dim):
            for _ in range(5):
                u = random_smooth_function(mesh, rng)
                v = random_smooth_function(mesh, rng)
                if np.array_equal(u.values, v.values):
                    continue
                worst = min(worst, monotonicity_probe(u, v, phase))
    return worst > 0.0, f"min <A(u)-A(v), u-v> = {worst:.3e}"


def _prop_coercivity_trend(seed: int):
    rng = np.random.default_rng(seed)
    mesh = build_interval_mesh(0.0, 1.0, 32)
    phase = constant_phase(2.0, 3.0, 1.0, dim=3)
    u = random_smooth_function(mesh, rng)
    ratios = []
    for k in range(11):
        v = u * float(2**k)
        ratios.append(apply_operator(v, v, phase) / luxemburg_norm(v, phase, "gradient"))
    ok = all(b >= a * (1.0 - 1e-12) for a, b in zip(ratios, ratios[1:]))
    ok = ok and ratios[-1] > 100.0 * ratios[0]
    return ok, f"ratio grew {ratios[0]:.3e} -> {ratios[-1]:.3e} over t = 1..2^10"


def _prop_pairing_modular_identity(seed: int):
    worst = 0.0
    for u in _sample_functions(seed, per_mesh=4):
        for _, phase in standard_phase_configs(u.mesh.dim)[:3]:
            a = apply_operator(u, u, phase)
            m = modular(u, phase, "gradient").total
            worst = max(worst, abs(a - m) / max(m, 1e-300))
    return worst <= 1e-14, f"max relative gap {worst:.3e}"


def _prop_jacobian_symmetric_psd(seed: int):
    rng = np.random.default_rng(seed)
    worst_asym, worst_eig = 0.0, np.inf
    for mesh in _verify_meshes():
        for label, phase in standard_phase_configs(mesh.dim):
            if field_bounds(phase.p, mesh)[0] < 2.0:
                continue
            u = random_smooth_function(mesh, rng)
            K = assemble_jacobian(u, phase).toarray()
            worst_asym = max(worst_asym, float(np.max(np.abs(K - K.T))))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(K).min()))
    ok = worst_asym == 0.0 and worst_eig >= -1e-10
    return ok, f"max asymmetry {worst_asym:.1e}, min eigenvalue {worst_eig:.3e}"


# --------------------------------------------------------------------------
# eigensolver properties


def _prop_rayleigh_consistency(seed: int):
    tol = 1e-10
    res2 = first_eigenvalue(build_interval_mesh(0.0, 1.0, 128), 2.0, tol=tol)
    gap2 = abs(res2.value - rayleigh_quotient(res2.eigenfunction, 2.0))
    tol3 = 1e-8
    res3 = first_eigenvalue(build_interval_mesh(0.0, 1.0, 32), 3.0, tol=tol3)
    gap3 = abs(res3.value - rayleigh_quotient(res3.eigenfunction, 3.0))
    ok = gap2 <= 10 * tol * max(1.0, res2.value) and gap3 <= 10 * tol3 * max(1.0, res3.value)
    return ok, f"|lambda - RQ| = {gap2:.2e} (r=2), {gap3:.2e} (r=3)"


def _prop_domain_monotonicity(seed: int):
    lam1 = first_eigenvalue(build_interval_mesh(0.0, 1.0, 256), 2.0).value
    lam2 = first_eigenvalue(build_interval_mesh(0.0, 2.0, 512), 2.0).value
    ratio = lam1 / lam2
    ok = lam1 > lam2 and abs(ratio - 4.0) <= 0.04
    return ok, f"lambda(0,1)/lambda(0,2) = {ratio:.6f}"


def _prop_variational_bound(seed: int):
    rng = np.random.default_rng(seed)
    mesh = build_interval_mesh(0.0, 1.0, 64)
    lam = first_eigenvalue(mesh, 2.0).value
    worst = np.inf
    for _ in range(10):
        v = random_smooth_function(mesh, rng)
        worst = min(worst, rayleigh_quotient(v, 2.0) - lam)
    return worst >= -1e-8 * lam, f"min RQ(v) - lambda = {worst:.3e}"


# --------------------------------------------------------------------------
# solver properties


def _prop_newton_descent(seed: int):
    case = manufactured_case("dp-1d")
    mesh = case.build_mesh(64)
    rep = solve_monotone(case.phase, mesh, lambda x: np.ones(x.shape[0]))
    merit = rep.energy_history
    ok = rep.converged and len(merit) >= 2
    ok = ok and all(b < a for a, b in zip(merit, merit[1:]))
    return ok, f"merit decreased over {len(merit) - 1} accepted steps"


def _prop_zero_boundary(seed: int):
    case = manufactured_case("dp-1d")
    mesh = case.build_mesh(32)
    rep = case.solve(mesh)
    bvals = rep.u.values[mesh.boundary_nodes]
    ok = np.array_equal(bvals, np.zeros(bvals.size))
    return ok, "boundary values identically zero"


def _prop_poisson_rate(seed: int):
    _, ratios, ok = manufactured_case("poisson-1d").convergence((16, 32, 64))
    return ok, "L2 ratios " + ", ".join(f"{r:.3f}" for r in ratios)


def _prop_nontriviality(seed: int):
    case = manufactured_case("dp-1d")
    rep = case.solve(case.build_mesh(32))
    norm = luxemburg_norm(rep.u, case.phase, "gradient")
    return norm > 0.0, f"||u||_(1,H,0) = {norm:.6g}"


def _prop_uniqueness_multistart(seed: int):
    case = manufactured_case("convection-linear")
    mesh = case.build_mesh(128)
    rep = verify_uniqueness(case.phase, mesh, case.term, SolverOptions(), seed=seed)
    return (
        rep.passed,
        f"margin {rep.margin:.4f}, max disagreement {rep.max_disagreement:.3e}",
    )


_PROPERTIES = [
    ("fields-bounds-consistency", _prop_field_bounds),
    ("fields-a1-sufficient-implies-positive-beta", _prop_a1_sufficient_implies_characterized),
    ("fields-holder-estimate-monotone", _prop_holder_monotone),
    ("fields-critical-exponent-dominates-q", _prop_critical_exponent),
    ("modular-unit-ball", _prop_unit_ball),
    ("modular-norm-relations", _prop_norm_modular_relations),
    ("modular-homogeneity-constant-p", _prop_homogeneity),
    ("modular-weighted-seminorm-bound", _prop_seminorm_bound),
    ("modular-reverse-holder", _prop_reverse_holder),
    ("modular-truncation", _prop_truncation),
    ("fem-partition-of-unity", _prop_partition_of_unity),
    ("fem-gradient-consistency", _prop_gradient_consistency),
    ("fem-refinement-monotone", _prop_refinement_monotone),
    ("operator-gradient-check-order", _prop_gradient_check),
    ("operator-strict-monotonicity", _prop_strict_monotonicity),
    ("operator-coercivity-trend", _prop_coercivity_trend),
    ("operator-pairing-modular-identity", _prop_pairing_modular_identity),
    ("operator-jacobian-symmetric-psd", _prop_jacobian_symmetric_psd),
    ("eigen-rayleigh-consistency", _prop_rayleigh_consistency),
    ("eigen-domain-monotonicity", _prop_domain_monotonicity),
    ("eigen-variational-lower-bound", _prop_variational_bound),
    ("solver-newton-energy-descent", _prop_newton_descent),
    ("solver-zero-boundary", _prop_zero_boundary),
    ("solver-poisson-convergence-rate", _prop_poisson_rate),
    ("solver-nontriviality", _prop_nontriviality),
    ("solver-uniqueness-multistart", _prop_uniqueness_multistart),
]


def property_names() -> list:
    return [name for name, _ in _PROPERTIES]


def run_properties(seed: int = 0, names=None) -> list:
    """Run the catalogue (or the named subset) and return PropertyResults.

    Each property re-seeds independently from ``seed``, so results do not
    depend on which other properties ran.
    """
    if names is None:
        selected = _PROPERTIES
    else:
        lookup = dict(_PROPERTIES)
        unknown = [n for n in names if n not in lookup]
        if unknown:
            raise ValueError(
                f"unknown properties: {', '.join(unknown)}; "
                f"available: {', '.join(property_names())}"
            )
        selected = [(n, lookup[n]) for n in names]
    results = []
    for name, fn in selected:
        passed, detail = fn(seed)
        results.append(PropertyResult(name, bool(passed), detail))
    return results
