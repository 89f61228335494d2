"""Solvers for the double-phase equation, with and without convection.

``solve_monotone`` handles  A(u) = rhs  by a damped Newton method: the exact
residual is paired with the regularized Jacobian and a backtracking line
search on 1/2 ||residual||^2.  The operator is strictly monotone, so the
Jacobian is symmetric positive definite on the free nodes and changes little
between late steps; the Newton steps are solved by a :class:`FactorCarry`,
which reuses a factor of an earlier Jacobian as a CG preconditioner (its
docstring states the rules).  ``solve_convection`` handles
A(u) = f(x, u, grad u) by an outer Picard loop that freezes (u, grad u) in f,
relaxes the update, and halves the relaxation whenever the outer residual
increases.  The outer residual is :func:`weak_residual`, a dual-norm residual
over the nodal hats, evaluated with the frozen load of the trial iterate,
which the next inner solve then reuses; the hats' gradient Luxemburg norms
are built from their element patches in one batched root-find and kept on
the mesh, so the Picard loop and a caller re-checking the residual at the
returned iterate share one build.  Existence requires the coercivity
margin of the declared growth constants to be positive; that margin is
checked before any iteration runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NumericError, PreconditionError
from .fem import DEFAULT_QUAD_ORDER, DiscreteFunction, Mesh
from .fields import ConditionReport, DoublePhase, ScalarField, _extremum_check, field_bounds
from .modular import _hat_norms, luxemburg_norm
from .eigen import coercivity_margin, first_eigenvalue, uniqueness_margin
from .operator import (
    DEFAULT_EPS_REG,
    assemble_jacobian,
    assemble_load,
    assemble_residual,
)

__all__ = [
    "SolverOptions",
    "FactorCarry",
    "ConvectionTerm",
    "SolveReport",
    "UniquenessReport",
    "check_growth",
    "residual_norm",
    "solve_monotone",
    "solve_convection",
    "weak_residual",
    "verify_uniqueness",
]

# FactorCarry's limits.  Small factors are not kept because at about 1200
# stored entries, on 1D and 2D meshes alike, refactoring costs as much as a
# 3-iteration PCG solve, and a reused factor takes about 7.
PCG_RTOL = 1e-6
PCG_MAX_ITER = 20
PCG_MIN_FACTOR_NNZ = 4096


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and limits shared by the solvers."""

    newton_tol: float = 1e-10
    max_newton: int = 80
    eps_reg: float = DEFAULT_EPS_REG
    order: int = DEFAULT_QUAD_ORDER
    outer_tol: float = 1e-10
    weak_tol: float = 1e-8
    max_outer: int = 200
    theta: float = 1.0
    min_theta: float = 1.0 / 16.0
    armijo: float = 1e-4
    max_backtracks: int = 50
    norm_tol: float = 1e-12

    def __post_init__(self):
        for name in ("newton_tol", "outer_tol", "weak_tol", "norm_tol", "eps_reg"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_newton", "max_outer", "max_backtracks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if not 0.0 < self.min_theta <= self.theta:
            raise ValueError("min_theta must lie in (0, theta]")
        if not 0.0 < self.armijo < 1.0:
            raise ValueError("armijo must lie in (0, 1)")


@dataclass
class ConvectionTerm:
    """A convection term f(x, s, xi) together with its declared growth data.

    ``fn(points, s, xi)`` evaluates the term at points (m, dim) with values
    s (m,) and gradients xi (m, dim).  The declared constants assert

        |f(x, s, xi)| <= a1 |xi|^{p(x)(r(x)-1)/r(x)} + a2 |s|^{r(x)-1} + alpha(x)
        f(x, s, xi) s  <= b1 |xi|^{p(x)} + b2 |s|^{p-} + omega(x)

    and, when provided, the uniqueness data (c1, c2, rho) assert that
    s -> f is c1-one-sided-Lipschitz and xi -> f - rho(x) is linear with
    |f - rho| <= c2 |xi|.
    """

    fn: object
    r: ScalarField
    a1: float
    a2: float
    alpha: ScalarField
    b1: float
    b2: float
    omega: ScalarField
    c1: float | None = None
    c2: float | None = None
    rho: ScalarField | None = None

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"growth constant {name} must be finite and >= 0")
        for name in ("c1", "c2"):
            v = getattr(self, name)
            if v is not None and not (np.isfinite(float(v)) and float(v) >= 0.0):
                raise ValueError(f"uniqueness constant {name} must be finite and >= 0")

    def __call__(self, points, s, xi) -> np.ndarray:
        vals = np.asarray(self.fn(points, s, xi), dtype=float)
        if vals.shape != np.shape(s):
            raise ValueError("convection term must return one value per sample")
        return vals

    @property
    def has_uniqueness_data(self) -> bool:
        return self.c1 is not None and self.c2 is not None and self.rho is not None


@dataclass
class SolveReport:
    """Outcome of a solve; ``residual`` is recomputed at the returned iterate.

    ``history`` holds the stopping-norm trajectory (residual max-norm for
    Newton, weak residual for Picard); ``energy_history`` holds the Newton
    line-search merit 1/2 ||residual||_2^2 per accepted iterate.
    ``factorizations`` counts sparse LU factorizations of the Newton
    Jacobian and ``pcg_iterations`` the conjugate-gradient iterations of the
    steps that reused an earlier factor; a Picard solve reports both summed
    over its inner solves.
    """

    u: DiscreteFunction
    converged: bool
    residual: float
    newton_iterations: int
    outer_iterations: int = 0
    coercivity: float | None = None
    eigenvalue: float | None = None
    history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)
    factorizations: int = 0
    pcg_iterations: int = 0


class FactorCarry:
    """The Newton linear solver of :func:`solve_monotone`, which keeps a
    factor of an earlier Jacobian to precondition later steps (inexact
    Newton, Eisenstat-Walker 1996).  ``solve(jac, rhs)`` applies every
    factor rule:

    - with a kept factor ``lu``, it first tries conjugate gradients
      preconditioned with it, to ||J x - rhs||_2 <= PCG_RTOL ||rhs||_2
      within PCG_MAX_ITER iterations;
    - when CG misses that or returns non-finite values, the kept factor is
      dropped before J is factored, so two factors are never live at once;
    - J is factored in a symmetric fill-reducing order (minimum degree on
      J^T + J fills in less than the default column ordering), and a
      singular or non-finite solve raises NumericError;
    - the new factor is kept only if it has at least PCG_MIN_FACTOR_NNZ
      stored entries.

    The caller drops ``lu`` after a damped or non-decreasing Newton step.
    ``factorizations`` and ``pcg_iterations`` count the work of every solve
    made through the object.  One carry passed to a sequence of related
    solves on one mesh lets each call start by PCG with the factor the last
    one kept; ``solve_convection`` and the r != 2 eigen iteration keep theirs
    as a local, so the factor is freed when they return.  No factor is
    cached on the mesh.
    """

    __slots__ = ("lu", "factorizations", "pcg_iterations")

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.pcg_iterations = 0

    def solve(self, jac, rhs: np.ndarray) -> np.ndarray:
        if self.lu is not None:
            def count(_):
                self.pcg_iterations += 1

            precond = spla.LinearOperator(jac.shape, matvec=self.lu.solve, dtype=float)
            x, info = spla.cg(
                jac, rhs, rtol=PCG_RTOL, atol=0.0, maxiter=PCG_MAX_ITER, M=precond,
                callback=count,
            )
            if info == 0 and np.all(np.isfinite(x)):
                return x
            self.lu = None
        try:
            # J is exactly symmetric, so its transpose is J in CSC format
            lu = spla.splu(jac.T, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # singular factorization
            raise NumericError(f"Newton linear solve failed: {exc}") from exc
        self.factorizations += 1
        x = lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise NumericError("Newton linear solve produced non-finite update")
        if lu.nnz >= PCG_MIN_FACTOR_NNZ:
            self.lu = lu
        return x


def _as_load(mesh: Mesh, rhs, order: int) -> np.ndarray:
    if rhs is None:
        return np.zeros(mesh.num_nodes)
    if callable(rhs):
        return assemble_load(mesh, rhs, order)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (mesh.num_nodes,):
        raise ValueError("rhs must be a callable or a full-node load vector")
    return rhs


def solve_monotone(
    phase: DoublePhase,
    mesh: Mesh,
    rhs=None,
    options: SolverOptions | None = None,
    initial: DiscreteFunction | None = None,
    *,
    carry: FactorCarry | None = None,
) -> SolveReport:
    """Solve A(u) = rhs with zero boundary values by damped Newton.

    Stops when the residual max-norm over free nodes drops below
    ``options.newton_tol``; raises NumericError if the line search or the
    iteration budget fails first.  The steps are solved by ``carry``, or
    by a fresh :class:`FactorCarry` that lives only inside this call; the
    report counts only the factorizations and PCG iterations of this call.
    """
    opts = options or SolverOptions()
    load = _as_load(mesh, rhs, opts.order)
    if initial is None:
        u = DiscreteFunction(mesh, np.zeros(mesh.num_nodes), zero_boundary=True)
    else:
        u = initial.zero_on_boundary() if not initial.zero_boundary else initial
    free = mesh.free_nodes
    history = []
    merit = []
    linear = carry if carry is not None else FactorCarry()
    factorizations0, pcg_iterations0 = linear.factorizations, linear.pcg_iterations
    asm = assemble_residual(u, phase, load, opts.order)
    res_norm = asm.residual_norm
    history.append(res_norm)
    merit.append(0.5 * float(asm.residual @ asm.residual))
    for it in range(opts.max_newton + 1):
        if res_norm <= opts.newton_tol:
            return SolveReport(
                u, True, res_norm, it, history=history, energy_history=merit,
                factorizations=linear.factorizations - factorizations0,
                pcg_iterations=linear.pcg_iterations - pcg_iterations0,
            )
        if it == opts.max_newton:
            raise NumericError(
                f"Newton did not converge in {opts.max_newton} iterations "
                f"(residual {res_norm:.3e}, tol {opts.newton_tol:.3e})"
            )
        jac = assemble_jacobian(u, phase, opts.order, opts.eps_reg)
        delta = linear.solve(jac, -asm.residual)
        phi0 = 0.5 * float(asm.residual @ asm.residual)
        slope = -2.0 * phi0  # directional derivative of phi along delta
        t = 1.0
        for _ in range(opts.max_backtracks):
            vals = u.values.copy()
            vals[free] += t * delta
            trial = DiscreteFunction(mesh, vals, zero_boundary=True)
            trial_asm = assemble_residual(trial, phase, load, opts.order)
            phi = 0.5 * float(trial_asm.residual @ trial_asm.residual)
            if np.isfinite(phi) and phi <= phi0 + opts.armijo * t * slope:
                break
            t *= 0.5
            linear.lu = None  # a damped step keeps no factor; freed before the next trial
        else:
            raise NumericError(
                f"Newton line search stalled at residual {res_norm:.3e} "
                f"(iteration {it})"
            )
        u, asm = trial, trial_asm
        if not asm.residual_norm < res_norm:
            linear.lu = None
        res_norm = asm.residual_norm
        history.append(res_norm)
        merit.append(phi)


def residual_norm(
    u: DiscreteFunction,
    phase: DoublePhase,
    rhs=None,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """Max-norm over free nodes of A(u) - rhs, the Newton stopping quantity."""
    load = _as_load(u.mesh, rhs, order)
    return assemble_residual(u, phase, load, order).residual_norm


def _term_load(
    term: ConvectionTerm, u: DiscreteFunction, order: int
) -> np.ndarray:
    """Load vector of v -> int f(x, u, grad u) v dx at the frozen iterate."""
    mesh = u.mesh
    pts, w, _ = mesh.quadrature_points(order)
    flat_pts = pts.reshape(-1, mesh.dim)
    s = u.values_at(order).reshape(-1)
    xi = np.broadcast_to(u.gradients[:, None, :], pts.shape).reshape(-1, mesh.dim)
    fv = term(flat_pts, s, xi).reshape(w.shape)
    return assemble_load(mesh, fv, order)


def weak_residual(
    u: DiscreteFunction,
    term,
    phase: DoublePhase,
    order: int = DEFAULT_QUAD_ORDER,
    norm_tol: float = 1e-12,
) -> float:
    """Normalized dual-norm residual of A(u) = f over the free nodal hats.

    Returns max_i |<A(u), phi_i> - int f phi_i| / (1 + ||phi_i||) with the
    gradient Luxemburg norm of the hats, built from each hat's element patch
    in one batched root-find once per mesh, phase, tol and order, then
    reused; ``term`` may be a ConvectionTerm, a callable over points, a load
    vector, or None.
    """
    mesh = u.mesh
    hat_norms = _hat_norms(mesh, phase, norm_tol, order)
    if isinstance(term, ConvectionTerm):
        load = _term_load(term, u, order)
    else:
        load = _as_load(mesh, term, order)
    res = assemble_residual(u, phase, load, order).residual
    return float(np.max(np.abs(res) / (1.0 + hat_norms), initial=0.0))


def solve_convection(
    phase: DoublePhase,
    mesh: Mesh,
    term: ConvectionTerm,
    options: SolverOptions | None = None,
    initial: DiscreteFunction | None = None,
    eigenvalue: float | None = None,
) -> SolveReport:
    """Solve A(u) = f(x, u, grad u) by relaxed Picard iteration.

    Requires the declared coercivity margin 1 - b1 - b2/lambda_{1,p-} to be
    positive (PreconditionError otherwise).  Each outer step freezes (u,
    grad u) inside f, solves the monotone problem, and relaxes the update;
    the relaxation is halved whenever the outer residual grows, down to
    ``options.min_theta`` before declaring failure.
    """
    opts = options or SolverOptions()
    p_minus, _ = field_bounds(phase.p, mesh, opts.order)
    if eigenvalue is None:
        eigenvalue = first_eigenvalue(mesh, p_minus, order=opts.order).value
    margin = coercivity_margin(term.b1, term.b2, eigenvalue)
    if margin <= 0.0:
        raise PreconditionError(
            f"coercivity margin 1 - b1 - b2/lambda = {margin:.6g} is not positive; "
            "existence is not guaranteed for the declared growth constants"
        )
    newton_total = 0
    carry = FactorCarry()
    if initial is None:
        zero = DiscreteFunction(mesh, np.zeros(mesh.num_nodes), zero_boundary=True)
        warm = solve_monotone(
            phase, mesh, _term_load(term, zero, opts.order), opts, carry=carry
        )
        u = warm.u
        newton_total = warm.newton_iterations
    else:
        u = initial.zero_on_boundary() if not initial.zero_boundary else initial
    theta = opts.theta
    # the frozen load of the current iterate: built once, it serves both the
    # weak residual and the next inner solve
    load = _term_load(term, u, opts.order)
    prev_res = weak_residual(u, load, phase, opts.order, opts.norm_tol)
    history = [prev_res]
    for it in range(1, opts.max_outer + 1):
        inner = solve_monotone(phase, mesh, load, opts, initial=u, carry=carry)
        newton_total += inner.newton_iterations
        while True:
            vals = (1.0 - theta) * u.values + theta * inner.u.values
            unew = DiscreteFunction(mesh, vals, zero_boundary=True)
            load = _term_load(term, unew, opts.order)
            res = weak_residual(unew, load, phase, opts.order, opts.norm_tol)
            if res <= prev_res or res <= opts.weak_tol:
                break
            theta *= 0.5
            if theta < opts.min_theta:
                raise NumericError(
                    f"Picard relaxation exhausted (theta < {opts.min_theta}) at outer "
                    f"iteration {it} with residual {res:.3e}"
                )
        history.append(res)
        # the step norm is a full-mesh root, so it is taken only once the
        # residual has passed
        if res <= opts.weak_tol and (
            luxemburg_norm(unew - u, phase, "gradient", opts.norm_tol, opts.order)
            <= opts.outer_tol
        ):
            return SolveReport(
                unew, True, res, newton_total, it, margin, eigenvalue, history,
                factorizations=carry.factorizations, pcg_iterations=carry.pcg_iterations,
            )
        u, prev_res = unew, res
    raise NumericError(
        f"Picard iteration did not converge in {opts.max_outer} outer steps "
        f"(weak residual {prev_res:.3e})"
    )


def check_growth(
    term: ConvectionTerm,
    phase: DoublePhase,
    mesh: Mesh,
    n_samples: int = 10_000,
    s_bound: float = 1e3,
    xi_bound: float = 1e3,
    seed: int = 0,
    order: int = DEFAULT_QUAD_ORDER,
) -> ConditionReport:
    """Sample the declared growth inequalities over a box of (x, s, xi).

    Points x are drawn from the quadrature samples, |s| <= s_bound and
    |xi_k| <= xi_bound componentwise.  Failures carry the worst witness.
    Also checks the admissibility requirement r(x) < p*(x).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    pts, _, _ = mesh.quadrature_points(order)
    pool = pts.reshape(-1, mesh.dim)
    x = pool[rng.integers(0, pool.shape[0], size=n_samples)]
    s = rng.uniform(-s_bound, s_bound, size=n_samples)
    xi = rng.uniform(-xi_bound, xi_bound, size=(n_samples, mesh.dim))
    p, q, _ = phase.at(x)
    rv = term.r(x)
    f = term(x, s, xi)
    nxi = np.sqrt(np.sum(xi**2, axis=1))
    report = ConditionReport("growth")

    N = phase.dim
    crit = np.where(p < N, N * p / np.maximum(N - p, 1e-300), np.inf)
    report.checks.append(_extremum_check("r < p*", crit - rv, x))

    bound_i = (
        term.a1 * nxi ** (p * (rv - 1.0) / rv)
        + term.a2 * np.abs(s) ** (rv - 1.0)
        + term.alpha(x)
    )
    report.checks.append(
        _extremum_check(
            "growth bound on |f|", bound_i - np.abs(f), x, strict=False, s=s, xi=xi
        )
    )

    p_minus, _ = field_bounds(phase.p, mesh, order)
    bound_ii = term.b1 * nxi**p + term.b2 * np.abs(s) ** p_minus + term.omega(x)
    report.checks.append(
        _extremum_check("sign bound on f*s", bound_ii - f * s, x, strict=False, s=s, xi=xi)
    )
    return report


@dataclass
class UniquenessReport:
    """Multi-start agreement plus the sampled structure checks behind it."""

    margin: float
    eigenvalue: float
    solutions: int
    max_disagreement: float
    structure: ConditionReport
    match_tol: float

    @property
    def passed(self) -> bool:
        return self.structure.passed and self.max_disagreement <= self.match_tol


def verify_uniqueness(
    phase: DoublePhase,
    mesh: Mesh,
    term: ConvectionTerm,
    options: SolverOptions | None = None,
    match_tol: float = 1e-8,
    n_starts: int = 3,
    n_samples: int = 2000,
    seed: int = 0,
) -> UniquenessReport:
    """Verify the uniqueness regime by structure sampling and multi-start solves.

    Requires p identically 2 and declared (c1, c2, rho) with positive margin
    1 - c1/lambda - c2/sqrt(lambda) (PreconditionError otherwise).  Runs
    ``n_starts`` (2 or 3) solves from independent initial guesses — zero-start
    default, seeded random, scaled first eigenfunction — and reports the
    largest pairwise gradient-norm disagreement, along with sampled checks of
    the one-sided Lipschitz bound in s and linearity in xi.
    """
    opts = options or SolverOptions()
    if not 2 <= n_starts <= 3:
        raise ValueError(f"n_starts must be 2 or 3, got {n_starts!r}")
    p_lo, p_hi = field_bounds(phase.p, mesh, opts.order)
    if abs(p_lo - 2.0) > 1e-12 or abs(p_hi - 2.0) > 1e-12:
        raise ValueError("the uniqueness regime requires p identically equal to 2")
    if not term.has_uniqueness_data:
        raise ValueError("term must declare (c1, c2, rho) for uniqueness checks")
    eig = first_eigenvalue(mesh, 2.0, order=opts.order)
    margin = uniqueness_margin(term.c1, term.c2, eig.value)
    if margin <= 0.0:
        raise PreconditionError(
            f"uniqueness margin 1 - c1/lambda - c2/sqrt(lambda) = {margin:.6g} "
            "is not positive; the contraction argument does not apply"
        )

    structure = _sample_uniqueness_structure(term, mesh, n_samples, seed, opts.order)

    rng = np.random.default_rng(seed)
    starts: list[DiscreteFunction | None] = [None]
    vals = np.zeros(mesh.num_nodes)
    vals[mesh.free_nodes] = rng.standard_normal(mesh.free_nodes.size)
    starts.append(DiscreteFunction(mesh, vals, zero_boundary=True))
    starts.append(eig.eigenfunction * (1.0 / max(1.0, eig.value)))
    solutions = [
        solve_convection(phase, mesh, term, opts, initial=s, eigenvalue=eig.value).u
        for s in starts[:n_starts]
    ]
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            diff = solutions[i] - solutions[j]
            worst = max(
                worst, luxemburg_norm(diff, phase, "gradient", opts.norm_tol, opts.order)
            )
    return UniquenessReport(margin, eig.value, len(solutions), worst, structure, match_tol)


def _sample_uniqueness_structure(
    term: ConvectionTerm, mesh: Mesh, n_samples: int, seed: int, order: int
) -> ConditionReport:
    rng = np.random.default_rng(seed + 1)
    pts, _, _ = mesh.quadrature_points(order)
    pool = pts.reshape(-1, mesh.dim)
    x = pool[rng.integers(0, pool.shape[0], size=n_samples)]
    s = rng.uniform(-10.0, 10.0, size=n_samples)
    t = rng.uniform(-10.0, 10.0, size=n_samples)
    xi1 = rng.uniform(-10.0, 10.0, size=(n_samples, mesh.dim))
    xi2 = rng.uniform(-10.0, 10.0, size=(n_samples, mesh.dim))
    a = rng.uniform(-2.0, 2.0, size=n_samples)
    b = rng.uniform(-2.0, 2.0, size=n_samples)
    report = ConditionReport("uniqueness-structure")

    slack1 = term.c1 * (s - t) ** 2 - (term(x, s, xi1) - term(x, t, xi1)) * (s - t)
    report.checks.append(
        _extremum_check("one-sided Lipschitz in s", slack1, x, strict=False, floor=-1e-12)
    )

    rho = term.rho(x)
    lin_lhs = term(x, s, a[:, None] * xi1 + b[:, None] * xi2) - rho
    lin_rhs = a * (term(x, s, xi1) - rho) + b * (term(x, s, xi2) - rho)
    rel_dev = np.abs(lin_lhs - lin_rhs) / (1.0 + np.abs(lin_rhs))
    report.checks.append(
        _extremum_check("linearity in xi", -rel_dev, x, strict=False, floor=-1e-10)
    )

    nxi = np.sqrt(np.sum(xi1**2, axis=1))
    slack3 = term.c2 * nxi - np.abs(term(x, s, xi1) - rho)
    report.checks.append(
        _extremum_check("|f - rho| <= c2 |xi|", slack3, x, strict=False, floor=-1e-12)
    )
    return report
