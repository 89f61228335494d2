"""Solvers for the double-phase equation, with and without convection.

``solve_monotone`` handles  A(u) = rhs  by a damped Newton method: the exact
residual is paired with the regularized Jacobian and a backtracking line
search on 1/2 ||residual||^2.  The operator is strictly monotone, so the
Jacobian is symmetric positive definite on the free nodes and changes little
between late steps; the Newton steps are solved by a :class:`FactorCarry`,
which reuses a preconditioner built from an earlier Jacobian for CG: a
multigrid :class:`VCycle` on a nested rect grid, else a sparse LU factor (its
docstring states the rules).  The flux is not differentiable at grad u = 0
for p < 2 and degenerate there for p > 2, so at an iterate whose element
gradients all vanish, such as the zero start, the step matrix is the
Jacobian regularized at unit gradient scale (eps_reg = 1) instead:
sum_g w (1 + mu) G G^T, which is J(0) itself on a linear phase (p = 2 and
mu (q - 2) = 0).  At eps_reg it would scale like eps_reg^(p-2), 1e-32 at
p = 6, and give a step that the line search must damp or cannot shorten
enough.  ``solve_convection`` handles A(u) = f(x, u, grad u) by an outer
Picard loop that freezes (u, grad u) in f, relaxes the update from theta = 1,
and halves theta whenever the outer residual increases, down to MIN_THETA.
The outer residual is :func:`weak_residual`, a dual-norm residual over the
nodal hats, evaluated with the frozen load of the trial iterate, which the
next inner solve then reuses; the hats' gradient Luxemburg norms are built
from their element patches in one batched root-find and kept on the mesh, so
the Picard loop and a caller re-checking the residual at the returned iterate
share one build.  The loop stops once that residual is at most WEAK_TOL and
the step passes rho((u_{k+1} - u_k)/outer_tol) <= 1 in the gradient modular,
the unit-ball form of ||u_{k+1} - u_k|| <= outer_tol in the gradient
Luxemburg norm: one modular sum instead of a root-find.  Existence requires
the coercivity margin of the declared growth constants to be positive; that
margin is checked before any iteration runs.  Each solver input is read in
one place: every forcing by :func:`_load` and every start iterate by
:func:`_start`.  :class:`SolverOptions` holds exactly the settings a run
config sets; every other limit is a module constant, and so are the sample
counts of the sampled checks: ``GROWTH_SAMPLES`` points in the box
``GROWTH_BOX`` for :func:`check_growth` and ``UNIQUENESS_SAMPLES`` for
:func:`verify_uniqueness`, whose starts must agree to ``UNIQUENESS_MATCH_TOL``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NumericError, PreconditionError
from .fem import DEFAULT_QUAD_ORDER, DiscreteFunction, Mesh, _check_order
from .fields import ConditionReport, DoublePhase, ScalarField, field_bounds
from .fields import _critical_exponent, _extremum_check
from .modular import DEFAULT_NORM_TOL, _hat_norms, luxemburg_norm, modular
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
    "VCycle",
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
# 3-iteration PCG solve, and a reused factor takes about 7.  With the
# V-cycle's Jacobi weight, CG takes 7 to 10 iterations per Newton step on
# grids from 64x64 to 256x256, so a multigrid step costs O(nodes).
PCG_RTOL = 1e-6
PCG_MAX_ITER = 20
PCG_MIN_FACTOR_NNZ = 4096
MG_JACOBI_WEIGHT = 0.6

# Newton's limits (a step is halved up to MAX_BACKTRACKS times, to an ARMIJO
# fraction of the merit slope) and Picard's (see the module docstring).
MAX_NEWTON = 80
MAX_BACKTRACKS = 50
ARMIJO = 1e-4
MAX_OUTER = 200
WEAK_TOL = 1e-8
MIN_THETA = 1.0 / 16.0

# The sampled checks' budgets (see the module docstring).
GROWTH_SAMPLES = 10_000
GROWTH_BOX = 1e3
UNIQUENESS_SAMPLES = 2000
UNIQUENESS_MATCH_TOL = 1e-8  # largest gradient-norm disagreement of the starts


@dataclass(frozen=True)
class SolverOptions:
    """The solver settings a run config sets (see the module docstring)."""

    newton_tol: float = 1e-10
    outer_tol: float = 1e-10
    norm_tol: float = DEFAULT_NORM_TOL
    eps_reg: float = DEFAULT_EPS_REG
    order: int = DEFAULT_QUAD_ORDER

    def __post_init__(self):
        for name in ("newton_tol", "outer_tol", "norm_tol", "eps_reg"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        object.__setattr__(self, "order", _check_order(self.order))


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
        for kind, names in (("growth", "a1 a2 b1 b2"), ("uniqueness", "c1 c2")):
            for name in names.split():
                v = getattr(self, name)  # the uniqueness data may be None
                if (kind == "growth" or v is not None) and not 0.0 <= float(v) < np.inf:
                    raise ValueError(f"{kind} constant {name} must be finite and >= 0")

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
    ``factorizations`` counts the preconditioner builds of the Newton linear
    solves, each a sparse LU of the Jacobian or a multigrid V-cycle whose
    coarsest level is factored, and ``pcg_iterations`` every
    conjugate-gradient iteration; a Picard solve reports both summed over its
    inner solves.
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


class VCycle:
    """A symmetric V(2,2) multigrid cycle for a free x free Jacobian J on a
    nested rect grid, the CG preconditioner of :class:`FactorCarry` there.

    Each coarse operator is the Galerkin product P^T A P of the level above
    it, down the mesh's prolongators; the coarsest is factored by ``splu``
    in the symmetric minimum-degree order, and every other level smooths by
    damped Jacobi (weight MG_JACOBI_WEIGHT), twice before and twice after
    its coarse correction.  ``solve(b)`` applies one cycle from a zero
    guess, a fixed symmetric map of b, as CG requires.
    """

    __slots__ = ("levels", "coarse")

    def __init__(self, jac, prolongators: tuple):
        self.levels = []
        op = jac
        for prolong in prolongators:
            diag = op.diagonal()
            if not np.all(diag > 0.0):
                raise RuntimeError("a level with a non-positive diagonal cannot be smoothed")
            restrict = prolong.T.tocsr()
            self.levels.append((op, MG_JACOBI_WEIGHT / diag, prolong, restrict))
            op = (restrict @ op @ prolong).tocsr()
        self.coarse = spla.splu(op.tocsc(), permc_spec="MMD_AT_PLUS_A")

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._cycle(0, b)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse.solve(b)
        op, weight, prolong, restrict = self.levels[level]
        x = weight * b
        x += weight * (b - op @ x)
        x += prolong @ self._cycle(level + 1, restrict @ (b - op @ x))
        for _ in range(2):
            x += weight * (b - op @ x)
        return x


class FactorCarry:
    """The Newton linear solver of :func:`solve_monotone`, which keeps a
    preconditioner built from an earlier Jacobian for later steps (inexact
    Newton, Eisenstat-Walker 1996).  The kept preconditioner ``precond`` is a
    sparse LU factor of J, or on a mesh with prolongators a multigrid
    :class:`VCycle` of J; both expose ``solve(b)``.  ``solve(jac, rhs,
    prolongators)`` applies every rule:

    - with a kept preconditioner, it first tries conjugate gradients
      preconditioned with it, to ||J x - rhs||_2 <= PCG_RTOL ||rhs||_2
      within PCG_MAX_ITER iterations;
    - when CG misses that or returns non-finite values, the kept one is
      dropped before a new one is built, so two are never live at once;
    - given prolongators, it builds a V-cycle of J and tries CG with it by
      the same test, keeping the cycle when CG succeeds; a miss drops it
      and falls through to the LU below, as does a cycle that cannot be
      built (a level's diagonal is not positive, or its coarsest level is
      singular);
    - J is factored in a symmetric fill-reducing order (minimum degree on
      J^T + J fills in less than the default column ordering), and a
      singular or non-finite solve raises NumericError;
    - the new factor is kept only if it has at least PCG_MIN_FACTOR_NNZ
      stored entries.

    The caller drops ``precond`` after a damped or non-decreasing Newton step,
    and after a step from a zero-gradient iterate on a nonlinear phase, whose
    matrix only stands in for J there (see the module docstring).
    ``factorizations`` counts preconditioner builds, an LU of J or a V-cycle
    whose coarsest level is factored, and ``pcg_iterations`` every CG
    iteration, of the solves made through the object.  One carry passed to a
    sequence of related solves on one mesh lets each call start by PCG with
    what the last one kept; ``solve_convection`` and the r != 2 eigen
    iteration keep theirs as a local, so it is freed when they return.  No
    preconditioner is cached on the mesh.
    """

    __slots__ = ("precond", "factorizations", "pcg_iterations")

    def __init__(self):
        self.precond = None
        self.factorizations = 0
        self.pcg_iterations = 0

    def solve(self, jac, rhs: np.ndarray, prolongators: tuple = ()) -> np.ndarray:
        if self.precond is not None:
            x = self._pcg(jac, rhs)
            if x is not None:
                return x
            self.precond = None
        if prolongators:
            try:
                self.precond = VCycle(jac, prolongators)
            except RuntimeError:  # not positive definite: left to the LU below
                pass
            else:
                self.factorizations += 1
                x = self._pcg(jac, rhs)
                if x is not None:
                    return x
                self.precond = None
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
            self.precond = lu
        return x

    def _pcg(self, jac, rhs: np.ndarray):
        """CG preconditioned with ``precond``: the solution, or None on a miss."""
        def count(_):
            self.pcg_iterations += 1

        M = spla.LinearOperator(jac.shape, matvec=self.precond.solve, dtype=float)
        x, info = spla.cg(
            jac, rhs, rtol=PCG_RTOL, atol=0.0, maxiter=PCG_MAX_ITER, M=M,
            callback=count,
        )
        return x if info == 0 and np.all(np.isfinite(x)) else None


def _load(u: DiscreteFunction, rhs, order: int) -> np.ndarray:
    """The full-node load vector of the forcing ``rhs`` at the iterate ``u``.

    ``rhs`` is one of four kinds: None, a zero load; a :class:`ConvectionTerm`
    f(x, s, xi), frozen at (u, grad u) on the quadrature points; a callable
    over points, through :func:`assemble_load`; or a full-node load vector,
    which raises ValueError at its first non-finite node (its shape is
    checked by :func:`assemble_residual`).
    """
    mesh = u.mesh
    if rhs is None:
        return np.zeros(mesh.num_nodes)
    if isinstance(rhs, ConvectionTerm):
        pts, w, _ = mesh.quadrature_points(order)
        s = u.values_at(order).reshape(-1)
        xi = np.broadcast_to(u.gradients[:, None, :], pts.shape).reshape(-1, mesh.dim)
        fv = rhs(pts.reshape(-1, mesh.dim), s, xi).reshape(w.shape)
        return assemble_load(mesh, fv, order)
    if callable(rhs):
        return assemble_load(mesh, rhs, order)
    load = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(load)):
        bad = int(np.flatnonzero(~np.isfinite(load))[0])
        raise ValueError(f"rhs load vector is not finite at node {bad}")
    return load


def _start(mesh: Mesh, initial: DiscreteFunction | None) -> DiscreteFunction:
    """The start iterate on ``mesh``: zero when ``initial`` is None, else
    ``initial`` projected onto zero trace.  ValueError unless ``initial``
    lives on ``mesh`` itself."""
    if initial is None:
        return DiscreteFunction(mesh, np.zeros(mesh.num_nodes), zero_boundary=True)
    if initial.mesh is not mesh:
        raise ValueError("the initial iterate must live on the mesh being solved on")
    return initial if initial.zero_boundary else initial.zero_on_boundary()


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

    ``rhs`` is read by :func:`_load` at the start iterate of :func:`_start`.
    Stops when the residual max-norm over free nodes drops below
    ``options.newton_tol``; raises NumericError if the line search or the
    iteration budget fails first.  The steps are solved by ``carry``, or
    by a fresh :class:`FactorCarry` that lives only inside this call; the
    report counts only the factorizations and PCG iterations of this call.
    """
    opts = options or SolverOptions()
    u = _start(mesh, initial)
    load = _load(u, rhs, opts.order)
    free = mesh.free_nodes
    linear = carry if carry is not None else FactorCarry()
    factorizations0, pcg_iterations0 = linear.factorizations, linear.pcg_iterations
    asm = assemble_residual(u, phase, load, opts.order)
    res_norm = asm.residual_norm
    history, merit = [res_norm], [_merit(asm.residual)]
    for it in range(MAX_NEWTON + 1):
        if res_norm <= opts.newton_tol:
            return SolveReport(
                u, True, res_norm, it, history=history, energy_history=merit,
                factorizations=linear.factorizations - factorizations0,
                pcg_iterations=linear.pcg_iterations - pcg_iterations0,
            )
        if it == MAX_NEWTON:
            raise NumericError(
                f"Newton did not converge in {MAX_NEWTON} iterations "
                f"(residual {res_norm:.3e}, tol {opts.newton_tol:.3e})"
            )
        zero_start = not np.any(u.gradients)
        jac = assemble_jacobian(u, phase, opts.order, 1.0 if zero_start else opts.eps_reg)
        delta = linear.solve(jac, -asm.residual, mesh.prolongators())
        if zero_start:  # its preconditioner is kept only where the stand-in is J(0)
            p, q, mu, _ = phase.at_quadrature(mesh, opts.order)
            if np.any(p != 2.0) or np.any(mu * (q - 2.0)):
                linear.precond = None
        phi0 = merit[-1]
        slope = -2.0 * phi0  # directional derivative of phi along delta
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            vals = u.values.copy()
            vals[free] += t * delta
            trial = DiscreteFunction(mesh, vals, zero_boundary=True)
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite: rejected
                trial_asm = assemble_residual(trial, phase, load, opts.order)
            phi = _merit(trial_asm.residual)
            if np.isfinite(phi) and phi <= phi0 + ARMIJO * t * slope:
                break
            t *= 0.5
            linear.precond = None  # a damped step keeps none; freed before the next trial
        else:
            raise NumericError(
                f"Newton line search stalled at residual {res_norm:.3e} "
                f"(iteration {it})"
            )
        u, asm = trial, trial_asm
        if not asm.residual_norm < res_norm:
            linear.precond = None
        res_norm = asm.residual_norm
        history.append(res_norm)
        merit.append(phi)


def _merit(residual: np.ndarray) -> float:
    """The line-search merit 1/2 ||residual||_2^2; inf when the sum overflows,
    which the line search rejects like any non-finite trial."""
    with np.errstate(over="ignore"):
        return 0.5 * float(residual @ residual)


def residual_norm(
    u: DiscreteFunction, phase: DoublePhase, rhs=None, order: int = DEFAULT_QUAD_ORDER
) -> float:
    """Max-norm over free nodes of A(u) - rhs, the Newton stopping quantity;
    ``rhs`` is read by :func:`_load` at ``u``."""
    return assemble_residual(u, phase, _load(u, rhs, order), order).residual_norm


def weak_residual(
    u: DiscreteFunction,
    term,
    phase: DoublePhase,
    order: int = DEFAULT_QUAD_ORDER,
    norm_tol: float = DEFAULT_NORM_TOL,
) -> float:
    """Normalized dual-norm residual of A(u) = f over the free nodal hats.

    Returns max_i |<A(u), phi_i> - int f phi_i| / (1 + ||phi_i||) with the
    gradient Luxemburg norm of the hats, built from each hat's element patch
    in one batched root-find once per mesh, phase, tol and order, then
    reused; ``term`` is read by :func:`_load` at ``u``.
    """
    hat_norms = _hat_norms(u.mesh, phase, norm_tol, order)
    res = assemble_residual(u, phase, _load(u, term, order), order).residual
    return float(np.max(np.abs(res) / (1.0 + hat_norms), initial=0.0))


def _step_within(step: DiscreteFunction, phase: DoublePhase, tol: float, order: int) -> bool:
    """||step|| <= tol in the gradient Luxemburg norm, as rho(step / tol) <= 1;
    a step / tol or a modular that overflows is a step above ``tol``."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = step.values / tol  # not * (1 / tol): that is inf for a subnormal tol
        return bool(np.all(np.isfinite(scaled))) and (
            modular(DiscreteFunction(step.mesh, scaled), phase, "gradient", order).total <= 1.0
        )


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
    MIN_THETA before declaring failure.  It stops at a weak residual at most
    WEAK_TOL and a step with rho((u_{k+1} - u_k)/outer_tol) <= 1.
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
    carry = FactorCarry()
    if initial is None:  # a warm start: the term frozen at the zero start
        warm = solve_monotone(phase, mesh, term, opts, carry=carry)
        u, newton_total = warm.u, warm.newton_iterations
    else:
        u, newton_total = _start(mesh, initial), 0
    theta = 1.0
    # the frozen load of the current iterate: built once, it serves both the
    # weak residual and the next inner solve
    load = _load(u, term, opts.order)
    prev_res = weak_residual(u, load, phase, opts.order, opts.norm_tol)
    history = [prev_res]
    for it in range(1, MAX_OUTER + 1):
        inner = solve_monotone(phase, mesh, load, opts, initial=u, carry=carry)
        newton_total += inner.newton_iterations
        while True:
            vals = (1.0 - theta) * u.values + theta * inner.u.values
            unew = DiscreteFunction(mesh, vals, zero_boundary=True)
            load = _load(unew, term, opts.order)
            res = weak_residual(unew, load, phase, opts.order, opts.norm_tol)
            if res <= prev_res or res <= WEAK_TOL:
                break
            theta *= 0.5
            if theta < MIN_THETA:
                raise NumericError(
                    f"Picard relaxation exhausted (theta < {MIN_THETA}) at outer "
                    f"iteration {it} with residual {res:.3e}"
                )
        history.append(res)
        if res <= WEAK_TOL and _step_within(unew - u, phase, opts.outer_tol, opts.order):
            return SolveReport(
                unew, True, res, newton_total, it, margin, eigenvalue, history,
                factorizations=carry.factorizations, pcg_iterations=carry.pcg_iterations,
            )
        u, prev_res = unew, res
    raise NumericError(
        f"Picard iteration did not converge in {MAX_OUTER} outer steps "
        f"(weak residual {prev_res:.3e})"
    )


def check_growth(
    term: ConvectionTerm,
    phase: DoublePhase,
    mesh: Mesh,
    seed: int = 0,
    order: int = DEFAULT_QUAD_ORDER,
) -> ConditionReport:
    """Sample the declared growth inequalities over a box of (x, s, xi).

    ``GROWTH_SAMPLES`` points x are drawn from the quadrature samples, with
    |s| <= GROWTH_BOX and |xi_k| <= GROWTH_BOX componentwise.  Failures carry
    the worst witness.  Also checks the admissibility requirement r(x) < p*(x).
    """
    rng = np.random.default_rng(seed)
    pts, _, _ = mesh.quadrature_points(order)
    pool = pts.reshape(-1, mesh.dim)
    x = pool[rng.integers(0, pool.shape[0], size=GROWTH_SAMPLES)]
    s = rng.uniform(-GROWTH_BOX, GROWTH_BOX, size=GROWTH_SAMPLES)
    xi = rng.uniform(-GROWTH_BOX, GROWTH_BOX, size=(GROWTH_SAMPLES, mesh.dim))
    p, q, _ = phase.at(x)
    rv = term.r(x)
    f = term(x, s, xi)
    nxi = np.sqrt(np.sum(xi**2, axis=1))
    report = ConditionReport("growth")
    at = {"point": x, "s": s, "xi": xi}  # the witness of a failed growth bound

    crit = _critical_exponent(p, phase.dim)
    report.checks.append(_extremum_check("r < p*", crit - rv, point=x))

    bound_i = (
        term.a1 * nxi ** (p * (rv - 1.0) / rv)
        + term.a2 * np.abs(s) ** (rv - 1.0)
        + term.alpha(x)
    )
    report.checks.append(
        _extremum_check("growth bound on |f|", bound_i - np.abs(f), strict=False, **at)
    )

    p_minus, _ = field_bounds(phase.p, mesh, order)
    bound_ii = term.b1 * nxi**p + term.b2 * np.abs(s) ** p_minus + term.omega(x)
    report.checks.append(
        _extremum_check("sign bound on f*s", bound_ii - f * s, strict=False, **at)
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
    match_tol: float = UNIQUENESS_MATCH_TOL  # the agreement bound that was applied

    @property
    def passed(self) -> bool:
        return self.structure.passed and self.max_disagreement <= self.match_tol


def verify_uniqueness(
    phase: DoublePhase,
    mesh: Mesh,
    term: ConvectionTerm,
    options: SolverOptions | None = None,
    seed: int = 0,
) -> UniquenessReport:
    """Verify the uniqueness regime by structure sampling and multi-start solves.

    Requires p identically 2 and declared (c1, c2, rho) with positive margin
    1 - c1/lambda - c2/sqrt(lambda) (PreconditionError otherwise).  Runs
    three solves from independent initial guesses — zero-start default,
    seeded random, scaled first eigenfunction — and reports the largest
    pairwise gradient-norm disagreement (passing if <= ``UNIQUENESS_MATCH_TOL``)
    with checks of the one-sided Lipschitz bound in s and linearity in xi at
    ``UNIQUENESS_SAMPLES`` points.
    """
    opts = options or SolverOptions()
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

    structure = _sample_uniqueness_structure(term, mesh, seed, opts.order)

    rng = np.random.default_rng(seed)
    starts: list[DiscreteFunction | None] = [None]
    vals = np.zeros(mesh.num_nodes)
    vals[mesh.free_nodes] = rng.standard_normal(mesh.free_nodes.size)
    starts.append(DiscreteFunction(mesh, vals, zero_boundary=True))
    starts.append(eig.eigenfunction * (1.0 / max(1.0, eig.value)))
    solutions = [
        solve_convection(phase, mesh, term, opts, initial=s, eigenvalue=eig.value).u
        for s in starts
    ]
    worst = max(
        luxemburg_norm(a - b, phase, "gradient", opts.norm_tol, opts.order)
        for a, b in itertools.combinations(solutions, 2)
    )
    return UniquenessReport(margin, eig.value, len(solutions), worst, structure)


def _sample_uniqueness_structure(
    term: ConvectionTerm, mesh: Mesh, seed: int, order: int
) -> ConditionReport:
    rng = np.random.default_rng(seed + 1)
    pts, _, _ = mesh.quadrature_points(order)
    pool = pts.reshape(-1, mesh.dim)
    x = pool[rng.integers(0, pool.shape[0], size=UNIQUENESS_SAMPLES)]
    s = rng.uniform(-10.0, 10.0, size=UNIQUENESS_SAMPLES)
    t = rng.uniform(-10.0, 10.0, size=UNIQUENESS_SAMPLES)
    xi1 = rng.uniform(-10.0, 10.0, size=(UNIQUENESS_SAMPLES, mesh.dim))
    xi2 = rng.uniform(-10.0, 10.0, size=(UNIQUENESS_SAMPLES, mesh.dim))
    a = rng.uniform(-2.0, 2.0, size=UNIQUENESS_SAMPLES)
    b = rng.uniform(-2.0, 2.0, size=UNIQUENESS_SAMPLES)
    report = ConditionReport("uniqueness-structure")

    slack1 = term.c1 * (s - t) ** 2 - (term(x, s, xi1) - term(x, t, xi1)) * (s - t)
    report.checks.append(
        _extremum_check("one-sided Lipschitz in s", slack1, strict=False, floor=-1e-12, point=x)
    )

    rho = term.rho(x)
    lin_lhs = term(x, s, a[:, None] * xi1 + b[:, None] * xi2) - rho
    lin_rhs = a * (term(x, s, xi1) - rho) + b * (term(x, s, xi2) - rho)
    rel_dev = np.abs(lin_lhs - lin_rhs) / (1.0 + np.abs(lin_rhs))
    report.checks.append(
        _extremum_check("linearity in xi", -rel_dev, strict=False, floor=-1e-10, point=x)
    )

    nxi = np.sqrt(np.sum(xi1**2, axis=1))
    slack3 = term.c2 * nxi - np.abs(term(x, s, xi1) - rho)
    report.checks.append(
        _extremum_check("|f - rho| <= c2 |xi|", slack3, strict=False, floor=-1e-12, point=x)
    )
    return report
