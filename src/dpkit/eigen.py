"""First Dirichlet eigenvalue of the r-Laplacian and solvability margins.

lambda_{1,r} = inf { int |grad u|^r dx : u zero-trace, int |u|^r dx = 1 }.

:func:`first_eigenvalue` runs one normalized inverse iteration for every r:
from a product of coordinate sine bumps, it recomputes the Rayleigh quotient
after each step and ends once lambda changes by at most tol * max(1, |lambda|),
or raises after MAX_EIGEN_ITER steps.  Only the step forks.  For r = 2 it
solves K x = M x_k by one LU of the free-node stiffness block (minimum-degree
order on K^T + K), keeps x at unit Euclidean norm with lambda = x^T K x /
x^T M x, and L^2-normalizes once at the end.  For r != 2 it solves the
monotone problem A_r(u_{k+1}) = lambda_k |u_k|^{r-2} u_k and renormalizes in
L^r; those Newton solves share one :class:`dpkit.solve.FactorCarry` (see its
docstring for the preconditioner rules).

The margins below are the positivity conditions under which the convection
problem is coercive (existence) and the p = 2 problem has a unique solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericError
from .fem import DEFAULT_QUAD_ORDER, DiscreteFunction, Mesh, integrate_samples, interpolate
from .fields import DoublePhase, ScalarField
from .operator import _power0, assemble_load

__all__ = [
    "EigenResult",
    "stiffness_matrix",
    "mass_matrix",
    "first_eigenvalue",
    "rayleigh_quotient",
    "coercivity_margin",
    "uniqueness_margin",
]

DEFAULT_EIGEN_TOL = 1e-10  # relative eigenvalue change that ends an iteration
MAX_EIGEN_ITER = 400  # steps before an unconverged eigen iteration raises


def stiffness_matrix(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix int grad phi_i . grad phi_j dx over all nodes."""
    return mesh.scatter(_stiffness_local(mesh))


def mass_matrix(mesh: Mesh, order: int = DEFAULT_QUAD_ORDER) -> sp.csr_matrix:
    """P1 mass matrix int phi_i phi_j dx over all nodes."""
    return mesh.scatter(_mass_local(mesh, order))


def _stiffness_local(mesh: Mesh) -> np.ndarray:
    return mesh.measures[:, None, None] * mesh.gram


def _mass_local(mesh: Mesh, order: int) -> np.ndarray:
    _, w, _ = mesh.quadrature_points(order)
    basis = mesh.basis_at(order)
    return np.einsum("eq,qi,qj->eij", w, basis, basis)


@dataclass
class EigenResult:
    """First eigenpair: eigenfunction normalized to int |u|^r = 1, one sign."""

    value: float
    eigenfunction: DiscreteFunction
    r: float
    iterations: int
    history: list = field(default_factory=list)  # |Delta lambda| per iteration


def _coordinate_bump(mesh: Mesh) -> DiscreteFunction:
    """Product of coordinate sine bumps, positive inside, zero on the boundary."""
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    return interpolate(
        mesh, lambda x: np.prod(np.sin(np.pi * (x - lo) / (hi - lo)), axis=1), zero_boundary=True
    )


def rayleigh_quotient(
    u: DiscreteFunction, r: float, order: int = DEFAULT_QUAD_ORDER
) -> float:
    """int |grad u|^r dx / int |u|^r dx by quadrature."""
    mesh = u.mesh
    _, w, _ = mesh.quadrature_points(order)
    num = float(np.sum(np.sum(w, axis=1) * u.gradient_norms() ** r))
    den = integrate_samples(mesh, np.abs(u.values_at(order)) ** r, order)
    if den == 0.0:
        raise ValueError("Rayleigh quotient of the zero function")
    return num / den


def _normalized(u: DiscreteFunction, r: float, order: int) -> DiscreteFunction:
    mass = integrate_samples(u.mesh, np.abs(u.values_at(order)) ** r, order)
    if mass <= 0.0:
        raise NumericError("eigen iteration collapsed to the zero function")
    v = u * (mass ** (-1.0 / r))
    if np.sum(v.values) < 0.0:
        v = -v
    return v


def first_eigenvalue(
    mesh: Mesh,
    r: float = 2.0,
    tol: float = DEFAULT_EIGEN_TOL,
    order: int = DEFAULT_QUAD_ORDER,
) -> EigenResult:
    """First Dirichlet eigenvalue of the r-Laplacian on the mesh."""
    r = float(r)
    if not 1.0 < r < np.inf:
        raise ValueError(f"the eigenvalue problem requires a finite r > 1, got r = {r}")
    if mesh.free_nodes.size == 0:
        raise ValueError("mesh has no interior nodes")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got tol = {tol}")
    if tol == np.inf:  # would stop after one iteration, unconverged
        raise ValueError(f"tol must be finite, got tol = {tol}")
    steps = _linear_steps if r == 2.0 else _nonlinear_steps
    x, step, quotient, finish = steps(mesh, r, tol, order)
    lam = quotient(x)
    history = []
    for it in range(1, MAX_EIGEN_ITER + 1):
        x = step(x, lam)
        lam_new = quotient(x)
        history.append(abs(lam_new - lam))
        done = abs(lam_new - lam) <= tol * max(1.0, abs(lam_new))
        lam = lam_new
        if done:
            u = finish(x)
            _check_one_sign(u)
            return EigenResult(lam, u, r, it, history)
    raise NumericError(
        f"eigen iteration for r={r} did not stagnate within {MAX_EIGEN_ITER} iterations "
        f"(last eigenvalue change {history[-1]:.3e})"
    )


def _linear_steps(mesh, r, tol, order):
    """r = 2: the free-node vector, one LU of K, lambda = x^T K x / x^T M x."""
    free = mesh.free_nodes
    K = mesh.scatter_free(_stiffness_local(mesh)).tocsc()
    M = mesh.scatter_free(_mass_local(mesh, order))
    lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A")

    def step(x, lam):
        x = lu.solve(M @ x)
        return x / np.linalg.norm(x)

    def finish(x):
        vals = np.zeros(mesh.num_nodes)
        vals[free] = x
        return _normalized(DiscreteFunction(mesh, vals, zero_boundary=True), r, order)

    start = _coordinate_bump(mesh).values[free]
    return start, step, lambda x: float(x @ (K @ x)) / float(x @ (M @ x)), finish


def _nonlinear_steps(mesh, r, tol, order):
    """r != 2: a function normalized in L^r, one monotone solve per step."""
    from .solve import FactorCarry, SolverOptions, solve_monotone  # deferred: solver uses margins

    phase_r = DoublePhase(
        ScalarField.constant(r), ScalarField.constant(r), ScalarField.constant(0.0),
        dim=max(2, mesh.dim),
    )
    opts = SolverOptions(newton_tol=min(1e-11, tol), order=order)
    carry = FactorCarry()  # freed with the loop: the preconditioner never outlives it

    def step(u, lam):
        uv = u.values_at(order)
        # 0**(r-2) = 0: for r < 2 the plain power gives 0 * inf = nan at u = 0
        samples = lam * _power0(np.abs(uv), r - 2.0) * uv
        load = assemble_load(mesh, samples, order)
        sol = solve_monotone(phase_r, mesh, rhs=load, options=opts, initial=u, carry=carry)
        return _normalized(sol.u, r, order)

    start = _normalized(_coordinate_bump(mesh), r, order)
    return start, step, lambda u: rayleigh_quotient(u, r, order), lambda u: u


def _check_one_sign(u: DiscreteFunction) -> None:
    lo, hi = float(u.values.min()), float(u.values.max())
    if lo < -1e-8 * max(hi, 1e-30):
        raise NumericError(
            f"computed eigenfunction changes sign (min {lo}, max {hi}); "
            "the iterate left the first eigenspace"
        )


def coercivity_margin(b1: float, b2: float, lam: float) -> float:
    """1 - b1 - b2 / lam: positive iff the convection energy stays coercive."""
    b1, b2, lam = _margin_inputs(b1, b2, lam)
    return 1.0 - b1 - b2 / lam


def uniqueness_margin(c1: float, c2: float, lam: float) -> float:
    """1 - c1/lam - c2/sqrt(lam): positive iff the p = 2 contraction closes."""
    c1, c2, lam = _margin_inputs(c1, c2, lam)
    return 1.0 - c1 / lam - c2 / np.sqrt(lam)


def _margin_inputs(*args: float) -> list:
    """Two constants and an eigenvalue lam as floats: ValueError unless both
    constants are finite and >= 0 and 0 < lam < inf (nan fails every test)."""
    *constants, lam = values = [float(v) for v in args]
    if not all(0.0 <= c < np.inf for c in constants):
        raise ValueError(f"margin constants must be finite and nonnegative, got {constants}")
    if not 0.0 < lam < np.inf:
        raise ValueError(f"the eigenvalue must be positive and finite, got {lam}")
    return values
