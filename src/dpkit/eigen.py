"""First Dirichlet eigenvalue of the r-Laplacian and solvability margins.

lambda_{1,r} = inf { int |grad u|^r dx : u zero-trace, int |u|^r dx = 1 }.

For r = 2 this is the generalized eigenvalue problem K u = lambda M u with
the P1 stiffness and mass matrices, assembled straight into their free-node
blocks by :meth:`Mesh.scatter_free` and solved by inverse power iteration.
K is symmetric positive definite, so it is factored once in a symmetric
fill-reducing order (minimum degree on K^T + K).  For r != 2 a normalized
inverse iteration is used: each step solves the monotone problem
A_r(u_{k+1}) = lambda_k |u_k|^{r-2} u_k and renormalizes.  Either iteration
ends on Rayleigh-quotient stagnation, or raises after MAX_EIGEN_ITER steps;
the inner Newton solves share one :class:`dpkit.solve.FactorCarry` (see its
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
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)

    def fn(pts):
        out = np.ones(pts.shape[0])
        for d in range(mesh.dim):
            out *= np.sin(np.pi * (pts[:, d] - lo[d]) / (hi[d] - lo[d]))
        return out

    return interpolate(mesh, fn, zero_boundary=True)


def rayleigh_quotient(
    u: DiscreteFunction, r: float, order: int = DEFAULT_QUAD_ORDER
) -> float:
    """int |grad u|^r dx / int |u|^r dx by quadrature."""
    mesh = u.mesh
    num = float(np.sum(_grad_pow(u, r, order)))
    den = integrate_samples(mesh, np.abs(u.values_at(order)) ** r, order)
    if den == 0.0:
        raise ValueError("Rayleigh quotient of the zero function")
    return num / den


def _grad_pow(u: DiscreteFunction, r: float, order: int) -> np.ndarray:
    _, w, _ = u.mesh.quadrature_points(order)
    return np.sum(w, axis=1) * u.gradient_norms() ** r


def _normalized(u: DiscreteFunction, r: float, order: int) -> DiscreteFunction:
    mesh = u.mesh
    mass = integrate_samples(mesh, np.abs(u.values_at(order)) ** r, order)
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
    if r == 2.0:
        return _first_eigenvalue_linear(mesh, tol, order)
    return _first_eigenvalue_nonlinear(mesh, r, tol, order)


def _first_eigenvalue_linear(mesh, tol, order) -> EigenResult:
    free = mesh.free_nodes
    K = mesh.scatter_free(_stiffness_local(mesh)).tocsc()
    M = mesh.scatter_free(_mass_local(mesh, order))
    lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A")
    x = _coordinate_bump(mesh).values[free]
    lam = float(x @ (K @ x)) / float(x @ (M @ x))
    history = []
    for it in range(1, MAX_EIGEN_ITER + 1):
        x = lu.solve(M @ x)
        x /= np.linalg.norm(x)
        lam_new = float(x @ (K @ x)) / float(x @ (M @ x))
        history.append(abs(lam_new - lam))
        done = abs(lam_new - lam) <= tol * max(1.0, abs(lam_new))
        lam = lam_new
        if done:
            vals = np.zeros(mesh.num_nodes)
            vals[free] = x
            u = _normalized(DiscreteFunction(mesh, vals, zero_boundary=True), 2.0, order)
            _check_one_sign(u)
            return EigenResult(lam, u, 2.0, it, history)
    raise NumericError(
        f"inverse iteration did not stagnate within {MAX_EIGEN_ITER} iterations "
        f"(last eigenvalue change {history[-1]:.3e})"
    )


def _first_eigenvalue_nonlinear(mesh, r, tol, order) -> EigenResult:
    from .solve import FactorCarry, SolverOptions, solve_monotone  # deferred: solver uses margins

    from .operator import _power0, assemble_load

    phase_r = DoublePhase(
        ScalarField.constant(r), ScalarField.constant(r), ScalarField.constant(0.0),
        dim=max(2, mesh.dim),
    )
    u = _normalized(_coordinate_bump(mesh), r, order)
    lam = rayleigh_quotient(u, r, order)
    opts = SolverOptions(newton_tol=min(1e-11, tol), order=order)
    carry = FactorCarry()  # freed on return: the preconditioner never outlives this solve
    history = []
    for it in range(1, MAX_EIGEN_ITER + 1):
        uv = u.values_at(order)
        # 0**(r-2) = 0: for r < 2 the plain power gives 0 * inf = nan at u = 0
        samples = lam * _power0(np.abs(uv), r - 2.0) * uv
        load = assemble_load(mesh, samples, order)
        sol = solve_monotone(phase_r, mesh, rhs=load, options=opts, initial=u, carry=carry)
        u = _normalized(sol.u, r, order)
        lam_new = rayleigh_quotient(u, r, order)
        history.append(abs(lam_new - lam))
        done = abs(lam_new - lam) <= tol * max(1.0, abs(lam_new))
        lam = lam_new
        if done:
            _check_one_sign(u)
            return EigenResult(lam, u, r, it, history)
    raise NumericError(
        f"eigen iteration for r={r} did not stagnate within {MAX_EIGEN_ITER} iterations "
        f"(last eigenvalue change {history[-1]:.3e})"
    )


def _check_one_sign(u: DiscreteFunction) -> None:
    lo = float(u.values.min())
    hi = float(u.values.max())
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
