"""Energy, weak form, residual and Jacobian of the double-phase operator.

The operator is  A(u): v -> int ( |grad u|^{p(x)-2} + mu(x) |grad u|^{q(x)-2} )
grad u . grad v dx.  On P1 elements the gradient is constant per element while
the exponents vary across quadrature points, so every element contributes

    c_e = sum_g w_g ( s^{p(x_g)-2} + mu(x_g) s^{q(x_g)-2} ),   s = |grad u|_e,

times grad u . grad phi_i.  The convention |0|^{p-2} 0 = 0 is used throughout,
so degenerate elements contribute nothing even for p < 2.

Jacobians regularize only the power weights, replacing s by
sqrt(s^2 + eps_reg^2); the residual itself is never regularized.

Every assembly reads its weights and (p, q, mu) samples through
:meth:`DoublePhase.at_quadrature`, which reuses them while the mesh, the
fields and the order stay the same.  Element contributions are summed in
element order: the Jacobian with :meth:`Mesh.scatter_free` straight into the
free x free CSR block, through a pattern the mesh builds once, and the
residual and load with :meth:`Mesh.scatter_vector`.  The local Jacobians are
exactly symmetric, and so is the assembled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import DEFAULT_QUAD_ORDER, DiscreteFunction, Mesh, _checked_samples
from .fields import DoublePhase, field_bounds
from .modular import DEFAULT_NORM_TOL, _hat_norms, luxemburg_norm

__all__ = [
    "OperatorAssembly",
    "SimonResult",
    "DualBoundResult",
    "energy",
    "apply_operator",
    "assemble_load",
    "assemble_residual",
    "assemble_jacobian",
    "gradient_check",
    "monotonicity_probe",
    "simon_inequality",
    "boundedness_estimate",
    "DEFAULT_EPS_REG",
]

DEFAULT_EPS_REG = 1e-8


def _power0(s: np.ndarray, expo, shift: float = 0.0) -> np.ndarray:
    """s**(expo + shift) with the convention 0**e = 0 (any e), elementwise.

    The powers overwrite the one array that holds the exponents.
    """
    pos = s > 0.0
    out = np.add(expo, shift, out=np.empty(np.broadcast(s, expo).shape))
    np.power(s, out, out=out, where=pos)
    np.copyto(out, 0.0, where=~pos)
    return out


def _flux_coefficients(u: DiscreteFunction, phase: DoublePhase, order: int) -> np.ndarray:
    """Per-element quadrature sum of the power weight, shape (nelems,).

    Works in place on two (nelems, nq) arrays: a Newton line search calls
    this while a Jacobian factor is held.
    """
    p, q, mu, w = phase.at_quadrature(u.mesh, order)
    s = u.gradient_norms()[:, None]
    weight = _power0(s, p, -2.0)
    weight_q = _power0(s, q, -2.0)
    weight_q *= mu
    weight += weight_q
    weight *= w
    return np.sum(weight, axis=1)


def energy(u: DiscreteFunction, phase: DoublePhase, order: int = DEFAULT_QUAD_ORDER) -> float:
    """The double-phase energy int( |grad u|^p / p + mu |grad u|^q / q ) dx."""
    p, q, mu, w = phase.at_quadrature(u.mesh, order)
    s = u.gradient_norms()[:, None]
    return float(np.sum(w * (_power0(s, p) / p + mu * _power0(s, q) / q)))


def apply_operator(
    u: DiscreteFunction,
    v: DiscreteFunction,
    phase: DoublePhase,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """The duality pairing <A(u), v>."""
    if v.mesh is not u.mesh:
        raise ValueError("u and v must live on the same mesh")
    c = _flux_coefficients(u, phase, order)
    return float(np.sum(c * np.sum(u.gradients * v.gradients, axis=1)))


def assemble_load(mesh: Mesh, f, order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
    """Load vector l_i = int f phi_i dx over all nodes.

    ``f`` is a callable over points or an array of quadrature samples with
    shape (nelems, nq).  A non-finite sample raises NumericError naming the
    first element that holds one.
    """
    _, w, _ = mesh.quadrature_points(order)
    fv = _checked_samples(mesh, mesh.sample(f, order) if callable(f) else f, order)
    contrib = np.einsum("eq,qv->ev", w * fv, mesh.basis_at(order))
    return mesh.scatter_vector(contrib)


@dataclass
class OperatorAssembly:
    """Residual of the weak form over free nodes."""

    residual: np.ndarray
    free_nodes: np.ndarray

    @property
    def residual_norm(self) -> float:
        return float(np.max(np.abs(self.residual), initial=0.0))


def assemble_residual(
    u: DiscreteFunction,
    phase: DoublePhase,
    rhs: np.ndarray | None = None,
    order: int = DEFAULT_QUAD_ORDER,
) -> OperatorAssembly:
    """Residual r_i = <A(u), phi_i> - rhs_i over the free nodes.

    ``rhs`` is a full-node load vector (see :func:`assemble_load`) or None
    for a zero right-hand side.
    """
    mesh = u.mesh
    c = _flux_coefficients(u, phase, order)
    edot = np.einsum("ed,evd->ev", u.gradients, mesh.basis_gradients)
    res = mesh.scatter_vector(c[:, None] * edot)
    if rhs is not None:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (mesh.num_nodes,):
            raise ValueError("rhs must be a full-node load vector")
        res = res - rhs
    return OperatorAssembly(res[mesh.free_nodes], mesh.free_nodes)


def assemble_jacobian(
    u: DiscreteFunction,
    phase: DoublePhase,
    order: int = DEFAULT_QUAD_ORDER,
    eps_reg: float = DEFAULT_EPS_REG,
) -> sp.csr_matrix:
    """Regularized Jacobian of the residual, restricted to free nodes.

    Linearizing the flux g(s) grad u with s = sqrt(|grad u|^2 + eps_reg^2)
    gives the per-element matrix  a_e (G G^T)_e + b_e (G grad u)(G grad u)^T
    with a_e = sum_g w_g g(s) and b_e = sum_g w_g g'(s)/s; the result is
    symmetric and positive semi-definite for p, q >= 2 (and positive definite
    along the gradient direction for all p > 1).  Only the two powers
    s^{p-2} and s^{q-2} are taken: s is constant per element, so
    b_e = sum_g w_g ((p-2) s^{p-2} + mu (q-2) s^{q-2}) / s^2.  The Gram block
    G G^T is the mesh's cached :attr:`Mesh.gram`.
    """
    if not 0.0 < eps_reg < np.inf:
        raise ValueError("eps_reg must be positive and finite")
    mesh = u.mesh
    p, q, mu, w = phase.at_quadrature(mesh, order)
    s = np.hypot(u.gradient_norms(), eps_reg)
    # one phase at a time through two (nelems, nq) buffers, e - 2 and s^(e-2)
    expo, power = np.empty_like(w), np.empty_like(w)
    a, b = np.zeros(s.size), np.zeros(s.size)
    for e, weight in ((p, 1.0), (q, mu)):
        np.subtract(e, 2.0, out=expo)
        np.power(s[:, None], expo, out=power)
        power *= weight
        a += np.einsum("eq,eq->e", w, power)
        b += np.einsum("eq,eq,eq->e", w, expo, power)
    del expo, power  # free them before the element matrices are built
    b /= s  # twice, not by s * s, which underflows first
    b /= s
    gdot = np.einsum("ed,evd->ev", u.gradients, mesh.basis_gradients)
    local = np.einsum("ei,ej->eij", gdot, gdot)
    local *= b[:, None, None]
    local += a[:, None, None] * mesh.gram
    return mesh.scatter_free(local)


def gradient_check(
    u: DiscreteFunction,
    h: DiscreteFunction,
    phase: DoublePhase,
    eps: float = 1e-4,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """Relative error between <A(u), h> and a central difference of the energy.

    Returns |(E(u + eps h) - E(u - eps h)) / (2 eps) - <A(u), h>| divided by
    1 + |<A(u), h>|; the energy is the potential of the operator, so the
    error decays like eps^2.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    e_plus = energy(u + eps * h, phase, order)
    e_minus = energy(u + (-eps) * h, phase, order)
    pairing = apply_operator(u, h, phase, order)
    return abs((e_plus - e_minus) / (2.0 * eps) - pairing) / (1.0 + abs(pairing))


def monotonicity_probe(
    u: DiscreteFunction,
    v: DiscreteFunction,
    phase: DoublePhase,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """<A(u) - A(v), u - v>; strictly positive for distinct arguments."""
    if v.mesh is not u.mesh:
        raise ValueError("u and v must live on the same mesh")
    cu = _flux_coefficients(u, phase, order)
    cv = _flux_coefficients(v, phase, order)
    d = u.gradients - v.gradients
    return float(
        np.sum(cu * np.sum(u.gradients * d, axis=1) - cv * np.sum(v.gradients * d, axis=1))
    )


@dataclass(frozen=True)
class SimonResult:
    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def _unit(z: np.ndarray) -> np.ndarray:
    """z/|z| along the last axis (0 for z = 0).

    z is first divided by its largest entry, so a subnormal vector keeps its
    direction instead of the rounding of its subnormal norm.
    """
    m = np.max(np.abs(z), axis=-1, keepdims=True)
    zs = np.divide(z, m, out=np.zeros_like(z), where=m > 0.0)
    n = np.hypot.reduce(zs, axis=-1, keepdims=True)
    return np.divide(zs, n, out=np.zeros_like(z), where=n > 0.0)


def simon_inequality(xi, eta, p: float, tol: float = 1e-12) -> SimonResult:
    """Vector inequalities bounding the monotonicity pairing from below.

    For p >= 2:     5^{(2-p)/2} |xi-eta|^p  <=  (F(xi)-F(eta)).(xi-eta)
    for 1 <= p <= 2: (p-1) 2^{(p-1)(p-2)/p} |xi-eta|^2
                     <=  (F(xi)-F(eta)).(xi-eta) * (|xi|^p+|eta|^p)^{(2-p)/p}

    where F(z) = |z|^{p-2} z with F(0) = 0.  ``xi`` and ``eta`` may be single
    vectors or batches with the vector axis last; at p = 2 both forms
    coincide and the first is used.
    """
    p = float(p)
    if p < 1.0:
        raise ValueError(f"the inequalities require p >= 1, got {p}")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    single = xi.ndim == 1
    if single:
        xi, eta = xi[None, :], eta[None, :]
    # hypot does not square, so tiny vectors keep their norms (no underflow);
    # F(z) = |z|^{p-1} z/|z| stays finite where |z|^{p-2} overflows (p < 2)
    nxi = np.hypot.reduce(xi, axis=-1)
    neta = np.hypot.reduce(eta, axis=-1)
    fxi = _power0(nxi, p - 1.0)[..., None] * _unit(xi)
    feta = _power0(neta, p - 1.0)[..., None] * _unit(eta)
    diff = xi - eta
    pairing = np.sum((fxi - feta) * diff, axis=-1)
    ndiff = np.hypot.reduce(diff, axis=-1)
    if p >= 2.0:
        lhs = 5.0 ** ((2.0 - p) / 2.0) * ndiff**p
        rhs = pairing
    else:
        lhs = (p - 1.0) * 2.0 ** ((p - 1.0) * (p - 2.0) / p) * ndiff**2
        rhs = pairing * _power0(nxi**p + neta**p, (2.0 - p) / p)
    passed = lhs <= rhs + tol
    if single:
        return SimonResult(float(lhs[0]), float(rhs[0]), bool(passed[0]))
    return SimonResult(lhs, rhs, passed)


@dataclass(frozen=True)
class DualBoundResult:
    """Dual-norm bound for A(u) against an empirical supremum over directions."""

    bound: float
    empirical: float
    norm_u: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + self.tol


def boundedness_estimate(
    u: DiscreteFunction,
    phase: DoublePhase,
    order: int = DEFAULT_QUAD_ORDER,
    n_random: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> DualBoundResult:
    """Check ||A(u)||_* <= (q+/p-) max{||u||^{q+-1}, ||u||^{p--1}}.

    The dual norm is estimated from below by maximizing <A(u), v>/||v|| over
    all free nodal hats plus ``n_random`` random zero-trace directions, with
    ||.|| the gradient Luxemburg norm (the hats' norms are built from their
    element patches once per mesh, phase, tolerance and order, and shared
    with :func:`dpkit.solve.weak_residual`).
    """
    mesh = u.mesh
    p_minus, _ = field_bounds(phase.p, mesh, order)
    _, q_plus = field_bounds(phase.q, mesh, order)
    norm_u = luxemburg_norm(u, phase, "gradient", order=order)
    bound = (q_plus / p_minus) * max(norm_u ** (q_plus - 1.0), norm_u ** (p_minus - 1.0))

    pairings = assemble_residual(u, phase, None, order).residual
    hat_norms = _hat_norms(mesh, phase, DEFAULT_NORM_TOL, order)
    empirical = float(np.max(np.abs(pairings) / hat_norms, initial=0.0))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        vals = np.zeros(mesh.num_nodes)
        vals[mesh.free_nodes] = rng.standard_normal(mesh.free_nodes.size)
        v = DiscreteFunction(mesh, vals, zero_boundary=True)
        nv = luxemburg_norm(v, phase, "gradient", order=order)
        if nv > 0.0:
            empirical = max(empirical, abs(apply_operator(u, v, phase, order)) / nv)
    return DualBoundResult(bound, empirical, norm_u, tol)
