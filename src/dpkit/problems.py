"""Built-in benchmark problems with known solutions or known structure.

Each case bundles a phase triple, a forcing term (plain right-hand side or a
full convection term with declared growth constants), and, when available, the
closed-form solution used for convergence measurements.  The exponent triples
carry ambient dimension 3 so that p = 2 sits strictly below the critical
exponent even though the meshes are 1- or 2-dimensional.

:meth:`ManufacturedCase.convergence` is the one L2 convergence study: the
``convergence`` command and the verify catalogue both call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    DEFAULT_QUAD_ORDER,
    DiscreteFunction,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
)
from .fields import DoublePhase, ScalarField, constant_phase
from .solve import ConvectionTerm, SolveReport, SolverOptions, solve_convection, solve_monotone

__all__ = [
    "ManufacturedCase",
    "manufactured_case",
    "case_names",
    "growth_example_term",
]

L2_RATE_WINDOW = (3.5, 4.5)  # L2 error ratios per mesh halving that pass as 2nd order


@dataclass(frozen=True)
class ManufacturedCase:
    """A named problem: phase triple plus forcing, with optional exact solution."""

    name: str
    mesh_dim: int
    phase: DoublePhase
    rhs: object | None = None
    term: ConvectionTerm | None = None
    exact: object | None = None
    description: str = ""

    def build_mesh(self, n: int) -> Mesh:
        """Uniform unit-interval or unit-square mesh with n cells per side."""
        if self.mesh_dim == 1:
            return build_interval_mesh(0.0, 1.0, n)
        return build_rect_mesh((0.0, 1.0), (0.0, 1.0), n, n)

    def solve(self, mesh: Mesh, options: SolverOptions | None = None) -> SolveReport:
        if self.term is not None:
            return solve_convection(self.phase, mesh, self.term, options)
        return solve_monotone(self.phase, mesh, self.rhs, options)

    def l2_error(self, u: DiscreteFunction, order: int = DEFAULT_QUAD_ORDER) -> float:
        """L2 distance between u and the exact solution (ValueError if none)."""
        if self.exact is None:
            raise ValueError(f"case {self.name!r} has no closed-form solution")
        _, w, _ = u.mesh.quadrature_points(order)
        diff = u.values_at(order) - u.mesh.sample(self.exact, order)
        return float(np.sqrt(np.sum(w * diff**2)))

    def convergence(self, sizes, options: SolverOptions | None = None):
        """``(errors, ratios, passed)``: the L2 errors at ``options.order`` of the
        solves on ``build_mesh(n)`` for n in ``sizes``, the ratios of consecutive
        errors, and whether every ratio lies in ``L2_RATE_WINDOW``."""
        order = DEFAULT_QUAD_ORDER if options is None else options.order
        errors = [self.l2_error(self.solve(self.build_mesh(n), options).u, order) for n in sizes]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        lo, hi = L2_RATE_WINDOW
        return errors, ratios, all(lo <= r <= hi for r in ratios)


def _sin1(x: np.ndarray) -> np.ndarray:
    return np.sin(np.pi * x[:, 0])


def _sin2(x: np.ndarray) -> np.ndarray:
    return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])


def _convection_linear_case() -> ManufacturedCase:
    # With p = 2 and mu = 0 the operator is the Laplacian, so for
    # u*(x) = sin(pi x) the term f = 0.5 u' + rho with
    # rho = pi^2 sin(pi x) - 0.5 pi cos(pi x) forces exactly -u*'' = f(x, u*, u*').
    def rho_fn(x):
        return np.pi**2 * np.sin(np.pi * x[:, 0]) - 0.5 * np.pi * np.cos(np.pi * x[:, 0])

    term = ConvectionTerm(
        fn=lambda x, s, xi: 0.5 * xi[:, 0] + rho_fn(x),
        r=ScalarField.constant(2.0),
        a1=0.5,
        a2=0.0,
        alpha=ScalarField(lambda x: np.abs(rho_fn(x))),
        b1=0.25,
        b2=0.75,
        omega=ScalarField(lambda x: 0.5 * rho_fn(x) ** 2),
        c1=0.0,
        c2=0.5,
        rho=ScalarField(rho_fn),
    )
    return ManufacturedCase(
        name="convection-linear",
        mesh_dim=1,
        phase=constant_phase(2.0, 3.0, 0.0, dim=3),
        term=term,
        exact=_sin1,
        description="gradient-linear convection term with declared (c1, c2, rho)",
    )


def _registry() -> dict:
    return {
        "poisson-1d": ManufacturedCase(
            name="poisson-1d",
            mesh_dim=1,
            phase=constant_phase(2.0, 2.0, 1.0, dim=3),
            rhs=lambda x: 2.0 * np.pi**2 * _sin1(x),
            exact=_sin1,
            description="linear case: both phases quadratic, operator -2*laplace",
        ),
        "poisson-2d": ManufacturedCase(
            name="poisson-2d",
            mesh_dim=2,
            phase=constant_phase(2.0, 2.0, 1.0, dim=3),
            rhs=lambda x: 4.0 * np.pi**2 * _sin2(x),
            exact=_sin2,
            description="linear case on the unit square",
        ),
        "dp-1d": ManufacturedCase(
            name="dp-1d",
            mesh_dim=1,
            phase=constant_phase(2.0, 3.0, 1.0, dim=3),
            # Unit forcing declared as a (constant) convection term so the
            # solve carries a coercivity margin: |1| <= alpha and, by Young,
            # s <= s^2/4 + 1, giving b1 = 0, b2 = 1/4, omega = 1.
            term=ConvectionTerm(
                fn=lambda x, s, xi: np.ones(np.asarray(x).shape[0]),
                r=ScalarField.constant(2.0),
                a1=0.0,
                a2=0.0,
                alpha=ScalarField.constant(1.0),
                b1=0.0,
                b2=0.25,
                omega=ScalarField.constant(1.0),
            ),
            exact=None,
            description="genuinely nonlinear double phase, constant forcing",
        ),
        "convection-linear": _convection_linear_case(),
    }


_CASES = _registry()


def case_names() -> list:
    return sorted(_CASES)


def manufactured_case(name: str) -> ManufacturedCase:
    """Look up a built-in case by name (ValueError listing options if unknown)."""
    try:
        return _CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; available: {', '.join(case_names())}"
        ) from None


def growth_example_term(
    p_minus: float,
    d1: float,
    d2: float,
    d3: float,
    r: float,
    gamma: ScalarField | None = None,
    eps: float = 0.25,
    delta: float = 0.25,
) -> ConvectionTerm:
    """The model reaction-convection term with auto-derived growth constants.

        f(x, s, xi) = -d1 |s|^{r-2} s + d2 |xi|^{(p- - 1)(r-1)/r} + d3 gamma(x)

    The growth declaration uses t^a <= t^b + 1 for a <= b to lift the gradient
    exponent to p(x)(r-1)/r, and Young splittings with parameters ``eps`` and
    ``delta`` for the sign condition:

        d2 |xi|^e |s| <= d2 eps |xi|^{p-} + d2 C(eps) |s|^{m'}
        d3 gamma |s|  <= delta |s|^{p-} + (d3 gamma)^{p-'} / (delta' delta^{p-'-1})

    with m = p- r / ((p- - 1)(r - 1)) the exponent conjugate to the pair and
    m' = m/(m-1) <= p-.  All declared constants are nonnegative by
    construction, so check_growth passes whenever the inputs satisfy
    d1, d2, d3 >= 0, r > 1 and p- > 1.
    """
    if gamma is None:
        gamma = ScalarField.constant(1.0)
    p_minus, d1, d2, d3, r = map(float, (p_minus, d1, d2, d3, r))
    if p_minus <= 1.0 or r <= 1.0:
        raise ValueError("need p_minus > 1 and r > 1")
    if min(d1, d2, d3) < 0.0:
        raise ValueError("coefficients d1, d2, d3 must be nonnegative")
    if not (0.0 < eps and 0.0 < delta):
        raise ValueError("Young parameters eps and delta must be positive")
    e_grad = (p_minus - 1.0) * (r - 1.0) / r

    def fn(x, s, xi):
        nxi = np.sqrt(np.sum(np.asarray(xi) ** 2, axis=-1))
        s = np.asarray(s)
        # |s|^{r-2} s written as sign(s)|s|^{r-1} so s = 0 is finite for r < 2
        return (
            -d1 * np.sign(s) * np.abs(s) ** (r - 1.0)
            + d2 * nxi**e_grad
            + d3 * gamma(x)
        )

    # Young: A B <= eps A^m / 1 + C(eps) B^{m'} with C(eps) = (eps m)^{-m'/m} / m'
    m = p_minus * r / ((p_minus - 1.0) * (r - 1.0))
    m_conj = m / (m - 1.0)
    c_eps = (eps * m) ** (-m_conj / m) / m_conj
    p_conj = p_minus / (p_minus - 1.0)
    c_delta = (delta * p_minus) ** (-p_conj / p_minus) / p_conj

    b1 = d2 * eps
    b2 = d2 * c_eps + delta
    omega_shift = d2 * (eps + c_eps)

    return ConvectionTerm(
        fn=fn,
        r=ScalarField.constant(r),
        a1=d2,
        a2=d1,
        alpha=ScalarField(lambda x: d3 * np.abs(gamma(x)) + d2),
        b1=b1,
        b2=b2,
        omega=ScalarField(lambda x: omega_shift + c_delta * (d3 * np.abs(gamma(x))) ** p_conj),
    )
