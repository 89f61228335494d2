"""First Dirichlet eigenvalues of the r-Laplacian and the derived margins."""

import types

import numpy as np
import pytest

import dpkit.eigen
import dpkit.solve
from dpkit.eigen import (
    coercivity_margin,
    first_eigenvalue,
    mass_matrix,
    rayleigh_quotient,
    stiffness_matrix,
    uniqueness_margin,
)
from dpkit.errors import NumericError
from dpkit.fem import DEFAULT_QUAD_ORDER, build_interval_mesh, build_rect_mesh, integrate_samples

from conftest import sine_bump


def discrete_interval_eigenvalue(n: int) -> float:
    """Exact first eigenvalue of the P1 pencil on a uniform unit-interval mesh.

    With consistent mass, K x = lam M x has first eigenvalue
    6 (1 - cos(pi h)) / (h^2 (2 + cos(pi h))) for mesh width h = 1/n.
    """
    h = 1.0 / n
    c = np.cos(np.pi * h)
    return 6.0 * (1.0 - c) / (h * h * (2.0 + c))


# ---------------------------------------------------------------------------
# matrices


def test_stiffness_matrix_interval_stencil():
    mesh = build_interval_mesh(0.0, 1.0, 4)
    K = stiffness_matrix(mesh).toarray()
    h = 0.25
    np.testing.assert_allclose(K[1, [0, 1, 2]], [-1 / h, 2 / h, -1 / h], atol=1e-14)
    np.testing.assert_array_equal(K, K.T)


def test_mass_matrix_rows_sum_to_hat_integrals():
    mesh = build_interval_mesh(0.0, 1.0, 4)
    M = mass_matrix(mesh).toarray()
    h = 0.25
    np.testing.assert_allclose(M.sum(axis=1)[1:-1], h, atol=1e-14)
    assert M.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "mesh",
    [build_interval_mesh(0.0, 1.0, 9), build_rect_mesh((0.0, 2.0), (0.0, 1.0), 5, 4)],
    ids=["interval", "rect"],
)
def test_matrices_on_free_nodes_are_the_eigen_blocks(mesh):
    free = mesh.free_nodes
    for full, local in (
        (stiffness_matrix(mesh), dpkit.eigen._stiffness_local(mesh)),
        (mass_matrix(mesh), dpkit.eigen._mass_local(mesh, DEFAULT_QUAD_ORDER)),
    ):
        got, block = full[free][:, free], mesh.scatter_free(local)
        # the K and M that the r = 2 inverse iteration factors, bit for bit
        np.testing.assert_array_equal(got.indptr, block.indptr)
        np.testing.assert_array_equal(got.indices, block.indices)
        np.testing.assert_array_equal(got.data, block.data)


# ---------------------------------------------------------------------------
# eigenvalues against oracles


def test_linear_eigenvalue_matches_discrete_formula():
    for n in (16, 64):
        mesh = build_interval_mesh(0.0, 1.0, n)
        res = first_eigenvalue(mesh, r=2.0, tol=1e-12)
        assert res.value == pytest.approx(discrete_interval_eigenvalue(n), rel=1e-10)


def test_linear_eigenvalue_near_continuum():
    mesh = build_interval_mesh(0.0, 1.0, 256)
    res = first_eigenvalue(mesh, r=2.0)
    assert res.value == pytest.approx(np.pi**2, rel=1e-4)


@pytest.mark.parametrize(
    "mesh, value, iterations",
    [
        (build_interval_mesh(0.0, 1.0, 64), 9.871586353256726, 1),
        (build_rect_mesh((0.0, 1.0), (0.0, 1.0), 16, 16), 19.9297898423148, 5),
        (build_rect_mesh((0.0, 2.0), (0.0, 1.0), 24, 12), 12.453520707107698, 5),
    ],
    ids=["interval-64", "square-16", "rect-24x12"],
)
def test_linear_eigenvalue_pinned(mesh, value, iterations):
    # recorded with the full-node matrices restricted to the free nodes and a
    # COLAMD-ordered LU; the free-node scatter and the minimum-degree order
    # may change only rounding
    res = first_eigenvalue(mesh, r=2.0)
    assert res.iterations == iterations
    assert res.value == pytest.approx(value, rel=1e-13)


def test_square_eigenvalue_near_continuum():
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 24, 24)
    res = first_eigenvalue(mesh, r=2.0)
    assert res.value == pytest.approx(2.0 * np.pi**2, rel=5e-3)


def test_nonlinear_eigenvalue_r3_oracle():
    # lambda_{1,r} on (0,1) equals (r-1) pi_r^r with pi_r = 2 pi / (r sin(pi/r))
    r = 3.0
    pi_r = 2.0 * np.pi / (r * np.sin(np.pi / r))
    exact = (r - 1.0) * pi_r**r
    mesh = build_interval_mesh(0.0, 1.0, 128)
    res = first_eigenvalue(mesh, r=r, tol=1e-10)
    assert res.value == pytest.approx(exact, rel=5e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", [1.5, 1.8])
@pytest.mark.parametrize("n", [8, 16])
def test_nonlinear_eigenvalue_rect_below_two(n, r):
    # the corner triangles have all vertices on the boundary, so the load
    # samples |u|^(r-2) u there at u = 0, where r < 2 makes the power infinite
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), n, n)
    res = first_eigenvalue(mesh, r=r, tol=1e-10)
    assert np.isfinite(res.value) and res.value > 0.0
    assert rayleigh_quotient(res.eigenfunction, r) == pytest.approx(res.value, rel=1e-12)


@pytest.mark.parametrize(
    "r, value", [(3.0, 63.95691464787868), (1.5, 10.152136488049136)]
)
def test_nonlinear_eigen_steps_carry_the_newton_factor(monkeypatch, r, value):
    factorizations = []
    splu = dpkit.solve.spla.splu

    def counting_splu(*args, **kwargs):
        factorizations.append(1)
        return splu(*args, **kwargs)

    spla = types.SimpleNamespace(**vars(dpkit.solve.spla))
    spla.splu = counting_splu
    monkeypatch.setattr(dpkit.solve, "spla", spla)
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 16, 16)
    res = first_eigenvalue(mesh, r=r, tol=1e-10)
    # without the carry every inner Newton solve factors at least once
    assert len(factorizations) < res.iterations
    # value: the eigenvalue computed with a fresh factor in every inner solve
    assert abs(res.value - value) <= 1e-10 * value


def test_eigenfunction_normalized_and_one_signed():
    mesh = build_interval_mesh(0.0, 1.0, 64)
    res = first_eigenvalue(mesh, r=2.0)
    u = res.eigenfunction
    mass = integrate_samples(mesh, np.abs(u.values_at(4)) ** 2.0, 4)
    assert mass == pytest.approx(1.0, rel=1e-12)
    assert u.values.min() >= -1e-8 * u.values.max()
    assert u.zero_boundary


def test_rayleigh_quotient_at_eigenfunction():
    mesh = build_interval_mesh(0.0, 1.0, 64)
    res = first_eigenvalue(mesh, r=2.0, tol=1e-12)
    assert rayleigh_quotient(res.eigenfunction, 2.0) == pytest.approx(
        res.value, rel=1e-8
    )


def test_eigenvalue_is_variational_lower_bound():
    mesh = build_interval_mesh(0.0, 1.0, 64)
    res = first_eigenvalue(mesh, r=2.0)
    trial = sine_bump(mesh) + sine_bump(mesh) * 0.0  # P1 interpolant of sin(pi x)
    assert rayleigh_quotient(trial, 2.0) >= res.value * (1.0 - 1e-10)


def test_domain_monotonicity_under_dilation():
    # halving the interval multiplies the eigenvalue by four; geometrically
    # similar meshes (same element count) make the discrete ratio exact
    lam1 = first_eigenvalue(build_interval_mesh(0.0, 1.0, 64), 2.0, tol=1e-12).value
    lam2 = first_eigenvalue(build_interval_mesh(0.0, 0.5, 64), 2.0, tol=1e-12).value
    assert lam2 / lam1 == pytest.approx(4.0, rel=1e-8)


def test_rayleigh_quotient_rejects_zero():
    mesh = build_interval_mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        rayleigh_quotient(sine_bump(mesh) * 0.0, 2.0)


def test_first_eigenvalue_input_validation():
    mesh = build_interval_mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        first_eigenvalue(mesh, r=1.0)
    with pytest.raises(ValueError):
        first_eigenvalue(mesh, r=2.0, tol=-1.0)
    with pytest.raises(ValueError):
        first_eigenvalue(build_interval_mesh(0.0, 1.0, 1), r=2.0)


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
def test_first_eigenvalue_rejects_non_finite_r(r):
    with pytest.raises(ValueError, match=r"finite r > 1, got r = "):
        first_eigenvalue(build_interval_mesh(0.0, 1.0, 8), r=r)


@pytest.mark.parametrize("r", [2.0, 3.0])
def test_first_eigenvalue_rejects_nan_tol(r):
    for tol, message in (
        (np.nan, "tol must be positive, got tol = nan"),
        (np.inf, "tol must be finite, got tol = inf"),
    ):
        with pytest.raises(ValueError, match=message):
            first_eigenvalue(build_interval_mesh(0.0, 1.0, 8), r=r, tol=tol)


def test_eigen_budget_exhaustion_raises(monkeypatch):
    mesh = build_interval_mesh(0.0, 1.0, 64)
    monkeypatch.setattr(dpkit.eigen, "MAX_EIGEN_ITER", 1)
    with pytest.raises(NumericError, match="within 1 iterations"):
        first_eigenvalue(mesh, r=2.0, tol=1e-16)


def test_nonlinear_eigen_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(dpkit.eigen, "MAX_EIGEN_ITER", 1)
    message = r"eigen iteration for r=3\.0 did not stagnate within 1 iterations"
    with pytest.raises(NumericError, match=message):
        first_eigenvalue(build_interval_mesh(0.0, 1.0, 64), r=3.0)


# ---------------------------------------------------------------------------
# margins


def test_coercivity_margin_formula():
    assert coercivity_margin(0.25, 0.75, np.pi**2) == pytest.approx(
        1.0 - 0.25 - 0.75 / np.pi**2
    )
    with pytest.raises(ValueError):
        coercivity_margin(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        coercivity_margin(0.1, 0.0, 0.0)


def test_uniqueness_margin_formula():
    lam = 4.0
    assert uniqueness_margin(1.0, 1.0, lam) == pytest.approx(1.0 - 0.25 - 0.5)
    with pytest.raises(ValueError):
        uniqueness_margin(0.0, -1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("margin", [coercivity_margin, uniqueness_margin])
def test_margins_reject_non_finite_inputs(margin, bad):
    with pytest.raises(ValueError, match="eigenvalue must be positive and finite"):
        margin(0.1, 0.1, bad)
    for constants in ((bad, 0.1), (0.1, bad)):
        with pytest.raises(ValueError, match="margin constants must be finite and nonnegative"):
            margin(*constants, 4.0)
