"""The discrete double-phase operator: energy, residual, Jacobian, inequalities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpkit.operator
from dpkit.fem import DiscreteFunction, build_interval_mesh, interpolate
from dpkit.fields import constant_phase
from dpkit.operator import (
    apply_operator,
    assemble_jacobian,
    assemble_load,
    assemble_residual,
    boundedness_estimate,
    energy,
    gradient_check,
    monotonicity_probe,
    simon_inequality,
)

from conftest import random_nodal, sine_bump


# ---------------------------------------------------------------------------
# energy and pairings


def test_energy_of_linear_ramp(interval_mesh, dp_phase):
    u = interpolate(interval_mesh, lambda pts: 2.0 * pts[:, 0])
    # int |u'|^p / p + mu |u'|^q / q = 4/2 + 8/3 on the unit interval
    assert energy(u, dp_phase) == pytest.approx(2.0 + 8.0 / 3.0, rel=1e-14)


def test_pairing_symmetric_in_the_linear_case(interval_mesh):
    phase = constant_phase(2.0, 2.0, 0.0, dim=3)
    rng = np.random.default_rng(1)
    u, v = random_nodal(interval_mesh, rng), random_nodal(interval_mesh, rng)
    # p = q = 2 and mu = 0 make A linear and self-adjoint
    assert apply_operator(u, v, phase) == pytest.approx(
        apply_operator(v, u, phase), rel=1e-12
    )


def test_pairing_with_u_matches_modular_combination(interval_mesh, dp_phase):
    # <A(u), u> = int |grad u|^p + mu |grad u|^q dx: the gradient modular
    from dpkit.modular import modular

    rng = np.random.default_rng(2)
    u = random_nodal(interval_mesh, rng)
    rep = modular(u, dp_phase, "gradient")
    assert apply_operator(u, u, dp_phase) == pytest.approx(rep.total, rel=1e-13)


def test_apply_operator_rejects_mesh_mismatch(interval_mesh, square_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes))
    v = DiscreteFunction(square_mesh, np.zeros(square_mesh.num_nodes))
    with pytest.raises(ValueError):
        apply_operator(u, v, dp_phase)


# ---------------------------------------------------------------------------
# load vector and residual


def test_load_vector_integrates_hats(interval_mesh):
    load = assemble_load(interval_mesh, lambda pts: np.ones(pts.shape[0]))
    h = 1.0 / 32
    np.testing.assert_allclose(load[1:-1], h, atol=1e-15)
    np.testing.assert_allclose(load[[0, -1]], h / 2, atol=1e-15)
    assert load.sum() == pytest.approx(1.0, abs=1e-14)


def test_residual_vanishes_at_linear_solution(interval_mesh):
    # for p = q = 2, mu = 1 the operator is -2 laplace; u = x(1-x)/4 solves
    # -2u'' = 1 with zero boundary values, and P1 reproduces it exactly
    # at the nodes because the load of a P1 hat against 1 is exact.
    phase = constant_phase(2.0, 2.0, 1.0, dim=3)
    exact = interpolate(
        interval_mesh, lambda pts: pts[:, 0] * (1.0 - pts[:, 0]) / 4.0, zero_boundary=True
    )
    load = assemble_load(interval_mesh, lambda pts: np.ones(pts.shape[0]))
    asm = assemble_residual(exact, phase, load)
    assert asm.residual_norm <= 1e-14


def test_residual_matches_pairing_definition(interval_mesh, dp_phase):
    rng = np.random.default_rng(3)
    u = random_nodal(interval_mesh, rng)
    asm = assemble_residual(u, dp_phase)
    for k, i in enumerate(interval_mesh.free_nodes[:5]):
        hat = np.zeros(interval_mesh.num_nodes)
        hat[i] = 1.0
        v = DiscreteFunction(interval_mesh, hat, zero_boundary=True)
        assert asm.residual[k] == pytest.approx(
            apply_operator(u, v, dp_phase), rel=1e-12, abs=1e-14
        )


# ---------------------------------------------------------------------------
# Jacobian


def test_jacobian_is_symmetric_and_psd(interval_mesh, dp_phase):
    rng = np.random.default_rng(4)
    u = random_nodal(interval_mesh, rng)
    jac = assemble_jacobian(u, dp_phase).toarray()
    np.testing.assert_array_equal(jac, jac.T)
    eigs = np.linalg.eigvalsh(jac)
    assert eigs.min() >= -1e-12 * max(1.0, eigs.max())


def _jacobian_four_powers(u, phase, eps_reg, order=4):
    """The Jacobian as first written: b_e from the powers s^{p-4} and s^{q-4}."""
    mesh = u.mesh
    p, q, mu, w = phase.at_quadrature(mesh, order)
    s = np.hypot(u.gradient_norms()[:, None], eps_reg)
    a = np.sum(w * (s ** (p - 2.0) + mu * s ** (q - 2.0)), axis=1)
    b = np.sum(w * ((p - 2.0) * s ** (p - 4.0) + mu * (q - 2.0) * s ** (q - 4.0)), axis=1)
    G = mesh.basis_gradients
    gram = np.einsum("eid,ejd->eij", G, G)
    gdot = np.einsum("ed,evd->ev", u.gradients, G)
    local = a[:, None, None] * gram + b[:, None, None] * np.einsum("ei,ej->eij", gdot, gdot)
    return mesh.scatter_free(local)


@pytest.mark.parametrize("eps_reg", [1e-8, 1e-12])
@pytest.mark.parametrize("case", ["dp_phase", "crossing_phase"])
def test_jacobian_matches_four_power_formula(request, interval_mesh, square_mesh, case, eps_reg):
    phase = request.getfixturevalue(case)
    mesh = interval_mesh if case == "dp_phase" else square_mesh
    u = random_nodal(mesh, np.random.default_rng(6))
    flat = np.zeros(mesh.num_nodes)  # s = eps_reg on every element
    for v in (u, DiscreteFunction(mesh, flat, zero_boundary=True)):
        jac = assemble_jacobian(v, phase, eps_reg=eps_reg)
        ref = _jacobian_four_powers(v, phase, eps_reg)
        np.testing.assert_array_equal(jac.indices, ref.indices)
        np.testing.assert_allclose(jac.data, ref.data, rtol=1e-13, atol=0.0)


def test_jacobian_matches_finite_difference_of_residual(interval_mesh, dp_phase):
    rng = np.random.default_rng(5)
    u = random_nodal(interval_mesh, rng)
    d = random_nodal(interval_mesh, rng)
    eps = 1e-6
    jac = assemble_jacobian(u, dp_phase, eps_reg=1e-12)
    free = interval_mesh.free_nodes
    r_plus = assemble_residual(u + eps * d, dp_phase).residual
    r_minus = assemble_residual(u + (-eps) * d, dp_phase).residual
    fd = (r_plus - r_minus) / (2.0 * eps)
    jd = jac @ d.values[free]
    np.testing.assert_allclose(jd, fd, rtol=5e-5, atol=5e-8)


# ---------------------------------------------------------------------------
# differentiability and monotonicity


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eps_reg", [0.0, -1.0, np.inf, np.nan])
def test_jacobian_rejects_eps_reg_outside_positive_finite(interval_mesh, dp_phase, eps_reg):
    u = sine_bump(interval_mesh)
    with pytest.raises(ValueError, match="eps_reg"):
        assemble_jacobian(u, dp_phase, eps_reg=eps_reg)


def test_gradient_check_second_order(interval_mesh, dp_phase):
    from dpkit.properties import gradient_check_pair

    rng = np.random.default_rng(6)
    phase = constant_phase(2.5, 3.5, 1.0, dim=3)
    u, h = gradient_check_pair(interval_mesh, rng)
    e1 = gradient_check(u, h, phase, eps=1e-4)
    e2 = gradient_check(u, h, phase, eps=5e-5)
    assert 3.5 <= e1 / e2 <= 4.5


def test_gradient_check_exact_in_quadratic_case(interval_mesh):
    phase = constant_phase(2.0, 2.0, 0.0, dim=3)
    rng = np.random.default_rng(7)
    u, h = random_nodal(interval_mesh, rng), random_nodal(interval_mesh, rng)
    # the energy is quadratic, so the central difference is exact
    assert gradient_check(u, h, phase, eps=1e-4) <= 1e-12


def test_gradient_check_rejects_bad_eps(interval_mesh, dp_phase):
    u = sine_bump(interval_mesh)
    with pytest.raises(ValueError):
        gradient_check(u, u, dp_phase, eps=0.0)


def test_strict_monotonicity_random_pairs(interval_mesh, square_mesh, dp_phase):
    rng = np.random.default_rng(8)
    low = constant_phase(1.5, 2.5, 0.5, dim=3)
    for mesh in (interval_mesh, square_mesh):
        for phase in (dp_phase, low):
            for _ in range(20):
                u = random_nodal(mesh, rng)
                v = random_nodal(mesh, rng)
                assert monotonicity_probe(u, v, phase) > 0.0


def test_monotonicity_zero_for_equal_arguments(interval_mesh, dp_phase):
    u = sine_bump(interval_mesh)
    assert monotonicity_probe(u, u, dp_phase) == 0.0


# ---------------------------------------------------------------------------
# vector inequalities


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_simon_inequality_random_batch(p):
    # the documented domain of the sweep: the box [-10, 10]^2, where the
    # p = 2 equality case stays within a few ULPs of the absolute tolerance
    rng = np.random.default_rng(int(p * 10))
    xi = rng.uniform(-10.0, 10.0, (2000, 2))
    eta = rng.uniform(-10.0, 10.0, (2000, 2))
    res = simon_inequality(xi, eta, p, tol=1e-12)
    assert res.all_passed


def test_simon_inequality_single_pair_and_zero():
    res = simon_inequality(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 3.0)
    assert res.passed
    assert res.lhs == pytest.approx(5.0 ** (-0.5))
    assert res.rhs == pytest.approx(1.0)
    res0 = simon_inequality(np.zeros(2), np.zeros(2), 1.5)
    assert res0.passed and res0.lhs == 0.0


def test_simon_inequality_rejects_p_below_one():
    with pytest.raises(ValueError):
        simon_inequality(np.ones(2), np.zeros(2), 0.9)


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=1.0, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
# tiny vectors: |xi| from sum(xi**2) underflows, |eta|^(p-2) overflows, and
# eta/|eta| is no unit vector when |eta| is rounded to a subnormal
@example(x1=0.0, x2=3.9004128188091297e-159, e1=0.0, e2=1.0, p=1.0)
@example(x1=0.0, x2=0.0, e1=0.0, e2=5e-324, p=1.0)
@example(x1=1.0, x2=1.0, e1=5e-324, e2=5e-324, p=1.0)
def test_simon_inequality_hypothesis(x1, x2, e1, e2, p):
    res = simon_inequality(np.array([x1, x2]), np.array([e1, e2]), p)
    assert res.passed


# ---------------------------------------------------------------------------
# dual-norm bound


def test_boundedness_estimate_is_pinned(square_mesh, dp_phase):
    # DUAL_DIRECTIONS random directions and the DUAL_BOUND_TOL pass tolerance
    u = interpolate(
        square_mesh, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
        zero_boundary=True,
    )
    res = boundedness_estimate(u, dp_phase)
    assert (res.bound, res.empirical, res.norm_u, res.tol) == (
        13.297611136034112, 0.8108890419383109, 2.9774274282825783, 1e-9
    )


def test_boundedness_estimate_holds(interval_mesh, dp_phase, monkeypatch):
    u = sine_bump(interval_mesh, amplitude=2.0)
    monkeypatch.setattr(dpkit.operator, "DUAL_DIRECTIONS", 20)
    res = boundedness_estimate(u, dp_phase, seed=0)
    assert res.passed
    assert res.empirical <= res.bound + res.tol
