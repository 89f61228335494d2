"""Modulars, Luxemburg norms, and the inequalities connecting them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkit.fem import DiscreteFunction, build_interval_mesh, build_rect_mesh, interpolate
from dpkit.fields import ScalarField, constant_phase
from dpkit.modular import (
    DEFAULT_NORM_TOL,
    NORM_ROOT_TOL,
    _collect_terms,
    _logs,
    _luxemburg_roots,
    _part_terms,
    _powers,
    check_norm_modular,
    luxemburg_norm,
    luxemburg_report,
    modular,
    modular_sobolev,
    poincare_ratio,
    reverse_holder_check,
    sobolev_conjugate_inverse,
    truncate,
    uniform_convexity_probe,
    weighted_seminorm,
)
from dpkit.properties import standard_phase_configs

from conftest import random_nodal, sine_bump
from luxemburg_reference import agrees


# ---------------------------------------------------------------------------
# modular values


def test_modular_of_constant_function(interval_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.full(interval_mesh.num_nodes, 2.0))
    rep = modular(u, dp_phase, "value")
    # int 2^2 + 1 * 2^3 over the unit interval
    assert rep.p_part == pytest.approx(4.0, rel=1e-14)
    assert rep.q_part == pytest.approx(8.0, rel=1e-14)
    assert rep.total == pytest.approx(12.0, rel=1e-14)


def test_gradient_modular_of_linear(interval_mesh, dp_phase):
    u = interpolate(interval_mesh, lambda pts: 3.0 * pts[:, 0])
    rep = modular(u, dp_phase, "gradient")
    assert rep.total == pytest.approx(9.0 + 27.0, rel=1e-14)


def test_sobolev_modular_is_sum_of_parts(interval_mesh, dp_phase):
    rng = np.random.default_rng(0)
    u = random_nodal(interval_mesh, rng)
    mv = modular(u, dp_phase, "value")
    mg = modular(u, dp_phase, "gradient")
    ms = modular_sobolev(u, dp_phase)
    assert ms.p_part == mv.p_part + mg.p_part
    assert ms.q_part == mv.q_part + mg.q_part
    assert modular(u, dp_phase, "sobolev") == ms


def test_modular_rejects_unknown_target(interval_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes))
    with pytest.raises(ValueError):
        modular(u, dp_phase, "slope")


def test_public_variants_exclude_the_private_seminorm(interval_mesh, dp_phase):
    u = random_nodal(interval_mesh, np.random.default_rng(3))
    with pytest.raises(ValueError, match="unknown modular variant 'seminorm'"):
        modular(u, dp_phase, "seminorm")
    with pytest.raises(ValueError, match="unknown modular variant 'seminorm'"):
        check_norm_modular(u, dp_phase, "seminorm")


# ---------------------------------------------------------------------------
# Luxemburg norm


def test_unit_ball_property(interval_mesh, dp_phase):
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = random_nodal(interval_mesh, rng, scale=10.0 ** rng.uniform(-3, 3))
        lam = luxemburg_norm(u, dp_phase, "value", tol=1e-12)
        scaled = u * (1.0 / lam)
        assert modular(scaled, dp_phase, "value").total == pytest.approx(
            1.0, abs=1e-10
        )


def test_norm_of_zero_function(interval_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes))
    assert luxemburg_norm(u, dp_phase, "value") == 0.0
    rep = luxemburg_report(u, dp_phase, "value")
    assert rep.norm == 0.0 and rep.iterations == 0


def test_plastic_number_fixture(interval_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.ones(interval_mesh.num_nodes))
    lam = luxemburg_norm(u, dp_phase, "value", tol=1e-12)
    # lam solves 1/lam^2 + 1/lam^3 = 1, i.e. lam^3 = lam + 1
    assert lam**3 == pytest.approx(lam + 1.0, abs=1e-10)


def test_homogeneity_for_constant_exponent(interval_mesh):
    phase = constant_phase(2.5, 2.5, 0.0, dim=3)
    rng = np.random.default_rng(3)
    u = random_nodal(interval_mesh, rng)
    n1 = luxemburg_norm(u, phase, "value", tol=1e-13)
    n2 = luxemburg_norm(u * 7.5, phase, "value", tol=1e-13)
    assert n2 == pytest.approx(7.5 * n1, rel=1e-10)
    # and the norm agrees with the classical L^2.5 norm
    _, w, _ = interval_mesh.quadrature_points(4)
    classical = (np.sum(w * np.abs(u.values_at(4)) ** 2.5)) ** (1.0 / 2.5)
    assert n1 == pytest.approx(classical, rel=1e-10)


def test_norm_is_monotone_in_the_function(interval_mesh, dp_phase):
    u = sine_bump(interval_mesh)
    assert luxemburg_norm(u, dp_phase, "value") <= luxemburg_norm(
        u * 2.0, dp_phase, "value"
    )


def test_luxemburg_rejects_bad_tolerance(interval_mesh, dp_phase):
    u = sine_bump(interval_mesh)
    with pytest.raises(ValueError):
        luxemburg_norm(u, dp_phase, "value", tol=0.0)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be positive"):
            luxemburg_report(u, dp_phase, "value", tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            weighted_seminorm(u, dp_phase, tol=tol)


# ---------------------------------------------------------------------------
# the one root-finder against the frozen scalar root

REFERENCE_MESHES = {
    "interval": build_interval_mesh(0.0, 1.0, 24),
    "rect": build_rect_mesh((0.0, 1.0), (0.0, 1.5), 6, 5),
}


def reference_functions(mesh):
    """A smooth bump, the zero function, and random functions below and
    above unit norm, one of them with a nonzero trace."""
    rng = np.random.default_rng(mesh.num_nodes)
    return [
        sine_bump(mesh, amplitude=1.7),
        sine_bump(mesh, amplitude=0.0),
        random_nodal(mesh, rng, scale=0.05),
        random_nodal(mesh, rng, zero_boundary=False, scale=40.0),
    ]


@pytest.mark.parametrize("which", ["value", "gradient", "sobolev"])
@pytest.mark.parametrize("config", [name for name, _ in standard_phase_configs(1)])
@pytest.mark.parametrize("mesh_name", sorted(REFERENCE_MESHES))
def test_norms_equal_frozen_scalar_root(mesh_name, config, which):
    # equal to the frozen root within the accuracy both stops guarantee
    mesh = REFERENCE_MESHES[mesh_name]
    phase = dict(standard_phase_configs(mesh.dim))[config]
    for u in reference_functions(mesh):
        w, s, e = _collect_terms(u, phase, 4, which)
        for tol in (DEFAULT_NORM_TOL, 1e-14, 1e-6):
            assert agrees(luxemburg_norm(u, phase, which, tol), _powers(w, s, e), e, tol)
        assert agrees(check_norm_modular(u, phase, which).norm, _powers(w, s, e), e, 1e-14)
        _, q, mu, w = phase.at_quadrature(mesh, 4)
        w, s, e, _ = _part_terms(np.abs(u.values_at(4)), q, w * mu)
        assert agrees(weighted_seminorm(u, phase), _powers(w, s, e), e, DEFAULT_NORM_TOL)


@pytest.mark.parametrize("expo", [1.01, 2.0, 3.5, 40.0])
@pytest.mark.parametrize("coef", [1e-300, 1e-9, 0.37, 1.0, 2.5, 1e12])
def test_one_term_root_equals_frozen_scalar_root(coef, expo):
    # the start tau_0 = -log(coef) / expo is the root of a one-term row
    coefs, expos = np.array([coef]), np.array([expo])
    lam, its = _luxemburg_roots(np.log(coefs)[None], expos[None], DEFAULT_NORM_TOL)
    assert its[0] <= 2
    assert agrees(lam[0], coefs, expos, DEFAULT_NORM_TOL)


def test_solution_size_gradient_norm_equals_frozen_scalar_root():
    # a 48x48 gradient norm, the size of a CLI solution_norm (the two corner
    # triangles have zero gradient, so 2 * 4608 * 9 less 36 terms)
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 48, 48)
    _, phase = standard_phase_configs(2)[2]
    u = sine_bump(mesh, amplitude=3.0)
    w, s, e = _collect_terms(u, phase, 4, "gradient")
    assert e.size == 82908
    lam, its = _luxemburg_roots(_logs(w, s, e)[None], e[None], DEFAULT_NORM_TOL)
    rep = luxemburg_report(u, phase, "gradient")
    assert (rep.norm, rep.iterations) == (lam[0], its[0])
    assert agrees(lam[0], _powers(w, s, e), e, DEFAULT_NORM_TOL)


def test_large_q_value_norm_is_finite(interval_mesh):
    # rho(u) overflows: the q = 400 part of |u| = 40 is about 10^640
    phase = constant_phase(2.0, 400.0, 1.0, dim=3)
    u = sine_bump(interval_mesh, amplitude=40.0)
    assert modular(u, phase, "value").q_part == np.inf
    lam = luxemburg_norm(u, phase, "value")
    assert 0.0 < lam < np.inf
    rho = modular(u * (1.0 / lam), phase, "value").total
    assert abs(rho - 1.0) <= DEFAULT_NORM_TOL * 400.0


@pytest.mark.parametrize("mesh_name", sorted(REFERENCE_MESHES))
def test_root_stops_at_the_rounding_floor(mesh_name):
    # At NORM_ROOT_TOL the modular target of a norm above one falls below one
    # ulp of rho, so the computed rho can step from above 1 to below it
    # without meeting the target; a root that then stepped back up would
    # alternate between two adjacent tau until its budget ran out.
    mesh = REFERENCE_MESHES[mesh_name]
    for _, phase in standard_phase_configs(mesh.dim)[:3]:
        for amplitude in range(1, 101):
            u = sine_bump(mesh, amplitude=float(amplitude))
            assert luxemburg_report(u, phase, "sobolev", NORM_ROOT_TOL).iterations <= 10
            assert check_norm_modular(u, phase, "sobolev").passed


@pytest.mark.parametrize("which", ["value", "gradient"])
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_norm_is_homogeneous_far_from_one(interval_mesh, square_mesh, dp_phase, scale, which):
    # the power-form terms of u * scale underflow to 0 or overflow; the log
    # form does not, and neither do the gradient lengths (|x| in 1D, hypot in
    # 2D).  Each norm is within 1.5 tol of its root (e_max / e_min = 1.5),
    # relatively below one and absolutely above.  Compared after unscaling, so
    # that approx's absolute floor cannot accept a norm that underflowed to 0.
    for mesh in (interval_mesh, square_mesh):
        u = sine_bump(mesh, amplitude=1.7)
        lam = luxemburg_norm(u, dp_phase, which)
        scaled = luxemburg_norm(u * scale, dp_phase, which)
        assert scaled / scale == pytest.approx(lam, rel=4.0 * DEFAULT_NORM_TOL * max(1.0, lam))


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=25, deadline=None)
def test_norm_of_constant_scales(c):
    mesh = build_interval_mesh(0.0, 1.0, 8)
    phase = constant_phase(2.0, 3.0, 1.0, dim=3)
    u = DiscreteFunction(mesh, np.full(mesh.num_nodes, c))
    lam = luxemburg_norm(u, phase, "value", tol=1e-12)
    # the defining equation at the root: (c/lam)^2 + (c/lam)^3 = 1
    t = c / lam
    assert t**2 + t**3 == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# norm–modular relations


def test_norm_modular_sandwich_random(interval_mesh, square_mesh, dp_phase):
    rng = np.random.default_rng(11)
    for mesh in (interval_mesh, square_mesh):
        for _ in range(25):
            u = random_nodal(mesh, rng, scale=10.0 ** rng.uniform(-2, 2))
            for which in ("value", "gradient", "sobolev"):
                rep = check_norm_modular(u, dp_phase, which)
                assert rep.passed, (which, rep.regime, rep.slacks)


def test_norm_modular_zero_regime(interval_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes))
    rep = check_norm_modular(u, dp_phase, "value")
    assert rep.regime == "zero" and rep.passed


def test_norm_modular_unit_regime(interval_mesh, dp_phase):
    u = sine_bump(interval_mesh)
    for which in ("value", "gradient", "sobolev"):
        v = u * (1.0 / luxemburg_norm(u, dp_phase, which))
        rep = check_norm_modular(v, dp_phase, which)
        assert rep.regime == "unit" and rep.passed, (which, rep.norm, rep.slacks)


# ---------------------------------------------------------------------------
# weighted seminorm


def test_weighted_seminorm_vanishes_where_weight_does(interval_mesh):
    # mu supported on the left half, u supported on the right half
    mu = ScalarField(lambda pts: np.maximum(0.5 - pts[:, 0], 0.0))
    phase = constant_phase(2.0, 3.0, 0.0, dim=3)
    phase.mu = mu
    vals = np.maximum(interval_mesh.nodes[:, 0] - 0.5, 0.0)
    u = DiscreteFunction(interval_mesh, vals)
    assert weighted_seminorm(u, phase) == 0.0


def test_weighted_seminorm_bounded_by_norm(interval_mesh, dp_phase):
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = random_nodal(interval_mesh, rng, scale=10.0 ** rng.uniform(-1, 1))
        semi = weighted_seminorm(u, dp_phase, tol=1e-13)
        full = luxemburg_norm(u, dp_phase, "value", tol=1e-13)
        assert semi <= full * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# reverse Hölder


def test_reverse_holder_random_piecewise_constant(interval_mesh):
    rng = np.random.default_rng(4)
    r = ScalarField.affine([1.0], 1.5)  # r in [1.5, 2.5]
    for _ in range(50):
        f = random_nodal(interval_mesh, rng, zero_boundary=False)
        g = DiscreteFunction(
            interval_mesh, rng.uniform(0.1, 5.0, interval_mesh.num_nodes)
        )
        res = reverse_holder_check(f, g, r)
        assert res.passed, res.slack


def test_reverse_holder_rejects_vanishing_g(interval_mesh):
    f = DiscreteFunction(interval_mesh, np.ones(interval_mesh.num_nodes))
    g = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes))
    with pytest.raises(ValueError):
        reverse_holder_check(f, g, ScalarField.constant(2.0))


def test_reverse_holder_rejects_r_at_most_one(interval_mesh):
    f = DiscreteFunction(interval_mesh, np.ones(interval_mesh.num_nodes))
    g = DiscreteFunction(interval_mesh, np.ones(interval_mesh.num_nodes))
    with pytest.raises(ValueError):
        reverse_holder_check(f, g, ScalarField.constant(1.0))


# ---------------------------------------------------------------------------
# truncation


def test_truncation_decomposes_exactly(interval_mesh):
    rng = np.random.default_rng(8)
    u = random_nodal(interval_mesh, rng)
    plus, minus = truncate(u, 1), truncate(u, -1)
    np.testing.assert_array_equal(plus.values - minus.values, u.values)
    np.testing.assert_array_equal(plus.values + minus.values, np.abs(u.values))
    assert plus.values.min() >= 0.0 and minus.values.min() >= 0.0


def test_truncate_validates_sign(interval_mesh):
    u = sine_bump(interval_mesh)
    with pytest.raises(ValueError):
        truncate(u, 0)


# ---------------------------------------------------------------------------
# convexity, Poincaré, Sobolev conjugate


def test_uniform_convexity_dichotomy(dp_phase):
    probe = uniform_convexity_probe(dp_phase, [0.5], 1.0, 1.05, eps=0.1)
    assert probe.branch == "within-eps"
    probe = uniform_convexity_probe(dp_phase, [0.5], 1.0, 4.0, eps=0.1)
    assert probe.branch == "separated"
    assert probe.delta > 0.0


def test_poincare_ratio_positive_and_finite(interval_mesh, dp_phase):
    u = sine_bump(interval_mesh)
    ratio = poincare_ratio(u, dp_phase)
    assert 0.0 < ratio < 1.0  # on the unit interval the gradient dominates


def test_poincare_requires_zero_trace(interval_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.ones(interval_mesh.num_nodes))
    with pytest.raises(ValueError):
        poincare_ratio(u, dp_phase)


def test_sobolev_conjugate_inverse_monotone(dp_phase):
    vals = [sobolev_conjugate_inverse(dp_phase, [0.5], s) for s in (0.5, 1.0, 4.0)]
    assert vals[0] < vals[1] < vals[2]
    assert sobolev_conjugate_inverse(dp_phase, [0.5], 0.0) == 0.0


def test_sobolev_conjugate_needs_dimension_two(interval_mesh):
    phase = constant_phase(2.0, 3.0, 1.0, dim=1)
    with pytest.raises(ValueError):
        sobolev_conjugate_inverse(phase, [0.5], 1.0)
