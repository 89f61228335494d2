"""Coefficient fields and the structural hypothesis checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkit.fem import build_interval_mesh
from dpkit.fields import (
    DoublePhase,
    ScalarField,
    check_A1_characterization,
    check_A1_sufficient,
    check_condition_base,
    check_condition_H,
    check_condition_Hpp,
    check_condition_Hprime,
    constant_phase,
    critical_exponent,
    critical_exponent_field,
    estimate_holder,
    estimate_log_holder,
    field_bounds,
    sample_pairs,
    sample_points,
)


# ---------------------------------------------------------------------------
# ScalarField


def test_constant_field_broadcasts(interval_mesh):
    f = ScalarField.constant(2.5)
    pts = interval_mesh.nodes
    np.testing.assert_array_equal(f(pts), np.full(pts.shape[0], 2.5))
    assert f(np.array([0.3])) == 2.5  # single point returns a scalar


def test_affine_field_values(square_mesh):
    f = ScalarField.affine([1.0, -2.0], 0.5)
    val = f(np.array([0.25, 0.5]))
    assert val == pytest.approx(0.25 - 1.0 + 0.5)


def test_table_field_interpolates_1d(interval_mesh):
    values = interval_mesh.nodes[:, 0] ** 2
    f = ScalarField.from_table(interval_mesh, values)
    np.testing.assert_allclose(f(interval_mesh.nodes), values, atol=1e-15)
    # between nodes the interpolant is linear, hence above the parabola
    mid = np.array([[0.5 / 32 + 0.25]])
    assert f(mid)[0] >= mid[0, 0] ** 2


def test_table_field_exact_at_nodes_2d(square_mesh):
    rng = np.random.default_rng(3)
    values = rng.uniform(1.0, 2.0, square_mesh.num_nodes)
    f = ScalarField.from_table(square_mesh, values)
    np.testing.assert_allclose(f(square_mesh.nodes), values, atol=1e-12)


def test_field_rejects_nonfinite():
    with pytest.raises(ValueError):
        ScalarField.constant(np.inf)
    with pytest.raises(ValueError):
        ScalarField.affine([np.nan], 0.0)


def test_field_bounds_cached_and_exact(interval_mesh):
    f = ScalarField.affine([1.0], 1.5)
    lo, hi = field_bounds(f, interval_mesh)
    assert lo == pytest.approx(1.5)
    assert hi == pytest.approx(2.5)
    assert field_bounds(f, interval_mesh) == (lo, hi)  # the same bounds again


def test_describe_roundtrips_kind():
    assert ScalarField.constant(2.0).describe() == {"kind": "constant", "value": 2.0}
    d = ScalarField.affine([1.0, 0.0], 3.0).describe()
    assert d == {"kind": "affine", "a": [1.0, 0.0], "b": 3.0}


# ---------------------------------------------------------------------------
# DoublePhase


def test_phase_at_shapes(square_mesh, dp_phase):
    pts, _, _ = square_mesh.quadrature_points(2)
    p, q, mu = dp_phase.at(pts)
    assert p.shape == q.shape == mu.shape == pts.shape[:-1]


def test_h_at_matches_definition(dp_phase):
    x = np.array([[0.5]])
    # H(x, t) = t^2 + t^3 for the reference configuration
    assert dp_phase.h_at(x, 2.0)[0] == pytest.approx(4.0 + 8.0)
    with pytest.raises(ValueError):
        dp_phase.h_at(x, -1.0)


def test_phase_validate_rejects_bad_exponent(interval_mesh):
    bad = constant_phase(1.0, 3.0, 1.0, dim=3)
    with pytest.raises(ValueError):
        bad.validate(interval_mesh)


def test_phase_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        constant_phase(2.0, 3.0, 1.0, dim=0)


# ---------------------------------------------------------------------------
# critical exponent


def test_critical_exponent_value():
    p = ScalarField.constant(2.0)
    assert critical_exponent(p, [0.0], 3) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        critical_exponent(ScalarField.constant(3.0), [0.0], 3)


def test_critical_exponent_field_dominates_q(interval_mesh, dp_phase):
    pstar = critical_exponent_field(dp_phase.p, dp_phase.dim)
    pts = sample_points(interval_mesh)
    assert np.all(pstar(pts) > dp_phase.q(pts))


# ---------------------------------------------------------------------------
# hypothesis checks


def test_base_and_H_pass_for_reference(interval_mesh, dp_phase):
    assert check_condition_base(dp_phase, interval_mesh).passed
    rep = check_condition_H(dp_phase, interval_mesh)
    assert rep.passed
    assert rep.check("q < p*").margin == pytest.approx(3.0)


def test_H_fails_when_q_exceeds_critical(interval_mesh):
    phase = constant_phase(2.0, 7.0, 1.0, dim=3)  # p* = 6 < q
    rep = check_condition_H(phase, interval_mesh)
    assert not rep.passed
    bad = rep.check("q < p*")
    assert not bad.passed
    assert bad.witness is not None


def test_Hprime_ratio_gate(interval_mesh):
    ok = constant_phase(2.0, 2.5, 1.0, dim=3)  # q/p = 1.25 < 1 + 1/3
    assert check_condition_Hprime(ok, interval_mesh).passed
    tight = constant_phase(2.0, 8.0 / 3.0, 1.0, dim=3)  # q/p = 1 + 1/3 exactly
    assert not check_condition_Hprime(tight, interval_mesh).passed
    assert check_condition_Hprime(tight, interval_mesh, relaxed=True).passed


def test_Hpp_passes_for_smooth_fields(interval_mesh):
    phase = DoublePhase(
        ScalarField.affine([0.4], 1.8),
        ScalarField.affine([0.4], 2.6),
        ScalarField.affine([0.8], 0.2),
        dim=3,
    )
    assert check_condition_Hpp(phase, interval_mesh).passed


def test_base_rejects_p_at_least_N(interval_mesh):
    phase = constant_phase(3.0, 4.0, 1.0, dim=3)
    rep = check_condition_base(phase, interval_mesh)
    assert not rep.check("p < N").passed


# ---------------------------------------------------------------------------
# continuity modulus estimates


def test_holder_estimate_of_affine_is_its_slope(interval_mesh):
    f = ScalarField.affine([0.7], 2.0)
    c = estimate_holder(f, interval_mesh, alpha=1.0)
    assert c == pytest.approx(0.7, rel=1e-12)


def test_holder_estimate_nondecreasing_in_alpha(interval_mesh):
    f = ScalarField.affine([0.5], 2.0)
    alphas = [0.25, 0.5, 0.75, 1.0]
    consts = [estimate_holder(f, interval_mesh, alpha=a) for a in alphas]
    assert all(a <= b + 1e-15 for a, b in zip(consts, consts[1:]))


def test_log_holder_constant_vanishes_for_constant_field(interval_mesh):
    c = estimate_log_holder(ScalarField.constant(2.0), interval_mesh)
    assert c == pytest.approx(0.0, abs=1e-15)


def test_sample_pairs_distinct(interval_mesh):
    i, j = sample_pairs(interval_mesh, pair_budget=100, seed=1)
    assert np.all(i != j)
    assert i.size >= interval_mesh.edges().shape[0]


# ---------------------------------------------------------------------------
# (A1)


def test_A1_sufficient_implies_positive_beta(interval_mesh):
    phase = DoublePhase(
        ScalarField.constant(2.0),
        ScalarField.constant(2.5),
        ScalarField.affine([0.5], 0.25),
        dim=3,
    )
    suff = check_A1_sufficient(phase, interval_mesh, alpha=1.0)
    assert suff.passed
    beta_max, rep = check_A1_characterization(phase, interval_mesh)
    assert beta_max > 0.0
    assert rep.passed


def test_A1_characterization_infinite_without_weight(interval_mesh):
    phase = constant_phase(2.0, 3.0, 0.0, dim=3)
    beta_max, _ = check_A1_characterization(phase, interval_mesh)
    assert beta_max == np.inf


@given(st.floats(min_value=1.1, max_value=2.9), st.floats(min_value=0.0, max_value=0.4))
@settings(max_examples=20, deadline=None)
def test_base_check_matches_constants(p, dq):
    mesh = build_interval_mesh(0.0, 1.0, 8)
    phase = constant_phase(p, p + dq + 1e-6, 1.0, dim=3)
    rep = check_condition_base(phase, mesh)
    assert rep.check("p > 1").margin == pytest.approx(p - 1.0, rel=1e-12)
    assert rep.passed
