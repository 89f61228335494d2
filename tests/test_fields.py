"""Coefficient fields and the structural hypothesis checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkit import fields
from dpkit.config import parse_config
from dpkit.fem import Mesh, build_interval_mesh, build_rect_mesh
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
from dpkit.properties import _random_smooth_triples, standard_phase_configs

import checks_reference
import critical_exponent_reference
import pairs_reference
import replay


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_critical_exponent_is_the_old_four_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    edge = [float(dim), np.nextafter(dim, 0.0), np.nextafter(dim, np.inf)]
    p = np.concatenate([edge, rng.uniform(0.5, 2.0 * dim, 20_000)])
    below = p < dim
    new = fields._critical_exponent(p, dim)
    assert new.tobytes() == critical_exponent_reference.condition_H(p, dim).tobytes()
    assert new.tobytes() == critical_exponent_reference.growth(p, dim).tobytes()
    assert np.all(new[~below] == np.inf)

    ident = ScalarField.from_callable(lambda pts: pts[:, 0])
    undefined = f"critical exponent undefined at [{float(dim)}]: p >= N = {dim}"
    for form in (critical_exponent_field, critical_exponent_reference.critical_exponent_field):
        assert form(ident, dim)(p[below][:, None]).tobytes() == new[below].tobytes()
        with pytest.raises(ValueError) as err:
            form(ident, dim)(p[:, None])
        assert str(err.value) == undefined
    for x, expected in zip(p[:500], new[:500]):
        if x < dim:
            assert critical_exponent(ident, [x], dim) == expected
            assert critical_exponent_reference.critical_exponent(ident, [x], dim) == expected
        else:
            with pytest.raises(ValueError, match="critical exponent undefined at"):
                critical_exponent(ident, [x], dim)


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


def _reversed_interval_mesh(n: int) -> Mesh:
    """A 1D mesh on [0, 1] whose elements list the larger node index first."""
    x = 1.0 - np.linspace(0.0, 1.0, n + 1)
    elements = np.column_stack([np.arange(1, n + 1), np.arange(n)])
    return Mesh(x[:, None], elements, [0, n])


_PAIR_MESHES = {
    "interval-32": lambda: build_interval_mesh(0.0, 1.0, 32),
    "reversed-interval-20": lambda: _reversed_interval_mesh(20),
    "rect-8x8": lambda: build_rect_mesh((0.0, 1.0), (0.0, 1.0), 8, 8),
    "rect-31x17": lambda: build_rect_mesh((0.0, 2.0), (-1.0, 1.0), 31, 17),
}


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", _PAIR_MESHES)
def test_mesh_edges_match_row_unique_reference(name):
    mesh = _PAIR_MESHES[name]()
    e = mesh.edges()
    _assert_same_array(e, pairs_reference.edges(mesh))
    assert np.all(e[:, 0] < e[:, 1])
    assert np.all(np.diff(e[:, 0] * mesh.num_nodes + e[:, 1]) > 0)  # sorted by (i, j)


@pytest.mark.parametrize("budget", [0, 1, 100, 2000, 4000])
@pytest.mark.parametrize("name", _PAIR_MESHES)
def test_sample_pairs_match_row_unique_reference(name, budget):
    mesh = _PAIR_MESHES[name]()
    for seed in (0, 1, 7):
        i, j = sample_pairs(mesh, budget, seed)
        ref_i, ref_j = pairs_reference.sample_pairs(mesh, budget, seed)
        _assert_same_array(i, ref_i)
        _assert_same_array(j, ref_j)
        assert i.dtype == np.int64
        assert np.all(i < j)


def test_sample_pairs_empty_without_edges_or_budget():
    lone = Mesh([[0.0]], np.empty((0, 2), dtype=int), [0])
    for mesh, budget in [(lone, 0), (lone, 100), (_reversed_interval_mesh(1), 0)]:
        i, j = sample_pairs(mesh, budget)
        ref_i, ref_j = pairs_reference.sample_pairs(mesh, budget)
        _assert_same_array(i, ref_i)
        _assert_same_array(j, ref_j)
    i, _ = sample_pairs(lone, 100)
    assert i.size == 0 and i.dtype == np.int64


def _pair_consumer_reports(mesh, phase):
    beta_max, a1 = check_A1_characterization(phase, mesh)
    return {
        "Hprime": check_condition_Hprime(phase, mesh).to_dict(),
        "Hpp": check_condition_Hpp(phase, mesh).to_dict(),
        "A1-sufficient": check_A1_sufficient(phase, mesh, alpha=1.0).to_dict(),
        "A1": a1.to_dict(),
        "beta_max": beta_max,
    }


def _pair_consumer_cases():
    cfg = parse_config(
        {
            "mesh": {"kind": "rect", "nx": 16, "ny": 16},
            "fields": {
                "p": {"kind": "affine", "a": [0.2, 0.0], "b": 1.6},
                "q": {"kind": "affine", "a": [0.0, 0.2], "b": 2.0},
                "mu": {"kind": "expr", "expr": "0.2 + 0.8*x*y"},
            },
        }
    )
    return [(cfg.mesh, cfg.require_phase()), *_random_smooth_triples(3, 2)]


def test_pair_consumers_match_row_unique_reference(monkeypatch):
    cases = _pair_consumer_cases()
    got = [_pair_consumer_reports(mesh, phase) for mesh, phase in cases]
    monkeypatch.setattr(fields, "sample_pairs", pairs_reference.sample_pairs)
    want = [_pair_consumer_reports(mesh, phase) for mesh, phase in cases]
    assert got == want


def _all_check_reports(checks, mesh, phase):
    """Every report ``dpkit validate`` writes, from the module ``checks``."""
    beta_max, a1 = checks.check_A1_characterization(phase, mesh)
    reports = {
        "base": checks.check_condition_base(phase, mesh),
        "H": checks.check_condition_H(phase, mesh),
        "Hprime": checks.check_condition_Hprime(phase, mesh),
        "Hprime-relaxed": checks.check_condition_Hprime(phase, mesh, relaxed=True),
        "Hpp": checks.check_condition_Hpp(phase, mesh),
        "A1-sufficient": checks.check_A1_sufficient(phase, mesh, alpha=1.0),
        "A1": a1,
    }
    return {name: rep.to_dict() for name, rep in reports.items()}, beta_max


FAILING_1D = {  # p < N, p < q and the (H') ratio fail
    "mesh": {"kind": "interval", "n": 32},
    "fields": {"p": 3.5, "q": 2.0, "mu": {"kind": "expr", "expr": "x"}, "dim": 3},
}


def _check_reference_cases() -> dict:
    cases = {}
    for mesh in (build_interval_mesh(0.0, 1.0, 32), build_rect_mesh((0, 1), (0, 1), 8, 8)):
        for name, phase in standard_phase_configs(mesh.dim):
            cases[f"{mesh.dim}d-{name}"] = (mesh, phase)
    for name, doc in (("failing-1d", FAILING_1D), ("validate-2d", replay.config("validate"))):
        cfg = parse_config(doc)
        cases[name] = (cfg.mesh, cfg.require_phase())
    return cases


_CHECK_CASES = _check_reference_cases()


@pytest.mark.parametrize("name", _CHECK_CASES)
def test_checks_match_the_frozen_reference(name):
    mesh, phase = _CHECK_CASES[name]
    got = _all_check_reports(fields, mesh, phase)
    assert got == _all_check_reports(checks_reference, mesh, phase)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_A1_characterization_negative_weight_admits_no_beta(interval_mesh):
    mu = ScalarField.affine([1.0], -0.5)  # mu < 0 on half the interval
    phase = DoublePhase(ScalarField.constant(2.0), ScalarField.constant(3.0), mu, dim=3)
    beta_max, rep = check_A1_characterization(phase, interval_mesh)
    assert beta_max == -np.inf
    check = rep.check("feasible beta")
    assert not check.passed and check.margin == -np.inf
    assert mu(np.array(check.witness["x"])) < 0.0 < mu(np.array(check.witness["y"]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_A1_characterization_nan_weight_admits_no_beta(interval_mesh):
    mu = ScalarField.from_callable(lambda pts: np.full(len(pts), np.nan))
    phase = DoublePhase(ScalarField.constant(2.0), ScalarField.constant(3.0), mu, dim=3)
    beta_max, rep = check_A1_characterization(phase, interval_mesh)
    check = rep.check("feasible beta")
    assert np.isnan(beta_max) and np.isnan(check.margin) and not check.passed
