"""Built-in benchmark cases and the growth-example constant derivation."""

import numpy as np
import pytest

from dpkit.fields import ScalarField, field_bounds
from dpkit.problems import case_names, growth_example_term, manufactured_case
from dpkit.solve import check_growth


def test_registry_contents():
    names = case_names()
    assert names == sorted(names)
    for expected in ("poisson-1d", "poisson-2d", "dp-1d", "convection-linear"):
        assert expected in names


def test_unknown_case_lists_options():
    with pytest.raises(ValueError, match="poisson-1d"):
        manufactured_case("nope")


def test_build_mesh_dimensions():
    assert manufactured_case("poisson-1d").build_mesh(8).dim == 1
    assert manufactured_case("poisson-2d").build_mesh(4).dim == 2


def test_cases_carry_supercritical_safe_dimension():
    # ambient dimension 3 keeps p = 2 < N so the critical exponent exists
    for name in case_names():
        case = manufactured_case(name)
        assert case.phase.dim == 3


def test_l2_error_of_exact_interpolant_is_small():
    case = manufactured_case("poisson-1d")
    mesh = case.build_mesh(64)
    from dpkit.fem import interpolate

    u = interpolate(mesh, case.exact, zero_boundary=True)
    # interpolation error only: O(h^2)
    assert case.l2_error(u) <= 1e-3


def test_l2_error_requires_exact_solution():
    case = manufactured_case("dp-1d")
    mesh = case.build_mesh(8)
    rep = case.solve(mesh)
    with pytest.raises(ValueError):
        case.l2_error(rep.u)


def test_convergence_is_the_separate_solves_and_errors():
    case = manufactured_case("poisson-1d")
    errors, ratios, passed = case.convergence((16, 32, 64))
    expected = [case.l2_error(case.solve(case.build_mesh(n)).u) for n in (16, 32, 64)]
    assert errors == expected
    assert ratios == [errors[0] / errors[1], errors[1] / errors[2]]
    assert passed is True


def test_exact_solutions_satisfy_boundary_conditions():
    for name in ("poisson-1d", "poisson-2d", "convection-linear"):
        case = manufactured_case(name)
        mesh = case.build_mesh(8)
        vals = np.asarray(case.exact(mesh.nodes[mesh.boundary_nodes]))
        np.testing.assert_allclose(vals, 0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# growth example


def test_growth_example_constants_nonnegative():
    term = growth_example_term(p_minus=2.0, d1=1.0, d2=0.5, d3=2.0, r=2.5)
    assert term.a1 >= 0 and term.a2 >= 0 and term.b1 >= 0 and term.b2 >= 0


@pytest.mark.parametrize(
    "p_minus,r", [(2.0, 2.5), (1.5, 1.8), (2.5, 3.0), (3.0, 2.0)]
)
def test_growth_example_self_consistent(p_minus, r, interval_mesh):
    from dpkit.fields import constant_phase

    phase = constant_phase(p_minus, p_minus + 1.0, 1.0, dim=5)
    term = growth_example_term(p_minus=p_minus, d1=0.3, d2=0.2, d3=0.5, r=r)
    rep = check_growth(term, phase, interval_mesh, seed=3)
    for name in ("growth bound on |f|", "sign bound on f*s"):
        assert rep.check(name).passed, (name, rep.check(name).margin)


def test_growth_example_young_parameters_shrink_b1():
    small = growth_example_term(2.0, 0.0, 1.0, 0.0, 2.5, eps=0.01)
    large = growth_example_term(2.0, 0.0, 1.0, 0.0, 2.5, eps=0.5)
    assert small.b1 < large.b1
    # the compensating zero-order constant moves the other way
    assert small.b2 > large.b2


def test_growth_example_with_spatial_gamma(interval_mesh):
    gamma = ScalarField.affine([2.0], -1.0)
    term = growth_example_term(2.0, 0.5, 0.5, 1.0, 2.0, gamma=gamma)
    lo, hi = field_bounds(term.alpha, interval_mesh)
    assert lo >= 0.5  # alpha = d3 |gamma| + d2 never drops below d2


def test_growth_example_input_validation():
    with pytest.raises(ValueError):
        growth_example_term(1.0, 0.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        growth_example_term(2.0, -0.1, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        growth_example_term(2.0, 0.0, 0.0, 0.0, 2.0, eps=0.0)
