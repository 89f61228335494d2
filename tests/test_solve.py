"""Nonlinear solvers: damped Newton, Picard with convection, uniqueness checks."""

import types

import numpy as np
import pytest
import scipy.sparse.linalg as sparse_linalg

import dpkit.solve
from dpkit.config import parse_config
from dpkit.errors import NumericError, PreconditionError
from dpkit.fem import (
    DEFAULT_QUAD_ORDER,
    DiscreteFunction,
    build_interval_mesh,
    build_rect_mesh,
    interpolate,
)
from dpkit.fields import ScalarField, constant_phase
from dpkit.modular import luxemburg_norm
from dpkit.problems import growth_example_term, manufactured_case
from dpkit.operator import assemble_jacobian, assemble_load, assemble_residual
from dpkit.solve import (
    PCG_MAX_ITER,
    PCG_MIN_FACTOR_NNZ,
    PCG_RTOL,
    WEAK_TOL,
    ConvectionTerm,
    FactorCarry,
    SolverOptions,
    VCycle,
    check_growth,
    residual_norm,
    solve_convection,
    solve_monotone,
    verify_uniqueness,
    weak_residual,
)

import replay
from conftest import random_nodal, sine_bump


# ---------------------------------------------------------------------------
# options and term containers


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(newton_tol=0.0)


@pytest.mark.parametrize("name", ["newton_tol", "outer_tol", "norm_tol", "eps_reg"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_solver_options_reject_non_finite_tolerances(name, value):
    # newton_tol = inf would return u = 0 as converged after no step
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        SolverOptions(**{name: value})


def test_solve_and_norm_reject_negative_weight(interval_mesh):
    phase = constant_phase(2.0, 3.0, -0.5, dim=3)
    with pytest.raises(ValueError, match="the weight mu must be nonnegative"):
        solve_monotone(phase, interval_mesh, lambda pts: np.ones(pts.shape[0]))
    u = interpolate(interval_mesh, lambda pts: np.sin(np.pi * pts[:, 0]))
    with pytest.raises(ValueError, match="the weight mu must be nonnegative"):
        luxemburg_norm(u, phase)


def test_convection_term_validates_constants():
    with pytest.raises(ValueError):
        ConvectionTerm(
            fn=lambda x, s, xi: s,
            r=ScalarField.constant(2.0),
            a1=-1.0,
            a2=0.0,
            alpha=ScalarField.constant(0.0),
            b1=0.0,
            b2=0.0,
            omega=ScalarField.constant(0.0),
        )


def test_convection_term_shape_check(interval_mesh):
    term = ConvectionTerm(
        fn=lambda x, s, xi: np.zeros(3),
        r=ScalarField.constant(2.0),
        a1=0.0,
        a2=0.0,
        alpha=ScalarField.constant(0.0),
        b1=0.0,
        b2=0.0,
        omega=ScalarField.constant(0.0),
    )
    with pytest.raises(ValueError):
        term(np.zeros((5, 1)), np.zeros(5), np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# monotone solves


def test_linear_solve_is_one_newton_step(interval_mesh):
    case = manufactured_case("poisson-1d")
    rep = solve_monotone(case.phase, interval_mesh, case.rhs)
    assert rep.converged
    assert rep.newton_iterations == 1
    assert rep.residual <= 1e-10


def test_poisson_1d_accuracy():
    case = manufactured_case("poisson-1d")
    mesh = case.build_mesh(64)
    rep = case.solve(mesh)
    assert case.l2_error(rep.u) <= 2e-4


def test_poisson_2d_accuracy():
    case = manufactured_case("poisson-2d")
    mesh = case.build_mesh(16)
    rep = case.solve(mesh)
    assert case.l2_error(rep.u) <= 6e-3


@pytest.mark.parametrize(
    "name, n, newton, outer",
    [
        ("dp-1d", 128, 4, 1),
        ("dp-1d", 256, 4, 1),
        ("poisson-2d", 16, 1, 0),
        ("poisson-2d", 32, 2, 0),
        ("convection-linear", 64, 9, 9),
    ],
)
def test_builtin_iteration_counts_pinned(name, n, newton, outer):
    case = manufactured_case(name)
    rep = case.solve(case.build_mesh(n))
    assert rep.converged
    assert (rep.newton_iterations, rep.outer_iterations) == (newton, outer)


def _sine_forcing(pts):
    return 1.0 + np.sin(np.pi * pts[:, 0]) * np.sin(2.0 * np.pi * pts[:, 1])


class _RecordingCarry(FactorCarry):
    """A FactorCarry that records what it holds when each Newton step starts."""

    __slots__ = ("held",)

    def __init__(self):
        super().__init__()
        self.held = []

    def solve(self, jac, rhs, prolongators=()):
        self.held.append(self.precond)
        return super().solve(jac, rhs, prolongators)


@pytest.mark.parametrize("n, pcg_iterations", [(32, 12), (64, 14)])
def test_linear_zero_start_keeps_its_preconditioner(n, pcg_iterations):
    # on a linear phase the unit-gradient stand-in is J(0) itself, so its
    # V-cycle preconditions the second step
    case = manufactured_case("poisson-2d")
    carry = _RecordingCarry()
    rep = solve_monotone(case.phase, case.build_mesh(n), case.rhs, carry=carry)
    assert rep.converged and rep.newton_iterations == 2
    assert (rep.factorizations, rep.pcg_iterations) == (1, pcg_iterations)
    assert carry.held[0] is None and isinstance(carry.held[1], VCycle)


def test_nonlinear_zero_start_keeps_no_preconditioner(crossing_phase):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 32, 32)
    carry = _RecordingCarry()
    rep = solve_monotone(crossing_phase, mesh, _sine_forcing, carry=carry)
    assert rep.converged and rep.newton_iterations == 5
    # one V-cycle for the stand-in, dropped after its step, and one built at
    # the second step that preconditions every later one
    assert rep.factorizations == 2
    assert carry.held[:2] == [None, None]
    assert all(isinstance(kept, VCycle) for kept in carry.held[2:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, 100.0])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p, q", [(4.0, 6.0), (6.0, 8.0)])
def test_large_exponents_converge_from_the_zero_start(p, q, dim, scale):
    # at eps_reg the Jacobian at u = 0 is about eps_reg^(p-2), and no
    # backtracking shortens its step enough
    if dim == 1:
        mesh = build_interval_mesh(0.0, 1.0, 512)
    else:
        mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 48, 48)
    phase = constant_phase(p, q, 1.0, dim=dim)
    opts = SolverOptions()
    rep = solve_monotone(phase, mesh, lambda pts: np.full(pts.shape[0], scale), opts)
    assert rep.converged and rep.residual <= opts.newton_tol


def test_failed_pcg_refactors_every_step(monkeypatch, crossing_phase):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 16, 16)
    reference = solve_monotone(crossing_phase, mesh, _sine_forcing)
    tries = []

    def failing_cg(A, b, **kwargs):
        tries.append(b.size)
        return np.zeros_like(b), 1  # info > 0: the iteration cap was hit

    spla = types.SimpleNamespace(**vars(dpkit.solve.spla))
    spla.cg = failing_cg
    monkeypatch.setattr(dpkit.solve, "spla", spla)
    rep = solve_monotone(crossing_phase, mesh, _sine_forcing)
    assert rep.converged and rep.residual <= 1e-10
    assert rep.newton_iterations == reference.newton_iterations
    assert rep.factorizations == rep.newton_iterations
    assert rep.pcg_iterations == 0
    assert len(tries) == reference.newton_iterations - reference.factorizations > 0


def test_small_factors_are_not_kept():
    case = manufactured_case("dp-1d")
    rep = case.solve(case.build_mesh(128))
    assert rep.converged
    assert rep.factorizations == rep.newton_iterations
    assert rep.pcg_iterations == 0


def test_newton_reuses_its_factor_on_a_variable_exponent_solve(crossing_phase):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 31, 31)
    opts = SolverOptions()
    rep = solve_monotone(crossing_phase, mesh, _sine_forcing, opts)
    assert rep.converged
    assert 1 <= rep.factorizations < rep.newton_iterations
    assert rep.pcg_iterations >= rep.newton_iterations - rep.factorizations
    assert residual_norm(rep.u, crossing_phase, _sine_forcing) <= opts.newton_tol


def test_carried_factor_preconditions_the_next_solve(monkeypatch, crossing_phase):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 31, 31)
    carry = FactorCarry()
    first = solve_monotone(crossing_phase, mesh, _sine_forcing, carry=carry)
    kept = carry.precond
    assert kept is not None and kept.nnz >= PCG_MIN_FACTOR_NNZ
    second = solve_monotone(
        crossing_phase, mesh, lambda pts: 1.05 * _sine_forcing(pts), initial=first.u,
        carry=carry,
    )
    assert second.converged and second.newton_iterations >= 1
    assert second.factorizations == 0 and second.pcg_iterations > 0
    assert carry.precond is kept

    # a failed PCG step factors again, and the carry is empty while it does
    held = []
    splu = dpkit.solve.spla.splu

    def checked_splu(*args, **kwargs):
        held.append(carry.precond)
        return splu(*args, **kwargs)

    spla = types.SimpleNamespace(**vars(dpkit.solve.spla))
    spla.splu = checked_splu
    spla.cg = lambda A, b, **kwargs: (np.zeros_like(b), 1)
    monkeypatch.setattr(dpkit.solve, "spla", spla)
    third = solve_monotone(
        crossing_phase, mesh, lambda pts: 1.1 * _sine_forcing(pts), initial=second.u,
        carry=carry,
    )
    assert third.converged and third.factorizations == third.newton_iterations >= 1
    assert held == [None] * third.factorizations
    assert carry.precond is not None and carry.precond is not kept


def test_carry_counts_every_call_and_each_report_only_its_own(crossing_phase):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 31, 31)
    carry = FactorCarry()
    first = solve_monotone(crossing_phase, mesh, _sine_forcing, carry=carry)
    assert (carry.factorizations, carry.pcg_iterations) == (
        first.factorizations, first.pcg_iterations
    )
    second = solve_monotone(
        crossing_phase, mesh, lambda pts: 1.05 * _sine_forcing(pts), initial=first.u,
        carry=carry,
    )
    assert first.factorizations >= 1 and second.pcg_iterations >= 1
    assert carry.factorizations == first.factorizations + second.factorizations
    assert carry.pcg_iterations == first.pcg_iterations + second.pcg_iterations


def test_small_factors_are_not_carried():
    case = manufactured_case("dp-1d")
    carry = FactorCarry()
    mesh = case.build_mesh(128)
    rep = solve_monotone(case.phase, mesh, lambda x: np.ones(x.shape[0]), carry=carry)
    assert rep.converged and rep.factorizations == rep.newton_iterations
    assert carry.precond is None


@pytest.mark.parametrize("state", ["zero", "solution"])
def test_multigrid_pcg_matches_splu(crossing_phase, state):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 64, 64)
    if state == "zero":  # the eps-regularized Jacobian of the first step
        u = DiscreteFunction(mesh, np.zeros(mesh.num_nodes), zero_boundary=True)
    else:
        u = solve_monotone(crossing_phase, mesh, _sine_forcing).u
    jac = assemble_jacobian(u, crossing_phase)
    rhs = np.random.default_rng(4).standard_normal(jac.shape[0])
    exact = sparse_linalg.splu(jac.tocsc()).solve(rhs)
    cycle = VCycle(jac, mesh.prolongators())
    precond = sparse_linalg.LinearOperator(jac.shape, matvec=cycle.solve, dtype=float)
    x, info = sparse_linalg.cg(jac, rhs, rtol=1e-8, atol=0.0, maxiter=12, M=precond)
    assert info == 0
    assert np.linalg.norm(x - exact) <= 5e-9 * np.linalg.norm(exact)

    carry = FactorCarry()
    x = carry.solve(jac, rhs, mesh.prolongators())
    assert isinstance(carry.precond, VCycle) and carry.factorizations == 1
    assert 1 <= carry.pcg_iterations <= PCG_MAX_ITER
    assert np.linalg.norm(jac @ x - rhs) <= PCG_RTOL * np.linalg.norm(rhs)


def test_multigrid_miss_falls_back_to_lu(monkeypatch, crossing_phase):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 32, 32)
    cycles, factors = [], []
    vcycle, splu = dpkit.solve.VCycle, dpkit.solve.spla.splu

    def counted_cycle(*args):
        cycles.append(vcycle(*args))
        return cycles[-1]

    def counted_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    spla_stub = types.SimpleNamespace(**vars(dpkit.solve.spla))
    spla_stub.cg = lambda A, b, **kwargs: (np.zeros_like(b), 1)
    spla_stub.splu = counted_splu
    monkeypatch.setattr(dpkit.solve, "spla", spla_stub)
    monkeypatch.setattr(dpkit.solve, "VCycle", counted_cycle)
    rep = solve_monotone(crossing_phase, mesh, _sine_forcing)
    assert rep.converged and rep.residual <= 1e-10
    # each step builds a hierarchy, misses with it, then solves by an LU of J
    # (the coarsest-level factors are the other half of the splu calls)
    assert len(cycles) == rep.newton_iterations
    assert len(factors) == 2 * rep.newton_iterations
    assert rep.factorizations == 2 * rep.newton_iterations and rep.pcg_iterations == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_jacobian_multigrid_cannot_smooth_is_left_to_the_lu(crossing_phase):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 32, 32)
    zero = DiscreteFunction(mesh, np.zeros(mesh.num_nodes), zero_boundary=True)
    jac = 0.0 * assemble_jacobian(zero, crossing_phase)  # the diagonal underflowed
    carry = FactorCarry()
    with pytest.raises(NumericError, match="Newton linear solve failed"):
        carry.solve(jac, np.ones(jac.shape[0]), mesh.prolongators())
    assert carry.precond is None and carry.factorizations == 0


def test_kept_hierarchy_preconditions_the_next_solve(crossing_phase):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 32, 32)
    carry = FactorCarry()
    first = solve_monotone(crossing_phase, mesh, _sine_forcing, carry=carry)
    kept = carry.precond
    assert isinstance(kept, VCycle) and first.factorizations >= 1
    second = solve_monotone(
        crossing_phase, mesh, lambda pts: 1.05 * _sine_forcing(pts), initial=first.u,
        carry=carry,
    )
    assert second.converged and second.newton_iterations >= 1
    assert second.factorizations == 0 and second.pcg_iterations > 0
    assert carry.precond is kept


def test_dp_solve_converges_and_is_symmetric():
    case = manufactured_case("dp-1d")
    mesh = case.build_mesh(128)
    rep = case.solve(mesh)
    assert rep.converged
    assert rep.residual <= 1e-10
    u = rep.u.values
    np.testing.assert_allclose(u, u[::-1], atol=1e-11)
    assert u.max() > 0.0


def test_newton_merit_strictly_decreases():
    case = manufactured_case("dp-1d")
    mesh = case.build_mesh(64)
    rep = solve_monotone(case.phase, mesh, lambda x: np.ones(x.shape[0]))
    merits = rep.energy_history
    assert len(merits) >= 2
    assert all(a > b for a, b in zip(merits, merits[1:]))


def test_dp_case_reports_positive_coercivity_margin():
    case = manufactured_case("dp-1d")
    rep = case.solve(case.build_mesh(32))
    assert rep.coercivity is not None and rep.coercivity > 0.0
    assert rep.newton_iterations >= 1
    assert rep.outer_iterations >= 1


def test_solution_independent_of_initial_guess(interval_mesh, dp_phase):
    rhs = lambda pts: np.ones(pts.shape[0])
    rng = np.random.default_rng(0)
    base = solve_monotone(dp_phase, interval_mesh, rhs).u
    other = solve_monotone(
        dp_phase, interval_mesh, rhs, initial=random_nodal(interval_mesh, rng)
    ).u
    np.testing.assert_allclose(base.values, other.values, atol=1e-9)


def test_residual_norm_helper_matches_report(interval_mesh, dp_phase):
    rhs = lambda pts: np.ones(pts.shape[0])
    rep = solve_monotone(dp_phase, interval_mesh, rhs)
    assert residual_norm(rep.u, dp_phase, rhs) == pytest.approx(
        rep.residual, rel=1e-14, abs=1e-300
    )


def test_newton_budget_exhaustion_raises(interval_mesh, dp_phase, monkeypatch):
    rhs = lambda pts: np.ones(pts.shape[0])
    monkeypatch.setattr(dpkit.solve, "MAX_NEWTON", 1)
    with pytest.raises(NumericError, match="did not converge in 1 iterations"):
        solve_monotone(dp_phase, interval_mesh, rhs, SolverOptions(newton_tol=1e-14))


def test_picard_budget_exhaustion_raises(monkeypatch):
    case = manufactured_case("convection-linear")
    monkeypatch.setattr(dpkit.solve, "MAX_OUTER", 1)
    with pytest.raises(NumericError, match="Picard iteration did not converge in 1 outer steps"):
        solve_convection(case.phase, case.build_mesh(32), case.term)


def test_rhs_vector_shape_check(interval_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes), True)
    for call in (
        lambda rhs: solve_monotone(dp_phase, interval_mesh, rhs),
        lambda rhs: residual_norm(u, dp_phase, rhs),
        lambda rhs: weak_residual(u, rhs, dp_phase),
    ):
        with pytest.raises(ValueError, match="rhs must be a full-node load vector"):
            call(np.ones(4))


def test_non_finite_load_vector_names_its_node(interval_mesh, dp_phase):
    u = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes), True)
    load = np.ones(interval_mesh.num_nodes)
    load[[5, 9]] = np.nan
    for call in (
        lambda: solve_monotone(dp_phase, interval_mesh, load),
        lambda: residual_norm(u, dp_phase, load),
        lambda: weak_residual(u, load, dp_phase),
    ):
        with pytest.raises(ValueError, match="rhs load vector is not finite at node 5"):
            call()


def test_residual_norm_freezes_a_convection_term():
    case = manufactured_case("convection-linear")
    mesh = case.build_mesh(16)
    u = random_nodal(mesh, np.random.default_rng(3))
    pts, w, _ = mesh.quadrature_points(DEFAULT_QUAD_ORDER)
    xi = np.repeat(u.gradients, w.shape[1], axis=0)
    frozen = case.term(pts.reshape(-1, 1), u.values_at().reshape(-1), xi).reshape(w.shape)
    expected = assemble_residual(u, case.phase, assemble_load(mesh, frozen))
    assert residual_norm(u, case.phase, case.term) == expected.residual_norm


@pytest.mark.parametrize("n", [16, 8])  # the same node count, and another
def test_start_on_another_mesh_raises(n):
    case = manufactured_case("dp-1d")
    mesh = build_interval_mesh(0.0, 1.0, 16)
    other = build_interval_mesh(0.0, 2.0, n)
    start = random_nodal(other, np.random.default_rng(0))
    with pytest.raises(ValueError, match="initial iterate must live on the mesh"):
        solve_monotone(case.phase, mesh, lambda x: np.ones(x.shape[0]), initial=start)
    with pytest.raises(ValueError, match="initial iterate must live on the mesh"):
        solve_convection(case.phase, mesh, case.term, initial=start, eigenvalue=np.pi**2)


@pytest.mark.parametrize("order", [2.9, True, 0, 9])
def test_quadrature_order_must_be_an_integer_in_range(interval_mesh, dp_phase, order):
    u = sine_bump(interval_mesh)
    luxemburg_norm(u, dp_phase, order=1)  # a cached order-1 slot is not reused for True
    for call in (
        lambda: luxemburg_norm(u, dp_phase, order=order),
        lambda: interval_mesh.quadrature_points(order),
        lambda: u.values_at(order),
        lambda: SolverOptions(order=order),
    ):
        with pytest.raises(ValueError, match="quadrature order must be an integer in"):
            call()


def test_numpy_integer_order_is_the_int_order(square_mesh, crossing_phase):
    u = sine_bump(square_mesh)
    rhs = lambda x: np.ones(x.shape[0])
    results = []
    for order in (4, np.int64(4)):
        opts = SolverOptions(order=order)
        pts, w, _ = square_mesh.quadrature_points(order)
        results.append((
            pts, w, luxemburg_norm(u, crossing_phase, order=order),
            solve_monotone(crossing_phase, square_mesh, rhs, opts).u.values,
        ))
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_weak_residual_small_at_solution(interval_mesh, dp_phase):
    rhs = lambda pts: np.ones(pts.shape[0])
    rep = solve_monotone(dp_phase, interval_mesh, rhs)
    assert weak_residual(rep.u, rhs, dp_phase) <= 1e-10
    zero = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes), True)
    assert weak_residual(zero, rhs, dp_phase) > 1e-3


# ---------------------------------------------------------------------------
# convection solves


def test_convection_linear_reproduces_exact_solution():
    case = manufactured_case("convection-linear")
    mesh = case.build_mesh(128)
    rep = case.solve(mesh)
    assert rep.converged
    assert rep.coercivity is not None and rep.coercivity > 0.0
    assert rep.residual <= 1e-8
    assert case.l2_error(rep.u) <= 5e-5


# the 16x16 convection config that CI replays; its Newton factors are kept
CONVECTION_2D = replay.config("convection")


def test_convection_carries_the_factor_across_picard_steps():
    cfg = parse_config(CONVECTION_2D)
    opts = cfg.solver_options()
    rep = solve_convection(cfg.phase, cfg.mesh, cfg.term, opts)
    assert rep.converged
    assert rep.factorizations < 1 + rep.outer_iterations
    weak = weak_residual(rep.u, cfg.term, cfg.phase, opts.order, opts.norm_tol)
    assert weak <= WEAK_TOL


def test_convection_refactors_when_pcg_fails(monkeypatch):
    cfg = parse_config(CONVECTION_2D)
    reference = solve_convection(cfg.phase, cfg.mesh, cfg.term)

    def failing_cg(A, b, **kwargs):
        return np.zeros_like(b), 1  # info > 0: the iteration cap was hit

    spla = types.SimpleNamespace(**vars(dpkit.solve.spla))
    spla.cg = failing_cg
    monkeypatch.setattr(dpkit.solve, "spla", spla)
    rep = solve_convection(cfg.phase, cfg.mesh, cfg.term)
    assert rep.converged and rep.residual <= 1e-8
    assert rep.newton_iterations == reference.newton_iterations
    assert rep.outer_iterations == reference.outer_iterations
    assert rep.factorizations == rep.newton_iterations
    assert rep.pcg_iterations == 0


def test_convection_reports_the_work_of_its_inner_solves(monkeypatch):
    inner = []

    def recording_solve(*args, **kwargs):
        inner.append(solve_monotone(*args, **kwargs))
        return inner[-1]

    monkeypatch.setattr(dpkit.solve, "solve_monotone", recording_solve)
    cfg = parse_config(CONVECTION_2D)
    rep = solve_convection(cfg.phase, cfg.mesh, cfg.term)
    assert rep.converged and len(inner) == 1 + rep.outer_iterations
    assert rep.newton_iterations == sum(r.newton_iterations for r in inner)
    assert rep.factorizations == sum(r.factorizations for r in inner) >= 1
    assert rep.pcg_iterations == sum(r.pcg_iterations for r in inner) >= 1


def test_picard_builds_each_frozen_load_once(monkeypatch):
    loads, residuals = [], []
    load, weak = dpkit.solve._load, dpkit.solve.weak_residual

    def counting_load(u, rhs, order):
        if not isinstance(rhs, ConvectionTerm):
            return load(u, rhs, order)
        loads.append(load(u, rhs, order))
        return loads[-1]

    def counting_weak(u, term, *args, **kwargs):
        residuals.append(term)
        return weak(u, term, *args, **kwargs)

    monkeypatch.setattr(dpkit.solve, "_load", counting_load)
    monkeypatch.setattr(dpkit.solve, "weak_residual", counting_weak)
    cfg = parse_config(CONVECTION_2D)
    rep = solve_convection(cfg.phase, cfg.mesh, cfg.term)
    assert rep.converged
    # the warm load, then one per weak residual: the initial one and one per
    # Picard trial, each the very load that residual was given
    assert len(residuals) == len(rep.history) == 1 + rep.outer_iterations
    assert len(loads) == 1 + len(residuals)
    assert all(r is load for r, load in zip(residuals, loads[1:]))


def test_convection_requires_positive_margin(interval_mesh):
    phase = constant_phase(2.0, 3.0, 1.0, dim=3)
    bad = ConvectionTerm(
        fn=lambda x, s, xi: 0.0 * s,
        r=ScalarField.constant(2.0),
        a1=0.0,
        a2=0.0,
        alpha=ScalarField.constant(0.0),
        b1=1.5,  # 1 - b1 < 0 regardless of the eigenvalue
        b2=0.0,
        omega=ScalarField.constant(0.0),
    )
    with pytest.raises(PreconditionError):
        solve_convection(phase, interval_mesh, bad)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_non_finite_eigenvalue_is_rejected(interval_mesh, monkeypatch, lam):
    case = manufactured_case("convection-linear")
    with pytest.raises(ValueError, match="eigenvalue must be positive and finite"):
        solve_convection(case.phase, interval_mesh, case.term, eigenvalue=lam)
    monkeypatch.setattr(
        dpkit.solve, "first_eigenvalue", lambda *a, **k: types.SimpleNamespace(value=lam)
    )
    with pytest.raises(ValueError, match="eigenvalue must be positive and finite"):
        solve_convection(case.phase, interval_mesh, case.term)
    with pytest.raises(ValueError, match="eigenvalue must be positive and finite"):
        verify_uniqueness(case.phase, interval_mesh, case.term)


def test_convection_numeric_failure_on_noncontractive_term(interval_mesh):
    phase = constant_phase(2.0, 3.0, 1.0, dim=3)
    # declared constants pass the margin check, the actual term does not contract
    lying = ConvectionTerm(
        fn=lambda x, s, xi: 100.0 * s + 1.0,
        r=ScalarField.constant(2.0),
        a1=0.0,
        a2=100.0,
        alpha=ScalarField.constant(1.0),
        b1=0.01,
        b2=0.01,
        omega=ScalarField.constant(1.0),
    )
    with pytest.raises(NumericError):
        solve_convection(phase, interval_mesh, lying)


# ---------------------------------------------------------------------------
# growth checks


def test_growth_example_passes_its_own_declaration(interval_mesh):
    phase = constant_phase(2.0, 3.0, 1.0, dim=3)
    term = growth_example_term(p_minus=2.0, d1=0.5, d2=0.3, d3=1.0, r=2.5)
    rep = check_growth(term, phase, interval_mesh)
    assert rep.passed, [(c.name, c.margin) for c in rep.checks]


def test_growth_check_margins_are_pinned():
    # GROWTH_SAMPLES points in the box GROWTH_BOX give exactly these margins
    phase = constant_phase(2, 3, 1, dim=3)
    term = growth_example_term(2.0, 0.5, 0.3, 1.0, 2.5)
    rep = check_growth(term, phase, build_interval_mesh(0, 1, 16))
    assert [c.margin for c in rep.checks] == [3.5, 0.26011970738954915, 168.73261053960164]


def test_growth_check_flags_violations(interval_mesh):
    phase = constant_phase(2.0, 3.0, 1.0, dim=3)
    term = ConvectionTerm(
        fn=lambda x, s, xi: s**2,  # superlinear: breaks the declared growth
        r=ScalarField.constant(2.0),
        a1=0.0,
        a2=1.0,
        alpha=ScalarField.constant(0.0),
        b1=0.0,
        b2=1.0,
        omega=ScalarField.constant(0.0),
    )
    rep = check_growth(term, phase, interval_mesh)
    assert not rep.passed
    bad = rep.check("growth bound on |f|")
    assert not bad.passed and bad.witness is not None
    # the witness names the worst sample: its point, value s and gradient xi
    assert list(bad.witness) == ["point", "s", "xi"]
    assert isinstance(bad.witness["s"], float)
    assert len(bad.witness["xi"]) == interval_mesh.dim


def test_growth_check_admissibility_of_r(interval_mesh):
    phase = constant_phase(2.0, 3.0, 1.0, dim=3)  # p* = 6
    term = growth_example_term(p_minus=2.0, d1=0.0, d2=0.0, d3=0.0, r=7.0)
    rep = check_growth(term, phase, interval_mesh)
    assert not rep.check("r < p*").passed


# ---------------------------------------------------------------------------
# uniqueness


def test_uniqueness_multistart_agreement():
    case = manufactured_case("convection-linear")
    mesh = case.build_mesh(64)
    rep = verify_uniqueness(case.phase, mesh, case.term, match_tol=1e-8)
    assert rep.passed
    assert rep.margin > 0.0
    assert rep.solutions == 3
    assert rep.max_disagreement <= 1e-8
    assert rep.structure.passed


def test_uniqueness_requires_p_equal_two(interval_mesh):
    case = manufactured_case("convection-linear")
    phase = constant_phase(2.5, 3.0, 0.0, dim=3)
    with pytest.raises(ValueError):
        verify_uniqueness(phase, interval_mesh, case.term)


def test_uniqueness_requires_declared_constants(interval_mesh):
    phase = constant_phase(2.0, 3.0, 0.0, dim=3)
    term = growth_example_term(p_minus=2.0, d1=0.1, d2=0.1, d3=0.1, r=2.0)
    with pytest.raises(ValueError):
        verify_uniqueness(phase, interval_mesh, term)


def test_uniqueness_negative_margin_raises(interval_mesh):
    case = manufactured_case("convection-linear")
    inflated = ConvectionTerm(
        fn=case.term.fn,
        r=case.term.r,
        a1=case.term.a1,
        a2=case.term.a2,
        alpha=case.term.alpha,
        b1=case.term.b1,
        b2=case.term.b2,
        omega=case.term.omega,
        c1=1e6,  # forces 1 - c1/lambda < 0
        c2=case.term.c2,
        rho=case.term.rho,
    )
    with pytest.raises(PreconditionError):
        verify_uniqueness(case.phase, interval_mesh, inflated)
