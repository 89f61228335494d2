"""Hat-function gradient norms built from element patches.

The reference is the direct definition: each free-node hat as a full-mesh
function, normed by ``luxemburg_norm``.  The patch-built norms must equal it
bit for bit, since the dual-norm residual and the boundedness estimate are
reported values.  The norms are cached on the mesh, so the tests also count
builds: one per (mesh, field objects, tol, order).
"""

import numpy as np
import pytest

import dpkit.operator
import dpkit.solve
from dpkit.fem import DiscreteFunction, build_interval_mesh, build_rect_mesh
from dpkit.fields import DoublePhase, ScalarField, constant_phase
from dpkit.modular import (
    DEFAULT_NORM_TOL,
    _HAT_BLOCK,
    _hat_norms,
    _luxemburg_roots,
    luxemburg_norm,
)
from dpkit.operator import (
    apply_operator,
    assemble_jacobian,
    assemble_residual,
    boundedness_estimate,
    energy,
)
from dpkit.problems import manufactured_case
from dpkit.properties import standard_phase_configs
from dpkit.solve import solve_convection, verify_uniqueness, weak_residual

from conftest import sine_bump
from luxemburg_reference import agrees

MESHES = {
    "interval": build_interval_mesh(0.0, 1.0, 13),
    "rect": build_rect_mesh((0.0, 2.0), (-1.0, 0.5), 5, 4),
    # more free nodes than one batched block, so block seams are covered
    "interval-blocks": build_interval_mesh(0.0, 1.0, _HAT_BLOCK + 44),
}


def phase_configs(dim):
    """The standard configurations plus a weight vanishing on part of the
    domain, so that hats carry different numbers of power-sum terms."""
    half = ScalarField(lambda x: np.maximum(x[:, 0] - 0.5, 0.0))
    mu_half = DoublePhase(ScalarField.constant(2.0), ScalarField.constant(3.0), half, 3)
    return standard_phase_configs(dim) + [("p2-q3-mu-half", mu_half)]


def full_mesh_hat_norms(mesh, phase, tol=DEFAULT_NORM_TOL, order=4):
    """Gradient Luxemburg norm of every free-node hat, one full-mesh function each."""
    norms = []
    for i in mesh.free_nodes:
        hat = np.zeros(mesh.num_nodes)
        hat[i] = 1.0
        v = DiscreteFunction(mesh, hat, zero_boundary=True)
        norms.append(luxemburg_norm(v, phase, "gradient", tol, order))
    return np.array(norms)


@pytest.mark.parametrize("order", [1, 4, 8])
@pytest.mark.parametrize("config", [name for name, _ in phase_configs(1)])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_patch_norms_equal_full_mesh_norms(mesh_name, config, order):
    mesh = MESHES[mesh_name]
    phase = dict(phase_configs(mesh.dim))[config]
    got = _hat_norms(mesh, phase, DEFAULT_NORM_TOL, order)
    assert np.array_equal(got, full_mesh_hat_norms(mesh, phase, order=order))


def assert_rows_solved_alone(logs, expos, tol):
    """Each row of the block equals that row solved alone, bit for bit, in
    lambda and iterations, and agrees with the frozen scalar root."""
    lam, its = _luxemburg_roots(logs, expos, tol)
    for i in range(logs.shape[0]):
        alone = _luxemburg_roots(logs[i : i + 1], expos[i : i + 1], tol)
        assert (lam[i], its[i]) == (alone[0][0], alone[1][0])
        assert agrees(lam[i], np.exp(logs[i]), expos[i], tol)
    return its


@pytest.mark.parametrize("n_terms", [1, 7, 60, 200])
def test_batched_roots_equal_scalar_roots(n_terms):
    rng = np.random.default_rng(n_terms)
    rows = 200
    scale = rng.uniform(-12.0, 12.0, (rows, 1)) * np.log(10.0)
    logs = 3.0 * np.log(rng.random((rows, n_terms))) + scale
    expos = rng.uniform(1.01, rng.uniform(1.05, 12.0, (rows, 1)), (rows, n_terms))
    logs[0] = -np.inf  # a row of zero terms
    assert_rows_solved_alone(logs, expos, DEFAULT_NORM_TOL)


@pytest.mark.parametrize("tol", [DEFAULT_NORM_TOL, 1e-6])
def test_root_blocks_equal_scalar_roots(tol):
    # one block per term count, as the hat norms are solved: rows of one
    # term, rows of one repeated exponent (e_min = e_max), and rows with one
    # nonzero term, whose start tau_0 is already the root
    rng = np.random.default_rng(30)
    roots_at_start = 0
    for n_terms in (1, 3, 8):
        logs = np.log(rng.random((24, n_terms))) + rng.uniform(-6.0, 6.0, (24, 1)) * np.log(10.0)
        expos = rng.uniform(1.05, rng.uniform(1.1, 6.0, (24, 1)), (24, n_terms))
        expos[:8] = expos[:8, :1]
        logs[8:12, 1:] = -np.inf
        logs[12] = -np.inf
        its = assert_rows_solved_alone(logs, expos, tol)
        roots_at_start += np.count_nonzero(its[8:12] == 1)
    assert roots_at_start >= 8


def test_hat_norm_at_large_q_matches_closed_form():
    # rho(grad phi / lam) = (2/48)(x^2 + x^400), x = 48 / lam, for a hat on
    # 1D n = 48, p = 2, q = 400, mu = 1; rho(grad phi) itself overflows.
    # The root solves x = (24 - x^2)^(1/400), a contraction of ratio < 1e-3.
    mesh = build_interval_mesh(0.0, 1.0, 48)
    phase = constant_phase(2.0, 400.0, 1.0, dim=3)
    x = 1.0
    for _ in range(8):
        x = (24.0 - x * x) ** (1.0 / 400.0)
    closed = 48.0 / x
    assert abs(closed - 47.6252933534) < 1e-10
    hat = np.zeros(mesh.num_nodes)
    hat[mesh.free_nodes[0]] = 1.0
    v = DiscreteFunction(mesh, hat, zero_boundary=True)
    bound = 2.0 * DEFAULT_NORM_TOL * (400.0 / 2.0) * closed + 8.0 * np.finfo(float).eps * closed
    assert abs(luxemburg_norm(v, phase, "gradient") - closed) <= bound
    assert np.all(np.abs(_hat_norms(mesh, phase, DEFAULT_NORM_TOL, 4) - closed) <= bound)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_boundedness_empirical_matches_full_mesh_loop(mesh_name, monkeypatch):
    mesh = MESHES[mesh_name]
    _, phase = standard_phase_configs(mesh.dim)[2]
    u = sine_bump(mesh, amplitude=1.5)
    n_random, seed = 7, 3
    monkeypatch.setattr(dpkit.operator, "DUAL_DIRECTIONS", n_random)
    pairings = assemble_residual(u, phase, None, 4).residual
    empirical = 0.0
    for k, nv in enumerate(full_mesh_hat_norms(mesh, phase)):
        if nv > 0.0:
            empirical = max(empirical, abs(pairings[k]) / nv)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        vals = np.zeros(mesh.num_nodes)
        vals[mesh.free_nodes] = rng.standard_normal(mesh.free_nodes.size)
        v = DiscreteFunction(mesh, vals, zero_boundary=True)
        nv = luxemburg_norm(v, phase, "gradient")
        if nv > 0.0:
            empirical = max(empirical, abs(apply_operator(u, v, phase)) / nv)
    res = boundedness_estimate(u, phase, seed=seed)
    assert res.empirical == empirical


def test_weak_residual_follows_a_reassigned_weight(hat_norm_builds):
    """Results that sample mu at the quadrature points (through the per-mesh
    sample and hat-norm caches) see a reassigned weight as a fresh phase
    would."""
    mesh = build_rect_mesh((0.0, 2.0), (-1.0, 0.5), 5, 4)
    p, q = ScalarField.constant(2.0), ScalarField.constant(3.0)
    phase = DoublePhase(p, q, ScalarField.constant(0.0), dim=3)
    zero = DiscreteFunction(mesh, np.zeros(mesh.num_nodes), zero_boundary=True)
    u = sine_bump(mesh)
    rhs = lambda pts: np.ones(pts.shape[0])
    results = {
        "weak_residual": lambda ph: weak_residual(zero, rhs, ph),
        "assemble_residual": lambda ph: assemble_residual(u, ph).residual,
        "assemble_jacobian": lambda ph: assemble_jacobian(u, ph).toarray(),
        "energy": lambda ph: energy(u, ph),
    }
    before = {name: fn(phase) for name, fn in results.items()}
    assert len(hat_norm_builds) == 1
    phase.mu = ScalarField.constant(50.0)
    fresh_phase = DoublePhase(p, q, ScalarField.constant(50.0), dim=3)
    for name, fn in results.items():
        after, fresh = fn(phase), fn(fresh_phase)
        assert np.array_equal(after, fresh), name
        assert not np.array_equal(after, before[name]), name
    # the reassigned mu and the fresh phase's own mu object each rebuild
    assert len(hat_norm_builds) == 3


def test_hat_norms_are_cached_per_tol_and_read_only(hat_norm_builds):
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 6, 6)
    _, phase = standard_phase_configs(mesh.dim)[2]
    norms = _hat_norms(mesh, phase, DEFAULT_NORM_TOL, 4)
    assert _hat_norms(mesh, phase, DEFAULT_NORM_TOL, 4) is norms
    assert hat_norm_builds == [(4, DEFAULT_NORM_TOL)]
    assert not norms.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        norms[0] = 1.0
    loose = _hat_norms(mesh, phase, 1e-6, 4)
    assert hat_norm_builds == [(4, DEFAULT_NORM_TOL), (4, 1e-6)]
    assert np.array_equal(loose, full_mesh_hat_norms(mesh, phase, tol=1e-6))
    # a changed norm_tol reaches the residual: it reads the loose norms
    u = sine_bump(mesh)
    weak_residual(u, None, phase, norm_tol=1e-6)
    assert len(hat_norm_builds) == 2
    assert _hat_norms(mesh, phase, DEFAULT_NORM_TOL, 4) is norms


def test_boundedness_and_residual_share_one_build(hat_norm_builds, monkeypatch):
    mesh = build_interval_mesh(0.0, 1.0, 40)
    _, phase = standard_phase_configs(mesh.dim)[2]
    u = sine_bump(mesh)
    monkeypatch.setattr(dpkit.operator, "DUAL_DIRECTIONS", 2)
    boundedness_estimate(u, phase)
    weak_residual(u, None, phase)
    assert hat_norm_builds == [(4, DEFAULT_NORM_TOL)]


def test_verify_uniqueness_builds_hat_norms_once(hat_norm_builds):
    case = manufactured_case("convection-linear")
    mesh = case.build_mesh(64)
    rep = verify_uniqueness(case.phase, mesh, case.term)
    assert rep.solutions == 3 and rep.passed
    assert hat_norm_builds == [(4, DEFAULT_NORM_TOL)]


def test_picard_loop_calls_the_module_weak_residual(monkeypatch):
    """Every Picard residual, the initial one and each relaxation trial, is a
    call of ``dpkit.solve.weak_residual`` looked up as a module global."""
    returned = []
    original = dpkit.solve.weak_residual

    def counting(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(dpkit.solve, "weak_residual", counting)
    case = manufactured_case("convection-linear")
    mesh = case.build_mesh(64)
    rep = solve_convection(case.phase, mesh, case.term)
    # theta stays 1 on this case, so each outer step takes one trial
    assert len(returned) == 1 + rep.outer_iterations
    assert returned == rep.history
