"""Hat-function gradient norms built from element patches.

The reference is the direct definition: each free-node hat as a full-mesh
function, normed by ``luxemburg_norm``.  The patch-built norms must equal it
bit for bit, since the dual-norm residual and the boundedness estimate are
reported values.
"""

import numpy as np
import pytest

from dpkit.errors import NumericError
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
    _operator_residual_full,
    apply_operator,
    assemble_jacobian,
    assemble_residual,
    boundedness_estimate,
    energy,
)
from dpkit.properties import standard_phase_configs
from dpkit.solve import weak_residual

from conftest import sine_bump
from luxemburg_reference import scalar_root

MESHES = {
    "interval": build_interval_mesh(0.0, 1.0, 13),
    "rect": build_rect_mesh((0.0, 2.0), (-1.0, 0.5), 5, 4),
    # more free nodes than one batched block, so block seams are covered
    "interval-blocks": build_interval_mesh(0.0, 1.0, _HAT_BLOCK + 44),
}


def phase_configs(dim):
    """The standard configurations plus a weight vanishing on part of the
    domain, so that hats carry different numbers of power-sum terms."""
    half = ScalarField.from_callable(lambda x: np.maximum(x[:, 0] - 0.5, 0.0))
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


@pytest.mark.parametrize("n_terms", [1, 7, 60, 200])
def test_batched_roots_equal_scalar_roots(n_terms):
    rng = np.random.default_rng(n_terms)
    rows = 200
    coefs = rng.random((rows, n_terms)) ** 3 * 10.0 ** rng.uniform(-12.0, 12.0, (rows, 1))
    expos = rng.uniform(1.01, rng.uniform(1.05, 12.0, (rows, 1)), (rows, n_terms))
    coefs[0] = 0.0
    lam, its = _luxemburg_roots(coefs, expos, DEFAULT_NORM_TOL)
    for i in range(rows):
        assert (lam[i], its[i]) == scalar_root(coefs[i], expos[i], DEFAULT_NORM_TOL)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_hat_norms_raise_on_modular_overflow():
    mesh = build_interval_mesh(0.0, 1.0, 48)
    phase = constant_phase(2.0, 400.0, 1.0, dim=3)
    hat = np.zeros(mesh.num_nodes)
    hat[mesh.free_nodes[0]] = 1.0
    v = DiscreteFunction(mesh, hat, zero_boundary=True)
    with pytest.raises(NumericError, match="modular overflow"):
        luxemburg_norm(v, phase, "gradient")
    with pytest.raises(NumericError, match="modular overflow"):
        _hat_norms(mesh, phase, DEFAULT_NORM_TOL, 4)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_boundedness_empirical_matches_full_mesh_loop(mesh_name):
    mesh = MESHES[mesh_name]
    _, phase = standard_phase_configs(mesh.dim)[2]
    u = sine_bump(mesh, amplitude=1.5)
    n_random, seed = 7, 3
    pairings = _operator_residual_full(u, phase, 4)
    empirical = 0.0
    for i, nv in zip(mesh.free_nodes, full_mesh_hat_norms(mesh, phase)):
        if nv > 0.0:
            empirical = max(empirical, abs(pairings[i]) / nv)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        vals = np.zeros(mesh.num_nodes)
        vals[mesh.free_nodes] = rng.standard_normal(mesh.free_nodes.size)
        v = DiscreteFunction(mesh, vals, zero_boundary=True)
        nv = luxemburg_norm(v, phase, "gradient")
        if nv > 0.0:
            empirical = max(empirical, abs(apply_operator(u, v, phase)) / nv)
    res = boundedness_estimate(u, phase, n_random=n_random, seed=seed)
    assert res.empirical == empirical


def test_weak_residual_follows_a_reassigned_weight():
    """Results that sample mu at the quadrature points (through the per-mesh
    sample cache) see a reassigned weight as a fresh phase would."""
    mesh = MESHES["rect"]
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
    phase.mu = ScalarField.constant(50.0)
    fresh_phase = DoublePhase(p, q, ScalarField.constant(50.0), dim=3)
    for name, fn in results.items():
        after, fresh = fn(phase), fn(fresh_phase)
        assert np.array_equal(after, fresh), name
        assert not np.array_equal(after, before[name]), name
