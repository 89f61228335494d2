"""Hat-function gradient norms built from element patches.

The reference is the direct definition: each free-node hat as a full-mesh
function, normed by ``luxemburg_norm``.  The patch-built norms must equal it
bit for bit, since the dual-norm residual and the boundedness estimate are
reported values.
"""

import numpy as np
import pytest

from dpkit.fem import DiscreteFunction, build_interval_mesh, build_rect_mesh
from dpkit.fields import DoublePhase, ScalarField
from dpkit.modular import DEFAULT_NORM_TOL, _hat_norms, luxemburg_norm
from dpkit.operator import apply_operator, boundedness_estimate, _operator_residual_full
from dpkit.properties import standard_phase_configs
from dpkit.solve import weak_residual

from conftest import sine_bump

MESHES = {
    "interval": build_interval_mesh(0.0, 1.0, 13),
    "rect": build_rect_mesh((0.0, 2.0), (-1.0, 0.5), 5, 4),
}


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
@pytest.mark.parametrize("config", [name for name, _ in standard_phase_configs(1)])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_patch_norms_equal_full_mesh_norms(mesh_name, config, order):
    mesh = MESHES[mesh_name]
    phase = dict(standard_phase_configs(mesh.dim))[config]
    got = _hat_norms(mesh, phase, DEFAULT_NORM_TOL, order)
    assert np.array_equal(got, full_mesh_hat_norms(mesh, phase, order=order))


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
    mesh = MESHES["rect"]
    p, q = ScalarField.constant(2.0), ScalarField.constant(3.0)
    phase = DoublePhase(p, q, ScalarField.constant(0.0), dim=3)
    zero = DiscreteFunction(mesh, np.zeros(mesh.num_nodes), zero_boundary=True)
    rhs = lambda pts: np.ones(pts.shape[0])
    before = weak_residual(zero, rhs, phase)
    phase.mu = ScalarField.constant(50.0)
    after = weak_residual(zero, rhs, phase)
    fresh = weak_residual(zero, rhs, DoublePhase(p, q, ScalarField.constant(50.0), dim=3))
    assert after == fresh
    assert after != before
