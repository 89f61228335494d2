import numpy as np
import pytest

from dpkit.fem import DiscreteFunction, Mesh, build_interval_mesh, build_rect_mesh
from dpkit.fields import DoublePhase, ScalarField, constant_phase


@pytest.fixture(scope="session")
def interval_mesh():
    return build_interval_mesh(0.0, 1.0, 32)


@pytest.fixture(scope="session")
def square_mesh():
    return build_rect_mesh((0.0, 1.0), (0.0, 1.0), 8, 8)


@pytest.fixture(scope="session")
def dp_phase():
    """The reference configuration p=2, q=3, mu=1 with ambient dimension 3."""
    return constant_phase(2.0, 3.0, 1.0, dim=3)


@pytest.fixture(scope="session")
def crossing_phase():
    """p = 1.8 + 0.4x crosses 2, q = 2.6 + 0.4y, mu = 0.2 + 0.8xy (2D meshes)."""
    return DoublePhase(
        ScalarField.affine([0.4, 0.0], 1.8),
        ScalarField.affine([0.0, 0.4], 2.6),
        ScalarField(lambda pts: 0.2 + 0.8 * pts[:, 0] * pts[:, 1]),
    )


@pytest.fixture
def hat_norm_builds(monkeypatch):
    """Record the (order, tol) of every hat-norm build in the test.

    A build runs only on a miss of the mesh's ``("hat_norms", order, tol)``
    cache slot, so the builds counted here are the cache misses.
    """
    builds = []
    cached = Mesh.cached

    def counting_cached(self, slot, key, build):
        if slot[0] != "hat_norms":
            return cached(self, slot, key, build)

        def counted_build():
            value = build()
            builds.append(slot[1:])
            return value

        return cached(self, slot, key, counted_build)

    monkeypatch.setattr(Mesh, "cached", counting_cached)
    return builds


def random_nodal(mesh, rng, zero_boundary=True, scale=1.0):
    """A random nodal function, optionally with zero boundary trace."""
    values = scale * rng.standard_normal(mesh.num_nodes)
    if zero_boundary:
        values[mesh.boundary_nodes] = 0.0
    return DiscreteFunction(mesh, values, zero_boundary=zero_boundary)


def sine_bump(mesh, amplitude=1.0):
    """Product of coordinate sine half-waves: positive inside, zero on the boundary."""
    vals = np.full(mesh.num_nodes, amplitude)
    for d in range(mesh.dim):
        vals *= np.sin(np.pi * mesh.nodes[:, d])
    vals[mesh.boundary_nodes] = 0.0  # kill sin(pi) rounding residue
    return DiscreteFunction(mesh, vals, zero_boundary=True)
