"""Frozen copy of the row-wise pair deduplication that the flat key replaced.

``Mesh.edges`` and ``fields.sample_pairs`` must reproduce it bit for bit:
the same pairs, in the same order, with the same dtype.  So the old bodies
are kept here verbatim as the reference.
"""

import numpy as np


def edges(mesh) -> np.ndarray:
    """Unique vertex pairs connected by an element edge, shape (nedges, 2)."""
    elems = mesh.elements
    if mesh.dim == 1:
        pairs = elems
    else:
        pairs = np.vstack([elems[:, [0, 1]], elems[:, [1, 2]], elems[:, [0, 2]]])
    pairs = np.sort(pairs, axis=1)
    return np.unique(pairs, axis=0)


def sample_pairs(mesh, pair_budget: int = 2000, seed: int = 0):
    """Index pairs for modulus estimation: all mesh edges plus random pairs."""
    if pair_budget < 0:
        raise ValueError("pair_budget must be nonnegative")
    pairs = [edges(mesh)]
    n = mesh.num_nodes
    if pair_budget > 0 and n > 1:
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, n, size=(pair_budget, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        pairs.append(np.sort(raw, axis=1))
    allp = np.unique(np.vstack(pairs), axis=0)
    return allp[:, 0], allp[:, 1]
