"""Frozen copy of the cell-by-cell rect triangulation that the index-array
construction replaced.

``build_rect_mesh`` must reproduce it bit for bit: the same nodes, the same
triangles in the same order with the same vertex order, and the same
boundary nodes.  So the old body is kept here verbatim as the reference.
"""

import numpy as np


def rect_arrays(xspan, yspan, nx: int, ny: int):
    """(nodes, elements, boundary) of the structured triangulation."""
    x0, x1 = map(float, xspan)
    y0, y1 = map(float, yspan)
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = nid(i, j), nid(i + 1, j)
            v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append([v00, v10, v11])
            tris.append([v00, v11, v01])
    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    on_edge = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    boundary = np.flatnonzero(on_edge.ravel())
    return nodes, np.asarray(tris, dtype=np.intp), boundary
