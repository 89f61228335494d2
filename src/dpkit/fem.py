"""P1 finite-element meshes, quadrature and nodal functions.

Supports interval meshes and structured triangulations of axis-aligned
rectangles.  Everything downstream (modulars, operator assembly, solvers)
works through the small surface defined here: physical quadrature points
with weights, per-element basis gradients, and piecewise-linear nodal
functions with their element gradients.  Every quadrature order is checked
by one rule, ``_check_order``, before any cache lookup.

Reference rules and their P1 basis are built once per (dimension, order)
(``functools.lru_cache`` on ``gauss_interval`` and ``gauss_triangle``).  The
mesh is the only object that keeps derived arrays: a function's values at
the quadrature points are recomputed on every ``values_at`` call.  A mesh
keeps everything it builds on first use in one cache,
:meth:`Mesh.cached`, with one value per slot and every array read-only, so
an in-place edit raises: quadrature points and weights per order, the
Gram block ``Mesh.gram``, the CSR patterns of ``Mesh.scatter`` (slot
``"pattern"``) and ``Mesh.scatter_free`` (slot ``"free_pattern"``), the edge
list ``Mesh.edges``, the multigrid prolongators of ``Mesh.prolongators``
and, rebuilt when a field object changes, the (p, q, mu) samples of
``DoublePhase.at_quadrature`` and the hat norms of ``modular._hat_norms``.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from .errors import NumericError

__all__ = [
    "Quadrature", "Mesh", "DiscreteFunction", "build_interval_mesh", "build_rect_mesh",
    "gauss_interval", "gauss_triangle", "integrate", "integrate_samples", "interpolate",
    "DEFAULT_QUAD_ORDER", "MIN_QUAD_ORDER", "MAX_QUAD_ORDER",
]  # fmt: skip

MIN_QUAD_ORDER = 1
MAX_QUAD_ORDER = 8
DEFAULT_QUAD_ORDER = 4
MIN_COARSE_CELLS = 16  # cells a side of the coarsest multigrid level, at least


class Quadrature:
    """A quadrature rule on the reference element (unit interval or triangle).

    ``points`` has shape (nq, dim) in reference coordinates and ``weights``
    sums to the reference measure (1 for the interval, 1/2 for the triangle).
    ``basis`` (nq, dim + 1) holds the P1 basis at the points.  All are read-only.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray):
        self.points = np.array(points, dtype=float, ndmin=2)
        self.weights = np.array(weights, dtype=float)
        self.basis = reference_basis(self.points.shape[1], self.points)
        for a in (self.points, self.weights, self.basis):
            a.setflags(write=False)  # cached and shared


def _check_order(order: int) -> int:
    """``order`` as an int: ValueError unless it is an int or numpy integer,
    not a bool, in [MIN_QUAD_ORDER, MAX_QUAD_ORDER]."""
    integer = isinstance(order, (int, np.integer)) and not isinstance(order, bool)
    if not (integer and MIN_QUAD_ORDER <= order <= MAX_QUAD_ORDER):
        bounds = f"[{MIN_QUAD_ORDER}, {MAX_QUAD_ORDER}]"
        raise ValueError(f"quadrature order must be an integer in {bounds}, got {order!r}")
    return int(order)


@functools.lru_cache(maxsize=None, typed=True)  # so True is checked, not served as 1
def gauss_interval(order: int) -> Quadrature:
    """Gauss-Legendre rule on [0, 1], exact for polynomials of degree <= order."""
    order = _check_order(order)
    n = (order + 2) // 2  # n-point Gauss is exact to degree 2n - 1
    x, w = np.polynomial.legendre.leggauss(n)
    return Quadrature((x[:, None] + 1.0) / 2.0, w / 2.0)


@functools.lru_cache(maxsize=None, typed=True)  # so True is checked, not served as 1
def gauss_triangle(order: int) -> Quadrature:
    """Tensor Gauss rule mapped to the reference triangle.

    Uses the Duffy substitution x = u, y = v (1 - u), which sends the unit
    square to the triangle {x >= 0, y >= 0, x + y <= 1} with Jacobian 1 - u.
    A monomial of total degree d pulls back to degree at most d + 1 per
    direction, so an n-point rule per direction with 2n - 1 >= order + 1 is
    exact for polynomials of total degree <= order.
    """
    order = _check_order(order)
    n = (order + 3) // 2
    x, w = np.polynomial.legendre.leggauss(n)
    u = (x + 1.0) / 2.0
    wu = w / 2.0
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)
    pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    return Quadrature(pts, ww.ravel())


def reference_basis(dim: int, points: np.ndarray) -> np.ndarray:
    """Values of the P1 basis at reference points, shape (npts, dim + 1)."""
    points = np.atleast_2d(points)
    if dim == 1:
        t = points[:, 0]
        return np.column_stack([1.0 - t, t])
    if dim == 2:
        x, y = points[:, 0], points[:, 1]
        return np.column_stack([1.0 - x - y, x, y])
    raise ValueError(f"unsupported dimension {dim}")


class Mesh:
    """Conforming simplicial mesh with precomputed P1 geometry.

    Attributes
    ----------
    nodes : (nnodes, dim) float array of vertex coordinates.
    elements : (nelems, dim + 1) int array of vertex indices.
    boundary_nodes : sorted int array of indices on the domain boundary.
    free_nodes : complement of ``boundary_nodes``.
    grid : ``(nx, ny)`` for a mesh from :func:`build_rect_mesh`, else None.
    measures : (nelems,) element lengths/areas.
    basis_gradients : (nelems, dim + 1, dim) physical gradients of the
        local P1 basis, constant per element.
    """

    def __init__(self, nodes, elements, boundary_nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] not in (1, 2):
            raise ValueError("nodes must have shape (nnodes, 1) or (nnodes, 2)")
        self.elements = np.asarray(elements, dtype=np.intp)
        self.dim = self.nodes.shape[1]
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise ValueError(f"elements must have {self.dim + 1} vertices each")
        self.boundary_nodes = np.unique(np.asarray(boundary_nodes, dtype=np.intp))
        for name, index in (("element", self.elements), ("boundary", self.boundary_nodes)):
            if index.size and (index.min() < 0 or index.max() >= self.num_nodes):
                raise ValueError(f"{name} node indices must lie in 0..{self.num_nodes - 1}")
        mask = np.ones(self.num_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        self.free_nodes = np.flatnonzero(mask)
        self.grid = None
        self._init_geometry()
        self._cache: dict = {}  # slot -> (key, value), see cached

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    def _init_geometry(self) -> None:
        verts = self.nodes[self.elements]  # (nelems, dim + 1, dim)
        if self.dim == 1:
            h = verts[:, 1, 0] - verts[:, 0, 0]
            if np.any(h <= 0):
                raise ValueError("interval elements must be positively oriented")
            self.measures = h
            grads = np.empty((self.num_elements, 2, 1))
            grads[:, 0, 0] = -1.0 / h
            grads[:, 1, 0] = 1.0 / h
            self.basis_gradients = grads
        else:
            e1 = verts[:, 1, :] - verts[:, 0, :]
            e2 = verts[:, 2, :] - verts[:, 0, :]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            if np.any(det <= 0):
                raise ValueError("triangles must be positively oriented")
            self.measures = 0.5 * det
            # gradients of (x, y) barycentric functions via the inverse Jacobian
            inv = np.empty((self.num_elements, 2, 2))
            inv[:, 0, 0] = e2[:, 1] / det
            inv[:, 0, 1] = -e2[:, 0] / det
            inv[:, 1, 0] = -e1[:, 1] / det
            inv[:, 1, 1] = e1[:, 0] / det
            ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
            self.basis_gradients = np.einsum("vr,erd->evd", ref, inv)

    def cached(self, slot, key: tuple, build):
        """The value kept in ``slot`` if it was built for ``key``, else
        ``build()`` with every array in it made read-only, which replaces it.

        ``key`` holds the objects the value is built from, compared with
        ``==`` (identity for fields), so a new key frees the old value.
        """
        hit = self._cache.get(slot)
        if hit is not None and hit[0] == key:
            return hit[1]
        value = build()
        for a in value if isinstance(value, tuple) else (value,):
            for b in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
                if isinstance(b, np.ndarray):
                    b.setflags(write=False)
        self._cache[slot] = (key, value)
        return value

    @property
    def gram(self) -> np.ndarray:
        """Read-only (nelems, nv, nv) Gram block of the basis gradients,
        sum_d G_id G_jd, built on first use."""
        G = self.basis_gradients
        return self.cached("gram", (), lambda: np.einsum("eid,ejd->eij", G, G))

    def prolongators(self) -> tuple:
        """Free x free P1 prolongators of the nested grids below a rect mesh,
        finest first, built on first use: the grid is halved while both sides
        are even and both halves keep at least MIN_COARSE_CELLS cells.  Empty
        for a mesh without a grid, or one that cannot be halved."""
        return self.cached("prolongators", (), lambda: _grid_prolongators(self.grid))

    def reference_rule(self, order: int = DEFAULT_QUAD_ORDER) -> Quadrature:
        return gauss_interval(order) if self.dim == 1 else gauss_triangle(order)

    def quadrature_points(self, order: int = DEFAULT_QUAD_ORDER):
        """Physical quadrature data for every element.

        Returns ``(points, weights, rule)`` where ``points`` has shape
        (nelems, nq, dim) and ``weights`` (nelems, nq) already include the
        element measure, so plain sums integrate over the whole mesh.  Both
        arrays are built once per order and are read-only.
        """
        order = _check_order(order)

        def build():
            rule = self.reference_rule(order)
            pts = np.einsum("qv,evd->eqd", rule.basis, self.nodes[self.elements])
            w = (self.measures / rule.weights.sum())[:, None] * rule.weights[None, :]
            return pts, w, rule

        return self.cached(("quadrature", order), (), build)

    def basis_at(self, order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
        """P1 basis values at the reference quadrature points, (nq, dim + 1)."""
        return self.reference_rule(order).basis

    def sample(self, fn, order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
        """``fn(points) -> values`` at the quadrature points, shape (nelems, nq)."""
        pts, w, _ = self.quadrature_points(order)
        return np.asarray(fn(pts.reshape(-1, self.dim)), dtype=float).reshape(w.shape)

    def scatter(self, local: np.ndarray) -> sp.csr_matrix:
        """Sum per-element matrices (nelems, nv, nv) into a global CSR matrix,
        in element order (see :meth:`_scatter`)."""
        return self._scatter("pattern", np.arange(self.num_nodes), local)

    def scatter_free(self, local: np.ndarray) -> sp.csr_matrix:
        """Sum per-element matrices (nelems, nv, nv) into the free x free block,
        in element order: ``scatter(local)`` on the free nodes, bit for bit."""
        return self._scatter("free_pattern", self.free_nodes, local)

    def _scatter(self, slot: str, nodes: np.ndarray, local: np.ndarray) -> sp.csr_matrix:
        """The nodes x nodes block through the pattern kept in ``slot`` (see
        :func:`_pattern`): canonical CSR, symmetric for symmetric ``local``."""
        indptr, indices, where = self.cached(slot, (), lambda: _pattern(self, nodes))
        nnz = indices.size
        data = np.bincount(where, np.ravel(local), nnz + 1)[:nnz]
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(nodes.size,) * 2)

    def scatter_vector(self, local: np.ndarray) -> np.ndarray:
        """Sum per-element vectors (nelems, nv) into a nodal vector, in element order."""
        return np.bincount(self.elements.ravel(), np.ravel(local), self.num_nodes)

    def edges(self) -> np.ndarray:
        """Unique vertex pairs connected by an element edge, shape (nedges, 2).

        Each row (i, j) has i < j, the rows are sorted by (i, j) and the
        dtype is the elements' int dtype.  Built on first use, read-only.
        """

        def build():
            ends = [0, 1] if self.dim == 1 else [0, 1, 1, 2, 0, 2]  # local edge ends
            pairs = np.sort(self.elements[:, ends].reshape(-1, 2), axis=1)
            return _unique_pairs(pairs, self.num_nodes)

        return self.cached("edges", (), build)


def _unique_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique rows of an (m, 2) int array with entries in [0, n).

    Equal to ``np.unique(pairs, axis=0)``: with 0 <= j < n the flat key
    i * n + j orders rows exactly as (i, j) does, and a 1-D unique of the
    keys is much cheaper than a row-wise one.
    """
    key = np.unique(pairs[:, 0] * n + pairs[:, 1])
    return np.column_stack(np.divmod(key, n))


def _pattern(mesh: Mesh, nodes: np.ndarray):
    """CSR pattern of the nodes x nodes block and the slot of every local entry.

    Returns ``(indptr, indices, slot)``: ``slot`` (int32, one per entry of the
    (nelems, nv, nv) local matrices in C order) is the entry's position in
    the CSR data, or nnz for an entry outside the block.
    """
    n = nodes.size
    index = np.full(mesh.num_nodes, -1, dtype=np.int32)
    index[nodes] = np.arange(n, dtype=np.int32)
    nv = mesh.elements.shape[1]
    elems = index[mesh.elements]
    rows = np.repeat(elems, nv, axis=1).ravel()
    cols = np.tile(elems, (1, nv)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    pattern = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    # number the stored entries and read each local entry's number back
    pattern.data = np.arange(pattern.nnz, dtype=float)
    slot = np.full(keep.size, pattern.nnz, dtype=np.int32)
    slot[keep] = np.asarray(pattern[rows, cols]).ravel()
    return pattern.indptr, pattern.indices, slot


def _grid_prolongators(grid) -> tuple:
    if grid is None:
        return ()
    mats = []
    nx, ny = grid
    while nx % 2 == 0 and ny % 2 == 0 and min(nx, ny) >= 2 * MIN_COARSE_CELLS:
        mats.append(_prolongator(nx, ny))
        nx, ny = nx // 2, ny // 2
    return tuple(mats)


def _prolongator(nx: int, ny: int) -> sp.csr_matrix:
    """P1 interpolation from the free nodes of the (nx/2, ny/2) grid to
    those of the (nx, ny) grid of :func:`build_rect_mesh`.

    A fine node at grid position (i, j) takes half of each coarse end of the
    x, y or v00-v11 diagonal edge it halves, or both halves from its own
    coarse node when i and j are even; that is exact for P1 functions on the split that
    ``build_rect_mesh`` makes.  Coarse boundary ends, which are zero, drop.
    """
    mx, my = nx // 2, ny // 2
    i, j = (a.ravel() for a in np.meshgrid(np.arange(1, nx), np.arange(1, ny), indexing="ij"))
    rows, cols = [], []
    for ci, cj in ((i // 2, j // 2), ((i + 1) // 2, (j + 1) // 2)):
        free = (ci > 0) & (ci < mx) & (cj > 0) & (cj < my)
        rows.append(np.flatnonzero(free))
        cols.append(((ci - 1) * (my - 1) + cj - 1)[free])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    shape = (i.size, (mx - 1) * (my - 1))
    return sp.csr_matrix((np.full(rows.size, 0.5), (rows, cols)), shape=shape)


def build_interval_mesh(a: float, b: float, n: int) -> Mesh:
    """Uniform mesh of (a, b) with ``n`` elements; endpoints are boundary nodes."""
    if not b > a:
        raise ValueError(f"interval requires b > a, got ({a}, {b})")
    if n < 1:
        raise ValueError("need at least one element")
    nodes = np.linspace(a, b, n + 1)[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(nodes, elements, [0, n])


def build_rect_mesh(xspan, yspan, nx: int, ny: int) -> Mesh:
    """Structured triangulation of a rectangle, two triangles per grid cell."""
    x0, x1 = map(float, xspan)
    y0, y1 = map(float, yspan)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle spans must be increasing")
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per direction")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    nid = np.arange(nodes.shape[0]).reshape(nx + 1, ny + 1)
    v00, v10, v01, v11 = nid[:-1, :-1], nid[1:, :-1], nid[:-1, 1:], nid[1:, 1:]
    # cells in (i, j) order, each split into (v00, v10, v11) and (v00, v11, v01)
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    on_edge = np.pad(np.zeros((nx - 1, ny - 1), dtype=bool), 1, constant_values=True)
    mesh = Mesh(nodes, tris, np.flatnonzero(on_edge))
    mesh.grid = (nx, ny)
    return mesh


class DiscreteFunction:
    """A P1 function given by nodal values on a mesh.

    Element gradients (constant per element) are computed once, on
    construction; values at quadrature points are recomputed on each call.
    ``zero_boundary`` marks membership in the zero-trace subspace; the flag
    requires the boundary values to vanish exactly.
    """

    def __init__(self, mesh: Mesh, values, zero_boundary: bool = False):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (mesh.num_nodes,):
            raise ValueError(
                f"expected {mesh.num_nodes} nodal values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("nodal values must be finite")
        if zero_boundary and np.any(self.values[mesh.boundary_nodes] != 0.0):
            raise ValueError("zero_boundary requires vanishing boundary values")
        self.zero_boundary = bool(zero_boundary)
        self.gradients = np.einsum(
            "ev,evd->ed", self.values[mesh.elements], mesh.basis_gradients
        )

    def values_at(self, order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
        """Function values at the quadrature points, shape (nelems, nq), recomputed
        on every call: the mesh is the only object that keeps derived arrays."""
        return self.values[self.mesh.elements] @ self.mesh.basis_at(order).T

    def gradient_norms(self) -> np.ndarray:
        """Euclidean norm of the element gradients, shape (nelems,)."""
        return np.sqrt(np.sum(self.gradients**2, axis=1))

    def zero_on_boundary(self) -> "DiscreteFunction":
        """Copy with boundary values set to zero (projection onto zero trace)."""
        vals = self.values.copy()
        vals[self.mesh.boundary_nodes] = 0.0
        return DiscreteFunction(self.mesh, vals, zero_boundary=True)

    def _binary(self, other, sign):
        if not isinstance(other, DiscreteFunction) or other.mesh is not self.mesh:
            raise ValueError("operands must live on the same mesh")
        return DiscreteFunction(
            self.mesh,
            self.values + sign * other.values,
            zero_boundary=self.zero_boundary and other.zero_boundary,
        )

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        return DiscreteFunction(self.mesh, float(scalar) * self.values, self.zero_boundary)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def interpolate(mesh: Mesh, fn, zero_boundary: bool = False) -> DiscreteFunction:
    """Nodal interpolant of a callable ``fn(points) -> values``.

    With ``zero_boundary`` the boundary entries are forced to zero, i.e. the
    interpolant is taken in the zero-trace subspace (useful for functions
    that vanish on the boundary only up to roundoff).
    """
    vals = np.asarray(fn(mesh.nodes), dtype=float)
    if vals.shape != (mesh.num_nodes,):
        raise ValueError("interpolation callback must return one value per node")
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"interpolation callback returned non-finite value at node {bad}")
    if zero_boundary:
        vals = vals.copy()
        vals[mesh.boundary_nodes] = 0.0
    return DiscreteFunction(mesh, vals, zero_boundary=zero_boundary)


def integrate(mesh: Mesh, fn, order: int = DEFAULT_QUAD_ORDER) -> float:
    """Integrate ``fn(points) -> values`` over the mesh by Gauss quadrature."""
    return integrate_samples(mesh, mesh.sample(fn, order), order)


def integrate_samples(mesh: Mesh, values: np.ndarray, order: int = DEFAULT_QUAD_ORDER) -> float:
    """Integrate values already sampled at the quadrature points of ``order``."""
    _, w, _ = mesh.quadrature_points(order)
    return float(np.sum(w * _checked_samples(mesh, values, order)))


def _checked_samples(mesh: Mesh, values, order: int) -> np.ndarray:
    """``values`` as float samples (nelems, nq): ValueError on a wrong shape,
    NumericError naming the first element with a non-finite sample."""
    _, w, _ = mesh.quadrature_points(order)
    values = np.asarray(values, dtype=float)
    if values.shape != w.shape:
        raise ValueError(f"expected samples of shape {w.shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        bad = int(np.argwhere(~np.isfinite(values))[0][0])
        raise NumericError(f"non-finite integrand on element {bad}")
    return values
