"""Meshes, quadrature, and P1 discrete functions."""

import gc
import weakref
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkit import fem
from dpkit.eigen import first_eigenvalue, mass_matrix, stiffness_matrix
from dpkit.fem import (
    DEFAULT_QUAD_ORDER,
    MAX_QUAD_ORDER,
    DiscreteFunction,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
    gauss_interval,
    gauss_triangle,
    integrate,
    integrate_samples,
    interpolate,
    reference_basis,
)
from dpkit.fields import DoublePhase, ScalarField, field_bounds
from dpkit.modular import luxemburg_norm
from dpkit.operator import assemble_jacobian, assemble_load
from dpkit.solve import weak_residual

from conftest import random_nodal, sine_bump
import rect_mesh_reference


# ---------------------------------------------------------------------------
# mesh construction


def test_interval_mesh_counts():
    mesh = build_interval_mesh(0.0, 1.0, 10)
    assert mesh.num_nodes == 11
    assert mesh.num_elements == 10
    assert mesh.dim == 1
    np.testing.assert_array_equal(mesh.boundary_nodes, [0, 10])
    assert mesh.free_nodes.size == 9
    np.testing.assert_allclose(mesh.measures, 0.1)


def test_interval_mesh_rejects_bad_span():
    with pytest.raises(ValueError):
        build_interval_mesh(1.0, 0.0, 4)


def test_rect_mesh_counts_and_area():
    mesh = build_rect_mesh((0.0, 2.0), (0.0, 1.0), 4, 5)
    assert mesh.num_nodes == 5 * 6
    assert mesh.num_elements == 2 * 4 * 5
    assert mesh.dim == 2
    np.testing.assert_allclose(mesh.measures.sum(), 2.0)
    # boundary of a 4x5 grid: the outer ring
    assert mesh.boundary_nodes.size == 2 * 4 + 2 * 5
    assert mesh.free_nodes.size == 3 * 4


@pytest.mark.parametrize("nx, ny", [(1, 1), (31, 17), (48, 48)])
def test_rect_mesh_matches_the_cell_loop_reference(nx, ny):
    mesh = build_rect_mesh((0.0, 2.0), (-1.0, 0.5), nx, ny)
    want = rect_mesh_reference.rect_arrays((0.0, 2.0), (-1.0, 0.5), nx, ny)
    for got, want in zip((mesh.nodes, mesh.elements, mesh.boundary_nodes), want):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    assert mesh.grid == (nx, ny)


def test_mesh_rejects_negative_orientation():
    nodes = [[0.0], [1.0]]
    with pytest.raises(ValueError):
        Mesh(nodes, [[1, 0]], [0, 1])


@pytest.mark.parametrize(
    "elements, boundary, message",
    [
        ([[0, 1, -1], [0, 3, 2]], [0, 1, 2, 3], "element node indices"),
        ([[0, 1, 4], [0, 3, 2]], [0, 1, 2, 3], "element node indices"),
        ([[0, 1, 3], [0, 3, 2]], [0, 1, 2, 7], "boundary node indices"),
        ([[0, 1, 3], [0, 3, 2]], [-1, 0, 1, 2, 3], "boundary node indices"),
    ],
    ids=["negative-element", "element-past-end", "boundary-past-end", "negative-boundary"],
)
def test_mesh_rejects_out_of_range_indices(elements, boundary, message):
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    with pytest.raises(ValueError, match=f"{message} must lie in 0..3"):
        Mesh(nodes, elements, boundary)


def test_scatter_sums_element_matrices(square_mesh):
    nv = square_mesh.elements.shape[1]
    local = np.ones((square_mesh.num_elements, nv, nv))
    K = square_mesh.scatter(local).toarray()
    # entry (i, j) counts the elements holding both vertices
    counts = np.zeros((square_mesh.num_nodes, square_mesh.num_nodes))
    for elem in square_mesh.elements:
        counts[np.ix_(elem, elem)] += 1.0
    assert np.array_equal(K, counts)


def test_scatter_vector_matches_add_at(square_mesh):
    rng = np.random.default_rng(3)
    local = rng.standard_normal(square_mesh.elements.shape)
    expected = np.zeros(square_mesh.num_nodes)
    np.add.at(expected, square_mesh.elements, local)
    # same summation order, so equal bit for bit
    assert np.array_equal(square_mesh.scatter_vector(local), expected)


@pytest.mark.parametrize(
    "mesh",
    [build_interval_mesh(0.0, 1.0, 9), build_rect_mesh((0.0, 2.0), (0.0, 1.0), 5, 4)],
    ids=["interval", "rect"],
)
def test_scatter_free_matches_restricted_scatter(mesh):
    nv = mesh.elements.shape[1]
    rng = np.random.default_rng(5)
    local = rng.random((mesh.num_elements, nv, nv))
    local = local + local.transpose(0, 2, 1)
    free = mesh.free_nodes
    # the reference adds the local matrices one element after another
    dense = np.zeros((mesh.num_nodes, mesh.num_nodes))
    np.add.at(dense, (mesh.elements[:, :, None], mesh.elements[:, None, :]), local)
    expected = sp.csr_matrix(dense[np.ix_(free, free)])  # positive sums: no entry drops
    got = mesh.scatter_free(local)
    assert got.shape == (free.size, free.size)
    assert got.has_canonical_format
    # every path sums each entry in element order, so all agree bit for bit
    for other in (mesh.scatter(local)[free][:, free], expected):
        np.testing.assert_array_equal(got.indptr, other.indptr)
        np.testing.assert_array_equal(got.indices, other.indices)
        np.testing.assert_array_equal(got.data, other.data)
    assert (got != got.T).nnz == 0


def test_free_pattern_is_built_once_per_mesh(monkeypatch, dp_phase):
    builds = []
    build = fem._pattern

    def counted(mesh, nodes):
        builds.append((mesh, "free_pattern" if nodes is mesh.free_nodes else "pattern"))
        return build(mesh, nodes)

    monkeypatch.setattr(fem, "_pattern", counted)
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 6, 6)
    assert builds == []  # lazy: not built with the mesh
    u = random_nodal(mesh, np.random.default_rng(2))
    first = assemble_jacobian(u, dp_phase)
    nnz = first.nnz
    first.data[:] = 0.0
    first.eliminate_zeros()  # an in-place edit of one result leaves the pattern intact
    again = assemble_jacobian(u, dp_phase)
    first_eigenvalue(mesh)
    assert builds == [(mesh, "free_pattern")]  # one pattern for Jacobian and eigen
    assert again.nnz == nnz > 0
    stiffness_matrix(mesh)
    mass_matrix(mesh)
    assert builds == [(mesh, "free_pattern"), (mesh, "pattern")]


@pytest.mark.parametrize(
    "mesh",
    [build_interval_mesh(0.0, 1.0, 9), build_rect_mesh((0.0, 2.0), (0.0, 1.0), 5, 4)],
    ids=["interval", "rect"],
)
def test_gram_block_is_cached_read_only_and_exact(mesh):
    G = mesh.basis_gradients
    gram = mesh.gram
    np.testing.assert_array_equal(gram, np.einsum("eid,ejd->eij", G, G))
    assert mesh.gram is gram
    with pytest.raises(ValueError):
        gram[0, 0, 0] = 0.0


@pytest.mark.parametrize(
    "mesh, fine_grids",
    [
        (build_rect_mesh((0.0, 1.0), (0.0, 1.0), 128, 128), [(128, 128), (64, 64), (32, 32)]),
        (build_rect_mesh((0.0, 1.0), (0.0, 1.0), 48, 48), [(48, 48)]),
        (build_rect_mesh((0.0, 2.0), (0.0, 1.0), 64, 32), [(64, 32)]),
        (build_rect_mesh((0.0, 1.0), (0.0, 1.0), 31, 31), []),
        (build_rect_mesh((0.0, 1.0), (0.0, 1.0), 16, 16), []),
        (build_interval_mesh(0.0, 1.0, 64), []),
    ],
    ids=["128", "48", "64x32", "odd", "16", "interval"],
)
def test_prolongators_halve_nested_grids_down_to_16_cells(mesh, fine_grids):
    mats = mesh.prolongators()
    assert [m.shape for m in mats] == [
        ((nx - 1) * (ny - 1), (nx // 2 - 1) * (ny // 2 - 1)) for nx, ny in fine_grids
    ]
    assert mesh.prolongators() is mats  # built once per mesh, and read-only
    for m in mats:
        with pytest.raises(ValueError):
            m.data[0] = 1.0


def test_a_mesh_without_a_grid_has_no_prolongators():
    rect = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 32, 32)
    loaded = Mesh(rect.nodes, rect.elements, rect.boundary_nodes)
    assert rect.grid == (32, 32) and len(rect.prolongators()) == 1
    assert loaded.grid is None and loaded.prolongators() == ()


def _coarse_values_at_fine_nodes(coarse, fine, values):
    """The coarse P1 function at every fine node, walking the coarse
    triangles: a vertex keeps its value and an edge midpoint takes the mean
    of the edge's two ends, checked to sit at the midpoint's coordinates."""
    my, ny = coarse.grid[1], fine.grid[1]
    out = np.full(fine.num_nodes, np.nan)
    at = np.full(fine.nodes.shape, np.nan)
    for tri in coarse.elements:
        for a in tri:
            for b in tri:
                (ia, ja), (ib, jb) = divmod(a, my + 1), divmod(b, my + 1)
                fine_node = (ia + ib) * (ny + 1) + ja + jb
                at[fine_node] = (coarse.nodes[a] + coarse.nodes[b]) / 2
                out[fine_node] = (values[a] + values[b]) / 2
    np.testing.assert_allclose(at, fine.nodes, rtol=0, atol=1e-14)
    return out


@pytest.mark.parametrize(
    "nx, ny, xspan, yspan",
    [(64, 64, (0.0, 1.0), (0.0, 1.0)), (64, 32, (-1.0, 2.0), (0.5, 1.25))],
    ids=["square", "64x32-offset"],
)
def test_prolongator_interpolates_coarse_p1_functions_exactly(nx, ny, xspan, yspan):
    fine = build_rect_mesh(xspan, yspan, nx, ny)
    coarse = build_rect_mesh(xspan, yspan, nx // 2, ny // 2)
    values = np.zeros(coarse.num_nodes)
    values[coarse.free_nodes] = np.random.default_rng(3).standard_normal(coarse.free_nodes.size)
    expected = _coarse_values_at_fine_nodes(coarse, fine, values)
    got = fine.prolongators()[0] @ values[coarse.free_nodes]
    np.testing.assert_array_equal(got, expected[fine.free_nodes])  # bit for bit
    np.testing.assert_array_equal(expected[fine.boundary_nodes], 0.0)


def test_mesh_cache_frees_superseded_phases():
    """Bounding, sampling and the dual-norm residual keep only the latest
    phase on a mesh: the fields of the phases before it are freed."""
    mesh = build_rect_mesh((0.0, 1.0), (0.0, 1.0), 2, 2)
    u = sine_bump(mesh)
    refs = []
    for k in range(3):
        phase = DoublePhase(
            ScalarField.affine([0.1 * k, 0.0], 2.0),
            ScalarField.constant(3.0),
            ScalarField.constant(1.0 + k),
            dim=3,
        )
        refs.append([weakref.ref(f) for f in (phase.p, phase.q, phase.mu)])
        field_bounds(phase.p, mesh)
        phase.at_quadrature(mesh)
        weak_residual(u, None, phase)
    del phase
    gc.collect()
    assert [[r() is None for r in fields] for fields in refs] == [
        [True, True, True],
        [True, True, True],
        [False, False, False],  # the latest phase stays cached
    ]


def test_mesh_edges_unique_and_sorted(square_mesh):
    e = square_mesh.edges()
    assert np.all(e[:, 0] < e[:, 1])
    assert np.unique(e, axis=0).shape == e.shape


@pytest.mark.parametrize(
    "mesh",
    [build_interval_mesh(0.0, 1.0, 9), build_rect_mesh((0.0, 2.0), (0.0, 1.0), 5, 4)],
    ids=["interval", "rect"],
)
def test_mesh_edges_are_built_once_and_read_only(mesh):
    e = mesh.edges()
    assert mesh.edges() is e
    with pytest.raises(ValueError):
        e[0, 0] = 0


# ---------------------------------------------------------------------------
# quadrature exactness


@pytest.mark.parametrize("order", range(1, MAX_QUAD_ORDER + 1))
def test_gauss_interval_integrates_polynomials(order):
    rule = gauss_interval(order)
    for k in range(order + 1):
        val = np.sum(rule.weights * rule.points[:, 0] ** k)
        assert val == pytest.approx(1.0 / (k + 1), abs=1e-13)


@pytest.mark.parametrize("order", range(1, MAX_QUAD_ORDER + 1))
def test_gauss_triangle_integrates_monomials(order):
    rule = gauss_triangle(order)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for i in range(order + 1):
        for j in range(order + 1 - i):
            # int_T x^i y^j over the reference triangle = i! j! / (i + j + 2)!
            exact = factorial(i) * factorial(j) / factorial(i + j + 2)
            val = np.sum(rule.weights * x**i * y**j)
            assert val == pytest.approx(exact, abs=1e-14), (order, i, j)


def test_quadrature_weights_sum_to_measure(interval_mesh, square_mesh):
    for mesh in (interval_mesh, square_mesh):
        _, w, _ = mesh.quadrature_points(DEFAULT_QUAD_ORDER)
        np.testing.assert_allclose(w.sum(axis=1), mesh.measures)


def test_reference_basis_partition_of_unity(square_mesh):
    for order in range(1, MAX_QUAD_ORDER + 1):
        rule = square_mesh.reference_rule(order)
        basis = reference_basis(2, rule.points)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-14)
        assert basis.min() >= -1e-14


def test_each_gauss_rule_is_built_once(monkeypatch):
    builds = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        builds.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    gauss_interval.cache_clear()
    gauss_triangle.cache_clear()
    used = set()
    for n in (3, 5, 8):  # fresh meshes, each asking for every rule again
        for mesh in (build_interval_mesh(0.0, 1.0, n), build_rect_mesh((0, 1), (0, 2), n, 2)):
            u = DiscreteFunction(mesh, np.linspace(0.0, 1.0, mesh.num_nodes))
            for order in (1, 4, 8):
                u.values_at(order)
                assemble_load(mesh, lambda pts: np.ones(pts.shape[0]), order)
                mass_matrix(mesh, order)
                used.add((mesh.dim, order))
    assert len(builds) == len(used)


def test_cached_quadrature_arrays_are_read_only(square_mesh, dp_phase):
    pts, w, rule = square_mesh.quadrature_points(3)
    samples = dp_phase.at_quadrature(square_mesh, 3)
    arrays = [rule.points, rule.weights, rule.basis, gauss_interval(3).basis]
    arrays += [square_mesh.basis_at(3), pts, w, *samples]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert dp_phase.at_quadrature(square_mesh, 3) is samples


def test_integrate_exact_for_affine(square_mesh):
    # int (3x + 2y + 1) over the unit square
    val = integrate(square_mesh, lambda pts: 3 * pts[:, 0] + 2 * pts[:, 1] + 1, 2)
    assert val == pytest.approx(3.5, abs=1e-13)


def test_integrate_samples_shape_check(interval_mesh):
    with pytest.raises(ValueError):
        integrate_samples(interval_mesh, np.ones(7))


@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=10, deadline=None)
def test_interval_integration_of_monomials(k):
    mesh = build_interval_mesh(0.0, 1.0, 16)
    val = integrate(mesh, lambda pts: pts[:, 0] ** k, order=8)
    assert val == pytest.approx(1.0 / (k + 1), abs=1e-12)


# ---------------------------------------------------------------------------
# discrete functions


def test_interpolate_reproduces_affine_exactly(square_mesh):
    u = interpolate(square_mesh, lambda pts: 2.0 * pts[:, 0] - pts[:, 1] + 0.25)
    pts, _, _ = square_mesh.quadrature_points(3)
    flat = pts.reshape(-1, 2)
    np.testing.assert_allclose(
        u.values_at(3).reshape(-1), 2.0 * flat[:, 0] - flat[:, 1] + 0.25, atol=1e-13
    )
    # the P1 gradient of an affine function is its slope everywhere
    np.testing.assert_allclose(u.gradients, [[2.0, -1.0]] * square_mesh.num_elements)


def test_gradient_norms_match_gradients(interval_mesh):
    rng = np.random.default_rng(5)
    u = random_nodal(interval_mesh, rng)
    np.testing.assert_allclose(
        u.gradient_norms(), np.abs(u.gradients[:, 0]), atol=0.0
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lengths_scale_only_where_the_squares_leave_the_float_range(square_mesh):
    # ordinary gradients keep the bits of the plain sqrt of the sum of squares
    u = random_nodal(square_mesh, np.random.default_rng(6))
    plain = np.sqrt(np.sum(u.gradients**2, axis=1))
    assert np.array_equal(u.gradient_norms(), plain)
    extreme = np.array([[3e200, -4e200], [3e-200, 4e-200], [0.0, 0.0], [1e-160, 0.0]])
    np.testing.assert_allclose(fem._lengths(extreme), [5e200, 5e-200, 0.0, 1e-160], rtol=1e-15)
    assert fem._lengths(np.array([[-1e200], [1e-200], [0.0]])).tolist() == [1e200, 1e-200, 0.0]


def test_discrete_function_arithmetic(interval_mesh):
    rng = np.random.default_rng(1)
    u = random_nodal(interval_mesh, rng)
    v = random_nodal(interval_mesh, rng)
    w = u + 2.0 * v - u
    np.testing.assert_allclose(w.values, 2.0 * v.values, atol=1e-15)
    assert w.zero_boundary
    assert (-u).values == pytest.approx(-u.values)


def test_discrete_function_rejects_wrong_length(interval_mesh):
    with pytest.raises(ValueError):
        DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes + 1))


@pytest.mark.filterwarnings("error")
def test_scaling_to_non_finite_values_raises_only_the_finiteness_error(interval_mesh):
    # 1 / 1e-320 is inf, and inf * 0 at the boundary nodes is nan
    u = sine_bump(interval_mesh)
    with pytest.raises(ValueError, match="nodal values must be finite"):
        u * (1.0 / 1e-320)


def test_zero_boundary_flag_enforced(interval_mesh):
    values = np.ones(interval_mesh.num_nodes)
    with pytest.raises(ValueError):
        DiscreteFunction(interval_mesh, values, zero_boundary=True)
    u = DiscreteFunction(interval_mesh, values).zero_on_boundary()
    assert u.zero_boundary
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


def test_mixed_mesh_arithmetic_rejected(interval_mesh, square_mesh):
    u = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes))
    v = DiscreteFunction(square_mesh, np.zeros(square_mesh.num_nodes))
    with pytest.raises(ValueError):
        u + v


def test_values_at_consistent_with_basis(square_mesh):
    rng = np.random.default_rng(9)
    u = random_nodal(square_mesh, rng, zero_boundary=False)
    basis = square_mesh.basis_at(2)
    expected = np.einsum("qv,ev->eq", basis, u.values[square_mesh.elements])
    np.testing.assert_allclose(u.values_at(2), expected, atol=0.0)


def test_writing_into_values_at_changes_nothing_else(interval_mesh, dp_phase):
    u = sine_bump(interval_mesh)
    before = luxemburg_norm(u, dp_phase, "value")
    first = u.values_at(4)
    first[:] = 0.0
    assert u.values_at(4) is not first
    assert luxemburg_norm(u, dp_phase, "value") == before > 0.0
