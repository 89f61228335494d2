"""CSV and VTK artifacts: round trips and format checks."""

import csv
import json

import numpy as np
import pytest

from dpkit.cli import main
from dpkit.fem import DiscreteFunction, Mesh, build_interval_mesh, build_rect_mesh
from dpkit.io import (
    load_mesh,
    load_solution,
    save_mesh,
    save_solution,
    save_vtk,
)


def test_mesh_roundtrip_1d(tmp_path, interval_mesh):
    save_mesh(interval_mesh, tmp_path)
    loaded = load_mesh(tmp_path)
    np.testing.assert_array_equal(loaded.nodes, interval_mesh.nodes)
    np.testing.assert_array_equal(loaded.elements, interval_mesh.elements)
    np.testing.assert_array_equal(loaded.boundary_nodes, interval_mesh.boundary_nodes)


def test_mesh_roundtrip_2d(tmp_path, square_mesh):
    save_mesh(square_mesh, tmp_path)
    loaded = load_mesh(tmp_path)
    np.testing.assert_array_equal(loaded.nodes, square_mesh.nodes)
    np.testing.assert_array_equal(loaded.elements, square_mesh.elements)


def test_mesh_csv_headers(tmp_path, square_mesh):
    save_mesh(square_mesh, tmp_path)
    assert (tmp_path / "nodes.csv").read_text().splitlines()[0] == "node_index,x,y"
    assert (
        tmp_path / "elements.csv"
    ).read_text().splitlines()[0] == "element_index,v0,v1,v2"
    assert (tmp_path / "boundary.csv").read_text().splitlines()[0] == "node_index"


def test_solution_roundtrip_exact(tmp_path, interval_mesh):
    rng = np.random.default_rng(0)
    u = DiscreteFunction(interval_mesh, rng.standard_normal(interval_mesh.num_nodes))
    path = tmp_path / "u.csv"
    save_solution(path, u)
    header = path.read_text().splitlines()[0]
    assert header == "node_index,x,value"
    # 17 significant digits round-trip doubles exactly
    values = load_solution(path, interval_mesh)
    np.testing.assert_array_equal(values, u.values)


def test_solution_node_count_mismatch(tmp_path, interval_mesh):
    other = build_interval_mesh(0.0, 1.0, 8)
    u = DiscreteFunction(other, np.zeros(other.num_nodes))
    path = tmp_path / "u.csv"
    save_solution(path, u)
    with pytest.raises(ValueError, match="nodes"):
        load_solution(path, interval_mesh)


def test_solution_detects_missing_nodes(tmp_path, interval_mesh):
    path = tmp_path / "u.csv"
    n = interval_mesh.num_nodes
    rows = ["node_index,value"] + [f"{i},1.0" for i in range(n - 1)] + ["0,2.0"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        load_solution(path, interval_mesh)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_solution_rejects_non_finite_values(tmp_path, interval_mesh, bad):
    path = tmp_path / "u.csv"
    n = interval_mesh.num_nodes
    rows = ["node_index,value"] + [f"{i},1.0" for i in range(n - 1)] + [f"{n - 1},{bad}"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="finite"):
        load_solution(path, interval_mesh)


def test_vtk_structure_2d(tmp_path, square_mesh):
    u = DiscreteFunction(square_mesh, np.arange(square_mesh.num_nodes, dtype=float))
    path = tmp_path / "u.vtk"
    save_vtk(path, u)
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert f"POINTS {square_mesh.num_nodes} double" in text
    assert "CELL_TYPES" in text and "POINT_DATA" in text
    # triangles carry VTK cell type 5
    lines = text.splitlines()
    start = lines.index(f"CELL_TYPES {square_mesh.num_elements}") + 1
    assert lines[start].strip() == "5"


def test_vtk_structure_1d(tmp_path, interval_mesh):
    u = DiscreteFunction(interval_mesh, np.zeros(interval_mesh.num_nodes))
    path = tmp_path / "u.vtk"
    save_vtk(path, u)
    text = path.read_text()
    assert "SCALARS u double 1" in text
    lines = text.splitlines()
    start = lines.index(f"CELL_TYPES {interval_mesh.num_elements}") + 1
    assert lines[start].strip() == "3"  # VTK line element


@pytest.mark.parametrize(
    "name, row, bad_row",
    [
        ("elements.csv", "0,0,1", "0,0,99"),
        ("elements.csv", "3,3,4", "3,3,-1"),
        ("boundary.csv", "0", "-1"),
        ("nodes.csv", "1,0.03125", "0,0.03125"),
        ("nodes.csv", "1,0.03125", "33,0.03125"),
    ],
    ids=[
        "element-past-end",
        "negative-element",
        "negative-boundary",
        "duplicate-node",
        "node-past-end",
    ],
)
def test_load_mesh_rejects_bad_indices(tmp_path, capsys, interval_mesh, name, row, bad_row):
    save_mesh(interval_mesh, tmp_path)
    text = (tmp_path / name).read_text()
    assert f"\n{row}\n" in text
    (tmp_path / name).write_text(text.replace(f"\n{row}\n", f"\n{bad_row}\n"))
    with pytest.raises(ValueError):
        load_mesh(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "mesh": {"kind": "files", "path": "."},
                "fields": {"p": 2.0, "q": 3.0, "mu": 1.0},
                "problem": {"kind": "rhs", "expr": "1"},
                "output_dir": "out",
            }
        )
    )
    assert main(["solve", str(cfg), "--no-timestamp"]) == 2
    assert "configuration error: cannot load mesh" in capsys.readouterr().err


def test_load_mesh_rejects_an_empty_boundary_file(tmp_path, capsys, square_mesh):
    save_mesh(square_mesh, tmp_path)
    (tmp_path / "boundary.csv").write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        load_mesh(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "mesh": {"kind": "files", "path": "."},
                "problem": {"kind": "builtin", "name": "poisson-2d"},
                "output_dir": "out",
            }
        )
    )
    assert main(["solve", str(cfg), "--no-timestamp"]) == 2
    assert "configuration error: cannot load mesh" in capsys.readouterr().err


def test_load_mesh_reads_a_header_only_boundary_file(tmp_path):
    # save_mesh writes just the header when the mesh has no boundary nodes
    mesh = build_interval_mesh(0.0, 1.0, 4)
    save_mesh(Mesh(mesh.nodes, mesh.elements, np.array([], dtype=np.intp)), tmp_path)
    assert (tmp_path / "boundary.csv").read_bytes() == b"node_index\r\n"
    loaded = load_mesh(tmp_path)
    assert loaded.boundary_nodes.size == 0
    np.testing.assert_array_equal(loaded.elements, mesh.elements)


def test_load_mesh_places_nodes_by_index(tmp_path, square_mesh):
    save_mesh(square_mesh, tmp_path)
    header, *rows = (tmp_path / "nodes.csv").read_text().splitlines()
    # each row keeps its own node_index; only the order in the file changes
    (tmp_path / "nodes.csv").write_text("\n".join([header, *rows[::-1]]) + "\n")
    loaded = load_mesh(tmp_path)
    assert loaded.nodes.tobytes() == square_mesh.nodes.tobytes()
    np.testing.assert_array_equal(loaded.elements, square_mesh.elements)


# Reference writers: the row-by-row csv.writer and _fmt formatting that the
# one-pass table formatting in dpkit.io must reproduce byte for byte.


def _fmt(x):
    return format(float(x), ".17g")


def _reference_save_mesh(mesh, directory):
    coords = ["x", "y"][: mesh.dim]
    with open(directory / "nodes.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", *coords])
        for i, row in enumerate(mesh.nodes):
            writer.writerow([i, *map(_fmt, row)])
    with open(directory / "elements.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element_index", *[f"v{k}" for k in range(mesh.dim + 1)]])
        for i, row in enumerate(mesh.elements):
            writer.writerow([i, *map(int, row)])
    with open(directory / "boundary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index"])
        for i in mesh.boundary_nodes:
            writer.writerow([int(i)])


def _reference_save_solution(path, u):
    mesh = u.mesh
    coords = ["x", "y"][: mesh.dim]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", *coords, "value"])
        for i in range(mesh.num_nodes):
            writer.writerow([i, *map(_fmt, mesh.nodes[i]), _fmt(u.values[i])])


def _reference_save_vtk(path, u, name="u"):
    mesh = u.mesh
    cell_type = 3 if mesh.dim == 1 else 5
    nverts = mesh.dim + 1
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{name} on a {mesh.dim}d mesh\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.num_nodes} double\n")
        for row in mesh.nodes:
            padded = list(row) + [0.0] * (3 - mesh.dim)
            fh.write(" ".join(map(_fmt, padded)) + "\n")
        fh.write(f"CELLS {mesh.num_elements} {mesh.num_elements * (nverts + 1)}\n")
        for row in mesh.elements:
            fh.write(" ".join(map(str, [nverts, *map(int, row)])) + "\n")
        fh.write(f"CELL_TYPES {mesh.num_elements}\n")
        for _ in range(mesh.num_elements):
            fh.write(f"{cell_type}\n")
        fh.write(f"POINT_DATA {mesh.num_nodes}\n")
        fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        for v in u.values:
            fh.write(_fmt(v) + "\n")


def _edge_value_mesh(dim):
    """A mesh whose coordinates include -0.0, a subnormal and negatives."""
    if dim == 1:
        base = build_interval_mesh(-1e300, 0.0, 6)
    else:
        base = build_rect_mesh((-3.0, 0.0), (-1.0, 1.0), 4, 3)
    nodes = base.nodes.copy()
    nodes[nodes == 0.0] = -0.0
    nodes[np.argmax(nodes[:, 0]), 0] = 5e-324
    return Mesh(nodes, base.elements, base.boundary_nodes)


@pytest.mark.parametrize("dim", [1, 2])
def test_writers_match_the_row_by_row_reference(tmp_path, dim):
    mesh = _edge_value_mesh(dim)
    rng = np.random.default_rng(dim)
    values = rng.standard_normal(mesh.num_nodes) * 10.0 ** rng.integers(-30, 30, mesh.num_nodes)
    values[:4] = [-0.0, 5e-324, 1e300, -2.5]
    u = DiscreteFunction(mesh, values)
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    save_mesh(mesh, new)
    save_solution(new / "solution.csv", u)
    save_vtk(new / "solution.vtk", u)
    _reference_save_mesh(mesh, ref)
    _reference_save_solution(ref / "solution.csv", u)
    _reference_save_vtk(ref / "solution.vtk", u)
    for name in ["nodes.csv", "elements.csv", "boundary.csv", "solution.csv", "solution.vtk"]:
        assert (new / name).read_bytes() == (ref / name).read_bytes(), name
    loaded = load_mesh(new)
    assert loaded.nodes.tobytes() == mesh.nodes.tobytes()
    assert loaded.elements.tobytes() == mesh.elements.tobytes()
    assert loaded.boundary_nodes.tobytes() == mesh.boundary_nodes.tobytes()
    assert load_solution(new / "solution.csv", mesh).tobytes() == values.tobytes()
