"""File exchange: mesh CSV triplets, solution CSV and legacy VTK.

All floats are written with 17 significant digits so that a load/dump round
trip is bit-exact and reruns produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .fem import DiscreteFunction, Mesh

__all__ = [
    "save_mesh",
    "load_mesh",
    "save_solution",
    "load_solution",
    "save_vtk",
    "load_node_table",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_mesh(mesh: Mesh, directory) -> None:
    """Write nodes.csv, elements.csv, boundary.csv into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
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


def _read_rows(path: Path, what: str) -> list:
    if not path.is_file():
        raise FileNotFoundError(f"missing {what} file {path}")
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[1:]  # drop header


def load_mesh(directory) -> Mesh:
    """Rebuild a mesh from the CSV triplet written by :func:`save_mesh`."""
    directory = Path(directory)
    node_rows = _read_rows(directory / "nodes.csv", "node")
    nodes = np.array([[float(v) for v in row[1:]] for row in node_rows])
    elem_rows = _read_rows(directory / "elements.csv", "element")
    elements = np.array([[int(v) for v in row[1:]] for row in elem_rows])
    bdry_path = directory / "boundary.csv"
    if not bdry_path.is_file():
        raise FileNotFoundError(f"missing boundary file {bdry_path}")
    with open(bdry_path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    boundary = np.array([int(row[0]) for row in rows[1:]], dtype=np.intp)
    n = nodes.shape[0]
    if elements.size and (elements.min() < 0 or elements.max() >= n):
        raise ValueError("element connectivity references nonexistent nodes")
    if boundary.size and (boundary.min() < 0 or boundary.max() >= n):
        raise ValueError("boundary list references nonexistent nodes")
    return Mesh(nodes, elements, boundary)


def save_solution(path, u: DiscreteFunction) -> None:
    """Write ``node_index,x[,y],value`` rows for a nodal function."""
    mesh = u.mesh
    coords = ["x", "y"][: mesh.dim]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_index", *coords, "value"])
        for i in range(mesh.num_nodes):
            writer.writerow([i, *map(_fmt, mesh.nodes[i]), _fmt(u.values[i])])


def load_solution(path, mesh: Mesh) -> np.ndarray:
    """Read nodal values written by :func:`save_solution` back onto ``mesh``.

    Accepts both the full format (with coordinates) and the bare
    ``node_index,value`` form; raises ValueError if the node count differs.
    """
    rows = _read_rows(Path(path), "solution")
    values = np.full(mesh.num_nodes, np.nan)
    if len(rows) != mesh.num_nodes:
        raise ValueError(
            f"solution has {len(rows)} rows but the mesh has {mesh.num_nodes} nodes"
        )
    for row in rows:
        idx = int(row[0])
        if not 0 <= idx < mesh.num_nodes:
            raise ValueError(f"node index {idx} outside the mesh")
        values[idx] = float(row[-1])
    if np.any(np.isnan(values)):
        raise ValueError("solution file does not cover every node exactly once")
    return values


def load_node_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a (node_index, value) CSV used by table field specs."""
    rows = _read_rows(Path(path), "table")
    idx = np.array([int(row[0]) for row in rows], dtype=np.intp)
    vals = np.array([float(row[-1]) for row in rows])
    return idx, vals


def save_vtk(path, u: DiscreteFunction, name: str = "u") -> None:
    """Write a legacy-ASCII VTK unstructured grid with one point scalar."""
    mesh = u.mesh
    cell_type = 3 if mesh.dim == 1 else 5  # VTK_LINE / VTK_TRIANGLE
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

