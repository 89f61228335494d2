"""File exchange: mesh CSV triplets, solution CSV and legacy VTK.

Every writer formats a whole table in one printf-style pass
(:func:`_rows`): integers with ``%d`` and floats with ``%.17g``, the same
17 significant digits as ``format(x, ".17g")``, so that a load/dump round
trip is bit-exact and reruns produce byte-identical artifacts.  CSV files
use commas and ``\\r\\n`` line ends, as Python's ``csv`` module writes them;
VTK files use spaces and ``\\n``.  The readers place each row by its
``node_index`` column, not by its position in the file.  A solution CSV
(``node_index[,x[,y]],value``, every node once) is also what ``dpkit norm
--input`` and a config's ``table`` field read.
"""

from __future__ import annotations

import csv
from itertools import chain
from pathlib import Path

import numpy as np

from .fem import DiscreteFunction, Mesh

__all__ = [
    "save_mesh",
    "load_mesh",
    "save_solution",
    "load_solution",
    "save_vtk",
]


def _rows(row_fmt: str, *columns) -> str:
    """All rows of a table as one string: ``row_fmt`` formats one row, line
    end included, and ``columns`` are equal-length 1D arrays, one per field."""
    cols = [np.asarray(c).tolist() for c in columns]
    return (row_fmt * len(cols[0])) % tuple(chain.from_iterable(zip(*cols)))


def _write_csv(path, header: list, row_fmt: str, *columns) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(_rows(row_fmt + "\r\n", *columns))


def save_mesh(mesh: Mesh, directory) -> None:
    """Write nodes.csv, elements.csv, boundary.csv into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    coords = ["x", "y"][: mesh.dim]
    _write_csv(
        directory / "nodes.csv", ["node_index", *coords],
        ",".join(["%d"] + ["%.17g"] * mesh.dim),
        np.arange(mesh.num_nodes), *mesh.nodes.T,
    )
    _write_csv(
        directory / "elements.csv", ["element_index", *[f"v{k}" for k in range(mesh.dim + 1)]],
        ",".join(["%d"] * (mesh.dim + 2)),
        np.arange(mesh.num_elements), *mesh.elements.T,
    )
    _write_csv(directory / "boundary.csv", ["node_index"], "%d", mesh.boundary_nodes)


def _read_rows(path: Path, what: str) -> list:
    if not path.is_file():
        raise FileNotFoundError(f"missing {what} file {path}")
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[1:]  # drop header


def _check_node_index(index: np.ndarray, num_nodes: int) -> None:
    """Raise ValueError unless each entry names one of ``num_nodes`` nodes
    and no node is named twice."""
    if index.size and (index.min() < 0 or index.max() >= num_nodes):
        raise ValueError(f"node indices must lie in 0..{num_nodes - 1}")
    if np.unique(index).size != index.size:
        raise ValueError("node indices must not repeat")


def load_mesh(directory) -> Mesh:
    """Rebuild a mesh from the CSV triplet written by :func:`save_mesh`."""
    directory = Path(directory)
    node_rows = _read_rows(directory / "nodes.csv", "node")
    index = np.array([int(row[0]) for row in node_rows], dtype=np.intp)
    _check_node_index(index, index.size)
    coords = np.array([[float(v) for v in row[1:]] for row in node_rows])
    nodes = np.empty_like(coords)
    nodes[index] = coords
    elem_rows = _read_rows(directory / "elements.csv", "element")
    elements = np.array([[int(v) for v in row[1:]] for row in elem_rows])
    bdry_rows = _read_rows(directory / "boundary.csv", "boundary")
    boundary = np.array([int(row[0]) for row in bdry_rows], dtype=np.intp)
    return Mesh(nodes, elements, boundary)


def save_solution(path, u: DiscreteFunction) -> None:
    """Write ``node_index,x[,y],value`` rows for a nodal function."""
    mesh = u.mesh
    coords = ["x", "y"][: mesh.dim]
    _write_csv(
        path, ["node_index", *coords, "value"],
        ",".join(["%d"] + ["%.17g"] * (mesh.dim + 1)),
        np.arange(mesh.num_nodes), *mesh.nodes.T, u.values,
    )


def load_solution(path, mesh: Mesh) -> np.ndarray:
    """Read nodal values written by :func:`save_solution` back onto ``mesh``.

    Accepts both the full format (with coordinates) and the bare
    ``node_index,value`` form; raises ValueError if the node count differs,
    a row lacks an index or a value, a node index is out of range or
    repeats, or a value is not finite.
    """
    rows = _read_rows(Path(path), "solution")
    if len(rows) != mesh.num_nodes:
        raise ValueError(
            f"solution has {len(rows)} rows but the mesh has {mesh.num_nodes} nodes"
        )
    if any(len(row) < 2 for row in rows):
        raise ValueError("every row needs a node_index and a value")
    index = np.array([int(row[0]) for row in rows], dtype=np.intp)
    _check_node_index(index, mesh.num_nodes)
    values = np.empty(mesh.num_nodes)
    values[index] = [float(row[-1]) for row in rows]
    if not np.all(np.isfinite(values)):
        raise ValueError("solution values must be finite")
    return values


def save_vtk(path, u: DiscreteFunction) -> None:
    """Write a legacy-ASCII VTK unstructured grid with one point scalar, ``u``."""
    mesh = u.mesh
    cell_type = 3 if mesh.dim == 1 else 5  # VTK_LINE / VTK_TRIANGLE
    nverts = mesh.dim + 1
    pad = [np.zeros(mesh.num_nodes)] * (3 - mesh.dim)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"u on a {mesh.dim}d mesh\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.num_nodes} double\n")
        fh.write(_rows("%.17g %.17g %.17g\n", *mesh.nodes.T, *pad))
        fh.write(f"CELLS {mesh.num_elements} {mesh.num_elements * (nverts + 1)}\n")
        fh.write(
            _rows(
                " ".join(["%d"] * (nverts + 1)) + "\n",
                np.full(mesh.num_elements, nverts), *mesh.elements.T,
            )
        )
        fh.write(f"CELL_TYPES {mesh.num_elements}\n")
        fh.write(f"{cell_type}\n" * mesh.num_elements)
        fh.write(f"POINT_DATA {mesh.num_nodes}\n")
        fh.write("SCALARS u double 1\nLOOKUP_TABLE default\n")
        fh.write(_rows("%.17g\n", u.values))
