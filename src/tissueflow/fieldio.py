"""CSV and binary legacy-VTK serialization for grid fields.

CSV layout: a two-line comment header ``# nx ny hx hy x_min y_min`` and
``# <values>`` followed by one row per x index (``n0 n1`` for the face
components of a vector field).  Values are written with 17 significant
digits, so the round trip through ``read_scalar_csv`` is bit-exact for
float64; this is the format ``[q] source = file`` reads.

VTK layout: legacy ``STRUCTURED_POINTS`` with the cell centres as points
and a ``BINARY`` payload of big-endian float64, x varying fastest;
vectors are cell-centred (u, v, 0) triples.  ParaView reads it as is.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, ScalarField, VectorField

_FMT = "%.17g"


def _write_csv(arr: np.ndarray, spec: GridSpec, path, names: str) -> None:
    """The bytes ``np.savetxt`` writes, with the body formatted in one call."""
    n0, n1 = arr.shape
    geometry = " ".join(_FMT % v for v in (spec.hx, spec.hy, spec.x_min, spec.y_min))
    row = ",".join([_FMT] * n1) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# {names} hx hy x_min y_min\n# {n0} {n1} {geometry}\n")
        fh.write((row * n0) % tuple(arr.ravel().tolist()))


def _write_vtk(data: np.ndarray, spec: GridSpec, path, name: str,
               attribute: str) -> None:
    """Header lines, then ``data`` (x fastest) as big-endian float64."""
    header = ("# vtk DataFile Version 3.0", name, "BINARY",
              "DATASET STRUCTURED_POINTS", f"DIMENSIONS {spec.nx} {spec.ny} 1",
              f"ORIGIN {spec.x_min + 0.5 * spec.hx} {spec.y_min + 0.5 * spec.hy} 0",
              f"SPACING {spec.hx} {spec.hy} 1", f"POINT_DATA {spec.nx * spec.ny}",
              attribute)
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(np.ascontiguousarray(data, dtype=">f8").tobytes())


def write_scalar_csv(field: ScalarField, path) -> None:
    _write_csv(field.values, field.spec, path, "nx ny")


def write_vector_csv(field: VectorField, path_u, path_v) -> None:
    """Face components as two scalar-style CSVs (shapes differ from cells)."""
    _write_csv(field.u, field.spec, path_u, "n0 n1")
    _write_csv(field.v, field.spec, path_v, "n0 n1")


def read_scalar_csv(path, grid: GridSpec | None = None) -> ScalarField:
    """The field of a CSV; on ``grid`` if the header records grid's cells."""
    with open(path) as fh:
        first, meta = fh.readline(), fh.readline().lstrip("#").split()
        if not first.startswith("#") or len(meta) != 6:
            raise ValueError(f"{path}: missing or malformed CSV header")
        nx, ny = int(meta[0]), int(meta[1])
        hx, hy, x_min, y_min = map(float, meta[2:])
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.shape != (nx, ny):
        raise ValueError(f"{path}: data shape {values.shape} != ({nx}, {ny})")
    spec = GridSpec(x_min, x_min + nx * hx, y_min, y_min + ny * hy, nx, ny)
    if grid is not None and (nx, ny, hx, hy, x_min, y_min) == (
            grid.nx, grid.ny, grid.hx, grid.hy, grid.x_min, grid.y_min):
        spec = grid
    return ScalarField(spec, values)


def write_scalar_vtk(field: ScalarField, path, name: str = "field") -> None:
    _write_vtk(field.values.T, field.spec, path, name,
               f"SCALARS {name} double 1\nLOOKUP_TABLE default")


def write_vector_vtk(field: VectorField, path) -> None:
    uc, vc = field.cell_centered()
    _write_vtk(np.stack([uc.T, vc.T, np.zeros_like(uc.T)], axis=-1), field.spec,
               path, "velocity", "VECTORS velocity double")
