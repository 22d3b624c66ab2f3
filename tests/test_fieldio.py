import numpy as np
import pytest

from tissueflow.fieldio import (read_scalar_csv, write_scalar_csv,
                                write_scalar_vtk, write_vector_csv,
                                write_vector_vtk)
from tissueflow.grid import GridSpec, ScalarField, VectorField


def test_scalar_csv_header_layout(tmp_path):
    spec = GridSpec(nx=4, ny=4)
    path = tmp_path / "f.csv"
    write_scalar_csv(ScalarField.zeros(spec), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# nx ny hx hy x_min y_min"
    assert lines[1].split() == ["#", "4", "4", "0.5", "0.5", "-1", "-1"]
    assert len(lines) == 2 + 4
    assert lines[2].count(",") == 3


def test_read_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError):
        read_scalar_csv(bad)
    two_tokens = tmp_path / "meta.csv"
    two_tokens.write_text("# nx ny\n# 3 3\n1,2,3\n")
    with pytest.raises(ValueError):
        read_scalar_csv(two_tokens)
    truncated = tmp_path / "short.csv"
    truncated.write_text("# nx ny hx hy x_min y_min\n# 3 3 0.5 0.5 0 0\n1,2,3\n")
    with pytest.raises(ValueError):
        read_scalar_csv(truncated)


def test_vector_csv_shapes(tmp_path):
    spec = GridSpec(nx=6, ny=5)
    rng = np.random.default_rng(2)
    vec = VectorField(spec, rng.standard_normal((7, 5)),
                      rng.standard_normal((6, 6)))
    pu, pv = tmp_path / "u.csv", tmp_path / "v.csv"
    write_vector_csv(vec, pu, pv)
    u_lines = pu.read_text().splitlines()
    v_lines = pv.read_text().splitlines()
    assert u_lines[1].split()[1:3] == ["7", "5"]
    assert v_lines[1].split()[1:3] == ["6", "6"]
    assert len(u_lines) == 2 + 7 and len(v_lines) == 2 + 6


def _read_vtk(path, n_header):
    """The first ``n_header`` lines and the big-endian float64 payload."""
    *header, payload = path.read_bytes().split(b"\n", n_header)
    return [ln.decode() for ln in header], np.frombuffer(payload, ">f8")


def test_scalar_vtk_structure(tmp_path):
    spec = GridSpec(nx=4, ny=4)
    vals = np.arange(16.0).reshape(4, 4)
    path = tmp_path / "f.vtk"
    write_scalar_vtk(ScalarField(spec, vals), path, name="density")
    lines, data = _read_vtk(path, 10)
    assert lines[0].startswith("# vtk DataFile")
    assert lines[1:3] == ["density", "BINARY"]
    assert "STRUCTURED_POINTS" in lines[3]
    assert lines[4] == "DIMENSIONS 4 4 1"
    assert lines[7] == "POINT_DATA 16"
    assert lines[8:] == ["SCALARS density double 1", "LOOKUP_TABLE default"]
    # x varies fastest: the first four values are values[:, 0]
    assert data[:4].tolist() == [0.0, 4.0, 8.0, 12.0]
    assert data.tobytes() == vals.T.astype(">f8").tobytes()


def test_vector_vtk_structure(tmp_path):
    spec = GridSpec(nx=4, ny=4)
    vec = VectorField.from_functions(spec, lambda x, y: x, lambda x, y: y)
    path = tmp_path / "v.vtk"
    write_vector_vtk(vec, path)
    lines, data = _read_vtk(path, 9)
    assert lines[1:3] == ["velocity", "BINARY"]
    assert lines[4] == "DIMENSIONS 4 4 1"
    assert lines[7] == "POINT_DATA 16"
    assert lines[8] == "VECTORS velocity double"
    tuples = data.reshape(16, 3)
    # every tuple carries a zero z component; x varies fastest
    assert (tuples[:, 2] == 0.0).all()
    uc, vc = vec.cell_centered()
    expected = np.stack([uc.T, vc.T], axis=-1).reshape(16, 2)
    assert tuples[:, :2].tobytes() == expected.astype(">f8").tobytes()


def test_scalar_csv_bytes_are_savetxt_bytes(tmp_path):
    spec = GridSpec(-1.0, 1.0, -0.5, 1.0, 6, 9)
    values = np.random.default_rng(3).standard_normal((6, 9))
    values[0, :] = 0.0
    values[1, 2], values[3, 4], values[5, 8] = -0.0, 5e-324, -2.5e-310
    path = tmp_path / "f.csv"
    write_scalar_csv(ScalarField(spec, values), path)
    geometry = " ".join("%.17g" % v for v in (spec.hx, spec.hy, spec.x_min,
                                               spec.y_min))
    np.savetxt(tmp_path / "ref.csv", values, fmt="%.17g", delimiter=",",
               comments="# ", header=f"nx ny hx hy x_min y_min\n6 9 {geometry}")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert read_scalar_csv(path, spec).values.tobytes() == values.tobytes()
