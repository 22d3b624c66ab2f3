import csv
from dataclasses import replace

import numpy as np
import pytest

from tissueflow.constitutive import ModelParams
from tissueflow.diagnostics import (DiagnosticRecord, complementarity_residual,
                                    curl_signature, mixedness, observe,
                                    segregation_metric, write_records_csv)
from tissueflow.dynamics import StepControl, init_state, run
from tissueflow.grid import GridSpec, ScalarField, VectorField
from tissueflow.harness import PRESETS, sweep, write_sweep_csv


def test_segregation_metric_values():
    spec = GridSpec(nx=16, ny=16)
    a = ScalarField(spec, np.full((16, 16), 0.5))
    z = ScalarField.zeros(spec)
    # disjoint supports give exactly zero
    assert segregation_metric(a, z) == 0.0
    # uniform 0.5 against itself: 0.25 * |domain| = 0.25 * 4
    assert segregation_metric(a, a) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        segregation_metric(a, ScalarField.zeros(GridSpec(nx=8, ny=8)))


def test_segregation_metric_symmetry_and_scaling():
    spec = GridSpec(nx=12, ny=12)
    rng = np.random.default_rng(0)
    n1 = ScalarField(spec, rng.uniform(0.0, 0.5, (12, 12)))
    n2 = ScalarField(spec, rng.uniform(0.0, 0.5, (12, 12)))
    assert segregation_metric(n1, n2) == pytest.approx(
        segregation_metric(n2, n1))
    half = ScalarField(spec, 0.5 * n1.values)
    assert segregation_metric(half, n2) == pytest.approx(
        0.5 * segregation_metric(n1, n2))


def test_complementarity_residual_identity():
    # p_eps(n)*(1-n) = eps*n algebraically, so the residual is eps times
    # the resident mass on the active cells
    spec = GridSpec(nx=16, ny=16)
    n = ScalarField(spec, np.full((16, 16), 0.9))
    eps = 0.1
    expected = eps * 0.9 * 4.0
    assert complementarity_residual(n, eps) == pytest.approx(expected)
    # scales linearly when eps shrinks at fixed density
    ratios = [complementarity_residual(n, e) for e in (0.1, 0.05, 0.01)]
    assert ratios[0] / ratios[1] == pytest.approx(2.0)
    assert ratios[0] / ratios[2] == pytest.approx(10.0)
    assert complementarity_residual(ScalarField.zeros(spec), eps) == 0.0


def test_mixedness_values():
    spec = GridSpec(nx=16, ny=16)
    assert mixedness(ScalarField.zeros(spec)) == 0.0
    ones = ScalarField(spec, np.ones((16, 16)))
    assert mixedness(ones) == 0.0
    half = ScalarField(spec, np.full((16, 16), 0.5))
    assert mixedness(half) == pytest.approx(1.0)  # 0.25 * |domain|


def test_curl_signature_zero_and_rigid_rotation():
    spec = GridSpec(nx=32, ny=32)
    sig = curl_signature(VectorField.zeros(spec))
    assert sig.posterior_left_mean == 0.0
    assert sig.posterior_right_mean == 0.0
    assert sig.anterior_sign_changes == 0
    rot = VectorField.from_functions(spec, lambda x, y: -y, lambda x, y: x)
    sig = curl_signature(rot)
    assert sig.posterior_left_mean == pytest.approx(2.0)
    assert sig.posterior_right_mean == pytest.approx(2.0)
    assert sig.anterior_sign_changes == 0


def test_curl_signature_mask_and_orientation():
    spec = GridSpec(nx=32, ny=32)
    rot = VectorField.from_functions(spec, lambda x, y: -y, lambda x, y: x)
    empty = np.zeros((32, 32), dtype=bool)
    sig = curl_signature(rot, mask=empty)
    assert sig.posterior_left_mean == 0.0 and sig.posterior_right_mean == 0.0
    # curl = x + y: anatomical left is the large-x strip, and the
    # posterior half is the lower one (y < 0, mean -0.5)
    tilted = VectorField.from_functions(spec, lambda x, y: -0.5 * y**2,
                                        lambda x, y: 0.5 * x**2)
    sig = curl_signature(tilted)
    assert sig.posterior_left_mean == pytest.approx(0.25)
    assert sig.posterior_right_mean == pytest.approx(-1.25)
    assert sig.anterior_sign_changes == 1


def test_observe_and_records_csv(tmp_path):
    spec = GridSpec(nx=16, ny=16)
    xx, yy = spec.cell_center_mesh()
    n1 = ScalarField(spec, 0.9 * ((np.abs(xx) < 0.5) & (yy < 0.0)))
    n2 = ScalarField(spec, 0.9 * ((np.abs(xx) >= 0.5) & (yy < 0.0)))
    params = ModelParams()
    ctrl = StepControl(dt=1e-3, t_end=0.003)
    state = init_state(n1, n2, params, ctrl)
    records, _ = run(state, ctrl, params, observers=(observe,))
    assert len(records) == 3
    assert records[-1].t == pytest.approx(0.003)
    assert records[0].mass1 > 0.0

    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(DiagnosticRecord.CSV_COLUMNS)
    assert len(rows) == 1 + len(records)
    assert float(rows[1][0]) == records[0].t


def _sweep_config(t_end, *tuples):
    # the fig3-esvm bands and parameters are ModelParams' defaults
    eps, m, alpha = zip(*tuples)
    return replace(PRESETS["fig3-esvm"], grid=GridSpec(nx=16, ny=16),
                   t_end=t_end, sweep_eps=eps, sweep_m=m, sweep_alpha=alpha)


def test_limit_sweep_rows_and_csv(tmp_path):
    rows = sweep(_sweep_config(0.004, (0.1, 30.0, 1e-3), (0.05, 60.0, 5e-4)))
    assert len(rows) == 2
    for row in rows:
        assert "error" not in row
        assert row["overlap"] >= 0.0
        assert row["comp_residual"] > 0.0
    assert rows[1]["eps"] == 0.05

    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    with open(path) as fh:
        out = list(csv.reader(fh))
    assert out[0][0] == "eps" and len(out) == 3


def test_limit_sweep_annotates_failures(tmp_path):
    rows = sweep(_sweep_config(0.002, (0.1, 30.0, -1.0), (0.1, 30.0, 1e-3)))
    assert isinstance(rows[0]["error"], ValueError)
    assert "alpha" in str(rows[0]["error"])
    assert "error" not in rows[1]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    with open(path) as fh:
        out = list(csv.reader(fh))
    assert out[1][-1].startswith("ValueError: ") and out[2][-1] == ""
