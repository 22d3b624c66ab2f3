"""Quantitative run certificates: segregation, complementarity, curl structure.

The complementarity residual uses the algebraic identity
p(n)*(1-n) = eps*n of the singular congestion law, so on the cells where
the pressure is active it equals eps times the resident mass and scales
linearly in eps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .constitutive import DELTA_CLAMP, ModelParams, pressure_congestion
from .grid import ScalarField, VectorField, curl2d

PRESSURE_ACTIVE_THRESHOLD = 1e-10


@dataclass(frozen=True)
class DiagnosticRecord:
    t: float
    mass1: float
    mass2: float
    overlap: float
    comp_residual: float
    max_abs_curl_v2: float
    min_curl_v2: float
    clamp_count: int

    CSV_COLUMNS = ("t", "mass1", "mass2", "overlap", "comp_residual",
                   "max_abs_curl_v2", "min_curl_v2", "clamp_count")

    def row(self):
        return [getattr(self, c) for c in self.CSV_COLUMNS]


def segregation_metric(n1: ScalarField, n2: ScalarField) -> float:
    """Integral of the overlap n1*n2; zero iff supports are disjoint."""
    if n1.spec != n2.spec:
        raise ValueError("fields live on different grids")
    return float((n1.values * n2.values).sum() * n1.spec.cell_area)


def complementarity_residual(n: ScalarField, eps: float) -> float:
    """L1 norm of p_eps(n)*(1-n) over cells with active pressure."""
    p = pressure_congestion(n, eps)
    active = p.values > PRESSURE_ACTIVE_THRESHOLD
    nv = np.minimum(n.values, 1.0 - DELTA_CLAMP)
    res = p.values * (1.0 - nv)
    return float(res[active].sum() * n.spec.cell_area)


def mixedness(n: ScalarField) -> float:
    """Integral of n*(1-n): distance of the density profile from {0,1}."""
    return float((n.values * (1.0 - n.values)).sum() * n.spec.cell_area)


def observe(state, params: ModelParams) -> DiagnosticRecord:
    """Standard observer for dynamics.run."""
    curl = curl2d(state.v2)
    return DiagnosticRecord(
        t=state.t,
        mass1=state.mass1,
        mass2=state.mass2,
        overlap=segregation_metric(state.n1, state.n2),
        comp_residual=complementarity_residual(
            ScalarField(state.n1.spec, state.n1.values + state.n2.values),
            params.eps),
        max_abs_curl_v2=float(np.abs(curl.values).max()),
        min_curl_v2=float(curl.values.min()),
        clamp_count=state.counters.total,
    )


def write_records_csv(records, path, columns=None) -> None:
    """DiagnosticRecords, or plain rows under `columns`, one per line;
    floats with 17 significant digits, so they read back bit-exact."""
    rows = records if columns else [rec.row() for rec in records]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns or DiagnosticRecord.CSV_COLUMNS)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v
                             for v in row])


@dataclass(frozen=True)
class CurlSignature:
    posterior_left_mean: float
    posterior_right_mean: float
    anterior_sign_changes: int


def curl_signature(v2: VectorField,
                   mask: np.ndarray | None = None) -> CurlSignature:
    """Wall-vortex signature of the lateral tissue's velocity.

    Means of the curl over the anatomical-left and anatomical-right
    quarter strips of the posterior (lower) half, plus the count of sign
    changes along the horizontal line a quarter-height into the
    posterior half, exact zeros skipped.  Left/right follow the imaging
    convention for a dorsally viewed embryo, where the subject's left
    appears on the viewer's right; anatomical left is therefore the
    large-x strip.  An optional cell mask restricts the strip means
    (e.g. to the tissue support); an empty masked strip contributes a
    zero mean.
    """
    spec = v2.spec
    curl = curl2d(v2).values
    nx, ny = spec.nx, spec.ny
    rows = slice(0, ny // 2)
    if mask is None:
        mask = np.ones((nx, ny), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)

    def strip_mean(cols):
        vals = curl[cols, rows][mask[cols, rows]]
        return float(vals.mean()) if vals.size else 0.0

    left_mean = strip_mean(slice(3 * nx // 4, nx))    # anatomical left
    right_mean = strip_mean(slice(0, nx // 4))        # anatomical right
    signs = np.sign(curl[:, ny // 4])
    signs = signs[signs != 0.0]
    changes = int(np.count_nonzero(np.diff(signs))) if signs.size else 0
    return CurlSignature(left_mean, right_mean, changes)
