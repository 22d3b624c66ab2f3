"""Pressure laws, repulsion law, growth functions and related checks.

The congestion pressure eps*n/(1-n) is singular at n=1, so densities are
clamped at 1 - DELTA_CLAMP before evaluation and every clamp event is
counted.  The repulsion law (m/(m-1))*((1+r)^(m-1) - 1) is evaluated in
log space so exponents up to m ~ 1e6 stay representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField

DELTA_CLAMP = 1e-8
_MAX_FINITE = np.finfo(float).max


@dataclass
class ClampCounter:
    """Mutable tally of saturation events, shared with diagnostics."""

    congestion: int = 0
    repulsion_overflow: int = 0
    negativity: int = 0     # cells cut to zero after an update
    sum_rescale: int = 0    # cells rescaled onto n1+n2 = 1 - DELTA_CLAMP

    @property
    def total(self) -> int:
        return (self.congestion + self.repulsion_overflow + self.negativity
                + self.sum_rescale)


@dataclass(frozen=True)
class ModelParams:
    beta1: float = 0.5
    beta2: float = 0.1
    eps: float = 0.1
    m: float = 30.0
    alpha: float = 0.001
    g1: float = 1.0
    g2: float = 1.0
    p1_star: float = 5.0
    p2_star: float = 10.0

    def __post_init__(self):
        if self.beta1 <= 0 or self.beta2 <= 0:
            raise ValueError("viscosities must be positive")
        if self.eps <= 0:
            raise ValueError("congestion parameter eps must be positive")
        if self.m <= 1:
            raise ValueError("repulsion exponent m must exceed 1")
        if self.alpha < 0:
            raise ValueError("fourth-order coefficient alpha must be >= 0")
        if self.g1 <= 0 or self.g2 <= 0:
            raise ValueError("growth slopes must be positive")
        if self.p1_star < 0 or self.p2_star < 0:
            raise ValueError("homeostatic pressures must be nonnegative")


def _clamped_total(n: np.ndarray, counter: ClampCounter | None):
    over = n > 1.0 - DELTA_CLAMP
    if over.any():
        if counter is not None:
            counter.congestion += int(over.sum())
        n = np.where(over, 1.0 - DELTA_CLAMP, n)
    return n


def pressure_congestion(n: ScalarField, eps: float,
                        counter: ClampCounter | None = None) -> ScalarField:
    """Congestion pressure eps*n/(1-n), clamped below the n=1 singularity."""
    vals = _clamped_total(n.values, counter)
    return ScalarField(n.spec, eps * vals / (1.0 - vals))


def repulsion_scalar(r, m: float):
    """Repulsion law on raw arrays; log-space power to dodge overflow."""
    r = np.asarray(r, dtype=float)
    return (m / (m - 1.0)) * np.expm1((m - 1.0) * np.log1p(r))


def pressure_repulsion(r: ScalarField, m: float,
                       counter: ClampCounter | None = None) -> ScalarField:
    """Repulsion pressure of the overlap r = n1*n2; saturates on overflow."""
    if (r.values < 0).any():
        raise ValueError("overlap field must be nonnegative")
    with np.errstate(over="ignore"):
        q = repulsion_scalar(r.values, m)
    bad = ~np.isfinite(q)
    if bad.any():
        if counter is not None:
            counter.repulsion_overflow += int(bad.sum())
        q = np.where(bad, _MAX_FINITE, q)
    return ScalarField(r.spec, q)


def total_pressures(n1: ScalarField, n2: ScalarField, params: ModelParams,
                    counter: ClampCounter | None = None):
    """Tissue pressures (p1, p2): congestion of the sum plus weighted repulsion.

    On segregated data (n1*n2 == 0) both collapse to the congestion pressure.
    """
    n = ScalarField(n1.spec, n1.values + n2.values)
    p_cong = pressure_congestion(n, params.eps, counter)
    q = pressure_repulsion(ScalarField(n1.spec, n1.values * n2.values),
                           params.m, counter)
    p1 = ScalarField(n1.spec, p_cong.values + n2.values * q.values)
    p2 = ScalarField(n1.spec, p_cong.values + n1.values * q.values)
    return p1, p2


def growth(p: ScalarField, which: int, params: ModelParams) -> ScalarField:
    """Linear growth G_i(p) = g_i*(p_i* - p); zero at the homeostatic pressure."""
    g, p_star = ((params.g1, params.p1_star) if which == 1
                 else (params.g2, params.p2_star))
    return ScalarField(p.spec, g * (p_star - p.values))


@dataclass(frozen=True)
class CoercivityReport:
    holds: bool
    margins: tuple[float, float]  # (beta1*g2 - 1/4, beta2*g1 - 1/4)

    def warning_line(self) -> str:
        m1, m2 = self.margins
        status = "holds" if self.holds else "VIOLATED (sufficient condition only)"
        return f"coercivity condition {status}: margins ({m1:.6g}, {m2:.6g})"


def coercivity_check(params: ModelParams) -> CoercivityReport:
    """Strict check of beta1*g2 > 1/4 and beta2*g1 > 1/4."""
    m1 = params.beta1 * params.g2 - 0.25
    m2 = params.beta2 * params.g1 - 0.25
    return CoercivityReport(holds=(m1 > 0.0 and m2 > 0.0), margins=(m1, m2))
