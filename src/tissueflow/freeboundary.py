"""Sharp-interface evolution of the incompressible-limit tissue models.

Each tissue occupies a moving subdomain tracked by a continuous level
field (a volume-of-fluid style indicator between 0 and 1); every step
solves the stationary velocity system on the current 0/1 partition,
advects each level field with its own tissue velocity, and rethresholds
at 1/2.  The limit repulsion pressure q rides along: its evolution law
becomes a plain conservative transport with linear source after the
substitution s = log(q + 1), which keeps q >= 0 structurally.  L-VM is
L-ESVM with q = 0: it starts from q = 0, which transport keeps at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import ModelParams
from .dynamics import StepControl, run, step_size, upwind_flux_divergence
from .grid import GridSpec, ScalarField, VectorField, divergence
from .stationary import (DomainPartition, StationarySolution, solve_stationary)

MIN_SUBDOMAIN_CELLS = 4
LEVEL_THRESHOLD = 0.5


class VanishingSubdomain(RuntimeError):
    """A tissue subdomain shrank below the resolvable cell count."""

    def __init__(self, which: int, cells: int, t: float):
        super().__init__(f"tissue {which} support fell to {cells} cells "
                         f"(< {MIN_SUBDOMAIN_CELLS}) at t={t:.6g}")
        self.which = which


@dataclass(frozen=True)
class LimitState:
    t: float
    part: DomainPartition
    level1: ScalarField        # continuous indicators behind the partition
    level2: ScalarField
    sol: StationarySolution    # latest stationary solve on `part`

    @property
    def q(self) -> ScalarField:
        """Limit repulsion pressure, stored once: the solve's, 0 outside
        the tissues."""
        return self.sol.q

    @property
    def spec(self) -> GridSpec:
        return self.part.spec

    def areas(self):
        a = self.spec.cell_area
        n1, n2 = self.part.cell_counts()
        return n1 * a, n2 * a


def init_limit_state(part: DomainPartition, params: ModelParams,
                     q0: ScalarField | None = None) -> LimitState:
    """Start from a sharp partition; ``q0`` must be nonnegative.  The state
    keeps the q of its stationary solve, which defaults and checks it."""
    if q0 is not None and (q0.values < 0).any():
        raise ValueError("limit repulsion pressure must be nonnegative")
    sol = solve_stationary(part, params, q0)
    return LimitState(0.0, part, part.chi1, part.chi2, sol)


def _advect_level(level: np.ndarray, vel: VectorField, dt: float) -> np.ndarray:
    """Advective (non-conservative) upwind transport of a level field."""
    flux_div = upwind_flux_divergence(level, vel)
    div_v = divergence(vel).values
    # d level/dt + v . grad(level) = flux form minus level * div v
    out = level - dt * (flux_div - level * div_v)
    return np.clip(out, 0.0, 1.0)


def rethreshold(level1: np.ndarray, level2: np.ndarray):
    """Sharp 0/1 masks from level fields; ties go to the exterior.

    Cells claimed by both tissues are assigned to the larger level
    value, then to the lower tissue index on an exact draw.
    """
    in1 = level1 > LEVEL_THRESHOLD
    in2 = level2 > LEVEL_THRESHOLD
    both = in1 & in2
    keep1 = both & (level1 >= level2)
    chi1 = (in1 & ~both) | keep1
    chi2 = (in2 & ~both) | (both & ~keep1)
    return chi1.astype(float), chi2.astype(float)


def transport_q(state: LimitState, dt: float) -> ScalarField:
    """Advance the limit repulsion pressure by one explicit upwind step.

    On each tissue's subdomain the law transports s = log(q+1) with the
    *other* tissue's velocity and feeds it the other tissue's growth
    rate: ds/dt + div(s v_other) = s * G_other(p).  Exponentiating back
    keeps q >= 0 for any time step, and q = 0 stays exactly 0.  Outside
    the tissues q is 0 and stays 0; the next solve zeroes it outside the
    new partition.
    """
    params = state.sol.params
    s = np.log1p(state.q.values)
    p = state.sol.p.values

    s_new = s.copy()
    for chi, v_other, g_other, p_star in (
            (state.part.chi1, state.sol.v2, params.g2, params.p2_star),
            (state.part.chi2, state.sol.v1, params.g1, params.p1_star)):
        growth_other = g_other * (p_star - p)
        upd = s - dt * upwind_flux_divergence(s, v_other) + dt * s * growth_other
        s_new = np.where(chi.values == 1.0, upd, s_new)
    s_new = np.maximum(s_new, 0.0)
    return ScalarField(state.spec, np.expm1(s_new))


def step_limit(state: LimitState, ctrl: StepControl,
               params: ModelParams) -> LimitState:
    """One sharp-interface step: advect, rethreshold, transport q, solve.

    Both limit models take this step; L-VM is L-ESVM from q = 0, which
    ``transport_q`` keeps at 0.  The new solve zeroes q outside the new
    tissues.
    """
    sol = state.sol
    vmax = max(sol.v1.max_face_speed(), sol.v2.max_face_speed())
    dt = step_size(ctrl, state.spec, vmax, state.t)

    l1 = _advect_level(state.level1.values, sol.v1, dt)
    l2 = _advect_level(state.level2.values, sol.v2, dt)
    chi1, chi2 = rethreshold(l1, l2)
    t_new = state.t + dt
    previous = state.part.cell_counts()
    for which, chi in ((1, chi1), (2, chi2)):
        cells = int(chi.sum())
        # a tissue that was empty from the start stays legitimately empty
        if cells < MIN_SUBDOMAIN_CELLS and previous[which - 1] > 0:
            raise VanishingSubdomain(which, cells, t_new)
    part = DomainPartition(ScalarField(state.spec, chi1),
                           ScalarField(state.spec, chi2))

    sol_new = solve_stationary(part, params, transport_q(state, dt))
    return LimitState(t_new, part, ScalarField(state.spec, l1),
                      ScalarField(state.spec, l2), sol_new)


def run_limit(state: LimitState, ctrl: StepControl, params: ModelParams,
              observers=(), observe_every: int = 1):
    """Step to ctrl.t_end with ``step_limit`` through the dynamic run loop."""
    return run(state, ctrl, params, observers, observe_every, step=step_limit)


def complementarity_closure(part: DomainPartition, params: ModelParams,
                            sol: StationarySolution):
    """Residual fields of the divergence law div v_i = g_i (p_i* - p).

    The pressure reconstruction makes these vanish identically on each
    subdomain up to solver roundoff; nonzero values flag an
    inconsistent solution.  Returns (residual1, residual2) restricted
    to the respective subdomains.
    """
    d1 = divergence(sol.v1).values
    d2 = divergence(sol.v2).values
    r1 = (d1 - params.g1 * (params.p1_star - sol.p.values)) * part.chi1.values
    r2 = (d2 - params.g2 * (params.p2_star - sol.p.values)) * part.chi2.values
    spec = part.spec
    return ScalarField(spec, r1), ScalarField(spec, r2)


def write_partition_csv(part: DomainPartition, path) -> None:
    """0/1/2 cell labels, one row per x index."""
    np.savetxt(path, part.labels, fmt="%d", delimiter=",")
