"""Semi-implicit finite-volume time stepping for the two-tissue models.

One step: pressures from the current densities, Brinkman solves for the
velocities (pressure lagged), explicit advection and growth, then the
fourth-order interface-penalty flux by a linearly stabilised stage: the
constant-coefficient biharmonic part is implicit (one cosine-transform
solve), the variable-weight remainder explicit, and the resulting face
fluxes are limited face by face so the densities stay nonnegative and
their sum stays under the step's ceiling.  The time step is CFL-limited
by the face velocities.  A step whose total density would push the
congestion pressure past a cap tied to the homeostatic pressures is
rejected and retried with half the time step.  The model without
repulsion runs through the same kernel with the repulsion pressure and
the fourth-order stage switched off, so the two models agree bitwise on
inputs where the repulsion vanishes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .brinkman import (neumann_cell_inverse, solve_brinkman,
                       solve_brinkman_gradient_form)
from .constitutive import (DELTA_CLAMP, ClampCounter, ModelParams, growth,
                           pressure_congestion, total_pressures)
from .grid import GridSpec, ScalarField, VectorField, gradient, laplacian
# unused here; perfbench/spans.py rebinds both names in this module
from .operators import cell_laplacian_neumann, weighted_cell_flux_divergence  # noqa: F401

VELOCITY_FLOOR = 1e-12
PRESSURE_CAP_FACTOR = 10.0   # pressure cap in units of max(p1*, p2*)


class StepFailure(RuntimeError):
    """Step could not satisfy its CFL or pressure-cap constraint within the
    halving budget."""


class InitialDataError(ValueError):
    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


@dataclass(frozen=True)
class StepControl:
    dt: float = 1e-3
    cfl_number: float = 0.4
    t_end: float = 0.1
    model: str = "ESVM"                 # "ESVM" | "VM"
    velocity_law: str = "dirichlet"     # "dirichlet" | "gradient"
    scheme: str = "upwind"              # "upwind" | "sharp"
    max_halvings: int = 20

    def __post_init__(self):
        if not (0.0 < self.cfl_number <= 1.0):
            raise ValueError("cfl_number must lie in (0, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.model not in ("ESVM", "VM"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.velocity_law not in ("dirichlet", "gradient"):
            raise ValueError(f"unknown velocity law {self.velocity_law!r}")
        if self.scheme not in ("sharp", "upwind"):
            raise ValueError(f"unknown advection scheme {self.scheme!r}")


@dataclass(frozen=True)
class SimState:
    t: float
    n1: ScalarField
    n2: ScalarField
    v1: VectorField
    v2: VectorField
    p1: ScalarField
    p2: ScalarField
    counters: ClampCounter
    dt_last: float = 0.0

    @property
    def mass1(self) -> float:
        return self.n1.integral()

    @property
    def mass2(self) -> float:
        return self.n2.integral()


def _solve_velocity(p: ScalarField, beta: float, ctrl: StepControl) -> VectorField:
    if ctrl.velocity_law == "gradient":
        return solve_brinkman_gradient_form(p, beta)
    return solve_brinkman(p, beta)


def _upwind_fluxes(n: np.ndarray, vel: VectorField):
    """Donor-cell face fluxes; boundary faces carry zero velocity hence zero flux."""
    fu = np.zeros_like(vel.u)
    ui = vel.u[1:-1, :]
    fu[1:-1, :] = np.where(ui > 0.0, ui * n[:-1, :], ui * n[1:, :])
    fv = np.zeros_like(vel.v)
    vi = vel.v[:, 1:-1]
    fv[:, 1:-1] = np.where(vi > 0.0, vi * n[:, :-1], vi * n[:, 1:])
    return fu, fv


def _flux_divergence(fu: np.ndarray, fv: np.ndarray, spec: GridSpec) -> np.ndarray:
    return (fu[1:, :] - fu[:-1, :]) / spec.hx + (fv[:, 1:] - fv[:, :-1]) / spec.hy


def upwind_flux_divergence(n: np.ndarray, vel: VectorField) -> np.ndarray:
    """Donor-cell div(n*v)."""
    fu, fv = _upwind_fluxes(n, vel)
    return _flux_divergence(fu, fv, vel.spec)


def _limited_downwind_face_values(arr, u, h, dt, axis):
    """Anti-diffusive face reconstruction for one direction.

    Picks the face value closest to the downwind cell value within the
    interval that keeps the donor cell inside the range spanned by its
    upwind neighbourhood, so material contacts stay a cell or two wide
    instead of smearing diffusively.
    """
    if axis == 1:
        arr = arr.T
        u = u.T
    n_donor = np.where(u > 0.0, arr[:-1, :], arr[1:, :])
    n_down = np.where(u > 0.0, arr[1:, :], arr[:-1, :])
    pad = np.concatenate([arr[:1], arr, arr[-1:]], axis=0)
    n_up = np.where(u > 0.0, pad[0:-3, :], pad[3:, :])
    nu = np.maximum(np.abs(u) * dt / h, 1e-12)
    lo_env = np.minimum(n_up, n_donor)
    hi_env = np.maximum(n_up, n_donor)
    b_lo = n_donor + (n_donor - hi_env) * (1.0 - nu) / nu
    b_hi = n_donor + (n_donor - lo_env) * (1.0 - nu) / nu
    lo = np.maximum(np.minimum(n_donor, n_down), b_lo)
    hi = np.minimum(np.maximum(n_donor, n_down), b_hi)
    face = np.where(lo > hi, n_donor, np.clip(n_down, lo, hi))
    if axis == 1:
        face = face.T
    return face


def _limited_downwind_fluxes(n: np.ndarray, vel: VectorField, dt: float):
    spec = vel.spec
    fu = np.zeros_like(vel.u)
    ui = vel.u[1:-1, :]
    fu[1:-1, :] = ui * _limited_downwind_face_values(n, ui, spec.hx, dt, axis=0)
    fv = np.zeros_like(vel.v)
    vi = vel.v[:, 1:-1]
    fv[:, 1:-1] = vi * _limited_downwind_face_values(n, vi, spec.hy, dt, axis=1)
    return fu, fv


def _neighborhood_max(a: np.ndarray) -> np.ndarray:
    p = np.pad(a, 1, mode="edge")
    out = a.copy()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            out = np.maximum(out, p[1 + dx:p.shape[0] - 1 + dx,
                                    1 + dy:p.shape[1] - 1 + dy])
    return out


def _limit_fluxes(n_lo, fluxes, dt: float, spec: GridSpec, upper):
    """Zalesak's face-by-face flux limiter for the two species at once.

    ``fluxes`` holds each species' antidiffusive face fluxes (fu, fv), full
    face arrays with zero wall faces, that would take the low-order
    densities ``n_lo`` to ``n_lo - dt*div(f)``.  Returns the fluxes scaled
    face by face so that each species stays >= 0 and n1 + n2 stays <=
    ``upper`` (a scalar or a cell field) wherever ``n_lo`` does.  The
    lower bound limits each species' own outflow; the joint upper bound
    limits the sum of both species' inflows.
    """
    cx, cy = dt / spec.hx, dt / spec.hy

    def inflow(fu, fv):   # the outflow is the inflow of -f
        return (cx * (np.maximum(fu[:-1, :], 0.0) - np.minimum(fu[1:, :], 0.0))
                + cy * (np.maximum(fv[:, :-1], 0.0) - np.minimum(fv[:, 1:], 0.0)))

    def ratio(room, flow):
        r = np.ones_like(flow)
        np.divide(room, flow, out=r, where=flow > 0.0)
        return np.clip(r, 0.0, 1.0)

    r_in = ratio(upper - (n_lo[0] + n_lo[1]),
                 inflow(*fluxes[0]) + inflow(*fluxes[1]))
    out = []
    for n, (fu, fv) in zip(n_lo, fluxes):
        r_out = ratio(n, inflow(-fu, -fv))
        # f > 0 on a face flows from the lower-index cell to the higher one
        cu = np.ones_like(fu)
        cu[1:-1, :] = np.where(fu[1:-1, :] > 0.0,
                               np.minimum(r_out[:-1, :], r_in[1:, :]),
                               np.minimum(r_out[1:, :], r_in[:-1, :]))
        cv = np.ones_like(fv)
        cv[:, 1:-1] = np.where(fv[:, 1:-1] > 0.0,
                               np.minimum(r_out[:, :-1], r_in[:, 1:]),
                               np.minimum(r_out[:, 1:], r_in[:, :-1]))
        out.append((cu * fu, cv * fv))
    return out


def sharp_flux_divergences(n1: np.ndarray, n2: np.ndarray,
                           v1: VectorField, v2: VectorField, dt: float):
    """Flux-corrected anti-diffusive div(n_i*v_i) for both species at once.

    Donor-cell fluxes are corrected toward the limited-downwind fluxes
    through ``_limit_fluxes``, with the donor-cell prediction as the
    low-order solution: each species stays nonnegative, and the total
    density cannot exceed the local 3x3 maximum of the donor-cell
    prediction; the two species would otherwise each satisfy their own
    maximum principle while their sum compresses past the congestion
    ceiling at a shared interface.
    """
    spec = v1.spec
    flo = [_upwind_fluxes(n1, v1), _upwind_fluxes(n2, v2)]
    fhi = [_limited_downwind_fluxes(n1, v1, dt),
           _limited_downwind_fluxes(n2, v2, dt)]
    n_lo = [n - dt * _flux_divergence(*f, spec) for n, f in zip((n1, n2), flo)]
    upper = np.maximum(_neighborhood_max(n_lo[0] + n_lo[1]),
                       _neighborhood_max(n1 + n2))
    anti = [(hu - lu, hv - lv) for (lu, lv), (hu, hv) in zip(flo, fhi)]
    limited = _limit_fluxes(n_lo, anti, dt, spec, upper)
    out = [_flux_divergence(lu + au, lv + av, spec)
           for (lu, lv), (au, av) in zip(flo, limited)]
    return out[0], out[1]


def _pressures(n1: ScalarField, n2: ScalarField, params: ModelParams,
               with_repulsion: bool, counter: ClampCounter):
    if with_repulsion:
        return total_pressures(n1, n2, params, counter)
    total = ScalarField(n1.spec, n1.values + n2.values)
    p = pressure_congestion(total, params.eps, counter)
    return p, p


def init_state(n1_0: ScalarField, n2_0: ScalarField, params: ModelParams,
               ctrl: StepControl | None = None) -> SimState:
    """Validate initial densities and solve the initial velocities."""
    ctrl = ctrl or StepControl()
    if n1_0.spec != n2_0.spec:
        raise InitialDataError("density fields live on different grids")
    for name, f in (("n1", n1_0), ("n2", n2_0)):
        neg = f.values < 0.0
        if neg.any():
            idx = tuple(int(k) for k in np.argwhere(neg)[0])
            raise InitialDataError(f"{name} negative at cell {idx}", cell=idx)
    over = n1_0.values + n2_0.values >= 1.0
    if over.any():
        idx = tuple(int(k) for k in np.argwhere(over)[0])
        raise InitialDataError(f"n1+n2 >= 1 at cell {idx}", cell=idx)

    counter = ClampCounter()
    with_rep = ctrl.model == "ESVM"
    p1, p2 = _pressures(n1_0, n2_0, params, with_rep, counter)
    v1 = _solve_velocity(p1, params.beta1, ctrl)
    v2 = _solve_velocity(p2, params.beta2, ctrl)
    return SimState(t=0.0, n1=n1_0, n2=n2_0, v1=v1, v2=v2, p1=p1, p2=p2,
                    counters=counter)


def _cfl_dt(ctrl: StepControl, spec: GridSpec, vmax: float) -> float:
    bound = ctrl.cfl_number * min(spec.hx, spec.hy) / max(vmax, VELOCITY_FLOOR)
    dt = ctrl.dt
    halvings = 0
    while dt > bound:
        dt *= 0.5
        halvings += 1
        if halvings > ctrl.max_halvings:
            raise StepFailure(
                f"CFL bound {bound:.3e} unreachable from dt={ctrl.dt:.3e} "
                f"within {ctrl.max_halvings} halvings (max face speed {vmax:.3e})")
    return dt


def _fourth_order_fluxes(n_star: np.ndarray, n_old: np.ndarray,
                         spec: GridSpec, alpha: float, dt: float):
    """Unlimited stabilised fourth-order stage of one species.

    With W the arithmetic face means of ``n_old``, S = max(W) and
    B = div(W grad .), the increment delta = n_new - n_star solves
    (I + dt*alpha*S*Lap^2) delta = -dt*alpha*B*Lap n_star (zero-flux
    walls): the constant-weight biharmonic part is implicit, the
    variable-weight remainder explicit.  Returns (delta, (fu, fv)) with
    the face fluxes f = alpha*(W grad Lap n_star + S grad Lap delta), so
    that delta = -dt*div(f).
    """
    wu = np.zeros((spec.nx + 1, spec.ny))
    wu[1:-1, :] = 0.5 * (n_old[1:, :] + n_old[:-1, :])
    wv = np.zeros((spec.nx, spec.ny + 1))
    wv[:, 1:-1] = 0.5 * (n_old[:, 1:] + n_old[:, :-1])
    s = max(wu.max(), wv.max())
    g = gradient(laplacian(ScalarField(spec, n_star)))
    fu, fv = alpha * wu * g.u, alpha * wv * g.v
    delta = neumann_cell_inverse(-dt * _flux_divergence(fu, fv, spec),
                                 dt * alpha * s, spec, power=2)
    g = gradient(laplacian(ScalarField(spec, delta)))
    fu += (alpha * s) * g.u
    fv += (alpha * s) * g.v
    return delta, (fu, fv)


def _implicit_fourth_order(n_star, n_old, spec: GridSpec, alpha: float,
                           dt: float, ceiling: float):
    """Fourth-order stage of both species, limited face by face.

    ``n_star`` and ``n_old`` are pairs of density arrays.  The stage's
    face fluxes (``_fourth_order_fluxes``) are limited against n_star, so
    mass is conserved, each species stays >= 0 and n1 + n2 stays <=
    ``ceiling`` wherever n_star does.
    """
    fluxes = [_fourth_order_fluxes(ns, no, spec, alpha, dt)[1]
              for ns, no in zip(n_star, n_old)]
    limited = _limit_fluxes(n_star, fluxes, dt, spec, ceiling)
    return [ns - dt * _flux_divergence(fu, fv, spec)
            for ns, (fu, fv) in zip(n_star, limited)]


def pressure_cap(params: ModelParams) -> float:
    """Largest congestion pressure an accepted step may create."""
    return PRESSURE_CAP_FACTOR * max(params.p1_star, params.p2_star)


def _tentative_densities(state: SimState, v1: VectorField, v2: VectorField,
                         p1: ScalarField, p2: ScalarField, params: ModelParams,
                         scheme: str, alpha: float, dt: float, ceiling: float):
    """Explicit transport and growth, then the fourth-order stage.

    Returns (n1, n2, number of cells cut to zero).
    """
    spec = state.n1.spec
    if scheme == "sharp":
        adv1, adv2 = sharp_flux_divergences(state.n1.values, state.n2.values,
                                            v1, v2, dt)
    else:
        adv1 = upwind_flux_divergence(state.n1.values, v1)
        adv2 = upwind_flux_divergence(state.n2.values, v2)

    old = (state.n1.values, state.n2.values)
    new_densities = []
    for n, adv, p, which in ((old[0], adv1, p1, 1), (old[1], adv2, p2, 2)):
        reac = np.maximum(n, 0.0) * growth(p, which, params).values
        new_densities.append(n - dt * adv + dt * reac)
    if alpha > 0.0:
        new_densities = _implicit_fourth_order(new_densities, old, spec,
                                               alpha, dt, ceiling)
    cut = 0
    for k, n_new in enumerate(new_densities):
        neg = n_new < 0.0
        if neg.any():
            cut += int(neg.sum())
            new_densities[k] = np.where(neg, 0.0, n_new)
    return new_densities[0], new_densities[1], cut


def _advance(state: SimState, ctrl: StepControl, params: ModelParams,
             with_repulsion: bool, alpha: float) -> SimState:
    """One accepted step.

    The trial dt is the CFL step, at most twice the last accepted one.  A
    trial whose n1+n2 would raise the congestion pressure above
    ``pressure_cap`` (or above the current maximum, if that is higher) is
    rejected and retried at half the dt; the retries share the
    ``max_halvings`` budget below ``ctrl.dt``.  The fourth-order stage is
    limited to the same ceiling and to zero, so beyond roundoff only
    transport and growth can cross either.  The negativity cut does not
    reject.
    """
    spec = state.n1.spec
    counter = copy.copy(state.counters)

    p1, p2 = _pressures(state.n1, state.n2, params, with_repulsion, counter)
    v1 = _solve_velocity(p1, params.beta1, ctrl)
    v2 = _solve_velocity(p2, params.beta2, ctrl)

    vmax = max(v1.max_face_speed(), v2.max_face_speed())
    dt = _cfl_dt(ctrl, spec, vmax)
    if state.dt_last > 0.0:
        dt = min(dt, 2.0 * state.dt_last)
    remaining = ctrl.t_end - state.t
    if 0.0 < remaining < dt:
        dt = remaining

    cap = pressure_cap(params)
    ceiling = max(cap / (cap + params.eps),
                  float((state.n1.values + state.n2.values).max()))
    dt_min = ctrl.dt * 0.5 ** ctrl.max_halvings
    while True:
        n1_new, n2_new, cut = _tentative_densities(
            state, v1, v2, p1, p2, params, ctrl.scheme, alpha, dt, ceiling)
        total = n1_new + n2_new
        if total.max() <= ceiling:
            break
        dt *= 0.5
        if dt < dt_min:
            raise StepFailure(
                f"n1+n2 exceeds {ceiling:.6g} (congestion pressure cap "
                f"{cap:.3g}) at every dt down to {2.0 * dt:.3e}, the "
                f"{ctrl.max_halvings}-halving limit below dt={ctrl.dt:.3e}")
    counter.negativity += cut

    # last resort: reachable only when the ceiling lies within DELTA_CLAMP of 1
    over = total > 1.0 - DELTA_CLAMP
    if over.any():
        counter.sum_rescale += int(over.sum())
        scale = np.ones_like(total)
        np.divide(1.0 - DELTA_CLAMP, total, out=scale, where=over)
        n1_new = n1_new * scale
        n2_new = n2_new * scale

    n1f = ScalarField(spec, n1_new)
    n2f = ScalarField(spec, n2_new)
    return SimState(t=state.t + dt, n1=n1f, n2=n2f, v1=v1, v2=v2,
                    p1=p1, p2=p2, counters=counter, dt_last=dt)


def step_esvm(state: SimState, ctrl: StepControl, params: ModelParams,
              zero_repulsion: bool = False) -> SimState:
    """One step of the model with repulsion pressure and interface penalty."""
    return _advance(state, ctrl, params,
                    with_repulsion=not zero_repulsion, alpha=params.alpha)


def step_vm(state: SimState, ctrl: StepControl, params: ModelParams) -> SimState:
    """One step of the congestion-only model (no repulsion, no fourth order)."""
    return _advance(state, ctrl, params, with_repulsion=False, alpha=0.0)


def run(state, ctrl: StepControl, params: ModelParams,
        observers=(), observe_every: int = 1, step=None):
    """Step to ctrl.t_end; returns (records, final state).

    ``step(state, ctrl, params)`` advances one step; by default it is
    ``step_esvm`` or ``step_vm`` as ``ctrl.model`` says, and the
    sharp-interface limit passes ``freeboundary.step_limit``.  Observers
    are callables (state, params) -> record; they fire every
    ``observe_every`` steps and once on the final state.
    """
    if ctrl.t_end < state.t:
        raise ValueError("t_end precedes current state time")
    records = []

    def notify(s):
        for obs in observers:
            records.append(obs(s, params))

    if step is None:
        step = step_esvm if ctrl.model == "ESVM" else step_vm
    k = 0
    while state.t < ctrl.t_end - 1e-14:
        state = step(state, ctrl, params)
        k += 1
        if k % observe_every == 0:
            notify(state)
    if k % observe_every != 0 or k == 0:
        notify(state)
    return records, state
