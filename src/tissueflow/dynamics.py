"""Semi-implicit finite-volume time stepping for the two-tissue models.

One step: pressures from the current densities, Brinkman solves for the
velocities (pressure lagged), explicit donor-cell advection, explicit
growth with a nonnegativity cutoff, and an implicit (Picard-linearized)
treatment of the fourth-order interface-penalty flux so the time step is
CFL-limited by the face velocities.  A step whose total density would push
the congestion pressure past a cap tied to the homeostatic pressures is
rejected and retried with half the time step.  The model without repulsion
runs through the same kernel with the repulsion pressure and the
fourth-order stage switched off, so the two models agree bitwise on
inputs where the repulsion vanishes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .brinkman import SolverConfig, solve_brinkman, solve_brinkman_gradient_form
from .constitutive import (DELTA_CLAMP, ClampCounter, ModelParams, growth,
                           pressure_congestion, total_pressures)
from .grid import GridSpec, ScalarField, VectorField, laplacian
from .operators import cell_laplacian_neumann, weighted_cell_flux_divergence

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
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(method="direct"))
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
    w1: ScalarField   # discrete Laplacian of n1 (relaxation variable)
    w2: ScalarField
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
        return solve_brinkman_gradient_form(p, beta, ctrl.solver)
    return solve_brinkman(p, beta, ctrl.solver)


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


def sharp_flux_divergences(n1: np.ndarray, n2: np.ndarray,
                           v1: VectorField, v2: VectorField, dt: float):
    """Flux-corrected anti-diffusive div(n_i*v_i) for both species at once.

    Donor-cell fluxes are corrected toward the limited-downwind fluxes,
    but the joint correction on each face is scaled back so the updated
    total density cannot exceed the local 3x3 maximum of the donor-cell
    prediction; the two species would otherwise each satisfy their own
    maximum principle while their sum compresses past the congestion
    ceiling at a shared interface.
    """
    spec = v1.spec
    hx, hy = spec.hx, spec.hy
    flo = [_upwind_fluxes(n1, v1), _upwind_fluxes(n2, v2)]
    fhi = [_limited_downwind_fluxes(n1, v1, dt),
           _limited_downwind_fluxes(n2, v2, dt)]
    au = [fhi[k][0] - flo[k][0] for k in (0, 1)]
    av = [fhi[k][1] - flo[k][1] for k in (0, 1)]

    n_lo = [n1 - dt * _flux_divergence(*flo[0], spec),
            n2 - dt * _flux_divergence(*flo[1], spec)]
    tot_lo = n_lo[0] + n_lo[1]
    q_plus = np.maximum(_neighborhood_max(tot_lo), _neighborhood_max(n1 + n2))

    au_t = au[0] + au[1]
    av_t = av[0] + av[1]
    incoming = (dt / hx) * (np.maximum(au_t[:-1, :], 0.0)
                            - np.minimum(au_t[1:, :], 0.0)) \
        + (dt / hy) * (np.maximum(av_t[:, :-1], 0.0)
                       - np.minimum(av_t[:, 1:], 0.0))
    headroom = np.maximum(q_plus - tot_lo, 0.0)
    r_plus = np.ones_like(incoming)
    active = incoming > 0.0
    np.divide(headroom, incoming, out=r_plus, where=active)
    r_plus = np.clip(r_plus, 0.0, 1.0)

    cu = np.ones_like(au_t)
    cu[1:-1, :] = np.where(au_t[1:-1, :] > 0.0, r_plus[1:, :], r_plus[:-1, :])
    cv = np.ones_like(av_t)
    cv[:, 1:-1] = np.where(av_t[:, 1:-1] > 0.0, r_plus[:, 1:], r_plus[:, :-1])

    out = []
    for k in (0, 1):
        fu = flo[k][0] + cu * au[k]
        fv = flo[k][1] + cv * av[k]
        out.append(_flux_divergence(fu, fv, spec))
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
                    w1=laplacian(n1_0), w2=laplacian(n2_0), counters=counter)


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


def _implicit_fourth_order(n_star: np.ndarray, n_old: np.ndarray,
                           spec: GridSpec, alpha: float, dt: float) -> np.ndarray:
    # (I + dt*alpha*B*Lap) n_new = n_star, B = div(n_old grad .), Lap zero-flux.
    # A is structurally symmetric (13-point stencil): minimum degree on
    # A + A^T fills about a third less than COLAMD, which orders for A^T A,
    # at 64^2 and 128^2 (but twice as much at 256^2; see ROADMAP).
    B = weighted_cell_flux_divergence(spec, n_old)
    lap = -cell_laplacian_neumann(spec)
    A = (sp.identity(spec.nx * spec.ny) + (dt * alpha) * (B @ lap)).tocsc()
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                   options=dict(SymmetricMode=True))
    return lu.solve(n_star.ravel()).reshape(spec.nx, spec.ny)


def pressure_cap(params: ModelParams) -> float:
    """Largest congestion pressure an accepted step may create."""
    return PRESSURE_CAP_FACTOR * max(params.p1_star, params.p2_star)


def _tentative_densities(state: SimState, v1: VectorField, v2: VectorField,
                         p1: ScalarField, p2: ScalarField, params: ModelParams,
                         scheme: str, alpha: float, dt: float):
    """Explicit transport and growth, then the implicit fourth-order stage.

    Returns (n1, n2, number of cells cut to zero).
    """
    spec = state.n1.spec
    if scheme == "sharp":
        adv1, adv2 = sharp_flux_divergences(state.n1.values, state.n2.values,
                                            v1, v2, dt)
    else:
        adv1 = upwind_flux_divergence(state.n1.values, v1)
        adv2 = upwind_flux_divergence(state.n2.values, v2)

    new_densities = []
    cut = 0
    for n, adv, p, which in ((state.n1, adv1, p1, 1), (state.n2, adv2, p2, 2)):
        reac = np.maximum(n.values, 0.0) * growth(p, which, params).values
        n_star = n.values - dt * adv + dt * reac
        if alpha > 0.0:
            n_new = _implicit_fourth_order(n_star, n.values, spec, alpha, dt)
        else:
            n_new = n_star
        neg = n_new < 0.0
        if neg.any():
            cut += int(neg.sum())
            n_new = np.where(neg, 0.0, n_new)
        new_densities.append(n_new)
    return new_densities[0], new_densities[1], cut


def _advance(state: SimState, ctrl: StepControl, params: ModelParams,
             with_repulsion: bool, alpha: float) -> SimState:
    """One accepted step.

    The trial dt is the CFL step, at most twice the last accepted one.  A
    trial whose n1+n2 would raise the congestion pressure above
    ``pressure_cap`` (or above the current maximum, if that is higher) is
    rejected and retried at half the dt; the retries share the
    ``max_halvings`` budget below ``ctrl.dt``.  The negativity cut does
    not reject: the implicit fourth-order stage undershoots zero slightly
    at every dt.
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
            state, v1, v2, p1, p2, params, ctrl.scheme, alpha, dt)
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
                    p1=p1, p2=p2, w1=laplacian(n1f), w2=laplacian(n2f),
                    counters=counter, dt_last=dt)


def step_esvm(state: SimState, ctrl: StepControl, params: ModelParams,
              zero_repulsion: bool = False) -> SimState:
    """One step of the model with repulsion pressure and interface penalty."""
    return _advance(state, ctrl, params,
                    with_repulsion=not zero_repulsion, alpha=params.alpha)


def step_vm(state: SimState, ctrl: StepControl, params: ModelParams) -> SimState:
    """One step of the congestion-only model (no repulsion, no fourth order)."""
    return _advance(state, ctrl, params, with_repulsion=False, alpha=0.0)


def run(state: SimState, ctrl: StepControl, params: ModelParams,
        observers=(), observe_every: int = 1):
    """Step to ctrl.t_end; returns (records, final state).

    Observers are callables (state, params) -> record; they fire every
    ``observe_every`` steps and once on the final state.
    """
    if ctrl.t_end < state.t:
        raise ValueError("t_end precedes current state time")
    records = []

    def notify(s):
        for obs in observers:
            records.append(obs(s, params))

    stepper = step_esvm if ctrl.model == "ESVM" else step_vm
    k = 0
    while state.t < ctrl.t_end - 1e-14:
        state = stepper(state, ctrl, params)
        k += 1
        if k % observe_every == 0:
            notify(state)
    if k % observe_every != 0 or k == 0:
        notify(state)
    return records, state
