"""Semi-implicit finite-volume time stepping for the two-tissue models.

One step: pressures from the current densities, Brinkman solves for the
velocities (pressure lagged; one solve for a pressure both tissues
share), explicit advection and growth, then the fourth-order
interface-penalty flux by a linearly stabilised stage: the
constant-coefficient biharmonic part is implicit (one cosine-transform
solve), the variable-weight remainder explicit, and the resulting face
fluxes are limited face by face so the densities stay nonnegative and
their sum stays under the step's ceiling.  The sharp advection scheme
corrects donor-cell fluxes toward limited-downwind ones, building only the
bound on the downwind value's side, under the same limiter and a 3x3
maximum taken in two separable passes.  Both stages and the limiter work
in one set of scratch arrays per grid shape (``_Scratch``): the
fourth-order stage writes grad(Lap) and its fluxes there and allocates
only its two new densities and its transform solves' arrays, and its
biharmonic symbol is a per-grid table of ``brinkman``.  The time step
is CFL-limited by the face velocities.  A step whose total density
would push the congestion pressure past a cap tied to the homeostatic
pressures (beyond roundoff) is rejected and retried with half the time
step; the donor-cell transport, the growth terms and the fourth-order
face weights do not depend on dt and are computed once per step.  The
model without repulsion runs through the same kernel with the repulsion
pressure and the fourth-order stage switched off, so the two models
agree bitwise on segregated data (n1*n2 == 0) at alpha = 0, where the
repulsion pressure is 0.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .brinkman import (neumann_cell_inverse, solve_brinkman,
                       solve_brinkman_gradient_form)
from .constitutive import (DELTA_CLAMP, ClampCounter, ModelParams, growth,
                           pressure_congestion, total_pressures)
from .grid import (GridSpec, ScalarField, VectorField, flux_divergence,
                   mirror_pad)
# unused here; perfbench/spans.py rebinds these names in this module
from .grid import laplacian  # noqa: F401
from .operators import cell_laplacian_neumann, weighted_cell_flux_divergence  # noqa: F401

VELOCITY_FLOOR = 1e-12
PRESSURE_CAP_FACTOR = 10.0   # pressure cap in units of max(p1*, p2*)
CEILING_ROUNDOFF = 1e-15     # n1+n2 a limited stage may leave over its ceiling
MAX_HALVINGS = 20            # a step's dt may fall to ctrl.dt / 2**MAX_HALVINGS


class StepFailure(RuntimeError):
    """Step could not satisfy its CFL or pressure-cap constraint within the
    halving budget."""


class InitialDataError(ValueError):
    """Initial densities a run cannot start from."""


@dataclass(frozen=True)
class StepControl:
    dt: float = 1e-3
    cfl_number: float = 0.4
    t_end: float = 0.1
    model: str = "ESVM"                 # "ESVM" | "VM"
    velocity_law: str = "dirichlet"     # "dirichlet" | "gradient"
    scheme: str = "upwind"              # "upwind" | "sharp"

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


def _solve_velocity(p: ScalarField, betas: tuple, ctrl: StepControl) -> tuple:
    if ctrl.velocity_law == "gradient":
        return solve_brinkman_gradient_form(p, betas)
    return solve_brinkman(p, betas)


def _upwind_fluxes(n: np.ndarray, vel: VectorField):
    """Donor-cell face fluxes; boundary faces carry zero velocity hence zero flux."""
    fu = np.zeros_like(vel.u)
    ui = vel.u[1:-1, :]
    fu[1:-1, :] = np.where(ui > 0.0, ui * n[:-1, :], ui * n[1:, :])
    fv = np.zeros_like(vel.v)
    vi = vel.v[:, 1:-1]
    fv[:, 1:-1] = np.where(vi > 0.0, vi * n[:, :-1], vi * n[:, 1:])
    return fu, fv


def upwind_flux_divergence(n: np.ndarray, vel: VectorField) -> np.ndarray:
    """Donor-cell div(n*v)."""
    fu, fv = _upwind_fluxes(n, vel)
    return flux_divergence(fu, fv, vel.spec)


def _part(a: np.ndarray, axis: int, start=None, stop=None) -> np.ndarray:
    """``a[start:stop]`` along ``axis``."""
    return a[start:stop] if axis == 0 else a[:, start:stop]


def _select(out, cond, a, b):
    """``np.where(cond, a, b)`` into ``out``."""
    np.copyto(out, b)
    np.copyto(out, a, where=cond)


class _Scratch:
    """Working arrays of the sharp transport, the fourth-order stage and
    the flux limiter on one grid shape.  Each species' donor-cell
    (``low``) and antidiffusive (``anti``) fluxes span all faces of an
    axis and keep zero walls; ``anti`` holds whatever fluxes go to the
    limiter, the stage's included, and ``n_lo`` the densities they
    correct.  Every call on the shape shares them, so a call must end
    before the next one starts; the package steps one state at a time."""

    def __init__(self, nx: int, ny: int):
        faces, inner = ((nx + 1, ny), (nx, ny + 1)), ((nx - 1, ny), (nx, ny - 1))

        def cells():
            return [np.empty((nx, ny)) for _ in range(2)]

        self.pad = np.empty((nx + 2, ny + 2))
        self.low = [[np.zeros(f) for f in faces] for _ in range(2)]
        self.anti = [[np.zeros(f) for f in faces] for _ in range(2)]
        self.parts = [[np.empty(f) for _ in range(2)] for f in faces]
        self.face = [[np.empty(f) for _ in range(5)] for f in inner]
        self.mask = [[np.empty(f, bool) for _ in range(2)] for f in inner]
        self.n_lo, self.inflow, self.r_out = cells(), cells(), cells()
        self.total, self.upper = cells()
        self.flow, self.work = cells()
        self.cell_mask = np.empty((nx, ny), bool)


_scratch = functools.lru_cache(maxsize=8)(_Scratch)   # one set per grid shape


def _sharp_face_fluxes(n, vel: VectorField, dt: float, low, anti, sc):
    """Donor-cell fluxes into ``low`` and limited-downwind minus donor-cell
    fluxes into ``anti``, on the interior faces of each axis.

    The face value is the one closest to the downwind value that keeps
    the donor cell inside the range of its upwind neighbourhood, so
    contacts stay a cell or two wide.  With nu = |u| dt/h <= 1 the donor
    value lies between the two bounds, so only the one on the downwind
    value's side can bind.  With nu > 1 they swap sides and the interval
    falls back to the donor value, as at nu = 1; so nu is capped at 1.
    """
    pad = mirror_pad(n, sc.pad)
    for axis, (vf, h) in enumerate(((vel.u, vel.spec.hx), (vel.v, vel.spec.hy))):
        line = pad[:, 1:-1] if axis == 0 else pad[1:-1, :]
        left, right, far_left, far_right = (_part(line, axis, a, b) for a, b in
                                            ((1, -2), (2, -1), (None, -3), (3, None)))
        u, lo, an = (_part(a, axis, 1, -1) for a in (vf, low[axis], anti[axis]))
        donor, down, bound, nu, w = sc.face[axis]
        pos, rise = sc.mask[axis]
        np.greater(u, 0.0, out=pos)
        _select(donor, pos, left, right)
        _select(down, pos, right, left)
        _select(bound, pos, far_left, far_right)      # upwind of the donor
        np.divide(np.multiply(np.abs(u, out=nu), dt, out=nu), h, out=nu)
        np.clip(nu, 1e-12, 1.0, out=nu)
        np.logical_not(np.greater_equal(down, donor, out=rise), out=pos)
        # the envelope's low end where the downwind value rises, else its top
        np.minimum(bound, donor, out=bound, where=rise)
        np.maximum(bound, donor, out=bound, where=pos)
        np.subtract(donor, bound, out=bound)
        bound *= np.subtract(1.0, nu, out=w)
        bound /= nu
        np.add(donor, bound, out=bound)               # upper bound where rise
        np.minimum(down, bound, out=down, where=rise)
        np.maximum(down, bound, out=down, where=pos)
        lo[...] = np.multiply(u, donor, out=donor)
        np.subtract(np.multiply(u, down, out=down), donor, out=an)


def _neighborhood_max(a: np.ndarray) -> np.ndarray:
    """Overwrites ``a`` with the maximum over each cell's 3x3
    neighbourhood, edges replicated, in two separable 3-point passes."""
    t = _scratch(*a.shape).work
    for src, dst, axis in ((a, t, 0), (t, a, 1)):
        np.maximum(_part(src, axis, None, -1), _part(src, axis, 1),
                   out=_part(dst, axis, None, -1))
        _part(dst, axis, -1)[...] = _part(src, axis, -1)
        np.maximum(_part(dst, axis, 1), _part(src, axis, None, -1),
                   out=_part(dst, axis, 1))
    return a


def _limit_fluxes(n_lo, fluxes, room, dt: float, spec: GridSpec):
    """Zalesak's face-by-face flux limiter for the two species at once.

    ``fluxes`` holds each species' antidiffusive face fluxes (fu, fv), full
    face arrays with zero wall faces, that would take the low-order
    densities ``n_lo`` to ``n_lo - dt*div(f)``.  Scales them in place, face
    by face, so that each species stays >= 0 and n1 + n2 rises by at most
    ``room`` (a cell array) wherever ``n_lo`` does.  The lower bound
    limits each species' own outflow; the joint upper bound limits the
    sum of both species' inflows.
    """
    sc = _scratch(spec.nx, spec.ny)
    cx, cy = dt / spec.hx, dt / spec.hy
    (pu, mu), (pv, mv) = sc.parts

    def net(out, a, b, c, d):    # cx*(a - b) + cy*(c - d)
        np.multiply(np.subtract(a, b, out=out), cx, out=out)
        out += np.multiply(np.subtract(c, d, out=sc.work), cy, out=sc.work)

    def ratio(limit, flow, out):  # clip(limit/flow, 0, 1) where flow > 0, else 1
        out.fill(1.0)
        np.divide(limit, flow, out=out, where=np.greater(flow, 0.0, out=sc.cell_mask))
        np.clip(out, 0.0, 1.0, out=out)

    for n, (fu, fv), inflow, r_out in zip(n_lo, fluxes, sc.inflow, sc.r_out):
        for f, p, m in ((fu, pu, mu), (fv, pv, mv)):
            np.maximum(f, 0.0, out=p)
            np.minimum(f, 0.0, out=m)
        net(inflow, pu[:-1], mu[1:], pv[:, :-1], mv[:, 1:])
        net(sc.flow, pu[1:], mu[:-1], pv[:, 1:], mv[:, :-1])   # outflow
        ratio(n, sc.flow, r_out)
    r_in = sc.inflow[0]
    ratio(room, np.add(*sc.inflow, out=sc.flow), r_in)
    for f, r_out in zip(fluxes, sc.r_out):
        for axis in (0, 1):
            f_in = _part(f[axis], axis, 1, -1)
            fwd, back = sc.face[axis][:2]
            # f > 0 on a face flows from the lower-index cell to the higher one
            np.minimum(_part(r_out, axis, None, -1), _part(r_in, axis, 1), out=fwd)
            np.minimum(_part(r_out, axis, 1), _part(r_in, axis, None, -1), out=back)
            np.putmask(back, np.greater(f_in, 0.0, out=sc.mask[axis][0]), fwd)
            f_in *= back


def sharp_flux_divergences(n1: np.ndarray, n2: np.ndarray,
                           v1: VectorField, v2: VectorField, dt: float):
    """Flux-corrected anti-diffusive div(n_i*v_i) for both species at once.

    Donor-cell fluxes are corrected toward the limited-downwind fluxes by
    ``_limit_fluxes`` against the donor-cell prediction: each species
    stays nonnegative, and the total density stays under the 3x3 maximum
    of the prediction and of n1 + n2, which a per-species maximum
    principle would not give at a shared interface.  Only the two
    returned arrays are new.
    """
    spec = v1.spec
    sc = _scratch(spec.nx, spec.ny)
    for n, vel, low, anti, n_lo in zip((n1, n2), (v1, v2), sc.low, sc.anti,
                                       sc.n_lo):
        _sharp_face_fluxes(n, vel, dt, low, anti, sc)
        flux_divergence(*low, spec, out=n_lo, tmp=sc.work)
        np.subtract(n, np.multiply(n_lo, dt, out=n_lo), out=n_lo)
    np.add(*sc.n_lo, out=sc.total)
    # the 3x3 maximum M has max(M(a), M(b)) = M(max(a, b))
    np.maximum(sc.total, np.add(n1, n2, out=sc.upper), out=sc.upper)
    room = np.subtract(_neighborhood_max(sc.upper), sc.total, out=sc.upper)
    _limit_fluxes(sc.n_lo, sc.anti, room, dt, spec)
    for low, anti in zip(sc.low, sc.anti):
        for lo, an in zip(low, anti):
            np.add(lo, an, out=an)
    return tuple(flux_divergence(*anti, spec, tmp=sc.work) for anti in sc.anti)


def _flow(n1: ScalarField, n2: ScalarField, params: ModelParams,
          with_repulsion: bool, ctrl: StepControl, counter: ClampCounter):
    """(p1, p2, v1, v2); one velocity solve when both share the pressure."""
    if with_repulsion:
        p1, p2 = total_pressures(n1, n2, params, counter)
        return (p1, p2, *_solve_velocity(p1, (params.beta1,), ctrl),
                *_solve_velocity(p2, (params.beta2,), ctrl))
    total = ScalarField(n1.spec, n1.values + n2.values)
    p = pressure_congestion(total, params.eps, counter)
    return (p, p, *_solve_velocity(p, (params.beta1, params.beta2), ctrl))


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
            raise InitialDataError(f"{name} negative at cell {idx}")
    over = n1_0.values + n2_0.values >= 1.0
    if over.any():
        idx = tuple(int(k) for k in np.argwhere(over)[0])
        raise InitialDataError(f"n1+n2 >= 1 at cell {idx}")

    counter = ClampCounter()
    p1, p2, v1, v2 = _flow(n1_0, n2_0, params, ctrl.model == "ESVM", ctrl,
                           counter)
    return SimState(t=0.0, n1=n1_0, n2=n2_0, v1=v1, v2=v2, p1=p1, p2=p2,
                    counters=counter)


def step_size(ctrl: StepControl, spec: GridSpec, vmax: float,
              t: float) -> float:
    """The step of both run families from time ``t``: ``ctrl.dt`` halved to
    the CFL bound of the largest face speed ``vmax``, then cut to end on
    ``ctrl.t_end``.  StepFailure after ``MAX_HALVINGS`` halvings."""
    bound = ctrl.cfl_number * min(spec.hx, spec.hy) / max(vmax, VELOCITY_FLOOR)
    dt = ctrl.dt
    halvings = 0
    while dt > bound:
        dt *= 0.5
        halvings += 1
        if halvings > MAX_HALVINGS:
            raise StepFailure(
                f"CFL bound {bound:.3e} unreachable from dt={ctrl.dt:.3e} "
                f"within {MAX_HALVINGS} halvings (max face speed {vmax:.3e})")
    remaining = ctrl.t_end - t
    return remaining if 0.0 < remaining < dt else dt


def _face_weights(n_old: np.ndarray, spec: GridSpec):
    """(wu, wv, S): face means W of ``n_old``, 0 on the walls; S = max(W)."""
    wu, wv = np.zeros((spec.nx + 1, spec.ny)), np.zeros((spec.nx, spec.ny + 1))
    wu[1:-1, :] = 0.5 * (n_old[1:, :] + n_old[:-1, :])
    wv[:, 1:-1] = 0.5 * (n_old[:, 1:] + n_old[:, :-1])
    return wu, wv, max(wu.max(), wv.max())


def _grad_laplacian(values: np.ndarray, spec: GridSpec, sc: _Scratch):
    """grad(Lap(values)) on the interior faces, into ``sc.face[0][0]`` and
    ``sc.face[1][0]``: ``grid.laplacian`` (zero-flux walls by mirror
    ghost cells), then ``grid.gradient``, operation for operation."""
    pad = mirror_pad(values, sc.pad)
    centre, lap, part = pad[1:-1, 1:-1], sc.flow, sc.work
    for out, ahead, behind, h in ((lap, pad[2:, 1:-1], pad[:-2, 1:-1], spec.hx),
                                  (part, pad[1:-1, 2:], pad[1:-1, :-2], spec.hy)):
        np.subtract(ahead, np.multiply(centre, 2.0, out=out), out=out)
        out += behind
        out /= h**2
    lap += part
    grads = sc.face[0][0], sc.face[1][0]
    for axis, (g, h) in enumerate(zip(grads, (spec.hx, spec.hy))):
        np.subtract(_part(lap, axis, 1), _part(lap, axis, None, -1), out=g)
        g /= h
    return grads


def _fourth_order_fluxes(n_star: np.ndarray, weights, spec: GridSpec,
                         alpha: float, dt: float, fluxes) -> np.ndarray:
    """Unlimited stabilised fourth-order stage of one species.

    With ``weights`` = (W, S) of the old density (``_face_weights``) and
    B = div(W grad .), the increment delta = n_new - n_star solves
    (I + dt*alpha*S*Lap^2) delta = -dt*alpha*B*Lap n_star (zero-flux
    walls): the constant-weight biharmonic part is implicit, the
    variable-weight remainder explicit.  Writes the face fluxes
    f = alpha*(W grad Lap n_star + S grad Lap delta), so that
    delta = -dt*div(f), into the interior faces of ``fluxes``, a pair of
    full face arrays with zero walls, and returns delta.  The work arrays
    are the grid's ``_Scratch``; delta is the only new array.
    """
    sc = _scratch(spec.nx, spec.ny)
    s = weights[2]
    inner = [_part(a, axis, 1, -1) for axis, a in enumerate(fluxes)]
    grads = _grad_laplacian(n_star, spec, sc)
    for axis, (f, w, g) in enumerate(zip(inner, weights[:2], grads)):
        np.multiply(_part(w, axis, 1, -1), alpha, out=f)
        f *= g
    rhs = flux_divergence(*fluxes, spec, out=sc.flow, tmp=sc.work)
    rhs *= -dt
    (delta,) = neumann_cell_inverse(rhs, (dt * alpha * s,), spec, power=2)
    for f, g in zip(inner, _grad_laplacian(delta, spec, sc)):
        g *= alpha * s
        f += g
    return delta


def _implicit_fourth_order(n_star, weights, spec: GridSpec, alpha: float,
                           dt: float, ceiling: float):
    """Fourth-order stage of both species, limited face by face.

    ``n_star`` is a pair of density arrays, ``weights`` the old densities'
    ``_face_weights``.  The stage's face fluxes (``_fourth_order_fluxes``,
    in the scratch's ``anti``) are limited against n_star, so mass is
    conserved, each species stays >= 0 and n1 + n2 stays <= ``ceiling``
    wherever n_star does.  Only the two returned arrays and the two
    transform solves' arrays are new.
    """
    sc = _scratch(spec.nx, spec.ny)
    for ns, w, fluxes in zip(n_star, weights, sc.anti):
        _fourth_order_fluxes(ns, w, spec, alpha, dt, fluxes)
    room = np.subtract(ceiling, np.add(*n_star, out=sc.total), out=sc.upper)
    _limit_fluxes(n_star, sc.anti, room, dt, spec)
    new = []
    for ns, fluxes in zip(n_star, sc.anti):
        div = flux_divergence(*fluxes, spec, tmp=sc.work)
        div *= dt
        new.append(np.subtract(ns, div, out=div))
    return new


def pressure_cap(params: ModelParams) -> float:
    """Largest congestion pressure an accepted step may create."""
    return PRESSURE_CAP_FACTOR * max(params.p1_star, params.p2_star)


def _tentative_densities(old, vel, adv, reac, weights, alpha: float,
                         dt: float, ceiling: float):
    """One trial: n - dt*adv + dt*reac, then the fourth-order stage.

    Each argument before ``alpha`` is a pair made once per step: densities,
    velocities, donor-cell divergences (None for the sharp scheme, whose
    transport is done here), growth terms max(n, 0)*G(p) and, when
    ``alpha`` > 0, ``_face_weights``.  Returns (n1, n2, cells cut to 0).
    """
    if adv is None:
        adv = sharp_flux_divergences(*old, *vel, dt)
    spec = vel[0].spec
    # the stage returns new arrays, so its input can live in the scratch
    new_densities = (_scratch(spec.nx, spec.ny).n_lo if alpha > 0.0 else
                     [np.empty_like(n) for n in old])
    for n, a, r, out in zip(old, adv, reac, new_densities):
        np.subtract(n, np.multiply(a, dt, out=out), out=out)
        out += dt * r
    if alpha > 0.0:
        new_densities = _implicit_fourth_order(new_densities, weights, spec,
                                               alpha, dt, ceiling)
    cut = 0
    for n_new in new_densities:
        neg = n_new < 0.0
        if neg.any():
            cut += int(neg.sum())
            np.putmask(n_new, neg, 0.0)
    return new_densities[0], new_densities[1], cut


def _advance(state: SimState, ctrl: StepControl, params: ModelParams,
             with_repulsion: bool, alpha: float) -> SimState:
    """One accepted step.

    The trial dt is ``step_size``, at most twice the last accepted one.  A
    trial whose n1+n2 would pass the ceiling where the congestion pressure
    reaches ``pressure_cap`` (or the current maximum, if that is higher)
    by more than ``CEILING_ROUNDOFF`` is rejected and retried at half the
    dt; the retries share the ``MAX_HALVINGS`` budget below ``ctrl.dt``.
    The fourth-order stage is limited to the same ceiling and to zero, so
    beyond roundoff only transport and growth can cross either.  The
    negativity cut does not reject.  Donor-cell transport, growth and face
    weights are computed once, before the first trial.
    """
    spec = state.n1.spec
    counter = copy.copy(state.counters)

    p1, p2, v1, v2 = _flow(state.n1, state.n2, params, with_repulsion, ctrl,
                           counter)

    vmax = max(v1.max_face_speed(), v2.max_face_speed())
    dt = step_size(ctrl, spec, vmax, state.t)
    if state.dt_last > 0.0:
        dt = min(dt, 2.0 * state.dt_last)

    cap = pressure_cap(params)
    ceiling = max(cap / (cap + params.eps),
                  float((state.n1.values + state.n2.values).max()))
    dt_min = ctrl.dt * 0.5 ** MAX_HALVINGS
    old, vel = (state.n1.values, state.n2.values), (v1, v2)
    reac = [np.maximum(n, 0.0) * growth(p, which, params).values
            for n, p, which in zip(old, (p1, p2), (1, 2))]
    adv = (None if ctrl.scheme == "sharp" else
           [upwind_flux_divergence(n, v) for n, v in zip(old, vel)])
    weights = [_face_weights(n, spec) for n in old] if alpha > 0.0 else None
    while True:
        n1_new, n2_new, cut = _tentative_densities(
            old, vel, adv, reac, weights, alpha, dt, ceiling)
        total = n1_new + n2_new
        if total.max() <= ceiling + CEILING_ROUNDOFF:
            break
        dt *= 0.5
        if dt < dt_min:
            raise StepFailure(
                f"n1+n2 exceeds {ceiling:.6g} (congestion pressure cap "
                f"{cap:.3g}) at every dt down to {2.0 * dt:.3e}, the "
                f"{MAX_HALVINGS}-halving limit below dt={ctrl.dt:.3e}")
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


def step_esvm(state: SimState, ctrl: StepControl, params: ModelParams) -> SimState:
    """One step of the model with repulsion pressure and interface penalty.

    From segregated densities (n1*n2 == 0) at alpha = 0 it equals
    ``step_vm``'s step bit for bit: the repulsion pressure is 0."""
    return _advance(state, ctrl, params, with_repulsion=True, alpha=params.alpha)


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
