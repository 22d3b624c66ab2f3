import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tissueflow import dynamics
from tissueflow.constitutive import ModelParams, pressure_congestion
from tissueflow.dynamics import (InitialDataError, StepControl, StepFailure,
                                 _face_weights, _fourth_order_fluxes,
                                 _implicit_fourth_order, init_state,
                                 pressure_cap, run, step_esvm, step_vm)
from tissueflow.grid import GridSpec, ScalarField, VectorField
from tissueflow.harness import PRESETS, simulate
from tissueflow.operators import (cell_laplacian_neumann,
                                  weighted_cell_flux_divergence)


def band_data(spec, value=0.9):
    xx, yy = spec.cell_center_mesh()
    n1 = value * ((np.abs(xx) < 2.0 / 3.0) & (yy < 0.0))
    n2 = value * ((np.abs(xx) >= 2.0 / 3.0) & (yy < 0.0))
    return ScalarField(spec, n1), ScalarField(spec, n2)


def test_init_state_accepts_band_data():
    spec = GridSpec(nx=32, ny=32)
    n1, n2 = band_data(spec)
    state = init_state(n1, n2, ModelParams())
    assert state.t == 0.0
    assert (n1.values * n2.values).sum() == 0.0


def test_init_state_zero_densities():
    spec = GridSpec(nx=16, ny=16)
    z = ScalarField.zeros(spec)
    state = init_state(z, z, ModelParams())
    assert state.v1.max_face_speed() == 0.0
    assert state.v2.max_face_speed() == 0.0


def test_init_state_rejects_overfull_cell():
    spec = GridSpec(nx=16, ny=16)
    n1 = ScalarField(spec, np.full((16, 16), 0.6))
    n2 = ScalarField(spec, np.full((16, 16), 0.5))
    with pytest.raises(InitialDataError):
        init_state(n1, n2, ModelParams())
    with pytest.raises(InitialDataError):
        init_state(ScalarField(spec, np.full((16, 16), -0.1)),
                   ScalarField.zeros(spec), ModelParams())


def test_zero_densities_step_is_noop():
    spec = GridSpec(nx=16, ny=16)
    z = ScalarField.zeros(spec)
    params = ModelParams()
    ctrl = StepControl(dt=1e-3, t_end=1.0)
    state = init_state(z, z, params, ctrl)
    new = step_esvm(state, ctrl, params)
    assert new.t == pytest.approx(1e-3)
    assert np.all(new.n1.values == 0.0) and np.all(new.n2.values == 0.0)


def test_uniform_density_matches_scalar_ode():
    # on a huge domain the velocity is negligible and each cell follows
    # dn/dt = n*g*(p_star - p_eps(n))
    spec = GridSpec(-50.0, 50.0, -50.0, 50.0, 16, 16)
    params = ModelParams(alpha=0.0, g2=1.0)
    c0 = 0.3
    n1 = ScalarField(spec, np.full((16, 16), c0))
    ctrl = StepControl(dt=1e-3, t_end=0.01)
    state = init_state(n1, ScalarField.zeros(spec), params, ctrl)
    records, state = run(state, ctrl, params)

    n = c0
    for _ in range(10):
        p = 0.1 * n / (1.0 - n)
        n = n + 1e-3 * n * (params.p1_star - p)
    mid = state.n1.values[8, 8]
    assert abs(mid - n) / n < 1e-3


def test_positivity_and_sum_bound_preserved():
    spec = GridSpec(nx=32, ny=32)
    n1, n2 = band_data(spec)
    params = ModelParams()
    ctrl = StepControl(dt=1e-3, t_end=0.01)
    state = init_state(n1, n2, params, ctrl)
    for _ in range(10):
        state = step_esvm(state, ctrl, params)
        assert np.all(state.n1.values >= 0.0)
        assert np.all(state.n2.values >= 0.0)
        assert np.all(state.n1.values + state.n2.values < 1.0)


def test_mass_balance_matches_reaction_integral():
    spec = GridSpec(nx=32, ny=32)
    n1, n2 = band_data(spec)
    params = ModelParams()
    ctrl = StepControl(dt=1e-3, t_end=0.01)
    state = init_state(n1, n2, params, ctrl)
    dt = 1e-3
    from tissueflow.constitutive import growth, total_pressures
    for _ in range(5):
        p1, _ = total_pressures(state.n1, state.n2, params)
        reac = (np.maximum(state.n1.values, 0.0) *
                growth(p1, 1, params).values).sum() * spec.cell_area
        before = state.mass1
        state = step_esvm(state, ctrl, params)
        # advection and the fourth-order stage are conservative with zero
        # wall fluxes; the negativity cut contributes O(dt^2)-size corrections
        assert abs(state.mass1 - before - dt * reac) < 5e-3 * abs(before)


def test_run_trivial_and_deterministic():
    spec = GridSpec(nx=16, ny=16)
    n1, n2 = band_data(spec)
    params = ModelParams()
    ctrl = StepControl(dt=1e-3, t_end=0.0)
    state = init_state(n1, n2, params, ctrl)
    records, final = run(state, ctrl, params)
    assert final.t == 0.0

    ctrl = StepControl(dt=1e-3, t_end=0.005)
    runs = []
    for _ in range(2):
        s = init_state(n1, n2, params, ctrl)
        _, s = run(s, ctrl, params)
        runs.append(s)
    assert np.array_equal(runs[0].n1.values, runs[1].n1.values)
    assert np.array_equal(runs[0].n2.values, runs[1].n2.values)


def test_run_rejects_past_t_end():
    spec = GridSpec(nx=16, ny=16)
    n1, n2 = band_data(spec)
    params = ModelParams()
    state = init_state(n1, n2, params)
    with pytest.raises(ValueError):
        run(state, StepControl(dt=1e-3, t_end=-1.0), params)


def test_rejected_step_retries_with_half_dt(monkeypatch):
    # no velocity on uniform data; growth alone, dn = dt*0.9*(5 - 0.9),
    # carries n1 = 0.9 past the ceiling n = cap/(cap+eps) = 0.999 at
    # dt = 0.1 and 0.05 but not at 0.025
    spec = GridSpec(nx=8, ny=8)
    params = ModelParams(alpha=0.0)
    n1 = ScalarField(spec, np.full((8, 8), 0.9))
    ctrl = StepControl(dt=0.1, t_end=1.0)
    state = init_state(n1, ScalarField.zeros(spec), params, ctrl)
    new = step_vm(state, ctrl, params)
    cap = pressure_cap(params)
    assert new.dt_last == 0.1 / 4
    assert new.n1.values.max() <= cap / (cap + params.eps)
    assert new.counters.total == 0
    # dt recovers by doubling from the last accepted step
    assert step_vm(new, ctrl, params).dt_last == 0.1 / 2

    monkeypatch.setattr(dynamics, "MAX_HALVINGS", 1)
    with pytest.raises(StepFailure):
        step_vm(state, ctrl, params)


def test_step_transports_once_and_solves_a_shared_pressure_once(monkeypatch):
    # the set-up above, where one step takes three trials: the donor-cell
    # transport does not depend on dt, so it runs once per species and
    # step; VM's one pressure drives both tissues through one solve
    spec = GridSpec(nx=8, ny=8)
    params = ModelParams(alpha=0.0)
    n1 = ScalarField(spec, np.full((8, 8), 0.9))
    ctrl = StepControl(dt=0.1, t_end=1.0)
    state = init_state(n1, ScalarField.zeros(spec), params, ctrl)
    calls = []

    def counting(name):
        fn = getattr(dynamics, name)

        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    for name in ("_solve_velocity", "upwind_flux_divergence",
                 "_tentative_densities"):
        monkeypatch.setattr(dynamics, name, counting(name))
    for step, solves in ((step_vm, 1), (step_esvm, 2)):
        calls.clear()
        assert step(state, ctrl, params).dt_last == 0.1 / 4
        assert calls.count("_tentative_densities") == 3
        assert calls.count("upwind_flux_divergence") == 2
        assert calls.count("_solve_velocity") == solves


def test_state_above_the_cap_may_relax():
    # zero homeostatic pressures put the cap at 0, below any occupied
    # state; a step that lowers the pressure must still be accepted
    spec = GridSpec(nx=8, ny=8)
    params = ModelParams(alpha=0.0, p1_star=0.0, p2_star=0.0)
    n1 = ScalarField(spec, np.full((8, 8), 0.5))
    ctrl = StepControl(dt=1e-3, t_end=1.0)
    new = step_vm(init_state(n1, ScalarField.zeros(spec), params, ctrl),
                  ctrl, params)
    assert new.dt_last == 1e-3
    assert new.n1.values.max() < 0.5


def _fig3_run(preset, n, t_end, **overrides):
    """Run a preset on an n x n grid to t_end; returns the final state and
    (dt, largest congestion pressure) of every step."""
    cfg = replace(PRESETS[preset], grid=GridSpec(-1.0, 1.0, -1.0, 1.0, n, n),
                  t_end=t_end, **overrides)

    def observer(s, params):
        total = ScalarField(s.n1.spec, s.n1.values + s.n2.values)
        return s.dt_last, pressure_congestion(total, params.eps).values.max()

    records, state = simulate(cfg, [observer])
    return state, records


def test_fig3_vm_reaches_t_end_without_clamping():
    # the preset used to rescale densities onto the congestion ceiling
    # and crawl at dt ~ 1e-9; step acceptance keeps it below the cap
    state, records = _fig3_run("fig3-vm", 64, 0.1)
    assert state.t == pytest.approx(0.1)
    assert state.counters.sum_rescale == 0
    assert state.counters.congestion == 0
    assert min(dt for dt, _ in records) >= 1e-6
    assert max(p for _, p in records) < pressure_cap(PRESETS["fig3-vm"].params)


def test_fig3_esvm_128_reaches_t_end_without_clamping():
    # the unlimited stage lifted a cell at the ceiling at a dt-independent
    # rate, and the run stopped with StepFailure at t = 5.3e-4
    state, records = _fig3_run("fig3-esvm", 128, 0.1)
    assert state.t == pytest.approx(0.1)
    assert state.counters.sum_rescale == 0
    assert state.counters.congestion == 0
    assert max(p for _, p in records) < pressure_cap(PRESETS["fig3-esvm"].params)


def test_sharp_transport_keeps_each_species_nonnegative(monkeypatch):
    # the joint flux limiter bounds each species' outflow by its own
    # donor-cell mass; the transport-only update used to reach -0.035
    lowest = []
    sharp = dynamics.sharp_flux_divergences

    def recording(n1, n2, v1, v2, dt):
        adv1, adv2 = sharp(n1, n2, v1, v2, dt)
        lowest.append(min((n1 - dt * adv1).min(), (n2 - dt * adv2).min()))
        return adv1, adv2

    monkeypatch.setattr(dynamics, "sharp_flux_divergences", recording)
    state, _ = _fig3_run("fig3-vm", 64, 0.1, scheme="sharp")
    assert state.t == pytest.approx(0.1)
    assert min(lowest) >= -1e-14


def _face_zeros(spec):
    """Zero u- and v-face arrays, walls included."""
    return np.zeros((spec.nx + 1, spec.ny)), np.zeros((spec.nx, spec.ny + 1))


@pytest.mark.parametrize("tau", [1e-7, 1e-2])
def test_fourth_order_stage_matches_sparse_solve_on_anisotropic_grid(tau):
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, 20, 24)     # hx = 0.1, hy = 0.125
    xx, yy = spec.cell_center_mesh()
    # zero region, a ramp and a 0.9 plateau, as around an ESVM band edge
    n_old = np.clip(0.9 * (1.5 - yy) / 0.5, 0.0, 0.9) * (np.abs(xx) < 0.7)
    rng = np.random.default_rng(5)
    n_star = n_old + 0.05 * rng.random(n_old.shape)

    fu, fv = _face_zeros(spec)
    delta = _fourth_order_fluxes(n_star, _face_weights(n_old, spec), spec,
                                 1.0, tau, (fu, fv))

    # (I + tau*S*Lap^2) delta = -tau*B*Lap n_star, S the largest face weight
    B = weighted_cell_flux_divergence(spec, n_old)
    lap = -cell_laplacian_neumann(spec)
    s = max(0.5 * (n_old[1:, :] + n_old[:-1, :]).max(),
            0.5 * (n_old[:, 1:] + n_old[:, :-1]).max())
    rhs = -tau * (B @ (lap @ n_star.ravel()))
    A = sp.identity(spec.nx * spec.ny) + (tau * s) * (lap @ lap)
    ref = n_star + spla.spsolve(A.tocsc(), rhs).reshape(n_old.shape)
    n_new = n_star + delta
    assert np.abs(n_new - ref).max() <= 1e-12 * np.abs(ref).max()
    assert abs(n_new.sum() - n_star.sum()) <= 1e-13 * n_star.sum()
    # flux form: the two flux terms cancel from |rhs| down to |delta|, so
    # the identity holds to roundoff of the right-hand side
    flux_delta = -tau * (fu[1:, :] - fu[:-1, :]) / spec.hx \
        - tau * (fv[:, 1:] - fv[:, :-1]) / spec.hy
    assert np.abs(flux_delta - delta).max() <= 1e-13 * np.abs(rhs).max()


@pytest.mark.parametrize("mixed", [False, True])
def test_fourth_order_stage_keeps_bounds_at_a_congested_front(mixed):
    # a curved front with n1+n2 at the ceiling on its left: tissue 1 alone
    # against tissue 2 at 0.5, or both tissues on both sides, where each
    # species' own inflow fits under the ceiling but their sum does not
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, 20, 24)
    xx, yy = spec.cell_center_mesh()
    ceiling = 0.999
    left = xx < 0.3 * np.sin(2.0 * yy)
    if mixed:
        n_old = (0.6 * ceiling * left + 0.2 * ~left,
                 0.4 * ceiling * left + 0.7 * ~left)
    else:
        n_old = (ceiling * left, 0.5 * ~left)
    n_star = (n_old[0].copy(), n_old[1].copy())
    tau = 1e-3

    weights = [_face_weights(no, spec) for no in n_old]
    unlimited = [ns + _fourth_order_fluxes(ns, w, spec, 1.0, tau,
                                           _face_zeros(spec))
                 for ns, w in zip(n_star, weights)]
    assert (unlimited[0] + unlimited[1]).max() > ceiling + 1e-2

    n_new = _implicit_fourth_order(n_star, weights, spec, 1.0, tau, ceiling)
    assert min(n.min() for n in n_new) >= -1e-15
    assert (n_new[0] + n_new[1]).max() <= ceiling + 1e-15
    for n, ns in zip(n_new, n_star):
        assert np.abs(n - ns).max() > 1e-2
        assert abs(n.sum() - ns.sum()) <= 1e-13 * ns.sum()


def _sharp_reference(n1, n2, v1, v2, dt):
    """The flux-corrected sharp transport face by face in plain Python.

    Returns (div1, div2, number of faces that fell back to the donor value).
    """
    spec = v1.spec
    nx, ny, hx, hy = spec.nx, spec.ny, spec.hx, spec.hy
    fallbacks = 0

    def clamp(k, m):
        return min(max(k, 0), m - 1)

    def face_fluxes(n, vel):
        # donor-cell and limited-downwind fluxes on every face; walls carry 0
        nonlocal fallbacks
        low = [np.zeros((nx + 1, ny)), np.zeros((nx, ny + 1))]
        high = [np.zeros((nx + 1, ny)), np.zeros((nx, ny + 1))]
        for axis, (vf, h, m) in enumerate(((vel.u, hx, nx), (vel.v, hy, ny))):
            for i, j in np.ndindex(vf.shape):
                f = (i, j)[axis]            # face f lies between cells f-1 and f
                if f in (0, m):
                    continue

                def cell(k):
                    k = clamp(k, m)
                    return float(n[k, j] if axis == 0 else n[i, k])

                u = float(vf[i, j])
                if u > 0.0:
                    donor, down, up = cell(f - 1), cell(f), cell(f - 2)
                else:
                    donor, down, up = cell(f), cell(f - 1), cell(f + 1)
                nu = max(abs(u) * dt / h, 1e-12)
                lo_env, hi_env = min(up, donor), max(up, donor)
                b_lo = donor + (donor - hi_env) * (1.0 - nu) / nu
                b_hi = donor + (donor - lo_env) * (1.0 - nu) / nu
                lo = max(min(donor, down), b_lo)
                hi = min(max(donor, down), b_hi)
                if lo > hi:
                    fallbacks += 1
                    face = donor
                else:
                    face = min(max(down, lo), hi)
                low[axis][i, j] = u * donor
                high[axis][i, j] = u * face
        return low, high

    def div(fu, fv, i, j):
        return (fu[i + 1, j] - fu[i, j]) / hx + (fv[i, j + 1] - fv[i, j]) / hy

    def nbmax(a, i, j):
        return max(a[clamp(i + di, nx), clamp(j + dj, ny)]
                   for di in (-1, 0, 1) for dj in (-1, 0, 1))

    cells = list(np.ndindex(nx, ny))
    low, high = zip(*(face_fluxes(n, v) for n, v in ((n1, v1), (n2, v2))))
    n_lo = [np.zeros((nx, ny)), np.zeros((nx, ny))]
    for s, n in enumerate((n1, n2)):
        for i, j in cells:
            n_lo[s][i, j] = n[i, j] - dt * div(*low[s], i, j)
    total_lo = n_lo[0] + n_lo[1]
    total = n1 + n2
    anti = [[h - lo for h, lo in zip(high[s], low[s])] for s in (0, 1)]

    def inflow(fu, fv, i, j, sign):
        a, b = sign * fu[i, j], sign * fu[i + 1, j]
        c, d = sign * fv[i, j], sign * fv[i, j + 1]
        return (dt / hx * (max(a, 0.0) - min(b, 0.0))
                + dt / hy * (max(c, 0.0) - min(d, 0.0)))

    def ratio(room, flow):
        return min(max(room / flow, 0.0), 1.0) if flow > 0.0 else 1.0

    r_in = np.zeros((nx, ny))
    r_out = [np.zeros((nx, ny)), np.zeros((nx, ny))]
    for i, j in cells:
        upper = max(nbmax(total_lo, i, j), nbmax(total, i, j))
        r_in[i, j] = ratio(upper - total_lo[i, j],
                           inflow(*anti[0], i, j, 1.0) + inflow(*anti[1], i, j, 1.0))
        for s in (0, 1):
            r_out[s][i, j] = ratio(n_lo[s][i, j], inflow(*anti[s], i, j, -1.0))

    out = []
    for s in (0, 1):
        flux = [lo.copy() for lo in low[s]]
        for axis, a in enumerate(anti[s]):
            for i, j in np.ndindex(a.shape):
                f = (i, j)[axis]
                if f in (0, (nx, ny)[axis]):
                    c = 1.0
                else:
                    left = (f - 1, j) if axis == 0 else (i, f - 1)
                    if a[i, j] > 0.0:
                        c = min(r_out[s][left], r_in[i, j])
                    else:
                        c = min(r_out[s][i, j], r_in[left])
                flux[axis][i, j] = low[s][axis][i, j] + c * a[i, j]
        d = np.zeros((nx, ny))
        for i, j in cells:
            d[i, j] = div(*flux, i, j)
        out.append(d)
    return out[0], out[1], fallbacks


def _sharp_case(seed):
    """Densities with exact zeros and ties, velocities of both signs with
    exactly-zero faces and three faces just past nu = 1, on an anisotropic
    grid."""
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, 7, 9)      # hx = 2/7, hy = 1/3
    rng = np.random.default_rng(seed)
    dt = 0.05

    def density():
        n = np.where(rng.random((7, 9)) < 0.5,
                     rng.choice([0.0, 0.45, 0.9], (7, 9)),
                     0.9 * rng.random((7, 9)))
        return n * (rng.random((7, 9)) > 0.2)

    def velocity():
        u = rng.uniform(-1.0, 1.0, (8, 9)) * spec.hx / dt
        v = rng.uniform(-1.0, 1.0, (7, 10)) * spec.hy / dt
        u[rng.random(u.shape) < 0.15] = 0.0
        v[rng.random(v.shape) < 0.15] = 0.0
        return u, v

    (u1, w1), (u2, w2) = velocity(), velocity()
    # the smallest speeds past nu = 1: cfl_number = 1 reaches them by rounding
    u1[3, 4] = np.nextafter(spec.hx / dt, np.inf)
    w1[2, 5] = -np.nextafter(spec.hy / dt, np.inf)
    u2[5, 2] = -(1.0 + 1e-9) * spec.hx / dt
    for speed, h in ((u1[3, 4], spec.hx), (w1[2, 5], spec.hy), (u2[5, 2], spec.hx)):
        assert abs(speed) * dt / h > 1.0
    v1, v2 = VectorField(spec, u1, w1), VectorField(spec, u2, w2)
    return density(), density(), v1, v2, dt


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sharp_transport_matches_the_per_face_formulas(seed):
    n1, n2, v1, v2, dt = _sharp_case(seed)
    ref1, ref2, fallbacks = _sharp_reference(n1, n2, v1, v2, dt)
    assert fallbacks > 0
    adv1, adv2 = dynamics.sharp_flux_divergences(n1, n2, v1, v2, dt)
    assert np.array_equal(adv1, ref1)
    assert np.array_equal(adv2, ref2)


@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (9, 6)])
def test_neighborhood_max_is_the_3x3_maximum(shape):
    a = np.random.default_rng(sum(shape)).integers(0, 3, shape) * 0.5
    nx, ny = shape
    ref = np.array([[max(a[min(max(i + di, 0), nx - 1), min(max(j + dj, 0), ny - 1)]
                         for di in (-1, 0, 1) for dj in (-1, 0, 1))
                     for j in range(ny)] for i in range(nx)])
    assert np.array_equal(dynamics._neighborhood_max(a.copy()), ref)


def _sharp_inputs(n, seed):
    """Band-like densities and smooth velocities of both signs on an n x n grid."""
    spec = GridSpec(nx=n, ny=n)
    xx, yy = spec.cell_center_mesh()
    rng = np.random.default_rng(seed)
    n1 = 0.9 * ((np.abs(xx) < 0.5) & (yy < 0.2)) * (1.0 - 0.1 * rng.random((n, n)))
    n2 = 0.9 * ((np.abs(xx) >= 0.5) & (yy < 0.2)) * (1.0 - 0.1 * rng.random((n, n)))
    v1 = VectorField.from_functions(spec, lambda x, y: np.sin(3 * x + y),
                                    lambda x, y: np.cos(2 * y - x))
    v2 = VectorField.from_functions(spec, lambda x, y: -np.cos(x * y),
                                    lambda x, y: np.sin(x - 2 * y))
    return n1, n2, v1, v2, 0.2 * spec.hx


def test_sharp_transport_results_survive_other_grids_and_callers():
    args = _sharp_inputs(128, 0)
    first = [a.copy() for a in dynamics.sharp_flux_divergences(*args)]
    dynamics.sharp_flux_divergences(*_sharp_inputs(48, 1))
    out = dynamics.sharp_flux_divergences(*args)
    for a, b in zip(out, first):
        assert np.array_equal(a, b)
    # the caller owns what it gets back
    for a in out:
        a[...] = np.nan
    again = dynamics.sharp_flux_divergences(*args)
    for a, b in zip(again, first):
        assert np.array_equal(a, b)
        assert not any(np.shares_memory(a, c) for c in out)


def test_warm_sharp_transport_allocates_only_its_results():
    # the per-call temporaries of 128^2 arrays used to peak at 3.4 MB and
    # churned the heap; a warm call now holds its two results and little
    # else (each result is 128 KB)
    args = _sharp_inputs(128, 2)
    dynamics.sharp_flux_divergences(*args)
    tracemalloc.start()
    try:
        dynamics.sharp_flux_divergences(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.4e6 / 3


def _stage_inputs(nx, ny, seed):
    """Arguments of ``_implicit_fourth_order`` at a band edge on an
    anisotropic nx x ny grid: two tissues side by side under 0.9."""
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, nx, ny)
    xx, yy = spec.cell_center_mesh()
    rng = np.random.default_rng(seed)
    band = yy < 1.5 + 0.3 * np.sin(3.0 * xx)
    n_old = (0.9 * (band & (xx < 0.2)), 0.9 * (band & (xx >= 0.2)))
    n_star = tuple(n + 0.05 * rng.random(n.shape) for n in n_old)
    weights = [_face_weights(n, spec) for n in n_old]
    return n_star, weights, spec, 1e-3, 1e-3, 0.999


def test_fourth_order_stage_results_survive_other_species_and_grids():
    args = _stage_inputs(64, 40, 0)
    first = [a.copy() for a in _implicit_fourth_order(*args)]
    (n1, n2), (w1, w2), *rest = args
    # the species the other way round, then another grid shape
    swapped = _implicit_fourth_order((n2, n1), (w2, w1), *rest)
    _implicit_fourth_order(*_stage_inputs(33, 47, 1))
    out = _implicit_fourth_order(*args)
    for a, b, c in zip(out, first, swapped[::-1]):
        assert np.array_equal(a, b)
        assert np.array_equal(c, b)
    # the caller owns what it gets back
    for a in out:
        a[...] = np.nan
    again = _implicit_fourth_order(*args)
    for a, b in zip(again, first):
        assert np.array_equal(a, b)
        assert not any(np.shares_memory(a, c) for c in (*out, *swapped))


def test_step_results_survive_the_next_step():
    # a trial's prediction lives in the scratch; the densities a step
    # returns must not
    spec = GridSpec(nx=32, ny=32)
    params = ModelParams(alpha=1e-3)
    ctrl = StepControl(dt=1e-3, t_end=1.0)
    state = init_state(*band_data(spec, 0.85), params, ctrl)
    new = step_esvm(state, ctrl, params)
    kept = [new.n1.values.copy(), new.n2.values.copy()]
    newer = step_esvm(new, ctrl, params)
    again = step_esvm(state, ctrl, params)
    for a, b, c in zip((new.n1, new.n2), kept, (again.n1, again.n2)):
        assert np.array_equal(a.values, b)
        assert np.array_equal(c.values, b)
        assert not any(np.shares_memory(a.values, d.values)
                       for d in (newer.n1, newer.n2, again.n1, again.n2))


def test_warm_fourth_order_stage_allocates_only_its_results():
    # the per-call temporaries used to peak at 12 arrays of 128^2 cells; a
    # warm stage now holds its two results and, while it makes the second,
    # numpy's iteration buffers (two operands of getbufsize() doubles) for
    # the strided face differences; the transform solve's two arrays are
    # gone by then
    args = _stage_inputs(128, 128, 2)
    _implicit_fourth_order(*args)
    tracemalloc.start()
    try:
        _implicit_fourth_order(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * 128 * 128 + 2 * 8 * np.getbufsize() + 16 * 1024


def test_trial_one_ulp_over_the_ceiling_is_accepted(monkeypatch):
    # the limited stages bound n1+n2 only up to roundoff; a trial that
    # lands one ulp over the ceiling must not halve dt
    spec = GridSpec(nx=8, ny=8)
    params = ModelParams(alpha=0.0)
    ctrl = StepControl(dt=1e-3, t_end=1.0)
    state = init_state(ScalarField(spec, np.full((8, 8), 0.5)),
                       ScalarField.zeros(spec), params, ctrl)
    trials = []

    def tentative(old, vel, adv, reac, weights, alpha, dt, ceiling):
        trials.append(dt)
        n1 = np.full((8, 8), 0.5)
        n1[3, 4] = np.nextafter(ceiling, 1.0)
        return n1, np.zeros((8, 8)), 0

    monkeypatch.setattr(dynamics, "_tentative_densities", tentative)
    new = step_vm(state, ctrl, params)
    cap = pressure_cap(params)
    assert new.n1.values.max() > cap / (cap + params.eps)
    assert trials == [1e-3] and new.dt_last == 1e-3
