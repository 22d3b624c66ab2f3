"""Property tests of the package's contracts on anisotropic grids.

Every property draws its grid with unequal spacings, because roundoff
depends on the shape: nx in 8..40 and ny in 8..32, or 4..48 on both axes
where a kernel must equal its reference bit for bit.  Examples are
derandomized and no example database is kept, so the suite is
reproducible.  The roundoff bounds below were fixed before the first run.
"""

import tempfile
from pathlib import Path

import numpy as np
import scipy.fft
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter

from tissueflow import brinkman
from tissueflow.brinkman import _CELLS, _FACES, _NEUMANN
from tissueflow.constitutive import ModelParams
from tissueflow.dynamics import (CEILING_ROUNDOFF, StepControl,
                                 _face_weights, _fourth_order_fluxes,
                                 _implicit_fourth_order, _limit_fluxes,
                                 init_state, sharp_flux_divergences,
                                 step_esvm, step_vm, upwind_flux_divergence)
from tissueflow.fieldio import read_scalar_csv, write_scalar_csv
from tissueflow.freeboundary import LimitState, transport_q
from tissueflow.grid import (GridSpec, ScalarField, VectorField,
                             flux_divergence, gradient, laplacian)
from tissueflow.operators import (cell_laplacian_neumann, divergence_matrix,
                                  face_stiffness_u, face_stiffness_v,
                                  stack_faces)
from tissueflow.stationary import DomainPartition, StationarySolution

NEGATIVE_ROUNDOFF = 1e-15    # a limited stage may leave a density this far below 0
MASS_ROUNDOFF = 1e-13        # relative change of a species' mass in one stage
PROPERTY = settings(max_examples=25, derandomize=True, database=None,
                    deadline=None)


@st.composite
def _grids(draw, nx_range=(8, 40), ny_range=(8, 32)):
    """A box with nx and ny in their ranges and hx != hy, and a generator."""
    nx, ny = draw(st.integers(*nx_range)), draw(st.integers(*ny_range))
    width, height = (draw(st.floats(0.5, 4.0)) for _ in range(2))
    assume(width / nx != height / ny)
    x0, y0 = (draw(st.floats(-2.0, 0.0)) for _ in range(2))
    spec = GridSpec(x0, x0 + width, y0, y0 + height, nx, ny)
    return spec, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _densities(spec, rng, ceiling):
    """Two nonnegative densities with n1 + n2 <= ceiling: random values
    on two rectangles that overlap in a random band."""
    shape = (spec.nx, spec.ny)
    total = ceiling * rng.random(shape) * (rng.random(shape) < 0.8)
    share = np.zeros(shape)
    a, b = sorted(rng.integers(1, spec.nx, size=2))
    share[:b] = 1.0
    share[a:b] = rng.random((b - a, spec.ny))
    n1 = share * total
    return n1, np.maximum(total - n1, 0.0)


def _segregated(spec, rng, ceiling):
    """Two nonnegative densities with n1*n2 == 0 and n1 + n2 <= ceiling:
    random values given cell by cell to one tissue or the other."""
    shape = (spec.nx, spec.ny)
    total = ceiling * rng.random(shape) * (rng.random(shape) < 0.8)
    first = rng.random(shape) < 0.5
    return np.where(first, total, 0.0), np.where(first, 0.0, total)


def _velocity(spec, rng, vmax):
    """A random staggered field with zero wall faces and largest speed vmax."""
    u = rng.standard_normal((spec.nx + 1, spec.ny))
    v = rng.standard_normal((spec.nx, spec.ny + 1))
    u[0, :] = u[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    scale = vmax / max(np.abs(u).max(), np.abs(v).max())
    return VectorField(spec, u * scale, v * scale)


def _check_limited(before, after, ceiling):
    """Each density >= 0, n1 + n2 under ``ceiling`` (a number or a cell
    array) and each species' mass unchanged, to roundoff."""
    assert min(n.min() for n in after) >= -NEGATIVE_ROUNDOFF
    assert np.all(after[0] + after[1] <= ceiling + CEILING_ROUNDOFF)
    for n_old, n_new in zip(before, after):
        assert abs(n_new.sum() - n_old.sum()) <= MASS_ROUNDOFF * n_old.sum()


@PROPERTY
@given(_grids(), st.floats(0.5, 0.999), st.floats(0.01, 0.25),
       st.floats(0.1, 20.0))
def test_sharp_transport_keeps_bounds_and_mass(grid, ceiling, cfl, vmax):
    # cfl <= 1/4 keeps the donor-cell prediction nonnegative even where a
    # cell drains through all four faces at vmax; the total is bounded by
    # the 3x3 maximum of that prediction's total and of n1 + n2
    spec, rng = grid
    n = _densities(spec, rng, ceiling)
    vel = [_velocity(spec, rng, vmax) for _ in range(2)]
    dt = cfl * min(spec.hx, spec.hy) / vmax
    divs = sharp_flux_divergences(*n, *vel, dt)
    after = [ni - dt * d for ni, d in zip(n, divs)]
    low = sum(ni - dt * upwind_flux_divergence(ni, v)
              for ni, v in zip(n, vel))
    bound = maximum_filter(np.maximum(low, n[0] + n[1]), size=3,
                           mode="nearest")
    _check_limited(n, after, bound)


@PROPERTY
@given(_grids(), st.floats(0.5, 0.999), st.floats(1e-4, 1.0),
       st.floats(1e-6, 1e-2))
def test_fourth_order_stage_keeps_bounds_and_mass(grid, ceiling, alpha, dt):
    spec, rng = grid
    n_old = _densities(spec, rng, ceiling)
    n_star = _densities(spec, rng, ceiling)
    weights = [_face_weights(n, spec) for n in n_old]
    after = _implicit_fourth_order(n_star, weights, spec, alpha, dt, ceiling)
    _check_limited(n_star, after, ceiling)


@PROPERTY
@given(_grids(), st.floats(1e-3, 10.0))
def test_velocity_solves_meet_the_tolerance(grid, beta):
    spec, rng = grid
    p = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    (vel,) = brinkman.solve_brinkman(p, (beta,))
    g = gradient(p)
    b = stack_faces(VectorField(spec, -g.u, -g.v))
    x = stack_faces(vel)
    nu = (spec.nx - 1) * spec.ny
    (pot,) = brinkman.solve_screened_potential(p, (beta,))
    pot = pot.values.ravel()
    for K, xk, bk in ((face_stiffness_u(spec), x[:nu], b[:nu]),
                      (face_stiffness_v(spec), x[nu:], b[nu:]),
                      (cell_laplacian_neumann(spec), pot, p.values.ravel())):
        residual = np.linalg.norm(xk + beta * (K @ xk) - bk)
        assert residual <= brinkman.REL_TOL * np.linalg.norm(bk)


@PROPERTY
@given(_grids(), st.floats(1e-3, 10.0), st.floats(1e-3, 10.0), st.booleans(),
       st.sampled_from(["dirichlet", "gradient"]))
def test_stacked_velocity_solve_equals_the_single_solves(grid, beta1, beta2,
                                                         same, law):
    # one forward transform for both viscosities must change no bit of
    # either velocity, equal viscosities included
    spec, rng = grid
    betas = (beta1, beta1 if same else beta2)
    p = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    solve = (brinkman.solve_brinkman if law == "dirichlet" else
             brinkman.solve_brinkman_gradient_form)
    stacked = solve(p, betas)
    assert len(stacked) == 2
    for vel, beta in zip(stacked, betas):
        (single,) = solve(p, (beta,))
        assert np.array_equal(vel.u, single.u)
        assert np.array_equal(vel.v, single.v)


@PROPERTY
@given(_grids(), st.floats(0.01, 2.0), st.floats(0.1, 20.0),
       st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4))
def test_q_transport_keeps_zero_and_sign(grid, cfl, vmax, numbers):
    # on any partition, velocities, pressure and time step (cfl up to 2,
    # growth of both signs): q = 0 stays exactly 0 and q >= 0 holds
    spec, rng = grid
    shape = (spec.nx, spec.ny)
    labels = rng.integers(0, 3, shape)
    part = DomainPartition(*(ScalarField(spec, (labels == k).astype(float))
                             for k in (1, 2)))
    g1, g2, p1, p2 = numbers
    params = ModelParams(g1=g1, g2=g2, p1_star=5.0 * p1, p2_star=5.0 * p2)
    p = ScalarField(spec, 10.0 * rng.random(shape))
    v1, v2 = (_velocity(spec, rng, vmax) for _ in range(2))
    dt = cfl * min(spec.hx, spec.hy) / vmax

    def transported(q):
        sol = StationarySolution(params, ScalarField(spec, q), v1, v2, p, 0.0)
        state = LimitState(0.0, part, part.chi1, part.chi2, sol)
        return transport_q(state, dt).values

    assert not transported(np.zeros(shape)).any()
    q0 = 2.0 * rng.random(shape) * (labels > 0) * (rng.random(shape) < 0.7)
    assert np.all(transported(q0) >= 0.0)


# values whose text %.17g must keep exactly: both zeros, the smallest
# subnormal and a larger one, the largest finite double, negatives
_EDGE_VALUES = (0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
                -1e300, -1.0 / 3.0)


@PROPERTY
@given(_grids(), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=8))
@example((GridSpec(-1.0, 1.0, -1.0, 1.0, 49, 49), np.random.default_rng(0)),
         [1.0])   # the default box, where x_min + 49*hx is not x_max
def test_scalar_csv_round_trips_bit_exactly(grid, drawn):
    spec, rng = grid
    values = rng.choice(np.array([*drawn, *_EDGE_VALUES]), (spec.nx, spec.ny))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        write_scalar_csv(ScalarField(spec, values), path)
        back = read_scalar_csv(path, spec)
    assert back.values.tobytes() == values.tobytes()
    # [q] source = file reads a field this way, and its grid check
    # (stationary._source) compares the two grids
    assert back.spec == spec


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(_grids(), st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4),
       st.sampled_from(["dirichlet", "gradient"]),
       st.sampled_from(["upwind", "sharp"]))
def test_esvm_equals_vm_on_segregated_data(grid, numbers, law, scheme):
    # with n1*n2 == 0 the repulsion pressure is exactly 0, so ESVM's
    # one-viscosity solve per tissue must give VM's solve of the shared
    # pressure for both viscosities, bit for bit, at the start and after
    # one step (which mixes the tissues)
    spec, rng = grid
    n1, n2 = (ScalarField(spec, n) for n in _segregated(spec, rng, 0.9))
    beta1, beta2, g, eps = numbers
    assume(beta1 != beta2)
    params = ModelParams(beta1=beta1, beta2=beta2, eps=0.1 * eps, alpha=0.0,
                         g1=g, g2=1.0 / g)
    runs = []
    for model, step in (("ESVM", step_esvm), ("VM", step_vm)):
        ctrl = StepControl(dt=1e-3, t_end=1.0, model=model, velocity_law=law,
                           scheme=scheme)
        state = init_state(n1, n2, params, ctrl)
        runs.append((state, step(state, ctrl, params)))
    for esvm, vm in zip(*runs):
        assert (esvm.t, esvm.dt_last, esvm.counters) == (vm.t, vm.dt_last,
                                                         vm.counters)
        for mine, theirs in ((esvm.n1, vm.n1), (esvm.n2, vm.n2),
                             (esvm.p1, vm.p1), (esvm.p2, vm.p2)):
            assert np.array_equal(mine.values, theirs.values)
        for mine, theirs in ((esvm.v1, vm.v1), (esvm.v2, vm.v2)):
            assert np.array_equal(mine.u, theirs.u)
            assert np.array_equal(mine.v, theirs.v)


# Plain references for the fourth-order stage and the Dirichlet Brinkman
# solve, with every wrapper, pad and eigenvalue made afresh on each call,
# and scipy.fft's public transforms in place of the bound kernels.  The
# package's workspace kernels must equal them bit for bit.

def _scipy_fft(wall):
    """scipy.fft's forward and inverse transform and the forward type of
    one of brinkman's wall tuples."""
    kernel, forward_type, _, _ = wall
    pair = {"dst": (scipy.fft.dst, scipy.fft.idst),
            "dct": (scipy.fft.dct, scipy.fft.idct)}[kernel.__name__]
    return (*pair, forward_type)


def _reference_transform_solve(b, betas, spec, walls, power=1):
    (fx, ix, tx), (fy, iy, ty) = map(_scipy_fft, walls)
    kx, ky = walls[0][3], walls[1][3]
    lx = brinkman._eigenvalues(kx, b.shape[0], spec.nx, spec.hx)
    ly = brinkman._eigenvalues(ky, b.shape[1], spec.ny, spec.hy)
    y = fy(fx(b, type=tx, axis=0), type=ty, axis=1)
    k = (lx[:, None] + ly[None, :]) ** power
    stack = np.empty((len(betas),) + b.shape)
    for out, beta in zip(stack, betas):
        np.divide(y, 1.0 + beta * k, out=out)
    return ix(iy(stack, type=ty, axis=2, overwrite_x=True), type=tx, axis=1,
              overwrite_x=True)


def _reference_fourth_order_fluxes(n_star, weights, spec, alpha, dt):
    wu, wv, s = weights
    g = gradient(laplacian(ScalarField(spec, n_star)))
    fu, fv = alpha * wu * g.u, alpha * wv * g.v
    (delta,) = _reference_transform_solve(
        -dt * flux_divergence(fu, fv, spec), (dt * alpha * s,), spec,
        (_NEUMANN, _NEUMANN), power=2)
    g = gradient(laplacian(ScalarField(spec, delta)))
    fu += (alpha * s) * g.u
    fv += (alpha * s) * g.v
    return delta, (fu, fv)


def _reference_stage(n_star, weights, spec, alpha, dt, ceiling):
    fluxes = [_reference_fourth_order_fluxes(ns, w, spec, alpha, dt)[1]
              for ns, w in zip(n_star, weights)]
    _limit_fluxes(n_star, fluxes, ceiling - (n_star[0] + n_star[1]), dt, spec)
    return [ns - dt * flux_divergence(fu, fv, spec)
            for ns, (fu, fv) in zip(n_star, fluxes)]


def _reference_brinkman(p, betas):
    """Stacked interior-face velocities, one row per beta."""
    spec = p.spec
    g = gradient(p)
    b = stack_faces(VectorField(spec, -g.u, -g.v))
    nu = (spec.nx - 1) * spec.ny
    u = _reference_transform_solve(b[:nu].reshape(spec.nx - 1, spec.ny),
                                   betas, spec, (_FACES, _CELLS))
    v = _reference_transform_solve(b[nu:].reshape(spec.nx, spec.ny - 1),
                                   betas, spec, (_CELLS, _FACES))
    m = len(betas)
    return np.concatenate([u.reshape(m, -1), v.reshape(m, -1)], axis=1)


_KERNEL_GRIDS = _grids((4, 48), (4, 48))
_ODD = GridSpec(-1.0, 0.4, 0.5, 3.0, 5, 47)     # odd sizes, hx != hy


@PROPERTY
@given(_KERNEL_GRIDS, st.floats(1e-4, 1.0), st.floats(1e-6, 1e-2),
       st.floats(0.5, 0.999))
@example((_ODD, np.random.default_rng(1)), 1e-3, 1e-3, 0.999)
def test_fourth_order_stage_equals_its_reference_bitwise(grid, alpha, dt,
                                                         ceiling):
    spec, rng = grid
    n_old = _densities(spec, rng, ceiling)
    n_star = _densities(spec, rng, ceiling)
    weights = [_face_weights(n, spec) for n in n_old]
    for ns, w in zip(n_star, weights):
        fluxes = (np.zeros((spec.nx + 1, spec.ny)),
                  np.zeros((spec.nx, spec.ny + 1)))
        delta = _fourth_order_fluxes(ns, w, spec, alpha, dt, fluxes)
        ref_delta, ref_fluxes = _reference_fourth_order_fluxes(ns, w, spec,
                                                               alpha, dt)
        assert delta.tobytes() == ref_delta.tobytes()
        for f, ref in zip(fluxes, ref_fluxes):
            assert f.tobytes() == ref.tobytes()
    after = _implicit_fourth_order(n_star, weights, spec, alpha, dt, ceiling)
    ref = _reference_stage(n_star, weights, spec, alpha, dt, ceiling)
    for a, b in zip(after, ref):
        assert a.tobytes() == b.tobytes()


@PROPERTY
@given(_KERNEL_GRIDS, st.floats(1e-3, 10.0), st.floats(1e-3, 10.0))
@example((_ODD, np.random.default_rng(2)), 0.5, 0.1)
def test_dirichlet_velocity_solve_equals_its_reference_bitwise(grid, beta1,
                                                               beta2):
    spec, rng = grid
    p = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    for betas in ((beta1,), (beta1, beta2)):
        ref = _reference_brinkman(p, betas)
        vels = brinkman.solve_brinkman(p, betas)
        assert len(vels) == len(betas)
        for vel, row in zip(vels, ref):
            assert stack_faces(vel).tobytes() == row.tobytes()
            assert not (vel.u[[0, -1]].any() or vel.v[:, [0, -1]].any())


@PROPERTY
@given(_KERNEL_GRIDS, st.floats(1e-6, 10.0), st.integers(1, 2))
@example((_ODD, np.random.default_rng(3)), 1e-3, 2)
def test_transform_solves_equal_their_reference_bitwise(grid, beta, power):
    # every wall set and power reads its eigenvalue sums from one table
    # per grid; a second call reads the table the first one made
    spec, rng = grid
    for walls, shape in (((_FACES, _CELLS), (spec.nx - 1, spec.ny)),
                         ((_CELLS, _FACES), (spec.nx, spec.ny - 1)),
                         ((_NEUMANN, _NEUMANN), (spec.nx, spec.ny))):
        b = rng.standard_normal(shape)
        ref = _reference_transform_solve(b, (beta, 2.0 * beta), spec, walls,
                                         power)
        for _ in range(2):
            x = brinkman._transform_solve(b, (beta, 2.0 * beta), spec, walls,
                                          power)
            assert x.tobytes() == ref.tobytes()


@PROPERTY
@given(st.integers(1, 48), st.integers(1, 48), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
@example(5, 47, 2, 4)
def test_bound_kernels_equal_scipy_fft_bitwise(m, n, stack, seed):
    # every call brinkman makes: forward along either axis of a 2-D array,
    # inverse along either axis of a stack, into a new array or in place
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    s = rng.standard_normal((stack, m, n))
    for wall in (_FACES, _CELLS, _NEUMANN):
        kernel, forward_type, inverse_type, _ = wall
        forward, inverse, _ = _scipy_fft(wall)
        for axis in (0, 1):
            got = kernel(a, forward_type, (axis,), 0, None, 1)
            assert got.tobytes() == forward(a, type=forward_type,
                                            axis=axis).tobytes()
        for axis in (1, 2):
            ref = inverse(s, type=forward_type, axis=axis)
            got = kernel(s, inverse_type, (axis,), 2, None, 1)
            assert got.tobytes() == ref.tobytes()
            t = s.copy()
            assert kernel(t, inverse_type, (axis,), 2, t, 1) is t
            assert t.tobytes() == ref.tobytes()


@PROPERTY
@given(_KERNEL_GRIDS, st.floats(1e-6, 10.0))
@example((_ODD, np.random.default_rng(6)), 1e-3)
def test_residual_stencils_equal_the_assembled_residuals(grid, beta):
    # each solve's residual check applies K as a stencil, and the Dirichlet
    # and stationary solves apply D^T as the stacked -grad; the assembled
    # matrices are the reference, to roundoff
    spec, rng = grid
    nx, ny = spec.nx, spec.ny
    for K, shape, ends in ((face_stiffness_u(spec), (nx - 1, ny), (2.0, 3.0)),
                           (face_stiffness_v(spec), (nx, ny - 1), (3.0, 2.0)),
                           (cell_laplacian_neumann(spec), (nx, ny),
                            (1.0, 1.0))):
        x, b = rng.standard_normal(shape), rng.standard_normal(shape)
        ref = x.ravel() + beta * (K @ x.ravel()) - b.ravel()
        got = brinkman._residual(x, b, beta, ends, spec)
        assert np.allclose(got.ravel(), ref, rtol=1e-12,
                           atol=1e-12 * np.abs(ref).max())
    p = rng.standard_normal((nx, ny))
    ref = divergence_matrix(spec).T @ p.ravel()
    assert np.allclose(brinkman.divergence_transpose(p, spec), ref,
                       rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@PROPERTY
@given(_KERNEL_GRIDS)
@example((_ODD, np.random.default_rng(5)))
def test_stationary_stencils_equal_the_csr_products_bitwise(grid):
    # the stationary solve's D^T is the stacked -grad: bit for bit when hx
    # and hy are powers of two, as on the benchmark's grids (no two cells
    # of p are equal, where a CSR row would give +0.0)
    spec, rng = grid
    nx, ny = spec.nx, spec.ny
    p = rng.standard_normal((nx, ny))
    hx, hy = 2.0 ** rng.integers(-6, 3, size=2)
    exact = GridSpec(0.0, nx * hx, 0.0, ny * hy, nx, ny)
    assert (exact.hx, exact.hy) == (hx, hy)
    assert (brinkman.divergence_transpose(p, exact).tobytes() ==
            (divergence_matrix(exact).T @ p.ravel()).tobytes())
