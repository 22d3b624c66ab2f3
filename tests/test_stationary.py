import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tissueflow import brinkman, stationary
from tissueflow.brinkman import SolverFailure
from tissueflow.constitutive import ModelParams, coercivity_check
from tissueflow.grid import GridSpec, ScalarField, VectorField, divergence
from tissueflow.harness import PRESETS, initial_partition
from tissueflow.operators import stack_faces
from tissueflow.stationary import (GMRES_RESTART, JUMP_CSV_COLUMNS,
                                   DomainPartition, PartitionError, _gmres,
                                   TransmissionReport, assemble_weak_form,
                                   concentric_partition,
                                   interface_force_residuals, measure_jump,
                                   quadratic_form, solve_stationary,
                                   verify_transmission, write_jump_csv)

PARAMS = ModelParams(beta1=1.0, beta2=1.0, g1=1.0, g2=1.0,
                     p1_star=5.0, p2_star=10.0)


def square_partition(spec, half=0.3, lo=-0.7, hi=0.7):
    xx, yy = spec.cell_center_mesh()
    inner = (np.abs(xx) < half) & (np.abs(yy) < half)
    outer = (np.abs(xx) < hi) & (np.abs(yy) < hi) & ~inner
    return DomainPartition(ScalarField(spec, inner.astype(float)),
                           ScalarField(spec, outer.astype(float)))


def test_partition_validation():
    spec = GridSpec(nx=16, ny=16)
    ones = ScalarField(spec, np.ones((16, 16)))
    half = ScalarField(spec, np.full((16, 16), 0.5))
    zeros = ScalarField.zeros(spec)
    with pytest.raises(PartitionError):
        DomainPartition(half, zeros)          # not an indicator
    with pytest.raises(PartitionError):
        DomainPartition(ones, ones)           # overlapping supports
    part = DomainPartition(ones, zeros)       # may touch the outer walls
    assert part.cell_counts() == (256, 0)


def test_concentric_interfaces_are_closed_loops():
    part = concentric_partition(GridSpec(nx=32, ny=32))
    assert len(part.gamma) > 0 and len(part.gamma2) > 0
    # the disk touches only the annulus, never the exterior
    assert len(part.gamma1) == 0
    n1, n2 = part.cell_counts()
    assert 0 < n1 < n2


def test_zero_homeostatic_pressure_gives_zero_solution():
    part = concentric_partition(GridSpec(nx=24, ny=24))
    params = ModelParams(beta1=1.0, beta2=1.0, g1=1.0, g2=1.0,
                         p1_star=0.0, p2_star=0.0)
    sol = solve_stationary(part, params)
    assert sol.rel_residual == 0.0
    assert sol.v1.max_face_speed() == 0.0
    assert sol.v2.max_face_speed() == 0.0
    assert np.all(sol.p.values == 0.0)


def test_solution_mirror_symmetry():
    spec = GridSpec(nx=32, ny=32)
    sol = solve_stationary(concentric_partition(spec), PARAMS)
    # the configuration is symmetric in x -> -x: u odd, v and p even
    assert np.allclose(sol.v1.u, -sol.v1.u[::-1, :], atol=1e-9)
    assert np.allclose(sol.v1.v, sol.v1.v[::-1, :], atol=1e-9)
    assert np.allclose(sol.p.values, sol.p.values[::-1, :], atol=1e-9)


def test_label_swap_invariance():
    # the solve groups every sum over the tissues symmetrically, so
    # swapping the labels gives bitwise the same fields, with q or without
    spec = GridSpec(nx=24, ny=24)
    part = square_partition(spec)
    params = ModelParams(beta1=1.0, beta2=0.7, g1=1.0, g2=2.0,
                         p1_star=5.0, p2_star=10.0)
    swapped = ModelParams(beta1=0.7, beta2=1.0, g1=2.0, g2=1.0,
                          p1_star=10.0, p2_star=5.0)
    for q in (None, ScalarField.from_function(spec,
                                              lambda x, y: 1.0 + x * y + x)):
        a = solve_stationary(part, params, q)
        b = solve_stationary(part.swapped(), swapped, q)
        for mine, theirs in ((a.v1, b.v2), (a.v2, b.v1)):
            assert np.array_equal(mine.u, theirs.u)
            assert np.array_equal(mine.v, theirs.v)
        assert np.array_equal(a.p.values, b.p.values)


@st.composite
def _random_problems(draw):
    """An anisotropic box, a random three-label partition, q >= 0, and
    unequal viscosities and growth slopes."""
    nx, ny = draw(st.integers(4, 48)), draw(st.integers(4, 40))
    width, height = (draw(st.floats(0.5, 4.0)) for _ in range(2))
    assume(width / nx != height / ny)
    spec = GridSpec(0.0, width, 0.0, height, nx, ny)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.dirichlet(np.ones(3))
    labels = rng.choice(3, size=(nx, ny), p=weights)
    part = DomainPartition(ScalarField(spec, (labels == 1).astype(float)),
                           ScalarField(spec, (labels == 2).astype(float)))
    q = ScalarField(spec, draw(st.floats(0.0, 3.0)) * rng.random((nx, ny)))
    beta1, beta2 = draw(st.lists(st.floats(0.05, 2.0), min_size=2,
                                 max_size=2, unique=True))
    g1, g2 = draw(st.lists(st.floats(0.5, 4.0), min_size=2, max_size=2,
                           unique=True))
    p1, p2 = (draw(st.floats(0.0, 10.0)) for _ in range(2))
    return part, ModelParams(beta1=beta1, beta2=beta2, g1=g1, g2=g2,
                             p1_star=p1, p2_star=p2), q


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_random_problems())
def test_preconditioned_solve_meets_the_tolerance_and_swaps_bitwise(problem):
    part, params, q = problem
    a = solve_stationary(part, params, q)
    assert a.rel_residual <= brinkman.REL_TOL
    swapped = replace(params, beta1=params.beta2, beta2=params.beta1,
                      g1=params.g2, g2=params.g1, p1_star=params.p2_star,
                      p2_star=params.p1_star)
    b = solve_stationary(part.swapped(), swapped, q)
    for mine, theirs in ((a.v1, b.v2), (a.v2, b.v1)):
        assert np.array_equal(mine.u, theirs.u)
        assert np.array_equal(mine.v, theirs.v)
    assert np.array_equal(a.p.values, b.p.values)


def test_uniform_q_changes_solution():
    spec = GridSpec(nx=24, ny=24)
    part = square_partition(spec)
    base = solve_stationary(part, PARAMS)
    q = ScalarField(spec, np.full((24, 24), 2.0))
    shifted = solve_stationary(part, PARAMS, q)
    assert not np.allclose(base.v1.u, shifted.v1.u, atol=1e-6)


def test_quadratic_form_energy_identity():
    spec = GridSpec(nx=20, ny=20)
    part = square_partition(spec)
    sol = solve_stationary(part, PARAMS)
    energy, grad2 = quadratic_form(part, PARAMS, sol.v1, sol.v2)
    assert energy > 0.0 and grad2 > 0.0
    # with beta = g = 1 the sufficient bound has margin 3/4
    assert energy >= 0.75 * grad2


def test_quadratic_form_random_fields_coercive():
    spec = GridSpec(nx=16, ny=16)
    part = square_partition(spec)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal((17, 16))
        v = rng.standard_normal((16, 17))
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
        v1 = VectorField(spec, u, v)
        u2 = rng.standard_normal((17, 16))
        v2 = rng.standard_normal((16, 17))
        u2[0, :] = u2[-1, :] = 0.0
        v2[:, 0] = v2[:, -1] = 0.0
        energy, grad2 = quadratic_form(part, PARAMS, v1,
                                       VectorField(spec, u2, v2))
        assert energy >= 0.75 * grad2


def test_coercivity_flag_reflects_parameters():
    part = square_partition(GridSpec(nx=16, ny=16))
    assert coercivity_check(PARAMS).holds
    risky = ModelParams(beta1=0.5, beta2=0.1, g1=1.0, g2=1.0,
                        p1_star=5.0, p2_star=10.0)
    assert not coercivity_check(risky).holds
    flagged = solve_stationary(part, risky)
    assert flagged.rel_residual <= 1e-10  # still solved


def test_complementarity_closed_by_construction():
    part = concentric_partition(GridSpec(nx=32, ny=32))
    sol = solve_stationary(part, PARAMS)
    d1 = divergence(sol.v1).values
    r1 = (d1 - PARAMS.g1 * (PARAMS.p1_star - sol.p.values)) * part.chi1.values
    assert np.abs(r1).max() < 1e-9


def test_pressure_jump_on_mutual_interface():
    part = concentric_partition(GridSpec(nx=64, ny=64))
    sol = solve_stationary(part, PARAMS)
    table = measure_jump(sol, part, "pressure")
    # the two tissues disagree on the interface pressure trace
    assert table.averages["gamma"] > 0.5
    # the annulus also jumps against the zero exterior pressure
    assert table.averages["gamma2"] > 0.5
    faces, left, right, jump = table.interfaces["gamma"]
    assert len(faces) == left.size == right.size == jump.size
    assert np.isfinite(jump).sum() > 0.5 * jump.size


def test_velocity_jump_refines_away():
    norms = {}
    for n in (32, 64):
        part = concentric_partition(GridSpec(nx=n, ny=n))
        sol = solve_stationary(part, PARAMS)
        norms[n] = measure_jump(sol, part, "v1").averages["gamma"]
    assert norms[64] < norms[32]


def test_transmission_report_structure():
    part = concentric_partition(GridSpec(nx=48, ny=48))
    sol = solve_stationary(part, PARAMS)
    report = verify_transmission(sol, part)
    assert "gamma" in report.residuals and "gamma2" in report.residuals
    assert "normal_match" in report.residuals["gamma"]
    assert np.isfinite(report.max_residual())
    # normal velocities are read off shared faces: matching is not exact
    # for the coupled solve, but must be small next to the traces
    assert report.residuals["gamma"]["cont1"] < 1.0


def test_single_species_configuration():
    spec = GridSpec(nx=24, ny=24)
    xx, yy = spec.cell_center_mesh()
    chi1 = ScalarField(spec, ((np.abs(xx) < 0.5) &
                              (np.abs(yy) < 0.5)).astype(float))
    part = DomainPartition(chi1, ScalarField.zeros(spec))
    assert len(part.gamma) == 0 and len(part.gamma2) == 0
    sol = solve_stationary(part, PARAMS)
    assert sol.v1.max_face_speed() > 0.0
    table = measure_jump(sol, part, "pressure")
    assert table.averages["gamma1"] > 0.0


def test_interface_force_residuals_finite_and_local():
    part = concentric_partition(GridSpec(nx=64, ny=64))
    sol = solve_stationary(part, PARAMS)
    res = interface_force_residuals(sol, part, which=1, interface="gamma")
    assert res.size > 0
    assert np.all(np.isfinite(res))
    assert res.max() < 5.0


def _reference_force_residuals(sol, part, which, interface):
    """Per-face normal-stress residuals, every face fitted over the whole grid."""
    from scipy.ndimage import distance_transform_edt, gaussian_filter

    side_a, side_b = {"gamma": (1, 2), "gamma1": (1, 0),
                      "gamma2": (2, 0)}[interface]
    spec = part.spec
    beta = sol.params.beta1 if which == 1 else sol.params.beta2
    uc, vc = (sol.v1 if which == 1 else sol.v2).cell_centered()
    masks = {1: part.chi1.values == 1.0, 2: part.chi2.values == 1.0}
    masks[0] = ~(masks[1] | masks[2])
    fit_mask = {r: masks[r] & (distance_transform_edt(masks[r]) > 2.5)
                for r in (side_a, side_b)}
    diff = gaussian_filter(masks[side_b].astype(float)
                           - masks[side_a].astype(float), 2.0)
    gx = np.gradient(diff, spec.hx, axis=0)
    gy = np.gradient(diff, spec.hy, axis=1)
    other = 2 if which == 1 else 1
    q_sign = {side_a: 1.0, side_b: -1.0}.get(other, 0.0)
    xx, yy = spec.cell_center_mesh()
    radius = 6.0 * spec.hx
    faces = getattr(part, interface)
    res = []
    for k in range(len(faces)):
        x0, y0, is_u = float(faces.x[k]), float(faces.y[k]), bool(faces.is_u[k])
        ci = min(int((x0 - spec.x_min) / spec.hx - 0.5 * is_u), spec.nx - 1)
        cj = min(int((y0 - spec.y_min) / spec.hy - 0.5 * (not is_u)),
                 spec.ny - 1)
        norm = np.hypot(gx[ci, cj], gy[ci, cj])
        if norm < 1e-12:
            continue
        nt = np.array([gx[ci, cj], gy[ci, cj]]) / norm
        dd = (xx - x0) ** 2 + (yy - y0) ** 2
        near = dd < radius * radius

        def fit(vals, region):
            sel = fit_mask[region] & near
            if sel.sum() < 8:
                return None
            basis = np.column_stack([np.ones(int(sel.sum())),
                                     xx[sel] - x0, yy[sel] - y0])
            w = 1.0 - np.sqrt(dd[sel]) / radius
            return np.linalg.lstsq(basis * w[:, None], vals[sel] * w,
                                   rcond=None)[0]

        fits = [fit(f, r) for f, r in
                ((uc, side_a), (uc, side_b), (vc, side_a), (vc, side_b),
                 (sol.p.values, side_a), (sol.p.values, side_b))]
        if any(c is None for c in fits):
            continue
        cu_a, cu_b, cv_a, cv_b, cp_a, cp_b = fits
        grad_jump = np.array([[cu_a[1] - cu_b[1], cv_a[1] - cv_b[1]],
                              [cu_a[2] - cu_b[2], cv_a[2] - cv_b[2]]])
        predicted = cp_a[0] - cp_b[0]
        if q_sign != 0.0:
            cq = fit(sol.q.values, other)
            if cq is None:
                continue
            predicted += q_sign * cq[0]
        res.append(abs(beta * (nt @ grad_jump @ nt) - predicted))
    return np.array(res)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("interface", ["gamma", "gamma1", "gamma2"])
def test_interface_force_residuals_match_the_full_grid_reference(
        which, interface):
    # hx = 0.0625, hy = 0.05: the fit disk, 6 hx in radius, spans 7.5
    # rows; tissue 1 touches the bottom wall and tissue 2 the left wall,
    # so the fits near them are clipped by the box
    spec = GridSpec(0.0, 3.0, -1.0, 1.0, 48, 40)
    xx, yy = spec.cell_center_mesh()
    chi1 = (yy < 0.1) & (xx > 0.8) & (xx < 2.2)
    chi2 = ~chi1 & (yy > -0.5) & (yy < 0.8) & (xx < 2.6)
    part = DomainPartition(ScalarField(spec, chi1.astype(float)),
                           ScalarField(spec, chi2.astype(float)))
    params = ModelParams(beta1=1.0, beta2=0.3, g1=1.0, g2=2.0,
                         p1_star=5.0, p2_star=10.0)
    q = ScalarField(spec, 1.0 + 0.5 * np.sin(3.0 * xx) * np.cos(2.0 * yy))
    sol = solve_stationary(part, params, q)
    ref = _reference_force_residuals(sol, part, which, interface)
    assert ref.size >= 10
    got = interface_force_residuals(sol, part, which=which,
                                    interface=interface)
    assert np.array_equal(got, ref)


def test_pressure_equation_matches_coupled_system_on_anisotropic_grid():
    # hx = 0.1, hy = 0.125, unequal viscosities and growth rates, q > 0
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, 20, 24)
    xx, yy = spec.cell_center_mesh()
    chi1 = (np.abs(xx) < 0.5) & (yy > 0.5) & (yy < 1.5)
    chi2 = (np.abs(xx) < 0.7) & (yy >= 1.5) & (yy < 2.6)
    part = DomainPartition(ScalarField(spec, chi1.astype(float)),
                           ScalarField(spec, chi2.astype(float)))
    assert part.gamma and part.gamma1 and part.gamma2
    params = ModelParams(beta1=1.0, beta2=0.3, g1=1.0, g2=2.0,
                         p1_star=5.0, p2_star=10.0)
    q = ScalarField(spec, 1.0 + 0.5 * np.sin(3.0 * xx) * np.cos(2.0 * yy))
    sol = solve_stationary(part, params, q)
    system = assemble_weak_form(part, params, q)
    x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    half = x.size // 2
    for got, ref in ((sol.v1, x[:half]), (sol.v2, x[half:])):
        err = np.linalg.norm(stack_faces(got) - ref) / np.linalg.norm(ref)
        assert err <= 1e-9
    assert sol.rel_residual <= brinkman.REL_TOL
    assert 0 < sol.iterations <= 10 * (spec.nx + spec.ny)


def test_iteration_budget_bounds_inner_iterations(monkeypatch):
    # a zero tolerance cannot be reached, so GMRES spends its whole
    # budget of 10*(nx+ny) inner iterations (500, ten restart cycles)
    part = concentric_partition(GridSpec(nx=24, ny=26))
    monkeypatch.setattr(brinkman, "REL_TOL", 0.0)
    with pytest.raises(SolverFailure, match="stationary system") as err:
        solve_stationary(part, PARAMS)
    assert err.value.iterations == 10 * (24 + 26)


def test_nan_product_fails_with_its_iteration_count(monkeypatch):
    # a NaN breaks the Arnoldi process down at once, and the NaN residual
    # of the coupled system must fail its check
    part = concentric_partition(GridSpec(nx=16, ny=16))

    def nan_operator(betas, spec):
        return lambda p: np.full((len(betas),) + p.shape, np.nan)

    monkeypatch.setattr(stationary, "cell_pressure_operator", nan_operator)
    with pytest.raises(SolverFailure, match="stationary system") as err:
        solve_stationary(part, PARAMS)
    assert err.value.iterations == 1


@pytest.mark.parametrize("case, n, q0, iterations", [
    ("concentric", 32, 0.0, 6), ("concentric", 64, 0.0, 6),
    ("concentric", 128, 0.0, 6), ("unequal", 64, 0.0, 8),
    ("bands", 64, 0.0, 18), ("bands", 64, 1.0, 18),
    ("bands", 128, 0.0, 19), ("bands", 256, 1.0, 20)])
def test_iteration_counts_do_not_grow_with_the_grid(case, n, q0, iterations):
    # the counts the README quotes; "unequal" is the concentric partition
    # with a diagonal preconditioner that differs between the tissues
    if case == "concentric":
        part, params = concentric_partition(GridSpec(nx=n, ny=n)), PARAMS
    elif case == "unequal":
        part = concentric_partition(GridSpec(nx=n, ny=n))
        params = replace(PARAMS, beta1=0.5, beta2=0.1, g2=2.0)
    else:
        cfg = PRESETS["fig3-lesvm"]
        cfg = replace(cfg, grid=replace(cfg.grid, nx=n, ny=n))
        part, params = initial_partition(cfg), cfg.params
    q = ScalarField(part.spec, np.full((n, n), q0))
    sol = solve_stationary(part, params, q)
    assert sol.iterations == iterations
    assert sol.rel_residual <= brinkman.REL_TOL


_BANDS_SOLVE = """
import hashlib, sys
from dataclasses import replace
sys.path.insert(0, sys.argv[1])
import numpy as np
from tissueflow.grid import ScalarField
from tissueflow.harness import PRESETS, initial_partition
from tissueflow.stationary import solve_stationary
cfg = PRESETS["fig3-lesvm"]
cfg = replace(cfg, grid=replace(cfg.grid, nx=64, ny=64))
part = initial_partition(cfg)
sol = solve_stationary(part, cfg.params,
                       ScalarField(part.spec, np.full((64, 64), 0.5)))
for a in (np.float64(sol.rel_residual), sol.p.values, sol.v1.u, sol.v1.v,
          sol.v2.u, sol.v2.v):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


def test_stationary_solve_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot product splits a long sum across threads, so a norm taken
    # with it differs in its last bits between thread counts; with q = 0.5
    # the residual of the fig3-lesvm bands showed it (with q = 1 it did not)
    src = str(Path(__file__).resolve().parents[1] / "src")
    hashes = [subprocess.run([sys.executable, "-c", _BANDS_SOLVE, src],
                             env=dict(os.environ, OPENBLAS_NUM_THREADS=n),
                             capture_output=True, text=True, check=True,
                             timeout=300).stdout
              for n in ("1", "2")]
    assert hashes[0] == hashes[1] and len(hashes[0].split()) == 6


def test_gmres_restarts_and_breaks_down_happily():
    # a nonsymmetric operator that needs a second restart cycle takes as
    # many inner iterations as scipy's GMRES, the solver it replaced
    rng = np.random.default_rng(3)
    n = 120
    matrix = np.eye(n) + 0.8 * rng.standard_normal((n, n)) / np.sqrt(n)
    f = rng.standard_normal(n)
    history, reference = [], []
    x = _gmres(lambda v: matrix @ v, f, 10, history)
    spla.gmres(matrix, f, rtol=0.01 * brinkman.REL_TOL, atol=0.0,
               restart=GMRES_RESTART, maxiter=10, callback=reference.append,
               callback_type="pr_norm")
    assert GMRES_RESTART < len(history) == len(reference)
    tol = 0.01 * brinkman.REL_TOL * np.linalg.norm(f)
    assert np.linalg.norm(f - matrix @ x) <= tol
    # f spans an invariant subspace: one iteration, and it is exact
    history = []
    x = _gmres(lambda v: 2.0 * v, f, 10, history)
    assert len(history) == 1
    assert np.allclose(x, 0.5 * f, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# interface faces and jumps against a plain per-face reference

def _reference_faces(labels, spec, a, b):
    """(orientation, fi, fj, x, y, nux, nuy) of every a|b face, normal a -> b."""
    nx, ny = labels.shape
    xf, yc = spec.x_faces(), spec.y_centers()
    xc, yf = spec.x_centers(), spec.y_faces()
    faces = []
    for fi in range(1, nx):
        for j in range(ny):
            lo, hi = labels[fi - 1, j], labels[fi, j]
            if (lo, hi) in ((a, b), (b, a)):
                faces.append(("u", fi, j, xf[fi], yc[j],
                              1.0 if lo == a else -1.0, 0.0))
    for i in range(nx):
        for fj in range(1, ny):
            lo, hi = labels[i, fj - 1], labels[i, fj]
            if (lo, hi) in ((a, b), (b, a)):
                faces.append(("v", i, fj, xc[i], yf[fj],
                              0.0, 1.0 if lo == a else -1.0))
    return faces


def _reference_trace(values, labels, face, sign, region):
    """(two-cell linear extrapolation on side ``sign`` of a face, whether
    both cells lie in the box and in ``region``)."""
    orientation, fi, fj, _, _, nux, nuy = face
    nx, ny = values.shape
    if orientation == "u":
        d = int(nux) * sign
        cells = [((fi if d > 0 else fi - 1) + k * d, fj) for k in range(2)]
    else:
        d = int(nuy) * sign
        cells = [(fi, (fj if d > 0 else fj - 1) + k * d) for k in range(2)]
    samples = []
    for i, j in cells:
        if not (0 <= i < nx and 0 <= j < ny) or labels[i, j] != region:
            return np.nan, False
        samples.append(values[i, j])
    a, b = samples
    return 1.5 * a - 0.5 * b, True


def _reference_rows(sol, part, quantity):
    """Rows of ``jumps.csv`` and averages of ``measure_jump``, one face at
    a time."""
    regions = {"gamma": (1, 2), "gamma1": (1, 0), "gamma2": (2, 0)}
    spec, labels = part.spec, part.labels
    u1c, v1c = sol.v1.cell_centered()
    u2c, v2c = sol.v2.cell_centered()
    rows, averages = [], {}
    for name, (ra, rb) in regions.items():
        total, count = 0.0, 0
        for k, face in enumerate(_reference_faces(labels, spec, ra, rb)):
            def tr(vals, sign, region):
                return _reference_trace(vals, labels, face, sign, region)[0]
            ok = (_reference_trace(sol.p.values, labels, face, -1, ra)[1] and
                  _reference_trace(sol.p.values, labels, face, 1, rb)[1])
            if quantity == "pressure":
                left = tr(sol.p.values, -1, ra)
                right = tr(sol.p.values, 1, rb) if rb else 0.0
                jump = left - right
            else:
                uc, vc = (u1c, v1c) if quantity == "v1" else (u2c, v2c)
                ul, vl = tr(uc, -1, ra), tr(vc, -1, ra)
                ur, vr = tr(uc, 1, rb), tr(vc, 1, rb)
                left, right = float(np.hypot(ul, vl)), float(np.hypot(ur, vr))
                jump = float(np.hypot(ul - ur, vl - vr))
            if ok:
                marker = ""
                total += abs(jump)
                count += 1
            else:
                left = right = jump = np.nan
                marker = "untraceable"
            rows.append({"interface": name, "face_index": k, "x": face[3],
                         "y": face[4], "nx": face[5], "ny": face[6],
                         "quantity": quantity, "left_trace": left,
                         "right_trace": right, "jump": jump,
                         "marker": marker})
        averages[name] = total / count if count else np.nan
    return rows, averages


def _wall_and_strip_partition():
    """Anisotropic 20x24 box: tissue 1 one cell off the left wall, tissue 2
    one cell off the bottom wall, and one-cell strips of both tissues."""
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, 20, 24)
    labels = np.zeros((20, 24), dtype=int)
    labels[1:7, 3:11] = 1       # block one cell off the left wall
    labels[7:15, 1:13] = 2      # block one cell off the bottom wall
    labels[8:13, 13] = 1        # one-cell strip of tissue 1 on tissue 2
    labels[16, 5:16] = 2        # free one-cell strip of tissue 2
    return DomainPartition(ScalarField(spec, (labels == 1).astype(float)),
                           ScalarField(spec, (labels == 2).astype(float)))


@pytest.mark.parametrize("quantity", ["pressure", "v1", "v2"])
def test_measure_jump_matches_the_per_face_reference(quantity, tmp_path):
    part = _wall_and_strip_partition()
    assert part.gamma and part.gamma1 and part.gamma2
    spec = part.spec
    xx, yy = spec.cell_center_mesh()
    q = ScalarField(spec, 1.0 + 0.5 * np.sin(3.0 * xx) * np.cos(2.0 * yy))
    params = ModelParams(beta1=1.0, beta2=0.3, g1=1.0, g2=2.0,
                         p1_star=5.0, p2_star=10.0)
    sol = solve_stationary(part, params, q)
    ref_rows, ref_avg = _reference_rows(sol, part, quantity)
    table = measure_jump(sol, part, quantity)
    write_jump_csv([table], tmp_path / "jumps.csv")
    with open(tmp_path / "jumps.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == JUMP_CSV_COLUMNS
    assert len(rows) == len(ref_rows)
    markers = [r["marker"] for r in ref_rows]
    assert "untraceable" in markers and "" in markers
    traces = ("left_trace", "right_trace", "jump")
    for row, ref in zip(rows, ref_rows):
        got = dict(zip(JUMP_CSV_COLUMNS, row, strict=True))
        marked = [key for key, text in got.items() if text == "untraceable"]
        assert marked == (list(traces) if ref["marker"] else [])
        assert (got["interface"], got["quantity"], int(got["face_index"])) == (
            ref["interface"], ref["quantity"], ref["face_index"])
        for key in ("x", "y", "nx", "ny") + (() if ref["marker"] else traces):
            assert float(got[key]) == ref[key], key
    assert table.averages.keys() == ref_avg.keys()
    for name, value in ref_avg.items():
        assert np.array_equal(table.averages[name], value, equal_nan=True)


def test_face_records_of_a_hand_built_partition():
    spec = GridSpec(0.0, 1.0, 0.0, 3.0, 5, 6)      # hx = 0.2, hy = 0.5
    labels = np.array([[0, 0, 0, 0, 0, 0],
                       [0, 1, 1, 2, 0, 0],
                       [0, 1, 2, 2, 0, 0],
                       [0, 0, 2, 1, 0, 0],
                       [0, 0, 0, 0, 0, 0]])
    part = DomainPartition(ScalarField(spec, (labels == 1).astype(float)),
                           ScalarField(spec, (labels == 2).astype(float)))
    assert "gamma" not in vars(part)          # built on first read
    gamma = part.gamma
    assert "gamma" in vars(part) and part.gamma is gamma
    # (orientation, fi, fj, nux, nuy), normal from tissue 1 into tissue 2
    expected = [("u", 2, 2, 1.0, 0.0), ("u", 3, 3, -1.0, 0.0),
                ("v", 1, 3, 0.0, 1.0), ("v", 2, 2, 0.0, 1.0),
                ("v", 3, 3, 0.0, -1.0)]
    assert len(gamma) == 5
    assert gamma.is_u.tolist() == [e[0] == "u" for e in expected]
    assert gamma.fi.tolist() == [e[1] for e in expected]
    assert gamma.fj.tolist() == [e[2] for e in expected]
    assert gamma.nux.tolist() == [e[3] for e in expected]
    assert gamma.nuy.tolist() == [e[4] for e in expected]
    assert np.allclose(gamma.x, [0.4, 0.6, 0.3, 0.5, 0.7])
    assert np.allclose(gamma.y, [1.25, 1.75, 1.5, 1.0, 1.5])
    # flat cell indices i*ny + j: left (tissue 1) side, then right side
    assert gamma.near[:, 0].tolist() == [8, 14]
    assert gamma.far[:, 0].tolist() == [2, 20]
    # every face here has a far cell of the wrong tissue on some side
    assert not gamma.traceable.any()
    # a far cell beyond the wall repeats the near one and is untraceable
    wall = part.gamma1.is_u & (part.gamma1.fi == 1) & (part.gamma1.fj == 1)
    assert part.gamma1.nux[wall].tolist() == [-1.0]
    assert part.gamma1.near[:, wall].ravel().tolist() == [7, 1]
    assert part.gamma1.far[:, wall].ravel().tolist() == [13, 1]
    assert not part.gamma1.traceable[wall].any()
    for name in ("gamma", "gamma1", "gamma2"):
        ref = _reference_faces(labels, spec, *{"gamma": (1, 2),
                                              "gamma1": (1, 0),
                                              "gamma2": (2, 0)}[name])
        faces = getattr(part, name)
        got = list(zip(np.where(faces.is_u, "u", "v").tolist(),
                       faces.fi.tolist(), faces.fj.tolist(), faces.x.tolist(),
                       faces.y.tolist(), faces.nux.tolist(),
                       faces.nuy.tolist()))
        assert got == ref
    empty = concentric_partition(GridSpec(nx=16, ny=16))
    assert len(empty.gamma1) == 0 and not empty.gamma1


def _strip_partition():
    """24x24 box: tissue 1 as a one-cell strip at i = 6 on a tissue 2 block,
    so that no tissue 1 | tissue 2 face is traceable."""
    spec = GridSpec(nx=24, ny=24)
    labels = np.zeros((24, 24), dtype=int)
    labels[6, 4:20] = 1
    labels[7:18, 4:20] = 2
    return DomainPartition(ScalarField(spec, (labels == 1).astype(float)),
                           ScalarField(spec, (labels == 2).astype(float)))


def test_transmission_report_skips_nan_entries_and_counts_faces_once():
    part = _strip_partition()
    sol = solve_stationary(part, PARAMS)
    report = verify_transmission(sol, part)
    gamma = report.residuals["gamma"]
    assert np.isnan(gamma["cont1"]) and np.isnan(gamma["cont2"])
    entries = [v for d in report.residuals.values() for v in d.values()]
    assert report.max_residual() == np.nanmax(entries)
    # 16 tissue faces of the strip on each side, each counted once
    table = measure_jump(sol, part, "pressure")
    marked = sum(int(np.isnan(jump).sum())
                 for _, _, _, jump in table.interfaces.values())
    assert report.n_untraceable == marked == 32


def test_transmission_residual_halves_under_refinement():
    # every entry is a continuity residual, first order: 0.0874, 0.0430,
    # 0.0215, so a factor 1.9 leaves room for the ratio 1.996 at 128^2
    largest = [verify_transmission(solve_stationary(part, PARAMS),
                                   part).max_residual()
               for part in (concentric_partition(GridSpec(nx=n, ny=n))
                            for n in (32, 64, 128))]
    assert largest[0] >= 1.9 * largest[1] >= 1.9 ** 2 * largest[2] > 0.0


def test_max_residual_edge_cases():
    assert TransmissionReport({}, 0).max_residual() == 0.0
    assert np.isnan(TransmissionReport({"gamma": {"a": np.nan}},
                                       1).max_residual())
    mixed = TransmissionReport({"gamma": {"a": np.nan, "b": 2.0},
                                "gamma1": {"a": 1.0}}, 1)
    assert mixed.max_residual() == 2.0
