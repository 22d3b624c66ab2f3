import numpy as np
import pytest
import scipy.sparse.linalg as spla

from tissueflow.brinkman import SolverConfig, SolverFailure
from tissueflow.constitutive import ModelParams
from tissueflow.grid import GridSpec, ScalarField, VectorField, divergence
from tissueflow.operators import stack_faces
from tissueflow.stationary import (DomainPartition, PartitionError,
                                   assemble_weak_form, concentric_partition,
                                   interface_force_residuals, measure_jump,
                                   quadratic_form, solve_stationary,
                                   verify_transmission)

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
    with pytest.raises(PartitionError):
        DomainPartition(ones, zeros)          # touches the outer walls
    part = DomainPartition(ones, zeros, allow_wall_contact=True)
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
    spec = GridSpec(nx=24, ny=24)
    part = square_partition(spec)
    params = ModelParams(beta1=1.0, beta2=0.7, g1=1.0, g2=2.0,
                         p1_star=5.0, p2_star=10.0)
    swapped = ModelParams(beta1=0.7, beta2=1.0, g1=2.0, g2=1.0,
                          p1_star=10.0, p2_star=5.0)
    a = solve_stationary(part, params)
    b = solve_stationary(part.swapped(), swapped)
    assert np.allclose(a.v1.u, b.v2.u, atol=1e-10)
    assert np.allclose(a.v2.v, b.v1.v, atol=1e-10)
    assert np.allclose(a.p.values, b.p.values, atol=1e-9)


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
    ok = solve_stationary(part, PARAMS)
    assert ok.coercivity.holds
    risky = ModelParams(beta1=0.5, beta2=0.1, g1=1.0, g2=1.0,
                        p1_star=5.0, p2_star=10.0)
    flagged = solve_stationary(part, risky)
    assert not flagged.coercivity.holds
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
    rows = table.interface_rows("gamma")
    traceable = [r for r in rows if not r["marker"]]
    assert len(traceable) > 0.5 * len(rows)


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
    assert sol.rel_residual <= SolverConfig().rel_tol
    assert 0 < sol.iterations <= SolverConfig().iterations_for(spec)


def test_iteration_budget_bounds_inner_iterations():
    part = concentric_partition(GridSpec(nx=24, ny=24))
    with pytest.raises(SolverFailure) as err:
        solve_stationary(part, PARAMS, cfg=SolverConfig(max_iter=1))
    assert err.value.iterations == 1
