import numpy as np
import pytest

from tissueflow.constitutive import ModelParams
from tissueflow.dynamics import StepControl
from tissueflow.freeboundary import (LimitState, VanishingSubdomain,
                                     complementarity_closure, init_limit_state,
                                     rethreshold, run_limit, step_limit,
                                     transport_q)
from tissueflow.grid import GridSpec, ScalarField, VectorField, divergence
from tissueflow.stationary import DomainPartition, StationarySolution

PAR = ModelParams(beta1=1.0, beta2=1.0, g1=1.0, g2=1.0,
                  p1_star=5.0, p2_star=10.0)


def band_partition(spec, half=0.3, hi=0.6):
    xx, yy = spec.cell_center_mesh()
    chi1 = ((np.abs(xx) < half) & (np.abs(yy) < half)).astype(float)
    chi2 = ((np.abs(xx) >= half) & (np.abs(xx) < hi) &
            (np.abs(yy) < half)).astype(float)
    return DomainPartition(ScalarField(spec, chi1), ScalarField(spec, chi2))


def test_init_masks_q_and_rejects_negative():
    spec = GridSpec(nx=24, ny=24)
    part = band_partition(spec)
    q0 = ScalarField(spec, np.full((24, 24), 1.5))
    st = init_limit_state(part, PAR, q0)
    outside = (part.chi1.values + part.chi2.values) == 0.0
    assert np.all(st.q.values[outside] == 0.0)
    with pytest.raises(ValueError):
        init_limit_state(part, PAR, ScalarField(spec, np.full((24, 24), -1.0)))


def test_zero_homeostatic_pressure_is_static():
    spec = GridSpec(nx=24, ny=24)
    part = band_partition(spec)
    params = ModelParams(beta1=1.0, beta2=1.0, g1=1.0, g2=1.0,
                         p1_star=0.0, p2_star=0.0)
    st = init_limit_state(part, params)
    ctrl = StepControl(dt=1e-3, t_end=0.01)
    _, final = run_limit(st, ctrl, params)
    assert np.array_equal(final.part.labels, part.labels)


def test_rethreshold_tie_breaking():
    l1 = np.array([[0.6, 0.4, 0.4]])
    l2 = np.array([[0.6, 0.6, 0.4]])
    chi1, chi2 = rethreshold(l1, l2)
    assert chi1[0, 0] == 1.0 and chi2[0, 0] == 0.0  # draw goes to tissue 1
    assert chi2[0, 1] == 1.0
    assert chi1[0, 2] == 0.0 and chi2[0, 2] == 0.0  # neither claims the cell


def test_area_growth_matches_divergence_integral():
    # d/dt |Omega_1| = integral of div v1 over Omega_1; the cellwise
    # partition tracks it through quantized boundary-ring flips
    spec = GridSpec(nx=48, ny=48)
    xx, yy = spec.cell_center_mesh()
    chi1 = ((np.abs(xx) < 0.4) & (np.abs(yy) < 0.4)).astype(float)
    part = DomainPartition(ScalarField(spec, chi1), ScalarField.zeros(spec))
    st = init_limit_state(part, PAR)
    ctrl = StepControl(dt=1e-3, t_end=0.08)
    a0 = st.areas()[0]
    pred = 0.0
    while st.t < ctrl.t_end - 1e-14:
        d1 = (divergence(st.sol.v1).values *
              st.part.chi1.values).sum() * spec.cell_area
        tprev = st.t
        st = step_limit(st, ctrl, PAR)
        pred += (st.t - tprev) * d1
    actual = st.areas()[0] - a0
    assert actual > 0.0
    assert abs(actual - pred) < 0.05 * pred


def test_partitions_never_overlap():
    spec = GridSpec(nx=32, ny=32)
    st = init_limit_state(band_partition(spec), PAR)
    ctrl = StepControl(dt=2e-3, t_end=0.04)
    while st.t < ctrl.t_end - 1e-14:
        st = step_limit(st, ctrl, PAR)
        part = st.part
        assert int((part.chi1.values * part.chi2.values).sum()) == 0


def _static_state(part, params, q0):
    """Limit state with a handcrafted zero-velocity, zero-pressure solve."""
    spec = part.spec
    v0 = VectorField.zeros(spec)
    sol = StationarySolution(params, q0, v0, v0, ScalarField.zeros(spec),
                             0.0)
    return LimitState(0.0, part, part.chi1, part.chi2, sol)


def test_q_transport_matches_growth_ode():
    # with v = 0 and p = 0 the substitution s = log(1+q) obeys
    # ds/dt = s * g_other * p_other_star exactly, cellwise
    spec = GridSpec(nx=16, ny=16)
    part = band_partition(spec)
    q0v = 0.7 * part.chi1.values + 0.2 * part.chi2.values
    st = _static_state(part, PAR, ScalarField(spec, q0v))
    dt = 1e-3
    q1 = transport_q(st, dt)
    s0 = np.log1p(q0v)
    rate = np.where(part.chi1.values == 1.0, PAR.g2 * PAR.p2_star,
                    PAR.g1 * PAR.p1_star)
    expected = np.expm1(s0 * (1.0 + dt * rate)) * (part.chi1.values +
                                                   part.chi2.values)
    assert np.allclose(q1.values, expected, atol=1e-14)


def test_q_stays_nonnegative_and_zero_stays_zero():
    spec = GridSpec(nx=24, ny=24)
    part = band_partition(spec)
    rng = np.random.default_rng(4)
    q0 = ScalarField(spec, rng.uniform(0.0, 2.0, (24, 24)))
    st = init_limit_state(part, PAR, q0)
    ctrl = StepControl(dt=1e-3, t_end=0.02)
    while st.t < ctrl.t_end - 1e-14:
        st = step_limit(st, ctrl, PAR)
        assert np.all(st.q.values >= 0.0)
    st0 = init_limit_state(part, PAR)
    _, final = run_limit(st0, StepControl(dt=1e-3, t_end=0.01), PAR)
    assert np.all(final.q.values == 0.0)


def test_limit_models_coincide_without_repulsion_memory():
    # L-VM is L-ESVM with q = 0: the limit step reads no model name, so
    # from the same nonzero q0 both step controls give the same states
    spec = GridSpec(nx=24, ny=24)
    part = band_partition(spec)
    q0 = ScalarField(spec, np.full((24, 24), 1.5))
    st = init_limit_state(part, PAR, q0)
    assert st.q is st.sol.q
    finals = [run_limit(st, StepControl(dt=2e-3, t_end=0.02, model=model),
                        PAR)[1] for model in ("ESVM", "VM")]
    a, b = finals
    assert a.t == b.t == 0.02
    assert not any(np.array_equal(f.q.values, st.q.values) for f in finals)
    for mine, theirs in ((a.level1, b.level1), (a.level2, b.level2),
                         (a.q, b.q), (a.sol.p, b.sol.p)):
        assert np.array_equal(mine.values, theirs.values)
    for mine, theirs in ((a.sol.v1, b.sol.v1), (a.sol.v2, b.sol.v2)):
        assert np.array_equal(mine.u, theirs.u)
        assert np.array_equal(mine.v, theirs.v)


def test_vanishing_subdomain_is_reported():
    spec = GridSpec(nx=32, ny=32)
    xx, yy = spec.cell_center_mesh()
    c1 = ScalarField(spec, ((np.abs(xx) < 0.08) &
                            (np.abs(yy) < 0.08)).astype(float))
    c2 = ScalarField(spec, ((np.abs(xx) >= 0.08) & (np.abs(xx) < 0.6) &
                            (np.abs(yy) < 0.6)).astype(float))
    part = DomainPartition(c1, c2)
    params = ModelParams(beta1=1.0, beta2=1.0, g1=1.0, g2=1.0,
                         p1_star=0.0, p2_star=10.0)
    st = init_limit_state(part, params)
    with pytest.raises(VanishingSubdomain) as err:
        run_limit(st, StepControl(dt=2e-3, t_end=0.5), params)
    assert err.value.which == 1


def test_complementarity_closure_roundoff():
    spec = GridSpec(nx=32, ny=32)
    part = band_partition(spec)
    st = init_limit_state(part, PAR)
    r1, r2 = complementarity_closure(part, PAR, st.sol)
    assert r1.max_norm() < 1e-9 and r2.max_norm() < 1e-9
