"""End-to-end acceptance battery.

Each test certifies one headline property of the solvers on a pinned
configuration and prints a single ``criterion NN: PASS/FAIL`` line with
the measured numbers, so the battery doubles as a run report
(``pytest -s tests/test_acceptance.py``).  The dynamic criteria 03 and
05 also print the sum-rescale and congestion-clamp totals and the
smallest accepted time step, so each line shows whether its runs were
clean.

Criterion 04 compares two code paths: ESVM with its repulsion on, which
solves each tissue's velocity from its own pressure, and VM, which
solves both from the shared pressure in one call.  On segregated data
the repulsion pressure is exactly 0, so the two must agree bit for bit;
a VM solve that pairs the viscosities with the wrong tissues fails it,
as `test_criterion_04_catches_swapped_viscosities` checks.

Measurements behind criteria 03 and 05 (64^2 and 128^2, preset data):

* criterion 05 (stiffening sweep at 64^2, t = 0.05) was red because the
  step control let explicit updates push n1+n2 past the congestion
  ceiling; the densities were rescaled onto 1 - 1e-8 and dt collapsed
  to ~1e-9, so the stiffest run stalled and its mixedness rose
  (0.2424 -> 0.2492 -> 0.2498).  Runs at a fixed dt = 5e-5, converged in
  dt, never clamp and decrease in all three columns: overlap
  0.0508 -> 0.0261 -> 0.0127, congestion residual
  0.2114 -> 0.1054 -> 0.0423, mixedness 0.1904 -> 0.1751 -> 0.1441.
  With a-posteriori step acceptance the preset dt reproduces these
  values.
* criterion 03 checks that the interface overlap of the congestion-only
  model is numerical and refines away.  With equal viscosities the two
  tissue velocities coincide, so the continuum keeps the bands exactly
  segregated; donor-cell advection smears a contact over a width of
  order sqrt(h*t), so the overlap falls by sqrt(2) per halving of h
  (measured 0.0535 -> 0.0378, ratio 1.417, no clamps).  With the
  preset's unequal viscosities (beta1 = 0.5, beta2 = 0.1) the velocities
  differ across the interface and the model mixes the tissues at finite
  eps independently of h: the ratio is 1.18 on clean runs
  (0.0860 -> 0.0729), which the criterion's window excludes.
"""

from dataclasses import replace

import numpy as np

from tissueflow import dynamics, freeboundary
from tissueflow.brinkman import (REL_TOL, solve_brinkman,
                                 solve_brinkman_gradient_form,
                                 solve_brinkman_rhs)
from tissueflow.constitutive import ModelParams, repulsion_scalar
from tissueflow.diagnostics import curl_signature, segregation_metric
from tissueflow.dynamics import init_state, step_esvm, step_vm
from tissueflow.grid import GridSpec, VectorField, curl2d
from tissueflow.harness import (PRESETS, initial_densities, simulate,
                                step_control, sweep)
from tissueflow.stationary import (concentric_partition, measure_jump,
                                   solve_stationary)

from stationary_reference import interface_force_residuals, quadratic_form


STATIONARY_PARAMS = ModelParams(beta1=1.0, beta2=1.0, g1=1.0, g2=1.0,
                                p1_star=5.0, p2_star=10.0)


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _square(n: int) -> GridSpec:
    return GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)


def _preset(name: str, n: int, **overrides):
    return replace(PRESETS[name], grid=_square(n), **overrides)


_dynamic_cache: dict = {}


def _final_state(preset: str, n: int, t_end: float, **param_overrides):
    """(config, final state, smallest accepted dt) of a preset run."""
    key = (preset, n, t_end, tuple(sorted(param_overrides.items())))
    if key not in _dynamic_cache:
        cfg = _preset(preset, n, t_end=t_end)
        cfg = replace(cfg, params=replace(cfg.params, **param_overrides))
        dts, state = simulate(cfg, [lambda s, _: s.dt_last])
        _dynamic_cache[key] = (cfg, state, min(dts))
    return _dynamic_cache[key]


def _cleanliness(sum_rescale: int, congestion: int, min_dt: float) -> str:
    return (f"sum-rescale events {sum_rescale}, congestion clamps "
            f"{congestion}, min accepted dt {min_dt:.2e}")


_stationary_cache: dict = {}


def _concentric_solution(n: int):
    if n not in _stationary_cache:
        part = concentric_partition(_square(n))
        sol = solve_stationary(part, STATIONARY_PARAMS)
        _stationary_cache[n] = (part, sol)
    return _stationary_cache[n]


_limit_cache: dict = {}


def _limit_run(n: int = 128, t_end: float = 0.1):
    """Sharp-interface run of the congestion-limit model on the band data.

    Returns per-step overlap cell counts, initial/final areas, the final
    lateral-tissue curl signature, and the worst divergence-law closure
    residual over every stationary solve of the run.
    """
    key = (n, t_end)
    if key not in _limit_cache:
        cfg = _preset("fig3-lesvm", n, model="L-VM", t_end=t_end)

        def audit(state, params):
            r1, r2 = freeboundary.complementarity_closure(
                state.part, params, state.sol)
            part = state.part
            return (state.areas(),
                    int((part.chi1.values * part.chi2.values).sum()),
                    max(r1.max_norm(), r2.max_norm()))

        # a run to t = 0 observes the initial state and its solve
        (first,), _ = simulate(replace(cfg, t_end=0.0), [audit])
        audits, state = simulate(cfg, [audit])
        sig = curl_signature(state.sol.v2,
                             mask=state.part.chi2.values == 1.0)
        _limit_cache[key] = dict(
            params=cfg.params, overlaps=[a[1] for a in audits],
            areas0=first[0], areas1=state.areas(), signature=sig,
            closure=max(a[2] for a in (first, *audits)))
    return _limit_cache[key]


def test_criterion_01_brinkman_manufactured_convergence():
    # v* = sin(pi x) sin(pi y) (1,1) on [-1,1]^2, beta = 0.5; the L2
    # error must drop by 3.5-4.5x from 32^2 to 64^2 (second order).
    beta = 0.5

    def error(n):
        spec = _square(n)

        def vstar(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        def rhs(x, y):
            return (2.0 * beta * np.pi ** 2 + 1.0) * vstar(x, y)

        (v,) = solve_brinkman_rhs(VectorField.from_functions(spec, rhs, rhs),
                                  (beta,))
        exact = VectorField.from_functions(spec, vstar, vstar)
        return VectorField(spec, v.u - exact.u, v.v - exact.v).l2_norm()

    ratio = error(32) / error(64)
    _report(1, 3.5 <= ratio <= 4.5,
            f"L2 error ratio 32^2/64^2 = {ratio:.3f}, required in [3.5, 4.5]")


def test_criterion_02_curl_dichotomy():
    # On the repulsion-model pressure at t = 0.05 (64^2), the wall-vortex
    # velocity must carry >= 10x the curl of the laminar gradient-form
    # velocity computed from the same pressure.
    cfg, state, _ = _final_state("fig3-esvm", 64, 0.05)
    p2 = state.p2
    (v_wall,) = solve_brinkman(p2, (cfg.params.beta2,))
    (v_laminar,) = solve_brinkman_gradient_form(p2, (cfg.params.beta2,))
    curl_dirichlet = curl2d(v_wall).l2_norm()
    curl_gradient = curl2d(v_laminar).l2_norm()
    ratio = curl_dirichlet / curl_gradient
    _report(2, ratio >= 10.0,
            f"curl ratio wall-vortex/laminar = {ratio:.1f}, required >= 10")


def test_criterion_03_overlap_halves_under_refinement():
    # With beta2 = beta1 the two velocities coincide and every bit of
    # interface overlap of the congestion-only model is numerical.
    # Donor-cell smearing grows like sqrt(h*t), so the overlap must fall
    # by sqrt(2) (within about 12%) when h halves; the 1.18 of the
    # unequal-viscosity preset is physical mixing and must fail.
    beta1 = PRESETS["fig3-vm"].params.beta1
    overlaps, runs = {}, []
    for n in (64, 128):
        _, state, min_dt = _final_state("fig3-vm", n, 0.1, beta2=beta1)
        overlaps[n] = segregation_metric(state.n1, state.n2)
        runs.append((state.counters, min_dt))
    ratio = overlaps[64] / overlaps[128]
    clean = _cleanliness(sum(c.sum_rescale for c, _ in runs),
                         sum(c.congestion for c, _ in runs),
                         min(dt for _, dt in runs))
    _report(3, 1.25 <= ratio <= 1.6,
            f"overlap {overlaps[64]:.4f} -> {overlaps[128]:.4f}, "
            f"ratio {ratio:.3f}, required in [1.25, 1.6]; {clean}")


def _criterion_04_differences(n: int) -> list:
    """Where ESVM with its repulsion on and VM differ, from the segregated
    n x n band data at alpha = 0: "<law> law after <init_state|one step>"
    for each velocity law."""
    cfg = _preset("fig3-esvm", n)
    params = replace(cfg.params, alpha=0.0)
    n1_0, n2_0 = initial_densities(cfg)
    assert not (n1_0.values * n2_0.values).any()

    def arrays(s):
        return (s.n1.values, s.n2.values, s.p1.values, s.p2.values,
                s.v1.u, s.v1.v, s.v2.u, s.v2.v)

    differ = []
    for law in ("dirichlet", "gradient"):
        runs = []
        for model, step in (("ESVM", step_esvm), ("VM", step_vm)):
            ctrl = replace(step_control(cfg), model=model, velocity_law=law)
            state = init_state(n1_0, n2_0, params, ctrl)
            runs.append((state, step(state, ctrl, params)))
        for when, (esvm, vm) in zip(("init_state", "one step"), zip(*runs)):
            if ((esvm.t, esvm.dt_last, esvm.counters) !=
                    (vm.t, vm.dt_last, vm.counters) or
                    not all(map(np.array_equal, arrays(esvm), arrays(vm)))):
                differ.append(f"{law} law after {when}")
    return differ


def test_criterion_04_models_coincide_without_repulsion():
    # ESVM with its repulsion on and VM from the segregated band data
    # at alpha = 0 must agree bit for bit after init_state and after one
    # step, for both velocity laws (see the module docstring).
    differ = _criterion_04_differences(64)
    detail = (f"differ: {', '.join(differ)}" if differ else
              "bitwise equal after init_state and one step, both laws")
    _report(4, not differ, f"ESVM (repulsion on) vs VM on the segregated "
            f"64^2 bands at alpha = 0: {detail}")


def test_criterion_04_catches_swapped_viscosities(monkeypatch):
    # a planted bug: VM's shared two-beta velocity solve pairs each
    # viscosity with the other tissue (ESVM's one-beta solves are unchanged)
    solve = dynamics._solve_velocity
    monkeypatch.setattr(dynamics, "_solve_velocity",
                        lambda p, betas, ctrl: solve(p, betas[::-1], ctrl))
    assert _criterion_04_differences(32) == [
        f"{law} law after {when}" for law in ("dirichlet", "gradient")
        for when in ("init_state", "one step")]


def test_criterion_05_incompressible_limit_monotonicity():
    # Along the stiffening sweep the overlap, the congestion-law
    # residual p_eps*(1-n) and the mixedness n*(1-n) must all strictly
    # decrease at t = 0.05 on the 64^2 band data.
    rows = sweep(_preset("fig3-esvm", 64, t_end=0.05,
                         sweep_eps=(0.1, 0.05, 0.02),
                         sweep_m=(30.0, 60.0, 120.0),
                         sweep_alpha=(1e-3, 5e-4, 2e-4)))
    errors = [r["error"] for r in rows if "error" in r]
    assert not errors, errors
    details = []
    ok = True
    for col in ("overlap", "comp_residual", "mixedness"):
        vals = [r[col] for r in rows]
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        ok = ok and decreasing
        details.append(f"{col} " + " -> ".join(f"{v:.4f}" for v in vals) +
                       (" ok" if decreasing else " NOT decreasing"))
    details.append(_cleanliness(sum(r["sum_rescale"] for r in rows),
                                sum(r["congestion"] for r in rows),
                                min(r["min_dt"] for r in rows)))
    _report(5, ok, "; ".join(details))


def test_criterion_06_repulsion_ghost_asymptotics():
    # q_m(c/m) -> e^c - 1 as the exponent m stiffens: the error at c = 1
    # must fall monotonically over m = 10^2..10^6 and end below 1e-5.
    ms = [1e2, 1e3, 1e4, 1e5, 1e6]
    errs = [abs(repulsion_scalar(1.0 / m, m) - np.expm1(1.0)) for m in ms]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    _report(6, monotone and errs[-1] < 1e-5,
            f"errors {', '.join(f'{e:.2e}' for e in errs)}; "
            f"monotone={monotone}, final < 1e-5: {errs[-1] < 1e-5}")


def test_criterion_07_quadratic_form_coercive_on_random_fields():
    # With beta = g = 1 the energy of the coupled bilinear form must
    # dominate 0.75x the gradient seminorm on arbitrary discrete fields.
    spec = _square(32)
    part = concentric_partition(spec)
    rng = np.random.default_rng(7)

    def random_field():
        u = rng.standard_normal((spec.nx + 1, spec.ny))
        v = rng.standard_normal((spec.nx, spec.ny + 1))
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
        return VectorField(spec, u, v)

    worst = np.inf
    for _ in range(100):
        energy, grad2 = quadratic_form(part, STATIONARY_PARAMS,
                                       random_field(), random_field())
        worst = min(worst, energy / grad2)
    _report(7, worst >= 0.75,
            f"worst energy/grad^2 over 100 pairs = {worst:.3f}, "
            f"required >= 0.75")


def test_criterion_08_pressure_jump_vs_velocity_continuity():
    # Disk-in-annulus equilibrium: across the mutual interface the
    # pressure jump must stay above 0.5 and not decrease under
    # refinement (1% discretization slack), while the velocity jump
    # must shrink by >= 1.8x from 64^2 to 128^2.
    pj, vj = {}, {}
    for n in (64, 128):
        part, sol = _concentric_solution(n)
        pj[n] = measure_jump(sol, part, "pressure").averages["gamma"]
        vj[n] = measure_jump(sol, part, "v1").averages["gamma"]
    ok = (pj[64] > 0.5 and pj[128] > 0.5 and
          pj[128] >= 0.99 * pj[64] and vj[64] / vj[128] >= 1.8)
    _report(8, ok,
            f"|jump p| {pj[64]:.5f} -> {pj[128]:.5f} (> 0.5, "
            f"non-decreasing within 1%); |jump v1| {vj[64]:.2e} -> "
            f"{vj[128]:.2e}, ratio {vj[64] / vj[128]:.2f} >= 1.8")


def test_criterion_09_interface_force_balance_refines():
    # The worst per-face residual of the normal-stress balance
    # beta1*jump(dv1/dnu) = jump(p) must drop by >= 1.5x from 64^2 to
    # 128^2 on the same configuration.
    res = {}
    for n in (64, 128):
        part, sol = _concentric_solution(n)
        res[n] = float(np.max(np.abs(
            interface_force_residuals(sol, part, which=1))))
    ratio = res[64] / res[128]
    _report(9, ratio >= 1.5,
            f"max residual {res[64]:.4f} -> {res[128]:.4f}, "
            f"ratio {ratio:.3f}, required >= 1.5")


def test_criterion_10_sharp_interface_run_qualitative():
    # Congestion-limit run on the band data to t = 0.1 at 128^2: the
    # partition stays exactly segregated, the lateral tissue gains more
    # area than the center one, and the lateral velocity carries the
    # posterior wall vortices (negative curl on the anatomical left,
    # positive on the right).
    data = _limit_run()
    max_overlap = max(data["overlaps"])
    d1 = data["areas1"][0] - data["areas0"][0]
    d2 = data["areas1"][1] - data["areas0"][1]
    sig = data["signature"]
    ok = (max_overlap == 0 and d2 > d1 and
          sig.posterior_left_mean < 0.0 < sig.posterior_right_mean)
    _report(10, ok,
            f"max overlap cells {max_overlap} (need 0); area growth "
            f"tissue1 {d1:.4f} < tissue2 {d2:.4f}; posterior curl means "
            f"left {sig.posterior_left_mean:.3f} < 0 < "
            f"right {sig.posterior_right_mean:.3f}")


def test_criterion_11_divergence_law_closure_audit():
    # Every stationary solve behind criteria 8-10 must close the
    # divergence law div v_i = G_i(p_i) to within
    # 100 * solver rel_tol * max |G_i(0)|.
    worst = 0.0
    for n in (64, 128):
        part, sol = _concentric_solution(n)
        r1, r2 = freeboundary.complementarity_closure(part,
                                                      STATIONARY_PARAMS, sol)
        worst = max(worst, r1.max_norm(), r2.max_norm())
    data = _limit_run()
    worst = max(worst, data["closure"])
    g0 = max(max(p.g1 * p.p1_star, p.g2 * p.p2_star)
             for p in (STATIONARY_PARAMS, data["params"]))
    bound = 100.0 * REL_TOL * g0
    _report(11, worst <= bound,
            f"worst closure residual {worst:.2e} <= bound {bound:.2e}")
