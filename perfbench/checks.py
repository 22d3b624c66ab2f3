"""Output checks built from the method's properties, not from stored copies.

Every check is evaluated with the benchmark's own numpy stencils where the
property concerns a discrete operator, so a fault in the program's
operator cannot hide itself.  Each check appends a message to a list on
failure; an empty list means the run passed.
"""

from __future__ import annotations

import numpy as np

MASS_BALANCE_FLOOR = -1e-12
BRINKMAN_REL_TOL = 1e-8
CURL_REL_TOL = 1e-10
SOLVER_REL_TOL = 1e-10          # SolverConfig's default, used by every solve here
CLOSURE_FACTOR = 100.0          # acceptance criterion 11's bound
JUMP_RATIO = 0.05
CAP_FACTOR = 10.0               # congestion pressure bound, in max(p1*, p2*)


def require(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def face_divergence(u: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    return (u[1:, :] - u[:-1, :]) / h + (v[:, 1:] - v[:, :-1]) / h


def _face_laplacian(a: np.ndarray, h: float, axis: int, mirror: float):
    """Five-point Laplacian of one staggered component.

    Along ``axis`` the component sits on the walls: its end values are the
    wall values and only interior entries get a stencil.  Across ``axis``
    the walls lie half a cell beyond the first row; the ghost row is the
    mirror image ``mirror * a`` (-1: no-slip, +1: zero normal derivative).
    """
    a = np.moveaxis(a, axis, 0)
    inner = a[1:-1, :]
    along = (a[2:, :] - 2.0 * inner + a[:-2, :]) / h**2
    pad = np.concatenate([mirror * inner[:, :1], inner, mirror * inner[:, -1:]],
                         axis=1)
    across = (pad[:, 2:] - 2.0 * inner + pad[:, :-2]) / h**2
    return np.moveaxis(along + across, 0, axis)


def brinkman_residual(u, v, p, beta: float, h: float, mirror: float) -> float:
    """max |-beta*Lap(v) + v + grad p| over interior faces, relative to |grad p|."""
    gu = (p[1:, :] - p[:-1, :]) / h
    gv = (p[:, 1:] - p[:, :-1]) / h
    ru = -beta * _face_laplacian(u, h, 0, mirror) + u[1:-1, :] + gu
    rv = -beta * _face_laplacian(v, h, 1, mirror) + v[:, 1:-1] + gv
    scale = max(np.abs(gu).max(), np.abs(gv).max())
    return max(np.abs(ru).max(), np.abs(rv).max()) / scale


def node_curl(u: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """dv/dx - du/dy at the interior grid nodes; zero for a discrete gradient."""
    return (v[1:, 1:-1] - v[:-1, 1:-1]) / h - (u[1:-1, 1:] - u[1:-1, :-1]) / h


class DynamicChecks:
    """Per-step observer plus final checks for the ESVM/VM workloads.

    The observer sees each accepted state.  It keeps the previous state to
    close the mass balance of the step: the change of each tissue's mass
    minus dt times the growth integral, with the pressures the step used,
    leaves exactly the mass the negativity cut created.
    """

    def __init__(self, state0, params):
        self.params = params
        self.prev = state0
        self.cap = CAP_FACTOR * max(params.p1_star, params.p2_star)
        self.failures: list = []
        self.cut_mass = 0.0
        self.min_dt = np.inf
        self.steps = 0

    def __call__(self, state, params):
        prev, p = self.prev, self.params
        area = state.n1.spec.cell_area
        dt = state.dt_last
        self.steps += 1
        self.min_dt = min(self.min_dt, state.dt_last)
        for which, old, new, press, g, p_star in (
                (1, prev.n1, state.n1, state.p1, p.g1, p.p1_star),
                (2, prev.n2, state.n2, state.p2, p.g2, p.p2_star)):
            growth = (np.maximum(old.values, 0.0)
                      * g * (p_star - press.values)).sum() * area
            balance = (new.values.sum() - old.values.sum()) * area - dt * growth
            self.cut_mass += balance
            require(self.failures, balance >= MASS_BALANCE_FLOOR,
                    f"step {self.steps}: tissue {which} mass balance "
                    f"{balance:.3e} < {MASS_BALANCE_FLOOR:g}")
        n1, n2 = state.n1.values, state.n2.values
        total = n1 + n2
        require(self.failures, n1.min() >= 0.0 and n2.min() >= 0.0,
                f"step {self.steps}: negative density")
        require(self.failures, total.max() < 1.0,
                f"step {self.steps}: n1+n2 = {total.max():.17g} >= 1")
        if total.max() < 1.0:
            cong = (p.eps * total / (1.0 - total)).max()
            require(self.failures, cong <= self.cap,
                    f"step {self.steps}: congestion pressure {cong:.4g} "
                    f"> cap {self.cap:g}")
        self.prev = state

    def final(self, state, cfg) -> list:
        f = self.failures
        require(f, abs(state.t - cfg.t_end) <= 1e-12,
                f"final t {state.t!r} != t_end {cfg.t_end!r}")
        c = state.counters
        require(f, c.sum_rescale == 0 and c.congestion == 0,
                f"clamp events: sum_rescale {c.sum_rescale}, "
                f"congestion {c.congestion}")
        h = state.n1.spec.hx
        gradient_law = cfg.velocity_law == "gradient"
        mirror = 1.0 if gradient_law else -1.0
        for which, vel, press, beta in ((1, state.v1, state.p1, cfg.params.beta1),
                                        (2, state.v2, state.p2, cfg.params.beta2)):
            res = brinkman_residual(vel.u, vel.v, press.values, beta, h, mirror)
            require(f, res < BRINKMAN_REL_TOL,
                    f"v{which}: Brinkman residual {res:.3e}")
            if gradient_law:
                curl = np.abs(node_curl(vel.u, vel.v, h)).max()
                ref = vel.max_face_speed() / h
                require(f, curl <= CURL_REL_TOL * ref,
                        f"v{which}: curl {curl:.3e} vs |v|/h {ref:.3e}")
        return f


class LimitChecks:
    """Per-step observer plus final checks for the L-ESVM workload."""

    def __init__(self, state0, params):
        self.params = params
        self.areas0 = state0.areas()
        self.failures: list = []
        self.steps = 0
        self._check(state0)

    def _check(self, state):
        chi1 = state.part.chi1.values
        chi2 = state.part.chi2.values
        q = state.q.values
        overlap = int((chi1 * chi2).sum())
        require(self.failures, overlap == 0,
                f"step {self.steps}: {overlap} cells in both tissues")
        require(self.failures, q.min() >= 0.0, f"step {self.steps}: q < 0")
        require(self.failures, not q[(chi1 + chi2) == 0.0].any(),
                f"step {self.steps}: q nonzero outside the tissues")

    def __call__(self, state, params):
        self.steps += 1
        self._check(state)

    def final(self, state, cfg, jumps) -> list:
        """`jumps`: mean |jump| of pressure, v1 and v2 on the mutual interface."""
        f, p = self.failures, self.params
        require(f, abs(state.t - cfg.t_end) <= 1e-12,
                f"final t {state.t!r} != t_end {cfg.t_end!r}")
        sol, h = state.sol, state.spec.hx
        bound = CLOSURE_FACTOR * SOLVER_REL_TOL * max(p.g1 * p.p1_star,
                                                       p.g2 * p.p2_star)
        for which, vel, chi, g, p_star in (
                (1, sol.v1, state.part.chi1.values, p.g1, p.p1_star),
                (2, sol.v2, state.part.chi2.values, p.g2, p.p2_star)):
            r = (face_divergence(vel.u, vel.v, h) - g * (p_star - sol.p.values)) * chi
            require(f, np.abs(r).max() <= bound,
                    f"tissue {which}: divergence-law closure "
                    f"{np.abs(r).max():.3e} > {bound:.3e}")
        a1, a2 = state.areas()
        gain1, gain2 = a1 - self.areas0[0], a2 - self.areas0[1]
        require(f, gain2 > gain1,
                f"tissue 2 gained {gain2:.4g}, tissue 1 {gain1:.4g}")
        dp = jumps["pressure"]
        dv = max(jumps["v1"], jumps["v2"])
        require(f, dp > 0.0, f"mean |pressure jump| {dp:.4g} is not positive")
        require(f, dv < JUMP_RATIO * dp,
                f"velocity jump {dv:.4g} >= {JUMP_RATIO} * pressure jump {dp:.4g}")
        return f
