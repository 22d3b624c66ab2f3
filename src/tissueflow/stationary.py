"""Stationary two-tissue system on a fixed partition, and its interface laws.

The velocity pair (v1, v2) satisfies a coupled elliptic system: for each
tissue a Brinkman operator plus a grad-div term weighted by 1/g_i on that
tissue's subdomain, with cross coupling through the other tissue's
grad-div term.  Discretely this is

    A_i x_i + D^T (C1 D x1 + C2 D x2) = D^T f,    i = 1, 2,

with A_i = I + beta_i*K, K the face stiffness (Dirichlet walls), D the
cell divergence, C_i = diag(chi_i / g_i) and
f = chi1*(p1* + q) + chi2*(p2* + q).  ``assemble_weak_form`` builds this
2x2 block matrix for the energy form and as a reference.

``solve_stationary`` never forms it.  Eliminating the face velocities
leaves a cell-sized equation for the total tissue pressure
Pi = f - (C1 D x1 + C2 D x2),

    (I + C1 D A1^-1 D^T + C2 D A2^-1 D^T) Pi = f,    x_i = A_i^-1 D^T Pi,

whose operator is bounded independently of h because D A_i^-1 D^T acts
like -Lap (I - beta_i Lap)^-1 <= 1/beta_i.  GMRES solves it matrix-free
and never leaves the cells: on the uniform box each D A_i^-1 D^T is
diagonal in mixed cosine/sine bases of the cells, so a product is one
forward transform of Pi per velocity component and one inverse transform
of the stack for both tissues (``brinkman.cell_pressure_operator``).
Nothing is assembled or factorised.  The face velocities x_i are formed
once, from the converged Pi by exact sine transform solves
(``brinkman.face_brinkman_inverse``), and the residual of the full
coupled system is then checked.

The pressure is reconstructed from the velocity divergences,

    p = (p1* - (1/g1) div v1) on the first subdomain,
        (p2* - (1/g2) div v2) on the second, 0 outside,

which closes the divergence law div v_i = g_i*(p_i* - p) identically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .brinkman import (SolverConfig, SolverFailure, cell_pressure_operator,
                       face_brinkman_inverse)
from .constitutive import CoercivityReport, ModelParams, coercivity_check
from .grid import GridSpec, ScalarField, VectorField, divergence
from .operators import (divergence_matrix, face_stiffness_u, face_stiffness_v,
                        stack_faces, unstack_faces)

BOUNDARY_MARGIN_CELLS = 2

# Krylov vectors kept between GMRES restarts: scipy stores restart + 1 of
# them, and the pressure equation converges in well under 50 iterations.
GMRES_RESTART = 50

JUMP_CSV_COLUMNS = ("interface", "face_index", "x", "y", "nx", "ny",
                    "quantity", "left_trace", "right_trace", "jump",
                    "predicted_jump", "residual")


class PartitionError(ValueError):
    """Raised when indicator fields do not form a valid partition."""


@dataclass(frozen=True)
class InterfaceFace:
    """One grid face on an interface, with its axis-aligned unit normal.

    ``orientation`` is "u" (vertical face, normal along x) or "v"
    (horizontal face, normal along y); (fi, fj) are face indices.  The
    normal points from the first-named region into the second (tissue 1
    into tissue 2 on the mutual interface; tissue into exterior on the
    wall interfaces).
    """

    orientation: str
    fi: int
    fj: int
    x: float
    y: float
    nux: float
    nuy: float


def _interface_faces(labels: np.ndarray, spec: GridSpec, a: int, b: int):
    """Faces separating label-a cells from label-b cells, normal a -> b."""
    faces = []
    xf, yc = spec.x_faces(), spec.y_centers()
    xc, yf = spec.x_centers(), spec.y_faces()
    lm, lp = labels[:-1, :], labels[1:, :]
    for fi, j in np.argwhere((lm == a) & (lp == b)):
        faces.append(InterfaceFace("u", fi + 1, j, xf[fi + 1], yc[j], 1.0, 0.0))
    for fi, j in np.argwhere((lm == b) & (lp == a)):
        faces.append(InterfaceFace("u", fi + 1, j, xf[fi + 1], yc[j], -1.0, 0.0))
    lm, lp = labels[:, :-1], labels[:, 1:]
    for i, fj in np.argwhere((lm == a) & (lp == b)):
        faces.append(InterfaceFace("v", i, fj + 1, xc[i], yf[fj + 1], 0.0, 1.0))
    for i, fj in np.argwhere((lm == b) & (lp == a)):
        faces.append(InterfaceFace("v", i, fj + 1, xc[i], yf[fj + 1], 0.0, -1.0))
    faces.sort(key=lambda f: (f.orientation, f.fi, f.fj))
    return tuple(faces)


@dataclass(frozen=True)
class DomainPartition:
    """Disjoint 0/1 indicators of the two tissue subdomains inside the box.

    Both supports must stay at least two cells clear of the outer walls
    so that one-sided traces have room on the exterior side.
    """

    chi1: ScalarField
    chi2: ScalarField
    allow_wall_contact: bool = False
    gamma: tuple = field(init=False)    # tissue1 | tissue2 faces
    gamma1: tuple = field(init=False)   # tissue1 | exterior faces
    gamma2: tuple = field(init=False)   # tissue2 | exterior faces

    def __post_init__(self):
        if self.chi1.spec != self.chi2.spec:
            raise PartitionError("indicators live on different grids")
        for name, chi in (("chi1", self.chi1), ("chi2", self.chi2)):
            v = chi.values
            if not np.all((v == 0.0) | (v == 1.0)):
                raise PartitionError(f"{name} is not a 0/1 indicator")
        if (self.chi1.values * self.chi2.values).any():
            raise PartitionError("subdomains overlap")
        if not self.allow_wall_contact:
            m = BOUNDARY_MARGIN_CELLS
            occupied = self.chi1.values + self.chi2.values
            frame = occupied.copy()
            frame[m:-m, m:-m] = 0.0
            if frame.any():
                raise PartitionError(
                    f"supports must keep a {m}-cell margin from the outer "
                    "walls (pass allow_wall_contact=True to override)")
        labels = self.labels
        spec = self.spec
        object.__setattr__(self, "gamma", _interface_faces(labels, spec, 1, 2))
        object.__setattr__(self, "gamma1", _interface_faces(labels, spec, 1, 0))
        object.__setattr__(self, "gamma2", _interface_faces(labels, spec, 2, 0))

    @property
    def spec(self) -> GridSpec:
        return self.chi1.spec

    @property
    def labels(self) -> np.ndarray:
        return (self.chi1.values + 2.0 * self.chi2.values).astype(int)

    def cell_counts(self):
        return int(self.chi1.values.sum()), int(self.chi2.values.sum())

    def swapped(self) -> "DomainPartition":
        return DomainPartition(self.chi2, self.chi1,
                               allow_wall_contact=self.allow_wall_contact)


def concentric_partition(spec: GridSpec, r1: float = 0.45,
                         r2: float = 0.8) -> DomainPartition:
    """Disk of radius r1 (tissue 1) inside the annulus r1 < r < r2 (tissue 2)."""
    xx, yy = spec.cell_center_mesh()
    rr = np.hypot(xx, yy)
    chi1 = ScalarField(spec, (rr < r1).astype(float))
    chi2 = ScalarField(spec, ((rr >= r1) & (rr < r2)).astype(float))
    return DomainPartition(chi1, chi2)


@functools.lru_cache(maxsize=32)
def _stiffness(spec: GridSpec) -> sp.csr_matrix:
    return sp.block_diag([face_stiffness_u(spec), face_stiffness_v(spec)],
                         format="csr")


def _source(part: DomainPartition, params: ModelParams,
            q: ScalarField | None):
    """(q, f) with q defaulting to zero and f = chi1*(p1*+q) + chi2*(p2*+q)."""
    if q is None:
        q = ScalarField.zeros(part.spec)
    if q.spec != part.spec:
        raise PartitionError("q lives on a different grid")
    f = (part.chi1.values * (params.p1_star + q.values) +
         part.chi2.values * (params.p2_star + q.values))
    return q, f.ravel()


@dataclass(frozen=True)
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    coercivity: CoercivityReport
    partition: DomainPartition
    params: ModelParams
    q: ScalarField


def assemble_weak_form(part: DomainPartition, params: ModelParams,
                       q: ScalarField | None = None) -> AssembledSystem:
    """Discrete coupled system; a failed coercivity check only attaches a flag."""
    spec = part.spec
    q, f = _source(part, params, q)
    K = _stiffness(spec)
    D = divergence_matrix(spec)
    identity = sp.identity(K.shape[0])
    C1 = sp.diags(part.chi1.values.ravel() / params.g1)
    C2 = sp.diags(part.chi2.values.ravel() / params.g2)
    G1 = (D.T @ C1 @ D).tocsr()
    G2 = (D.T @ C2 @ D).tocsr()
    A = sp.bmat([[params.beta1 * K + identity + G1, G2],
                 [G1, params.beta2 * K + identity + G2]], format="csr")

    b_half = D.T @ f
    rhs = np.concatenate([b_half, b_half])
    return AssembledSystem(A, rhs, coercivity_check(params), part, params, q)


def quadratic_form(part: DomainPartition, params: ModelParams,
                   v1: VectorField, v2: VectorField,
                   system: AssembledSystem | None = None):
    """Evaluate (energy, gradient-seminorm^2) of the coupled bilinear form.

    Both are scaled by the cell area so they approximate the continuum
    integrals; the coercivity bound predicts
    energy >= min(beta1 - 1/(4 g2), beta2 - 1/(4 g1)) * grad2.
    Pass a preassembled ``system`` to amortize repeated evaluations.
    """
    spec = part.spec
    sys = system if system is not None else assemble_weak_form(part, params)
    x1, x2 = stack_faces(v1), stack_faces(v2)
    x = np.concatenate([x1, x2])
    energy = float(x @ (sys.matrix @ x)) * spec.cell_area
    K = _stiffness(spec)
    grad2 = float(x1 @ (K @ x1) + x2 @ (K @ x2)) * spec.cell_area
    return energy, grad2


@dataclass(frozen=True)
class StationarySolution:
    partition: DomainPartition
    params: ModelParams
    q: ScalarField
    v1: VectorField
    v2: VectorField
    p: ScalarField
    rel_residual: float
    coercivity: CoercivityReport
    iterations: int = 0        # GMRES inner iterations of the solve


def reconstruct_pressure(part: DomainPartition, params: ModelParams,
                         v1: VectorField, v2: VectorField) -> ScalarField:
    d1 = divergence(v1).values
    d2 = divergence(v2).values
    p = (part.chi1.values * (params.p1_star - d1 / params.g1) +
         part.chi2.values * (params.p2_star - d2 / params.g2))
    return ScalarField(part.spec, p)


def solve_stationary(part: DomainPartition, params: ModelParams,
                     q: ScalarField | None = None,
                     cfg: SolverConfig | None = None) -> StationarySolution:
    """Velocities and pressure of the coupled system, via the cell equation.

    ``cfg.rel_tol`` bounds the relative residual of the full coupled
    system and ``cfg.iterations_for`` the GMRES inner iterations.
    Raises SolverFailure when the residual is missed.
    """
    cfg = cfg or SolverConfig()
    spec = part.spec
    q, f = _source(part, params, q)
    D = divergence_matrix(spec)
    c1 = part.chi1.values.ravel() / params.g1
    c2 = part.chi2.values.ravel() / params.g2

    def velocities(pi):
        y = D.T @ pi
        return (face_brinkman_inverse(y, params.beta1, spec),
                face_brinkman_inverse(y, params.beta2, spec))

    def coupling(x1, x2):
        # grouped so that swapping the tissue labels is bitwise symmetric
        return c1 * (D @ x1) + c2 * (D @ x2)

    b = D.T @ f
    scale = np.linalg.norm(np.concatenate([b, b]))
    history = []    # one residual norm per GMRES inner iteration
    if scale == 0.0:
        x1 = x2 = np.zeros_like(b)
        rel = 0.0
    else:
        n = f.size
        products = cell_pressure_operator((params.beta1, params.beta2), spec)

        def schur_product(pi):
            m = products(pi.reshape(spec.nx, spec.ny)).reshape(2, n)
            return pi + (c1 * m[0] + c2 * m[1])     # grouped as in coupling

        schur = spla.LinearOperator((n, n), schur_product, dtype=float)
        # scipy counts maxiter in restart cycles; bound the inner iterations.
        # D^T amplifies the cell residual in the coupled one, hence 0.01.
        budget = cfg.iterations_for(spec)
        restart = min(GMRES_RESTART, budget)
        pi, _ = spla.gmres(schur, f, rtol=0.01 * cfg.rel_tol, atol=0.0,
                           restart=restart, maxiter=budget // restart,
                           callback=history.append, callback_type="pr_norm")
        x1, x2 = velocities(pi)
        K = _stiffness(spec)
        g = D.T @ coupling(x1, x2) - b
        r = np.concatenate([x1 + params.beta1 * (K @ x1) + g,
                            x2 + params.beta2 * (K @ x2) + g])
        rel = float(np.linalg.norm(r) / scale)
        if rel > cfg.rel_tol:
            raise SolverFailure("stationary system", rel, cfg.rel_tol,
                                len(history))
    v1 = unstack_faces(spec, x1)
    v2 = unstack_faces(spec, x2)
    p = reconstruct_pressure(part, params, v1, v2)
    return StationarySolution(part, params, q, v1, v2, p, rel,
                              coercivity_check(params), len(history))


# ---------------------------------------------------------------------------
# one-sided traces and interface jumps

def _side_cells(face: InterfaceFace, sign: int):
    """The two cells nearest a face on one side, nearest first.

    ``sign`` +1 walks along the face normal, -1 against it.
    """
    dx = int(round(face.nux)) * sign
    dy = int(round(face.nuy)) * sign
    if face.orientation == "u":
        base_i = face.fi if dx > 0 else face.fi - 1
        base_j = face.fj
        if dx == 0:
            raise ValueError("u-face normal must be along x")
        return [(base_i + k * dx, base_j) for k in range(2)]
    base_i = face.fi
    base_j = face.fj if dy > 0 else face.fj - 1
    if dy == 0:
        raise ValueError("v-face normal must be along y")
    return [(base_i, base_j + k * dy) for k in range(2)]


def _trace(values: np.ndarray, labels: np.ndarray, face: InterfaceFace,
           sign: int, region: int, spec: GridSpec):
    """One-sided (trace, normal derivative) of a cell field at a face.

    Linear extrapolation from the two nearest cells on side ``sign``.
    Returns (trace, d/d_nu, ok); ok is False when fewer than two cells of
    the requested region lie on that side ("untraceable").
    """
    nx, ny = values.shape
    samples = []
    for i, j in _side_cells(face, sign):
        if not (0 <= i < nx and 0 <= j < ny) or labels[i, j] != region:
            return np.nan, np.nan, False
        samples.append(values[i, j])
    a, b = samples
    h = spec.hx if face.orientation == "u" else spec.hy
    # derivative along +nu: cells sit at distances (k+1/2)h on side `sign`
    return 1.5 * a - 0.5 * b, -sign * (a - b) / h, True


_INTERFACES = ("gamma", "gamma1", "gamma2")
_REGIONS = {"gamma": (1, 2), "gamma1": (1, 0), "gamma2": (2, 0)}

JUMP_QUANTITIES = ("pressure", "v1", "v2", "grad_v1_normal", "grad_v2_normal")


def _predicted_pressure_jump(name, params, d1_left, d2_left):
    if name == "gamma1":
        return params.p1_star - d1_left / params.g1
    if name == "gamma2":
        return params.p2_star - d2_left / params.g2
    return ((params.p1_star - d1_left / params.g1) -
            (params.p2_star - d2_left / params.g2))


def _predicted_grad_jump(which, name, params, d1_l, d2_l, d1_r, d2_r,
                         q_l, q_r):
    """Bracket of the interface force balance, divided by the viscosity.

    Left/right are the first/second-named regions; on the mutual
    interface left is tissue 1 and right is tissue 2.
    """
    p1s, p2s = params.p1_star, params.p2_star
    g1, g2 = params.g1, params.g2
    if name == "gamma1":
        bracket = (p1s - d1_l / g1) if which == 1 else (p1s + q_l - d1_l / g1)
        beta = params.beta1 if which == 1 else params.beta2
    elif name == "gamma2":
        bracket = (p2s + q_l - d2_l / g2) if which == 1 else (p2s - d2_l / g2)
        beta = params.beta1 if which == 1 else params.beta2
    else:  # mutual interface: tissue 1 traces on the left, tissue 2 right
        common = (p1s - p2s) + d2_r / g2 - d1_l / g1
        bracket = common - q_r if which == 1 else common + q_l
        beta = params.beta1 if which == 1 else params.beta2
    return bracket / beta


@dataclass(frozen=True)
class JumpTable:
    quantity: str
    rows: tuple            # dict rows in JUMP_CSV_COLUMNS order
    averages: dict         # interface -> mean |jump| over traceable faces

    def interface_rows(self, name):
        return [r for r in self.rows if r["interface"] == name]


def measure_jump(sol: StationarySolution, part: DomainPartition,
                 quantity: str) -> JumpTable:
    """Per-face one-sided traces and jumps of a solution quantity.

    ``pressure`` uses the reconstructed pressure field (0 outside the
    tissues); ``v1``/``v2`` are velocity magnitudes (jump of the vector,
    predicted 0 by continuity); ``grad_v*_normal`` is the nu-component
    of the one-sided normal derivative of the velocity, whose jump is
    predicted by the interface force balance.
    """
    if quantity not in JUMP_QUANTITIES:
        raise ValueError(f"unknown jump quantity {quantity!r}")
    spec = part.spec
    labels = part.labels
    d1 = divergence(sol.v1).values
    d2 = divergence(sol.v2).values
    qv = sol.q.values
    u1c, v1c = sol.v1.cell_centered()
    u2c, v2c = sol.v2.cell_centered()
    pv = sol.p.values

    rows = []
    sums = {name: [0.0, 0] for name in _INTERFACES}
    for name in _INTERFACES:
        left_region, right_region = _REGIONS[name]
        for k, face in enumerate(getattr(part, name)):
            def tr(field_vals, sign, region):
                return _trace(field_vals, labels, face, sign, region, spec)

            # left = first-named region (against the normal), right = other
            aux = {}
            ok = True
            for tag, vals in (("d1", d1), ("d2", d2), ("q", qv)):
                tl, _, okl = tr(vals, -1, left_region)
                trr, _, okr = tr(vals, +1, right_region)
                aux[tag] = (tl, trr)
                ok = ok and okl and okr

            if quantity == "pressure":
                left, _, okl = tr(pv, -1, left_region)
                right, _, okr = tr(pv, +1, right_region)
                if right_region == 0:
                    right, okr = 0.0, okr  # exterior pressure is exactly 0
                jump = left - right
                predicted = _predicted_pressure_jump(
                    name, sol.params, aux["d1"][0], aux["d2"][0])
            elif quantity in ("v1", "v2"):
                uc, vc = (u1c, v1c) if quantity == "v1" else (u2c, v2c)
                ul, _, oku = tr(uc, -1, left_region)
                vl, _, okv = tr(vc, -1, left_region)
                ur, _, oku2 = tr(uc, +1, right_region)
                vr, _, okv2 = tr(vc, +1, right_region)
                okl, okr = oku and okv, oku2 and okv2
                left = float(np.hypot(ul, vl))
                right = float(np.hypot(ur, vr))
                jump = float(np.hypot(ul - ur, vl - vr))
                predicted = 0.0
            else:
                which = 1 if quantity == "grad_v1_normal" else 2
                uc, vc = (u1c, v1c) if which == 1 else (u2c, v2c)
                comp = uc if abs(face.nux) > 0.5 else vc
                _, dl, okl = tr(comp, -1, left_region)
                _, dr, okr = tr(comp, +1, right_region)
                nu_sign = face.nux + face.nuy
                left, right = dl * nu_sign, dr * nu_sign
                jump = left - right
                predicted = _predicted_grad_jump(
                    which, name, sol.params, aux["d1"][0], aux["d2"][0],
                    aux["d1"][1], aux["d2"][1], aux["q"][0], aux["q"][1])

            traceable = ok and okl and okr
            if not traceable:
                left = right = jump = predicted = residual = np.nan
                marker = "untraceable"
            else:
                residual = jump - predicted
                marker = ""
                sums[name][0] += abs(jump)
                sums[name][1] += 1
            rows.append({
                "interface": name, "face_index": k, "x": face.x, "y": face.y,
                "nx": face.nux, "ny": face.nuy, "quantity": quantity,
                "left_trace": left, "right_trace": right, "jump": jump,
                "predicted_jump": predicted, "residual": residual,
                "marker": marker,
            })
    averages = {name: (s / c if c else np.nan) for name, (s, c) in sums.items()}
    return JumpTable(quantity, tuple(rows), averages)


def write_jump_csv(tables, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(JUMP_CSV_COLUMNS)
        for table in tables:
            for r in table.rows:
                if r["marker"]:
                    writer.writerow([r["interface"], r["face_index"],
                                     r["x"], r["y"], r["nx"], r["ny"],
                                     r["quantity"]] + ["untraceable"] * 5)
                else:
                    writer.writerow([r[c] for c in JUMP_CSV_COLUMNS])


@dataclass(frozen=True)
class TransmissionReport:
    """Max discrete residuals of the interface force/continuity laws.

    Keys: per interface, 'force1'/'force2' are the residuals of the
    viscous-stress jumps of v1 and v2 against their pressure brackets
    (nu-component); 'cont1'/'cont2' are the velocity-vector jumps;
    'normal_match' (mutual interface only) is |v1.nu - v2.nu| read
    directly off the shared face.
    """

    residuals: dict
    n_untraceable: int

    def max_residual(self) -> float:
        vals = [v for d in self.residuals.values() for v in d.values()]
        return max(vals) if vals else 0.0


def verify_transmission(sol: StationarySolution, part: DomainPartition) -> TransmissionReport:
    residuals = {}
    untraceable = 0
    tables = {}
    for quantity in ("grad_v1_normal", "grad_v2_normal", "v1", "v2"):
        tables[quantity] = measure_jump(sol, part, quantity)
    for name in _INTERFACES:
        faces = getattr(part, name)
        if not faces:
            continue
        entry = {}
        for key, quantity, beta in (
                ("force1", "grad_v1_normal", sol.params.beta1),
                ("force2", "grad_v2_normal", sol.params.beta2)):
            vals = []
            for r in tables[quantity].interface_rows(name):
                if r["marker"]:
                    untraceable += 1
                else:
                    vals.append(beta * abs(r["residual"]))
            entry[key] = max(vals) if vals else np.nan
        for key, quantity in (("cont1", "v1"), ("cont2", "v2")):
            vals = [r["jump"] for r in tables[quantity].interface_rows(name)
                    if not r["marker"]]
            entry[key] = max(vals) if vals else np.nan
        if name == "gamma":
            vals = []
            for face in faces:
                if face.orientation == "u":
                    a = sol.v1.u[face.fi, face.fj]
                    b = sol.v2.u[face.fi, face.fj]
                else:
                    a = sol.v1.v[face.fi, face.fj]
                    b = sol.v2.v[face.fi, face.fj]
                vals.append(abs(a - b))
            entry["normal_match"] = max(vals) if vals else np.nan
        residuals[name] = entry
    return TransmissionReport(residuals, untraceable)


def interface_force_residuals(sol: StationarySolution, part: DomainPartition,
                              which: int = 1, interface: str = "gamma",
                              band: float = 2.5, radius_cells: float = 6.0,
                              sigma: float = 2.0) -> np.ndarray:
    """Per-face residuals of the normal-stress balance across an interface.

    The normal-normal component of ``beta_i * grad v_i`` must jump across
    the interface by the pressure jump, corrected by the trace of the
    limit repulsion pressure from the other tissue's side when that
    tissue is adjacent.  Pointwise one-sided differences are polluted by
    the staircase geometry of axis-aligned faces, so both ingredients
    are built to see only the smooth large-scale fields: one-sided
    traces come from moving-least-squares linear fits over cells at
    least ``band`` cells away from the interface within ``radius_cells``
    grid spacings of the face, and the interface normal from the
    gradient of a smoothed indicator difference.  Returns one residual
    per traceable face; faces without enough one-sided fit cells are
    skipped.
    """
    from scipy.ndimage import distance_transform_edt, gaussian_filter

    if interface not in _REGIONS:
        raise ValueError(f"unknown interface {interface!r}")
    side_a, side_b = _REGIONS[interface]
    spec = part.spec
    beta = sol.params.beta1 if which == 1 else sol.params.beta2
    vel = sol.v1 if which == 1 else sol.v2
    uc, vc = vel.cell_centered()

    masks = {1: part.chi1.values == 1.0, 2: part.chi2.values == 1.0}
    masks[0] = ~(masks[1] | masks[2])
    fit_mask = {}
    for r in (side_a, side_b):
        d = distance_transform_edt(masks[r])
        fit_mask[r] = masks[r] & (d > band)

    diff = gaussian_filter(masks[side_b].astype(float)
                           - masks[side_a].astype(float), sigma)
    gx = np.gradient(diff, spec.hx, axis=0)
    gy = np.gradient(diff, spec.hy, axis=1)

    other = 2 if which == 1 else 1
    q_sign = 0.0
    if other == side_a:
        q_sign = 1.0
    elif other == side_b:
        q_sign = -1.0

    xx, yy = spec.cell_center_mesh()
    radius = radius_cells * spec.hx
    res = []
    for face in getattr(part, interface):
        x0, y0 = face.x, face.y
        ci = min(int((x0 - spec.x_min) / spec.hx
                     - 0.5 * (face.orientation == "u")), spec.nx - 1)
        cj = min(int((y0 - spec.y_min) / spec.hy
                     - 0.5 * (face.orientation == "v")), spec.ny - 1)
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
            coef, *_ = np.linalg.lstsq(basis * w[:, None], vals[sel] * w,
                                       rcond=None)
            return coef

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
