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
like -Lap (I - beta_i Lap)^-1 <= 1/beta_i.  A restarted GMRES (``_gmres``;
Saad & Schultz 1986) solves it matrix-free and never leaves the cells.
It is right-preconditioned by the operator's high-frequency limit, the
diagonal d = 1 + chi1/(g1 beta1) + chi2/(g2 beta2): GMRES solves
S (y / d) = f and Pi = y / d, so its residual is still the true residual
of S Pi = f (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
SIAM 2003, section 9.3).
Its Arnoldi step orthogonalises against the whole basis in two pairs of
matrix-vector products, classical Gram-Schmidt with one
reorthogonalisation (as stable as modified Gram-Schmidt; Giraud, Langou
& Rozloznik 2005), not with one call per basis vector.  On the uniform
box each D A_i^-1 D^T is diagonal in mixed cosine/sine bases of the
cells, so a product is one forward transform of Pi per velocity
component and one inverse transform of the stack for both tissues
(``brinkman.cell_pressure_operator``).
Nothing is assembled or factorised.  The face velocities x_i are formed
once, from the converged Pi by one exact sine transform solve of the
shared D^T Pi for both tissues (``brinkman.face_brinkman_inverse``),
and the residual of the full
coupled system is then checked against ``brinkman.REL_TOL``.  GMRES has
a fixed budget of ``GMRES_ITERATIONS_PER_LINE * (nx + ny)`` inner
iterations; no tolerance or budget is a parameter.

The pressure is reconstructed from the velocity divergences,

    p = (p1* - (1/g1) div v1) on the first subdomain,
        (p2* - (1/g2) div v2) on the second, 0 outside,

which closes the divergence law div v_i = g_i*(p_i* - p) identically.

Each interface of a partition (``gamma``: tissue 1 | tissue 2,
``gamma1``/``gamma2``: tissue | exterior) is one ``InterfaceFaces``
record of arrays, built on first read: face indices, midpoints and
normals, and the flat indices of the two nearest cells on each side.
Every one-sided trace is one gather from those indices: ``measure_jump``
evaluates its cell field once and keeps each interface's traces and
jumps as arrays, and ``verify_transmission`` reads the v1 and v2 tables.
Tissues may touch the walls: a face whose trace would need a cell
beyond them is masked.  The normal-stress balance has one measure,
``interface_force_residuals``, whose fits see past the staircase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import brinkman
from .brinkman import (SolverFailure, cell_pressure_operator,
                       face_brinkman_inverse, norm)
from .constitutive import ModelParams
from .grid import GridSpec, ScalarField, VectorField, divergence
from .operators import (divergence_matrix, face_stiffness_u, face_stiffness_v,
                        stack_faces, unstack_faces)

# GMRES inner iterations per restart cycle: the basis holds restart + 1
# vectors, and the pressure equation converges in well under 50 iterations.
GMRES_RESTART = 50
# GMRES inner iterations allowed per grid line: the budget is 10*(nx+ny),
# rounded down to whole restart cycles.
GMRES_ITERATIONS_PER_LINE = 10

JUMP_CSV_COLUMNS = ("interface", "face_index", "x", "y", "nx", "ny",
                    "quantity", "left_trace", "right_trace", "jump")


class PartitionError(ValueError):
    """Raised when indicator fields do not form a valid partition."""


@dataclass(frozen=True, eq=False)
class InterfaceFaces:
    """The grid faces of one interface as arrays, u-faces first.

    Faces are ordered by (orientation, fi, fj): u-faces (vertical, normal
    along x) before v-faces (horizontal, normal along y), each by face
    index.  (x, y) are face midpoints.  The unit normal (nux, nuy) points
    from the first-named region into the second (tissue 1 into tissue 2
    on the mutual interface; tissue into exterior on the wall interfaces).

    ``near`` and ``far`` are the flat cell indices of the two cells
    nearest each face, row 0 on the left side (the first-named region,
    against the normal) and row 1 on the right.  A face is ``traceable``
    when both cells of each side lie in the box and in that side's
    region.  Where a far cell would leave the box, ``far`` repeats
    ``near`` so that every gather stays in the box.
    """

    fi: np.ndarray
    fj: np.ndarray
    x: np.ndarray
    y: np.ndarray
    nux: np.ndarray
    nuy: np.ndarray
    is_u: np.ndarray
    near: np.ndarray
    far: np.ndarray
    traceable: np.ndarray

    def __len__(self) -> int:
        return self.fi.size


def _interface_faces(labels: np.ndarray, spec: GridSpec, a: int,
                     b: int) -> InterfaceFaces:
    """Faces separating label-a cells from label-b cells, normal a -> b."""
    ny = labels.shape[1]
    centers = (spec.x_centers(), spec.y_centers())
    edges = (spec.x_faces(), spec.y_faces())
    cols = []
    for axis, (lm, lp) in enumerate(((labels[:-1, :], labels[1:, :]),
                                     (labels[:, :-1], labels[:, 1:]))):
        lo = np.argwhere((lm == a) & (lp == b) | (lm == b) & (lp == a)).T
        s = np.where(lm[lo[0], lo[1]] == a, 1, -1)   # normal sign on the axis
        face = lo.copy()
        face[axis] += 1
        along = lo[axis]
        near = np.stack([along + (s < 0), along + (s > 0)])
        far = near + np.stack([-s, s])
        inside = (far >= 0) & (far < labels.shape[axis])
        far = np.where(inside, far, near)
        stride, base = (ny, lo[1]) if axis == 0 else (1, lo[0] * ny)
        near, far = near * stride + base, far * stride + base
        side = np.array([[a], [b]])
        traceable = (inside & (labels.ravel()[far] == side)).all(axis=0)
        normal = [np.zeros(s.size), np.zeros(s.size)]
        normal[axis] = s.astype(float)
        x, y = [edges[k][face[k]] if k == axis else centers[k][face[k]]
                for k in (0, 1)]
        cols.append((face[0], face[1], x, y, *normal,
                     np.full(s.size, axis == 0), near, far, traceable))
    return InterfaceFaces(*(np.concatenate(c, axis=-1) for c in zip(*cols)))


@dataclass(frozen=True)
class DomainPartition:
    """Disjoint 0/1 indicators of the two tissue subdomains inside the box.

    The supports may touch the outer walls: a face whose one-sided trace
    would need a cell beyond the wall is masked as untraceable in its
    interface record.  The interface face records ``gamma``
    (tissue1 | tissue2), ``gamma1`` (tissue1 | exterior) and ``gamma2``
    (tissue2 | exterior) are built on first read.
    """

    chi1: ScalarField
    chi2: ScalarField

    def __post_init__(self):
        if self.chi1.spec != self.chi2.spec:
            raise PartitionError("indicators live on different grids")
        for name, chi in (("chi1", self.chi1), ("chi2", self.chi2)):
            v = chi.values
            if not np.all((v == 0.0) | (v == 1.0)):
                raise PartitionError(f"{name} is not a 0/1 indicator")
        if (self.chi1.values * self.chi2.values).any():
            raise PartitionError("subdomains overlap")

    @functools.cached_property
    def gamma(self) -> InterfaceFaces:
        return _interface_faces(self.labels, self.spec, 1, 2)

    @functools.cached_property
    def gamma1(self) -> InterfaceFaces:
        return _interface_faces(self.labels, self.spec, 1, 0)

    @functools.cached_property
    def gamma2(self) -> InterfaceFaces:
        return _interface_faces(self.labels, self.spec, 2, 0)

    @property
    def spec(self) -> GridSpec:
        return self.chi1.spec

    @property
    def labels(self) -> np.ndarray:
        return (self.chi1.values + 2.0 * self.chi2.values).astype(int)

    def cell_counts(self):
        return int(self.chi1.values.sum()), int(self.chi2.values.sum())

    def swapped(self) -> "DomainPartition":
        return DomainPartition(self.chi2, self.chi1)


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
    """(q, f): q defaults to zero, must live on the partition's grid and is
    zeroed outside the tissues; f = chi1*(p1*+q) + chi2*(p2*+q)."""
    if q is None:
        q = ScalarField.zeros(part.spec)
    if q.spec != part.spec:
        raise PartitionError("q lives on a different grid")
    q = ScalarField(part.spec, q.values * (part.chi1.values + part.chi2.values))
    f = (part.chi1.values * (params.p1_star + q.values) +
         part.chi2.values * (params.p2_star + q.values))
    return q, f.ravel()


@dataclass(frozen=True)
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray


def assemble_weak_form(part: DomainPartition, params: ModelParams,
                       q: ScalarField | None = None) -> AssembledSystem:
    """The discrete coupled system's matrix and right-hand side."""
    spec = part.spec
    f = _source(part, params, q)[1]
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
    return AssembledSystem(A, rhs)


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
    params: ModelParams
    q: ScalarField
    v1: VectorField
    v2: VectorField
    p: ScalarField
    rel_residual: float
    iterations: int = 0        # GMRES inner iterations of the solve


def reconstruct_pressure(part: DomainPartition, params: ModelParams,
                         v1: VectorField, v2: VectorField) -> ScalarField:
    d1 = divergence(v1).values
    d2 = divergence(v2).values
    p = (part.chi1.values * (params.p1_star - d1 / params.g1) +
         part.chi2.values * (params.p2_star - d2 / params.g2))
    return ScalarField(part.spec, p)


def _gmres(product, f: np.ndarray, cycles: int, history: list) -> np.ndarray:
    """Restarted GMRES from zero for ``product(x) = f``; returns x.

    The Arnoldi step is classical Gram-Schmidt against the whole basis,
    twice, and the Givens rotations run on Python floats.  Every inner
    iteration appends its rotated residual over ||f|| to ``history``.
    A cycle ends after ``GMRES_RESTART`` iterations, at a rotated
    residual of at most ``0.01 * brinkman.REL_TOL * ||f||``, or at a
    breakdown (a new vector of norm at most eps times that of its
    product), and then checks the true residual.  The solve stops when
    that residual meets the tolerance, at a breakdown, or after
    ``cycles`` cycles.
    """
    fnorm = norm(f)
    # D^T amplifies the cell residual in the coupled one, hence 0.01.
    tol = 0.01 * brinkman.REL_TOL * fnorm
    eps = np.finfo(float).eps
    basis = np.empty((GMRES_RESTART + 1, f.size))
    x = np.zeros_like(f)
    r = f
    for _ in range(cycles):
        g = [norm(r)]
        np.divide(r, g[0], out=basis[0])
        columns, rotations = [], []     # the rotated Hessenberg triangle
        for j in range(GMRES_RESTART):
            w = product(basis[j])
            v = basis[:j + 1]
            h0 = norm(w)
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            h1 = norm(w)
            breakdown = not h1 > eps * h0        # a NaN breaks down too
            if not breakdown:
                np.divide(w, h1, out=basis[j + 1])
            col = (h + h2).tolist()
            for k, (c, s) in enumerate(rotations):
                col[k], col[k + 1] = (c * col[k] + s * col[k + 1],
                                      c * col[k + 1] - s * col[k])
            a, b = col[j], 0.0 if breakdown else h1
            col[j] = math.copysign(math.hypot(a, b), a)
            c, s = a / col[j], b / col[j]
            columns.append(col)
            rotations.append((c, s))
            g[j], residual = c * g[j], -s * g[j]
            g.append(residual)
            history.append(abs(residual) / fnorm)
            if abs(residual) <= tol or breakdown:
                break
        y = g[:len(columns)]            # back substitution on the triangle
        for k in reversed(range(len(y))):
            y[k] = (y[k] - sum(columns[i][k] * y[i]
                               for i in range(k + 1, len(y)))) / columns[k][k]
        x += np.array(y) @ basis[:len(y)]
        r = f - product(x)
        if norm(r) <= tol or breakdown:
            break
    return x


def solve_stationary(part: DomainPartition, params: ModelParams,
                     q: ScalarField | None = None) -> StationarySolution:
    """Velocities and pressure of the coupled system, via the cell equation.

    The cell equation S Pi = f is solved by GMRES right-preconditioned
    with the diagonal d = 1 + (c1/beta1 + c2/beta2), c_i = chi_i/g_i, the
    limit of S at high frequency (Saad 2003, section 9.3).
    ``brinkman.REL_TOL`` bounds the relative residual of the full coupled
    system, and GMRES gets ``GMRES_ITERATIONS_PER_LINE * (nx + ny)``
    inner iterations (whole restart cycles).  Raises SolverFailure when
    the residual is missed.  q defaults to zero and must live on the
    partition's grid; the solution keeps it zeroed outside the tissues.
    """
    rel_tol = brinkman.REL_TOL
    spec = part.spec
    q, f = _source(part, params, q)
    D = divergence_matrix(spec)
    c1 = part.chi1.values.ravel() / params.g1
    c2 = part.chi2.values.ravel() / params.g2

    def coupling(x1, x2):
        # grouped so that swapping the tissue labels is bitwise symmetric
        return c1 * (D @ x1) + c2 * (D @ x2)

    b = D.T @ f
    scale = norm(np.concatenate([b, b]))
    history = []    # one residual norm per GMRES inner iteration
    if scale == 0.0:
        x1 = x2 = np.zeros_like(b)
        rel = 0.0
    else:
        products = cell_pressure_operator((params.beta1, params.beta2), spec)

        # the right preconditioner, grouped as in coupling
        d = 1.0 + (c1 / params.beta1 + c2 / params.beta2)

        def schur_product(y):
            pi = y / d
            m = products(pi.reshape(spec.nx, spec.ny)).reshape(2, f.size)
            return pi + (c1 * m[0] + c2 * m[1])     # grouped as in coupling

        budget = GMRES_ITERATIONS_PER_LINE * (spec.nx + spec.ny)
        pi = _gmres(schur_product, f, budget // GMRES_RESTART, history) / d
        x1, x2 = face_brinkman_inverse(D.T @ pi, (params.beta1, params.beta2),
                                       spec)
        K = _stiffness(spec)
        g = D.T @ coupling(x1, x2) - b
        r = np.concatenate([x1 + params.beta1 * (K @ x1) + g,
                            x2 + params.beta2 * (K @ x2) + g])
        rel = norm(r) / scale
        if not rel <= rel_tol:          # a NaN residual fails too
            raise SolverFailure("stationary system", rel, rel_tol,
                                len(history))
    v1 = unstack_faces(spec, x1)
    v2 = unstack_faces(spec, x2)
    p = reconstruct_pressure(part, params, v1, v2)
    return StationarySolution(params, q, v1, v2, p, rel, len(history))


# ---------------------------------------------------------------------------
# one-sided traces and interface jumps

_REGIONS = {"gamma": (1, 2), "gamma1": (1, 0), "gamma2": (2, 0)}

JUMP_QUANTITIES = ("pressure", "v1", "v2")


def _traces(values: np.ndarray, faces: InterfaceFaces) -> np.ndarray:
    """One-sided traces of a cell field, (2, n).

    Row 0 is the left side, row 1 the right side of every face: linear
    extrapolation from the near and far cell, which sit at h/2 and 3h/2
    from the face.  Values at untraceable faces are meaningless.
    """
    flat = values.ravel()
    return 1.5 * flat[faces.near] - 0.5 * flat[faces.far]


@dataclass(frozen=True)
class JumpTable:
    quantity: str
    interfaces: dict   # name -> (faces, left, right, jump), NaN untraceable
    averages: dict     # interface -> mean |jump| over traceable faces


def measure_jump(sol: StationarySolution, part: DomainPartition,
                 quantity: str) -> JumpTable:
    """Per-face one-sided traces and jumps of a solution quantity.

    Left/right are the first/second-named regions; on the mutual
    interface left is tissue 1 and right is tissue 2.  ``pressure`` uses
    the reconstructed pressure field (0 outside the tissues); ``v1``/``v2``
    are velocity magnitudes (jump of the vector).  The cell field is
    evaluated once; each trace is a gather from ``InterfaceFaces`` arrays,
    NaN at untraceable faces.  The normal-stress balance is
    ``interface_force_residuals``: pointwise derivatives do not converge.
    """
    if quantity not in JUMP_QUANTITIES:
        raise ValueError(f"unknown jump quantity {quantity!r}")
    if quantity == "pressure":
        fields = (sol.p.values,)
    else:
        fields = (sol.v1 if quantity == "v1" else sol.v2).cell_centered()
    interfaces, averages = {}, {}
    for name in _REGIONS:
        faces = getattr(part, name)
        traces = [_traces(values, faces) for values in fields]
        if quantity == "pressure":
            (left, right), = traces
            if name != "gamma":
                right = np.zeros_like(left)     # exterior pressure is 0
            jump = left - right
        else:
            (ul, ur), (vl, vr) = traces
            left, right = np.hypot(ul, vl), np.hypot(ur, vr)
            jump = np.hypot(ul - ur, vl - vr)
        left, right, jump = (np.where(faces.traceable, v, np.nan)
                             for v in (left, right, jump))
        interfaces[name] = (faces, left, right, jump)
        # summed in face order, one face at a time
        magnitudes = np.abs(jump[faces.traceable]).tolist()
        total = functools.reduce(float.__add__, magnitudes, 0.0)
        averages[name] = total / len(magnitudes) if magnitudes else np.nan
    return JumpTable(quantity, interfaces, averages)


def write_jump_csv(tables, path) -> None:
    """One row per face; an untraceable face's traces read ``untraceable``."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(JUMP_CSV_COLUMNS)
        for table in tables:
            for name, (faces, *values) in table.interfaces.items():
                for k, (x, y, nux, nuy, ok, *traces) in enumerate(zip(*(
                        v.tolist() for v in (faces.x, faces.y, faces.nux,
                                             faces.nuy, faces.traceable,
                                             *values)))):
                    writer.writerow([name, k, x, y, nux, nuy, table.quantity,
                                     *(traces if ok else ["untraceable"] * 3)])


@dataclass(frozen=True)
class TransmissionReport:
    """Max discrete residuals of the interface continuity laws.

    Keys: per interface, 'cont1'/'cont2' are the velocity-vector jumps;
    'normal_match' (mutual interface only) is |v1.nu - v2.nu| read
    directly off the shared face.  An entry is NaN when its interface
    has no traceable face.  ``n_untraceable`` counts the untraceable
    faces of all interfaces, each face once.  The normal-stress balance
    is ``interface_force_residuals``.  On the concentric partition with
    beta = g = 1 `max_residual` falls 0.0874, 0.0430, 0.0215 from 32^2 to
    128^2, but with beta2 = 0.3, g2 = 2 normal_match stays near 0.27.
    """

    residuals: dict
    n_untraceable: int

    def max_residual(self) -> float:
        """Largest entry, skipping NaN ones: NaN if all are, 0.0 if none."""
        vals = [v for d in self.residuals.values() for v in d.values()]
        known = [v for v in vals if not np.isnan(v)]
        if known:
            return max(known)
        return np.nan if vals else 0.0


def _largest(values: np.ndarray) -> float:
    return values.max() if values.size else np.nan


def verify_transmission(sol: StationarySolution,
                        part: DomainPartition) -> TransmissionReport:
    """Largest continuity residuals per interface, read off the v1 and v2
    jump tables; the force balance is ``interface_force_residuals``."""
    tables = {key: measure_jump(sol, part, quantity).interfaces
              for key, quantity in (("cont1", "v1"), ("cont2", "v2"))}
    residuals = {}
    untraceable = 0
    for name in _REGIONS:
        faces = getattr(part, name)
        if not faces:
            continue
        ok = faces.traceable
        untraceable += len(faces) - int(ok.sum())
        entry = {key: _largest(table[name][3][ok])
                 for key, table in tables.items()}
        if name == "gamma":
            du, dv = sol.v1.u - sol.v2.u, sol.v1.v - sol.v2.v
            u, v = faces.is_u, ~faces.is_u
            entry["normal_match"] = _largest(np.abs(np.concatenate(
                [du[faces.fi[u], faces.fj[u]], dv[faces.fi[v], faces.fj[v]]])))
        residuals[name] = entry
    return TransmissionReport(residuals, untraceable)


# interface_force_residuals: fit cells lie more than FIT_BAND_CELLS from
# the interface and within FIT_RADIUS_CELLS * hx of the face; the normal
# comes from an indicator difference smoothed over NORMAL_SMOOTHING_CELLS.
FIT_BAND_CELLS = 2.5
FIT_RADIUS_CELLS = 6.0
NORMAL_SMOOTHING_CELLS = 2.0


def interface_force_residuals(sol: StationarySolution, part: DomainPartition,
                              which: int = 1,
                              interface: str = "gamma") -> np.ndarray:
    """Per-face residuals of the normal-stress balance across an interface.

    The normal-normal component of ``beta_i * grad v_i`` must jump across
    the interface by the pressure jump, corrected by the trace of the
    limit repulsion pressure from the other tissue's side when that
    tissue is adjacent.  Pointwise one-sided differences are polluted by
    the staircase geometry of axis-aligned faces, so both ingredients
    are built to see only the smooth large-scale fields: one-sided
    traces come from moving-least-squares linear fits over cells more
    than ``FIT_BAND_CELLS`` away from the interface within
    ``FIT_RADIUS_CELLS`` grid spacings of the face, and the interface
    normal from the gradient of a smoothed indicator difference.  Each
    fit reads only the box of cells around the disk, in the grid's
    row-major order.  Returns one residual per traceable face; faces
    without enough one-sided fit cells are skipped.
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
    fit_mask = {r: masks[r] & (distance_transform_edt(masks[r])
                               > FIT_BAND_CELLS) for r in (side_a, side_b)}

    diff = gaussian_filter(masks[side_b].astype(float)
                           - masks[side_a].astype(float),
                           NORMAL_SMOOTHING_CELLS)
    gx = np.gradient(diff, spec.hx, axis=0)
    gy = np.gradient(diff, spec.hy, axis=1)

    other = 2 if which == 1 else 1
    q_sign = {side_a: 1.0, side_b: -1.0}.get(other, 0.0)

    xx, yy = spec.cell_center_mesh()
    radius = FIT_RADIUS_CELLS * spec.hx
    # cells from the face's cell to the edge of its fit disk, with a margin
    ri, rj = int(radius / spec.hx) + 2, int(radius / spec.hy) + 2

    res = []
    faces = getattr(part, interface)
    for x0, y0, fi, fj, is_u in zip(*(v.tolist() for v in (
            faces.x, faces.y, faces.fi, faces.fj, faces.is_u))):
        ci, cj = fi - is_u, fj - (not is_u)     # the cell before the face
        norm = np.hypot(gx[ci, cj], gy[ci, cj])
        if norm < 1e-12:
            continue
        nt = np.array([gx[ci, cj], gy[ci, cj]]) / norm

        box = (slice(max(ci - ri, 0), ci + ri + 1),
               slice(max(cj - rj, 0), cj + rj + 1))
        bx, by = xx[box], yy[box]
        dd = (bx - x0) ** 2 + (by - y0) ** 2
        near = dd < radius * radius

        def fit(vals, region):
            sel = fit_mask[region][box] & near
            count = int(sel.sum())
            if count < 8:
                return None
            basis = np.column_stack([np.ones(count), bx[sel] - x0,
                                     by[sel] - y0])
            w = 1.0 - np.sqrt(dd[sel]) / radius
            coef, *_ = np.linalg.lstsq(basis * w[:, None],
                                       vals[box][sel] * w, rcond=None)
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
