"""Stationary two-tissue system on a fixed partition, and its interface laws.

The velocity pair (v1, v2) satisfies a coupled elliptic system: for each
tissue a Brinkman operator plus a grad-div term weighted by 1/g_i on that
tissue's subdomain, with cross coupling through the other tissue's
grad-div term.  Discretely this is

    A_i x_i + D^T (C1 D x1 + C2 D x2) = D^T f,    i = 1, 2,

with A_i = I + beta_i*K, K the face stiffness (Dirichlet walls), D the
cell divergence, C_i = diag(chi_i / g_i) and
f = chi1*(p1* + q) + chi2*(p2* + q), q zeroed outside the tissues.
``assemble_weak_form`` builds this 2x2 block matrix, with
``scipy.sparse``, for the tests' energy form and as their reference.

``solve_stationary`` never forms it.  Eliminating the face velocities
leaves a cell-sized equation for the total tissue pressure
Pi = f - (C1 D x1 + C2 D x2),

    (I + C1 D A1^-1 D^T + C2 D A2^-1 D^T) Pi = f,    x_i = A_i^-1 D^T Pi,

whose operator is bounded independently of h because D A_i^-1 D^T acts
like -Lap (I - beta_i Lap)^-1 <= 1/beta_i.  A restarted GMRES (``_gmres``;
Saad & Schultz 1986) solves it matrix-free and never leaves the cells,
as iterative refinement in two precisions (Carson & Higham, SIAM J. Sci.
Comput. 39, 2017): each restart cycle solves the correction equation
for the current residual in float32, until it has reduced that residual
by ``CYCLE_REDUCTION``, and the solution, its residual and the stopping
test are float64.  On the fig3-lesvm bands two cycles reach the float64
tolerance.  GMRES is right-preconditioned by the operator's
high-frequency limit, the diagonal d = 1 + chi1/(g1 beta1) +
chi2/(g2 beta2): it solves S (y / d) = f and Pi = y / d, so its residual
is still the true residual of S Pi = f (Saad, Iterative Methods for
Sparse Linear Systems, 2nd ed., SIAM 2003, section 9.3).
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
which returns them as the tissues' full face arrays.
GMRES has a fixed budget of ``GMRES_ITERATIONS_PER_LINE * (nx + ny)``
inner iterations, counted across its cycles; no tolerance or budget is a
parameter.

The pressure is reconstructed from the velocity divergences,

    p = (p1* - (1/g1) div v1) on the first subdomain,
        (p2* - (1/g2) div v2) on the second, 0 outside,

which closes the divergence law div v_i = g_i*(p_i* - p) identically.
Then f - C1 D x1 - C2 D x2 = p + q on every cell, so the coupled
residual of tissue i is (I + beta_i K) x_i - D^T (p + q): each velocity
is checked against the Brinkman law of the total pressure p + q, with
the Brinkman path's own tools, ``brinkman.divergence_transpose`` for
D^T = -grad and its residual sums over ``brinkman.FACE_BLOCKS`` for K,
against ``brinkman.REL_TOL``.  D is ``grid.flux_divergence``, the divergence
the pressure reconstruction takes.

Each interface of a partition (``gamma``: tissue 1 | tissue 2,
``gamma1``/``gamma2``: tissue | exterior) is one ``InterfaceFaces``
record of arrays, built on first read: face indices, midpoints and
normals, and the flat indices of the two nearest cells on each side.
Every one-sided trace is one gather from those indices: ``measure_jump``
evaluates its cell field once and keeps each interface's traces and
jumps as arrays, and ``verify_transmission`` reads the v1 and v2 tables.
Tissues may touch the walls: a face whose trace would need a cell
beyond them is masked.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import brinkman
from .brinkman import (FACE_BLOCKS, SolverFailure, cell_pressure_operator,
                       divergence_transpose, face_brinkman_inverse, norm)
from .constitutive import ModelParams
from .grid import GridSpec, ScalarField, VectorField, flux_divergence
from .operators import divergence_matrix, face_stiffness_u, face_stiffness_v

# GMRES inner iterations per restart cycle: the basis holds restart + 1
# vectors, and the pressure equation converges in well under 50 iterations.
GMRES_RESTART = 50
# GMRES inner iterations allowed per grid line: the budget is 10*(nx+ny)
# inner iterations, counted across restart cycles.
GMRES_ITERATIONS_PER_LINE = 10
# A restart cycle runs in CYCLE_DTYPE and stops once it has reduced the
# residual it corrects by CYCLE_REDUCTION, which float32 resolves.
CYCLE_DTYPE = np.float32
CYCLE_REDUCTION = 1e-6

JUMP_CSV_COLUMNS = ("interface", "face_index", "x", "y", "nx", "ny",
                    "quantity", "left_trace", "right_trace", "jump")
# each interface's (left, right) labels: tissue 1, tissue 2 or exterior 0
_REGIONS = {"gamma": (1, 2), "gamma1": (1, 0), "gamma2": (2, 0)}


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

    Construction raises ``PartitionError`` on any overlap, so every
    partition a run makes is disjoint and no run counts overlap cells.

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
        return _interface_faces(self.labels, self.spec, *_REGIONS["gamma"])

    @functools.cached_property
    def gamma1(self) -> InterfaceFaces:
        return _interface_faces(self.labels, self.spec, *_REGIONS["gamma1"])

    @functools.cached_property
    def gamma2(self) -> InterfaceFaces:
        return _interface_faces(self.labels, self.spec, *_REGIONS["gamma2"])

    @property
    def spec(self) -> GridSpec:
        return self.chi1.spec

    @property
    def labels(self) -> np.ndarray:
        return (self.chi1.values + 2.0 * self.chi2.values).astype(int)

    def cell_counts(self):
        return int(self.chi1.values.sum()), int(self.chi2.values.sum())


def concentric_partition(spec: GridSpec) -> DomainPartition:
    """Disk r < 0.45 (tissue 1) in the annulus 0.45 <= r < 0.8 (tissue 2)."""
    xx, yy = spec.cell_center_mesh()
    rr = np.hypot(xx, yy)
    r1, r2 = 0.45, 0.8
    chi1 = ScalarField(spec, (rr < r1).astype(float))
    chi2 = ScalarField(spec, ((rr >= r1) & (rr < r2)).astype(float))
    return DomainPartition(chi1, chi2)


@functools.lru_cache(maxsize=32)
def _stiffness(spec: GridSpec):
    import scipy.sparse as sp

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


def assemble_weak_form(part: DomainPartition, params: ModelParams,
                       q: ScalarField | None = None):
    """The discrete coupled system's (matrix, right-hand side)."""
    import scipy.sparse as sp

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
    return A, np.concatenate([b_half, b_half])


@dataclass(frozen=True)
class StationarySolution:
    params: ModelParams
    q: ScalarField
    v1: VectorField
    v2: VectorField
    p: ScalarField
    rel_residual: float
    iterations: int = 0        # GMRES inner iterations of the solve


def _gmres(product, f: np.ndarray, budget: int):
    """GMRES iterative refinement from zero for ``product(x) = f``; returns
    x and the number of inner iterations.

    Each restart cycle solves the correction equation ``product(e) = r``
    for the true residual r = f - product(x) by GMRES in ``CYCLE_DTYPE``:
    the basis, the Arnoldi products and ``product`` itself run in
    float32, whose transforms take about half the time, so ``product``
    returns its argument's dtype.  The Arnoldi step is classical
    Gram-Schmidt against the whole basis, twice, and the Givens rotations
    run on Python floats.  A cycle ends after ``GMRES_RESTART``
    iterations, once its rotated residual is at most
    ``CYCLE_REDUCTION * ||r||`` or ``0.01 * brinkman.REL_TOL * ||f||``,
    or at a breakdown (a new vector of norm at most float32 eps times
    that of its product).  Then x += e and r are formed in float64, from
    a float64 product.  The solve stops when ||r|| meets the tolerance,
    when it is NaN, or after ``budget`` inner iterations in all.
    """
    # D^T amplifies the cell residual in the coupled one, hence 0.01.
    tol = 0.01 * brinkman.REL_TOL * norm(f)
    eps = np.finfo(CYCLE_DTYPE).eps
    basis = np.empty((GMRES_RESTART + 1, f.size), dtype=CYCLE_DTYPE)
    x = np.zeros_like(f)
    r = f
    iterations = 0
    while iterations < budget:
        g = [norm(r)]
        target = max(CYCLE_REDUCTION * g[0], tol)
        np.divide(r, g[0], out=basis[0])
        columns, rotations = [], []     # the rotated Hessenberg triangle
        for j in range(min(GMRES_RESTART, budget - iterations)):
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
            if abs(residual) <= target or breakdown:
                break
        y = g[:len(columns)]            # back substitution on the triangle
        for k in reversed(range(len(y))):
            y[k] = (y[k] - sum(columns[i][k] * y[i]
                               for i in range(k + 1, len(y)))) / columns[k][k]
        x += np.array(y, dtype=CYCLE_DTYPE) @ basis[:len(y)]
        iterations += len(y)
        r = f - product(x)
        if not norm(r) > tol:           # a NaN residual ends the solve too
            break
    return x, iterations


def solve_stationary(part: DomainPartition, params: ModelParams,
                     q: ScalarField | None = None) -> StationarySolution:
    """Velocities and pressure of the coupled system, via the cell equation.

    The cell equation S Pi = f is solved by GMRES right-preconditioned
    with the diagonal d = 1 + (c1/beta1 + c2/beta2), c_i = chi_i/g_i, the
    limit of S at high frequency (Saad 2003, section 9.3), in float32
    cycles that refine a float64 Pi (``_gmres``).
    ``brinkman.REL_TOL`` bounds |r| / |[D^T f, D^T f]|, r the residual of
    the full coupled system, r_i = (I + beta_i K) x_i - D^T (p + q), and
    GMRES gets ``GMRES_ITERATIONS_PER_LINE * (nx + ny)`` inner iterations
    over all its cycles.  Raises SolverFailure when the residual is
    missed.
    q defaults to zero and must live on the partition's grid; the
    solution keeps it zeroed outside the tissues.
    """
    spec = part.spec
    betas = (params.beta1, params.beta2)
    q, f = _source(part, params, q)
    chi1, chi2 = part.chi1.values, part.chi2.values
    c1, c2 = chi1.ravel() / params.g1, chi2.ravel() / params.g2
    b = divergence_transpose(f.reshape(spec.nx, spec.ny), spec)
    scale = norm(np.concatenate([bk.ravel() for bk in b + b]))  # |[b, b]|
    faces = (np.zeros((2, spec.nx + 1, spec.ny)),
             np.zeros((2, spec.nx, spec.ny + 1)))
    iterations = 0
    if scale:
        products = cell_pressure_operator(betas, spec)
        # the right preconditioner; every sum over the tissues is grouped
        # so that swapping their labels is bitwise symmetric
        d = 1.0 + (c1 / params.beta1 + c2 / params.beta2)
        # the diagonals in each precision a product runs in
        diagonals = {np.dtype(t): tuple(a.astype(t) for a in (d, c1, c2))
                     for t in (np.float64, CYCLE_DTYPE)}

        def schur_product(y):
            dy, c1y, c2y = diagonals[y.dtype]
            pi = y / dy
            m = products(pi.reshape(spec.nx, spec.ny)).reshape(2, f.size)
            return pi + (c1y * m[0] + c2y * m[1])

        budget = GMRES_ITERATIONS_PER_LINE * (spec.nx + spec.ny)
        y, iterations = _gmres(schur_product, f, budget)
        pi = (y / d).reshape(spec.nx, spec.ny)
        faces = face_brinkman_inverse(divergence_transpose(pi, spec), betas,
                                      spec)
    d1, d2 = (flux_divergence(u, v, spec) for u, v in zip(*faces))
    p = (chi1 * (params.p1_star - d1 / params.g1) +
         chi2 * (params.p2_star - d2 / params.g2))
    sums = [r for _, _, r in brinkman.residual_sums(
        faces, divergence_transpose(p + q.values, spec), betas,
        FACE_BLOCKS, spec)]
    # each tissue's squares summed on their own: the labels swap bitwise
    rel = math.sqrt(sum(map(sum, zip(*sums)))) / scale if scale else 0.0
    if not rel <= brinkman.REL_TOL:     # a NaN residual fails too
        raise SolverFailure("stationary system", rel, brinkman.REL_TOL,
                            iterations)
    v1, v2 = (VectorField(spec, u, v) for u, v in zip(*faces))
    return StationarySolution(params, q, v1, v2, ScalarField(spec, p), rel,
                              iterations)


# ---------------------------------------------------------------------------
# one-sided traces and interface jumps

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
    NaN at untraceable faces.
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
    faces of all interfaces, each face once.  On the concentric
    partition with beta = g = 1 `max_residual` falls 0.0874, 0.0430,
    0.0215 from 32^2 to 128^2, but with beta2 = 0.3, g2 = 2 normal_match
    stays near 0.27.
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
    jump tables."""
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
