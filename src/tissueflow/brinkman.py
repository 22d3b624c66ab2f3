"""Screened vector Helmholtz (Brinkman) solves -beta*Lap(v) + v = -grad p.

The two velocity components decouple, so each is an independent SPD
system on its own face grid with homogeneous Dirichlet walls.  The
gradient-form variant instead solves the scalar screened-Poisson
problem -beta*Lap(K) + K = p with zero-flux walls and returns -grad K,
which is curl-free up to discretization error.

All three operators are I + beta*K with K a sum of constant-coefficient
three-point stencils on the uniform box, so every solve is an exact
transform solve: sine and cosine transforms diagonalise K, with no
factorisation.  They diagonalise I + beta*K for every beta at once: a
solve takes a tuple ``betas``, transforms b forward once and inverts the
stack of solutions in one call.  The eigenvalue sums of K (or of K^2,
for the fourth-order stage) are a read-only table per grid, wall set and
power, made on first use (``_symbol``).  The Dirichlet solve's
right-hand side -grad p = D^T p is written straight into the stacked
face vector (``divergence_transpose``).  Each solution's relative
residual is checked against ``REL_TOL`` with K applied as a five-point
stencil (``_residual``), written down apart from the transforms.
``cell_pressure_operator`` applies D (I + beta*K)^-1 D^T, the Dirichlet
solve between a cell divergence and its transpose, in the same way
without leaving the cells.  The stationary solve uses it, and checks
its velocities with ``divergence_transpose`` and ``residual_sums``.

The transforms are the compiled pocketfft kernels that ``scipy.fft``
calls, bound directly (``_pocketfft``) and called with the arguments
``scipy.fft`` would pass, so the results are ``scipy.fft``'s bit for bit
and a run imports neither ``scipy.fft``'s Python layer nor
``scipy.sparse``.

Every residual norm, the stationary solve's too, is ``norm``, summed
without BLAS, so a solve's bytes do not depend on the BLAS thread count.
``scipy.sparse.linalg`` is imported only when something looks up
``brinkman.spla``; only the benchmark's tracer does, to count ``splu``
factorisations, so an untraced run never imports it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, gradient
from .operators import stack_faces, unstack_faces
# only perfbench/spans.py reads these here, to time the assembly
from .operators import (cell_laplacian_neumann, face_stiffness_u,  # noqa: F401
                        face_stiffness_v)


def _pocketfft():
    """scipy.fft's compiled pocketfft module, without scipy's Python layer.

    The extension is loaded from scipy's install under its own name and
    registered in ``sys.modules``, so a later ``import scipy.fft`` uses
    this module rather than loading the extension again.
    """
    name = "scipy.fft._pocketfft.pypocketfft"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("tissueflow needs scipy, which is not installed")
    folder = Path(scipy.submodule_search_locations[0], "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"pypocketfft{suffix}"
        if path.is_file():
            break
    else:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no pocketfft "
                          f"extension in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_pfft = _pocketfft()

# Wall condition along one axis of n cells: (kernel, forward type, inverse
# type, k0).  The transform diagonalises that axis's stencil [-1, 2, -1]/h^2
# with eigenvalues (2 - 2cos(k*pi/n))/h^2 for k = k0, k0+1, ...  A kernel is
# called as scipy.fft calls it, (x, type, axes, inorm, out, nthreads): inorm
# 0 forward and 2 (divide by the logical size) inverse, one thread.
_FACES = (_pfft.dst, 1, 1, 1)     # n-1 face unknowns, walls on the end faces
_CELLS = (_pfft.dst, 2, 3, 1)     # n unknowns, Dirichlet wall half a spacing out
_NEUMANN = (_pfft.dct, 2, 3, 0)   # n cells, zero-flux walls

# Relative residual every solve must reach, the stationary one included;
# read at call time.
REL_TOL = 1e-10


def _squares(x: np.ndarray) -> float:
    """Sum of squares of a 1-D array, summed without BLAS (see ``norm``)."""
    return float(np.einsum("i,i->", x, x))


def norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, summed without BLAS.

    ``np.linalg.norm`` calls BLAS ``ddot``, whose sum over a long vector
    is split across threads, so its last bits depend on the thread count.
    """
    return math.sqrt(_squares(x))


def __getattr__(name: str):
    # perfbench/spans.py looks spla up to count splu; nothing else does
    if name == "spla":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverFailure(RuntimeError):
    """Linear solve did not reach the requested tolerance."""

    def __init__(self, what: str, residual: float, tol: float,
                 iterations: int | None = None):
        after = "" if iterations is None else f" after {iterations} iterations"
        super().__init__(f"{what}: residual {residual:.3e} > tol {tol:.3e}{after}")
        self.iterations = iterations


def _eigenvalues(k0: int, m: int, n: int, h: float) -> np.ndarray:
    """Eigenvalues k = k0, ..., k0+m-1 of one axis of n cells (see _FACES)."""
    # 4 sin^2(theta/2) == 2 - 2cos(theta), without the cancellation
    return (2.0 * np.sin(np.arange(k0, k0 + m) * np.pi / (2 * n)) / h) ** 2


@functools.lru_cache(maxsize=32)
def _symbol(spec: GridSpec, walls: tuple, shape: tuple,
            power: int) -> np.ndarray:
    """The eigenvalues (lx + ly)^power of K^power on the 2-D unknown grid
    ``shape`` of ``walls``, one read-only table per grid."""
    (_, _, _, kx), (_, _, _, ky) = walls
    lx = _eigenvalues(kx, shape[0], spec.nx, spec.hx)
    ly = _eigenvalues(ky, shape[1], spec.ny, spec.hy)
    k = (lx[:, None] + ly[None, :]) ** power
    k.flags.writeable = False
    return k


def _transform_solve(b: np.ndarray, betas: tuple, spec: GridSpec,
                     walls: tuple, power: int = 1) -> np.ndarray:
    """Solve (I + beta*K^power) x = b exactly for each of ``betas``, with b
    on its 2-D unknown grid; returns the stack of solutions."""
    (tr_x, tx, ix, _), (tr_y, ty, iy, _) = walls
    k = _symbol(spec, walls, b.shape, power)
    y = tr_y(tr_x(b, tx, (0,), 0, None, 1), ty, (1,), 0, None, 1)
    stack = np.empty((len(betas),) + b.shape)    # inverted in place
    for out, beta in zip(stack, betas):
        np.multiply(k, beta, out=out)
        out += 1.0
        np.divide(y, out, out=out)
    tr_y(stack, iy, (2,), 2, stack, 1)
    return tr_x(stack, ix, (1,), 2, stack, 1)


def face_brinkman_inverse(b: np.ndarray, betas: tuple,
                          spec: GridSpec) -> np.ndarray:
    """Exact (I + beta*K)^-1 b, one row per beta, for a stacked face vector b.

    ``b`` and each row have the layout of ``operators.stack_faces`` and K
    is the Dirichlet face stiffness of each component: one transform
    solve per component, with no residual check.
    """
    nu = (spec.nx - 1) * spec.ny
    u = _transform_solve(b[:nu].reshape(spec.nx - 1, spec.ny), betas, spec,
                         (_FACES, _CELLS))
    v = _transform_solve(b[nu:].reshape(spec.nx, spec.ny - 1), betas, spec,
                         (_CELLS, _FACES))
    m = len(betas)
    return np.concatenate([u.reshape(m, -1), v.reshape(m, -1)], axis=1)


def cell_pressure_operator(betas: tuple, spec: GridSpec):
    """The map p -> stack of D (I + beta_i*K)^-1 D^T p over ``betas``.

    D is the cell divergence and K the Dirichlet face stiffness, as in
    ``face_brinkman_inverse``; p and each slice of the result are cell
    fields of shape (nx, ny).  D maps the sine modes of the faces onto
    the cosine modes of the cells with singular values sqrt(lambda), so
    the u part is diagonal in DCT-II along x times DST-II along y with
    symbol lx/(1 + beta*(lx + ly)), and the v part in the transposed
    bases with symbol ly/(1 + beta*(lx + ly)).  The symbols are computed
    here, once; each call transforms p forward once per basis and
    transforms the whole stack back.
    """
    beta = np.asarray(betas, dtype=float)[:, None, None]
    parts = []
    for walls, along in (((_NEUMANN, _CELLS), 0), ((_CELLS, _NEUMANN), 1)):
        (_, _, _, kx), (_, _, _, ky) = walls
        lx = _eigenvalues(kx, spec.nx, spec.nx, spec.hx)[:, None]
        ly = _eigenvalues(ky, spec.ny, spec.ny, spec.hy)[None, :]
        parts.append((walls, (lx, ly)[along] / (1.0 + beta * (lx + ly))))

    def apply(p: np.ndarray) -> np.ndarray:
        m = 0.0
        for ((tr_x, tx, ix, _), (tr_y, ty, iy, _)), symbol in parts:
            y = tr_y(tr_x(p, tx, (0,), 0, None, 1), ty, (1,), 0, None, 1)
            y = tr_y(y * symbol, iy, (2,), 2, None, 1)
            m = m + tr_x(y, ix, (1,), 2, None, 1)
        return m

    return apply


def neumann_cell_inverse(b: np.ndarray, betas: tuple, spec: GridSpec,
                         power: int = 1) -> np.ndarray:
    """Exact (I + beta*K^power)^-1 b, one slice per beta, for a cell field b.

    K is the negative cell Laplacian with zero-flux walls; power 2 gives
    the biharmonic operator of the fourth-order stage.  One DCT-II pair,
    with no residual check.
    """
    return _transform_solve(b, betas, spec, (_NEUMANN, _NEUMANN), power)


@functools.lru_cache(maxsize=32)
def _residual_workspace(shape: tuple) -> np.ndarray:
    return np.empty((2,) + shape)


def _residual(x: np.ndarray, b: np.ndarray, beta: float, ends: tuple,
              spec: GridSpec) -> np.ndarray:
    """x + beta*K x - b on x's 2-D grid, in a workspace of its shape.

    K is the negative five-point Laplacian: along each axis the stencil
    (-1, 2, -1)/h^2, with the neighbours beyond the ends left out and
    the end diagonals ``ends`` in place of 2.  An end diagonal is 2 next
    to a wall face, 3 next to a wall half a spacing out and 1 at a
    zero-flux wall.
    """
    r, t = _residual_workspace(x.shape)
    cx, cy = beta / spec.hx**2, beta / spec.hy**2
    np.multiply(x, 1.0 + 2.0 * (cx + cy), out=r)
    r -= b
    # axis 1 through the transposes; t holds the neighbour sums
    for c, end, xa, ta, ra in ((cx, ends[0], x, t, r),
                               (cy, ends[1], x.T, t.T, r.T)):
        np.add(xa[:-2], xa[2:], out=ta[1:-1])
        ta[0], ta[-1] = xa[1], xa[-2]
        ta *= c
        ra -= ta
        ra[0] += (c * (end - 2.0)) * xa[0]
        ra[-1] += (c * (end - 2.0)) * xa[-1]
    return r


def residual_sums(xs, b: np.ndarray, betas: tuple, blocks: tuple,
                   spec: GridSpec):
    """Per block ``(shape, ends, what)`` of K, the next rows of b and of
    each x on a 2-D grid of ``shape``: ``what``, b's sum of squares there
    and, per beta, that of x + beta*K x - b (``_residual``)."""
    bf, stop = b.ravel(), 0
    for shape, ends, what in blocks:
        rows = slice(stop, stop + shape[0] * shape[1])
        stop = rows.stop
        bk = bf[rows].reshape(shape)
        yield what, _squares(bf[rows]), [
            _squares(_residual(x.ravel()[rows].reshape(shape), bk, beta, ends,
                               spec).ravel())
            for beta, x in zip(betas, xs)]


def _solve(b: np.ndarray, betas: tuple, blocks: tuple, inverse,
           spec: GridSpec) -> np.ndarray:
    """Stack of the solutions x of (I + beta*K) x = b for each of
    ``betas``, K block diagonal over ``blocks``.

    ``inverse(b, betas, spec)`` is the exact, stacked transform solve.
    Every block of each x is checked (``residual_sums``): a relative
    residual above ``REL_TOL``, or a NaN one, raises SolverFailure.
    """
    if any(beta <= 0 for beta in betas):
        raise ValueError("beta must be positive")
    xs = inverse(b, betas, spec)
    for what, b_squares, r_squares in residual_sums(xs, b, betas, blocks,
                                                     spec):
        scale = math.sqrt(b_squares)
        for res in map(math.sqrt, r_squares):
            if not res <= REL_TOL * scale:      # a NaN residual fails too
                raise SolverFailure(what, res / scale, REL_TOL)
    return xs


def face_blocks(spec: GridSpec) -> tuple:
    """The Dirichlet face stiffness's u- and v-blocks, for ``_solve``."""
    nx, ny = spec.nx, spec.ny
    return (((nx - 1, ny), (2.0, 3.0), "brinkman u-component"),
            ((nx, ny - 1), (3.0, 2.0), "brinkman v-component"))


def _solve_faces(b: np.ndarray, betas: tuple, spec: GridSpec) -> tuple:
    """Velocity per beta from a stacked face right-hand side b."""
    xs = _solve(b, betas, face_blocks(spec), face_brinkman_inverse, spec)
    return tuple(VectorField(spec, *unstack_faces(spec, x)) for x in xs)


def solve_brinkman_rhs(f: VectorField, betas: tuple) -> tuple:
    """Solve -beta*Lap(v) + v = f per beta; boundary faces of f are ignored."""
    return _solve_faces(stack_faces(f), betas, f.spec)


def divergence_transpose(p: np.ndarray, spec: GridSpec) -> np.ndarray:
    """D^T p = -grad p (``grid.gradient``, negated) on the interior faces,
    as a stacked face vector, for a cell array p."""
    nu = (spec.nx - 1) * spec.ny
    b = np.empty(nu + spec.nx * (spec.ny - 1))
    bu = b[:nu].reshape(spec.nx - 1, spec.ny)
    bv = b[nu:].reshape(spec.nx, spec.ny - 1)
    np.subtract(p[1:, :], p[:-1, :], out=bu)
    bu /= spec.hx
    np.subtract(p[:, 1:], p[:, :-1], out=bv)
    bv /= spec.hy
    return np.negative(b, out=b)


def solve_brinkman(p: ScalarField, betas: tuple) -> tuple:
    """Dirichlet Brinkman velocity per beta from a cell-centered pressure,
    with the right-hand side -grad p (``divergence_transpose``)."""
    return _solve_faces(divergence_transpose(p.values, p.spec), betas, p.spec)


def solve_screened_potential(p: ScalarField, betas: tuple) -> tuple:
    """Scalar -beta*Lap(K) + K = p per beta, with zero-flux walls."""
    spec = p.spec
    xs = _solve(p.values, betas,
                (((spec.nx, spec.ny), (1.0, 1.0), "screened potential"),),
                neumann_cell_inverse, spec)
    return tuple(ScalarField(spec, x) for x in xs)


def solve_brinkman_gradient_form(p: ScalarField, betas: tuple) -> tuple:
    """Gradient-form velocity v = -grad K per beta; laminar by construction."""
    return tuple(VectorField(p.spec, -g.u, -g.v)
                 for g in map(gradient, solve_screened_potential(p, betas)))
