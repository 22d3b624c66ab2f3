"""Screened vector Helmholtz (Brinkman) solves -beta*Lap(v) + v = -grad p.

The two velocity components decouple, so each is an independent SPD
system on its own face grid with homogeneous Dirichlet walls.  The
gradient-form variant instead solves the scalar screened-Poisson
problem -beta*Lap(K) + K = p with zero-flux walls and returns -grad K,
which is curl-free up to discretization error.

All three operators are I + beta*K with K a sum of constant-coefficient
three-point stencils on the uniform box, so every solve is an exact
transform solve: sine and cosine transforms diagonalise K, with no
factorisation and nothing cached.  They diagonalise I + beta*K for every
beta at once: a solve takes a tuple ``betas``, transforms b forward once
and inverts the stack of solutions in one call.  The assembled K serves
only to check each solution's relative residual against ``REL_TOL``.
``cell_pressure_operator`` applies D (I + beta*K)^-1 D^T, the Dirichlet
solve between a cell divergence and its transpose, in the same way
without leaving the cells; the stationary pressure equation uses it.

Every residual norm, the stationary solve's too, is ``norm``, summed
without BLAS, so a solve's bytes do not depend on the BLAS thread count.
``scipy.sparse.linalg`` is imported only when something looks up
``brinkman.spla``; only the benchmark's tracer does, to count ``splu``
factorisations, so an untraced run never imports it.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as fft

from .grid import GridSpec, ScalarField, VectorField, gradient
from .operators import (cell_laplacian_neumann, face_stiffness_u,
                        face_stiffness_v, stack_faces, unstack_faces)

# Wall condition along one axis of n cells: (transform, inverse, type, k0).
# The transform diagonalises that axis's stencil [-1, 2, -1]/h^2 with
# eigenvalues (2 - 2cos(k*pi/n))/h^2 for k = k0, k0+1, ...
_FACES = (fft.dst, fft.idst, 1, 1)     # n-1 face unknowns, walls on the end faces
_CELLS = (fft.dst, fft.idst, 2, 1)     # n unknowns, Dirichlet wall half a spacing out
_NEUMANN = (fft.dct, fft.idct, 2, 0)   # n cells, zero-flux walls

# Relative residual every solve must reach, the stationary one included;
# read at call time.
REL_TOL = 1e-10


def norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, summed without BLAS.

    ``np.linalg.norm`` calls BLAS ``ddot``, whose sum over a long vector
    is split across threads, so its last bits depend on the thread count.
    """
    return float(np.sqrt(np.einsum("i,i->", x, x)))


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
        self.residual = residual
        self.tol = tol
        self.iterations = iterations


def _eigenvalues(k0: int, m: int, n: int, h: float) -> np.ndarray:
    """Eigenvalues k = k0, ..., k0+m-1 of one axis of n cells (see _FACES)."""
    # 4 sin^2(theta/2) == 2 - 2cos(theta), without the cancellation
    return (2.0 * np.sin(np.arange(k0, k0 + m) * np.pi / (2 * n)) / h) ** 2


def _transform_solve(b: np.ndarray, betas: tuple, spec: GridSpec,
                     walls: tuple, power: int = 1) -> np.ndarray:
    """Solve (I + beta*K^power) x = b exactly for each of ``betas``, with b
    on its 2-D unknown grid; returns the stack of solutions."""
    (fx, ix, tx, kx), (fy, iy, ty, ky) = walls
    lx = _eigenvalues(kx, b.shape[0], spec.nx, spec.hx)
    ly = _eigenvalues(ky, b.shape[1], spec.ny, spec.hy)
    y = fy(fx(b, type=tx, axis=0), type=ty, axis=1)
    k = (lx[:, None] + ly[None, :]) ** power
    stack = np.empty((len(betas),) + b.shape)    # inverted in place
    for out, beta in zip(stack, betas):
        np.divide(y, 1.0 + beta * k, out=out)
    return ix(iy(stack, type=ty, axis=2, overwrite_x=True), type=tx, axis=1,
              overwrite_x=True)


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
        for ((fx, ix, tx, _), (fy, iy, ty, _)), symbol in parts:
            y = fy(fx(p, type=tx, axis=0), type=ty, axis=1) * symbol
            m = m + ix(iy(y, type=ty, axis=2), type=tx, axis=1)
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


def _solve(b: np.ndarray, betas: tuple, blocks: tuple, inverse,
           spec: GridSpec) -> np.ndarray:
    """Stack of the solutions x of (I + beta*K) x = b, K = blockdiag of
    ``blocks``' matrices, for each of ``betas``.

    ``inverse(b, betas, spec)`` is the exact, stacked transform solve.
    Every block ``(K_k, what)`` of each x is checked on its own rows of
    the flattened x: a relative residual above ``REL_TOL``, or a NaN one,
    raises SolverFailure.
    """
    if any(beta <= 0 for beta in betas):
        raise ValueError("beta must be positive")
    xs = inverse(b, betas, spec)
    bf, stop = b.ravel(), 0
    for K, what in blocks:
        rows = slice(stop, stop + K.shape[0])
        stop = rows.stop
        scale = norm(bf[rows])
        for beta, x in zip(betas, xs):
            xf = x.ravel()[rows]
            res = norm(xf + beta * (K @ xf) - bf[rows])
            if not res <= REL_TOL * scale:      # a NaN residual fails too
                raise SolverFailure(what, res / scale, REL_TOL)
    return xs


def solve_brinkman_rhs(f: VectorField, betas: tuple) -> tuple:
    """Solve -beta*Lap(v) + v = f per beta; boundary faces of f are ignored."""
    spec = f.spec
    blocks = ((face_stiffness_u(spec), "brinkman u-component"),
              (face_stiffness_v(spec), "brinkman v-component"))
    xs = _solve(stack_faces(f), betas, blocks, face_brinkman_inverse, spec)
    return tuple(unstack_faces(spec, x) for x in xs)


def solve_brinkman(p: ScalarField, betas: tuple) -> tuple:
    """Dirichlet Brinkman velocity per beta from a cell-centered pressure."""
    g = gradient(p)
    return solve_brinkman_rhs(VectorField(p.spec, -g.u, -g.v), betas)


def solve_screened_potential(p: ScalarField, betas: tuple) -> tuple:
    """Scalar -beta*Lap(K) + K = p per beta, with zero-flux walls."""
    spec = p.spec
    xs = _solve(p.values, betas,
                ((cell_laplacian_neumann(spec), "screened potential"),),
                neumann_cell_inverse, spec)
    return tuple(ScalarField(spec, x) for x in xs)


def solve_brinkman_gradient_form(p: ScalarField, betas: tuple) -> tuple:
    """Gradient-form velocity v = -grad K per beta; laminar by construction."""
    return tuple(VectorField(p.spec, -g.u, -g.v)
                 for g in map(gradient, solve_screened_potential(p, betas)))
