"""Screened vector Helmholtz (Brinkman) solves -beta*Lap(v) + v = -grad p.

The two velocity components decouple, so each is an independent SPD
system on its own face grid with homogeneous Dirichlet walls.  The
gradient-form variant instead solves the scalar screened-Poisson
problem -beta*Lap(K) + K = p with zero-flux walls and returns -grad K,
which is curl-free up to discretization error.

All three operators are I + beta*K with K a sum of constant-coefficient
three-point stencils on the uniform box, so the ``"direct"`` method is an
exact transform solve: sine and cosine transforms diagonalise K, with no
factorisation and nothing cached.  The ``"cg"`` method is the iterative
reference on the assembled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import GridSpec, ScalarField, VectorField, gradient
from .operators import (cell_laplacian_neumann, face_stiffness_u,
                        face_stiffness_v)

# Wall condition along one axis of n cells: (transform, inverse, type, k0).
# The transform diagonalises that axis's stencil [-1, 2, -1]/h^2 with
# eigenvalues (2 - 2cos(k*pi/n))/h^2 for k = k0, k0+1, ...
_FACES = (fft.dst, fft.idst, 1, 1)     # n-1 face unknowns, walls on the end faces
_CELLS = (fft.dst, fft.idst, 2, 1)     # n unknowns, Dirichlet wall half a spacing out
_NEUMANN = (fft.dct, fft.idct, 2, 0)   # n cells, zero-flux walls


class SolverFailure(RuntimeError):
    """Linear solve did not reach the requested tolerance."""

    def __init__(self, what: str, residual: float, tol: float, iterations: int):
        super().__init__(f"{what}: residual {residual:.3e} > tol {tol:.3e} "
                         f"after {iterations} iterations")
        self.residual = residual
        self.tol = tol
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    rel_tol: float = 1e-10
    max_iter: int | None = None   # defaults to 10*(nx+ny)
    method: str = "cg"            # "cg" | "direct"

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.method not in ("cg", "direct"):
            raise ValueError(f"unknown solver method {self.method!r}")

    def iterations_for(self, spec: GridSpec) -> int:
        return self.max_iter if self.max_iter is not None else 10 * (spec.nx + spec.ny)


def _transform_solve(b: np.ndarray, beta: float, spec: GridSpec,
                     walls: tuple) -> np.ndarray:
    """Solve (I + beta*K) x = b exactly, with b on its 2-D unknown grid."""
    (fx, ix, tx, kx), (fy, iy, ty, ky) = walls

    def eigenvalues(k0, m, n, h):
        # 4 sin^2(theta/2) == 2 - 2cos(theta), without the cancellation
        return (2.0 * np.sin(np.arange(k0, k0 + m) * np.pi / (2 * n)) / h) ** 2

    lx = eigenvalues(kx, b.shape[0], spec.nx, spec.hx)
    ly = eigenvalues(ky, b.shape[1], spec.ny, spec.hy)
    y = fy(fx(b, type=tx, axis=0), type=ty, axis=1)
    y /= 1.0 + beta * (lx[:, None] + ly[None, :])
    return ix(iy(y, type=ty, axis=1), type=tx, axis=0)


def _solve(b: np.ndarray, beta: float, K: sp.csr_matrix, walls: tuple,
           spec: GridSpec, cfg: SolverConfig, what: str) -> np.ndarray:
    """Solve (I + beta*K) x = b; K acts on b.ravel(), walls diagonalise K."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    scale = np.linalg.norm(b)
    if scale == 0.0:
        return np.zeros_like(b)
    if cfg.method == "direct":
        x = _transform_solve(b, beta, spec, walls)
        iters = 0
    else:
        A = (sp.identity(K.shape[0]) + beta * K).tocsr()
        M = sp.diags(1.0 / A.diagonal())
        x, info = spla.cg(A, b.ravel(), rtol=cfg.rel_tol * 0.1, atol=0.0,
                          maxiter=cfg.iterations_for(spec), M=M)
        x = x.reshape(b.shape)
        iters = cfg.iterations_for(spec) if info > 0 else info
    res = np.linalg.norm(x + beta * (K @ x.ravel()).reshape(b.shape) - b)
    if res > cfg.rel_tol * scale:
        raise SolverFailure(what, res / scale, cfg.rel_tol, iters)
    return x


def solve_brinkman_rhs(f: VectorField, beta: float,
                       cfg: SolverConfig | None = None) -> VectorField:
    """Solve -beta*Lap(v) + v = f; boundary faces of f are ignored."""
    cfg = cfg or SolverConfig()
    spec = f.spec
    u = np.zeros((spec.nx + 1, spec.ny))
    v = np.zeros((spec.nx, spec.ny + 1))
    u[1:-1, :] = _solve(f.u[1:-1, :], beta, face_stiffness_u(spec),
                        (_FACES, _CELLS), spec, cfg, "brinkman u-component")
    v[:, 1:-1] = _solve(f.v[:, 1:-1], beta, face_stiffness_v(spec),
                        (_CELLS, _FACES), spec, cfg, "brinkman v-component")
    return VectorField(spec, u, v)


def solve_brinkman(p: ScalarField, beta: float,
                   cfg: SolverConfig | None = None) -> VectorField:
    """Dirichlet Brinkman velocity from a cell-centered pressure."""
    g = gradient(p)
    return solve_brinkman_rhs(VectorField(p.spec, -g.u, -g.v), beta, cfg)


def solve_screened_potential(p: ScalarField, beta: float,
                             cfg: SolverConfig | None = None) -> ScalarField:
    """Scalar -beta*Lap(K) + K = p with zero-flux walls."""
    cfg = cfg or SolverConfig()
    spec = p.spec
    x = _solve(p.values, beta, cell_laplacian_neumann(spec),
               (_NEUMANN, _NEUMANN), spec, cfg, "screened potential")
    return ScalarField(spec, x)


def solve_brinkman_gradient_form(p: ScalarField, beta: float,
                                 cfg: SolverConfig | None = None) -> VectorField:
    """Gradient-form velocity v = -grad K; laminar (curl-free) by construction."""
    K = solve_screened_potential(p, beta, cfg)
    g = gradient(K)
    return VectorField(p.spec, -g.u, -g.v)
