"""Sparse-matrix forms of the discrete operators, the tests' references.

Velocity components are discretized on their own face grids with the
boundary (Dirichlet) faces eliminated.  The matrices act on the stacked
interior-face vector [u.ravel(), v.ravel()], with

  u-component: interior vertical faces, shape (nx-1, ny), row-major;
  v-component: interior horizontal faces, shape (nx, ny-1), row-major.

Walls parallel to a component sit half a spacing away from the first
face row; the mirror-ghost elimination puts a 3 on those diagonals.

No run builds these matrices or uses the stacked layout: the solves
apply the operators as transforms and stencils on the face arrays.  The
matrices are the tests' independent references and the stationary weak
form's blocks, so ``scipy.sparse`` is imported inside each builder and a
run never loads it.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import GridSpec


def _tridiag(n: int, h: float, end_diag: float):
    import scipy.sparse as sp

    main = np.full(n, 2.0)
    main[0] = main[-1] = end_diag
    off = -np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


@functools.lru_cache(maxsize=32)
def face_stiffness_u(spec: GridSpec):
    """Negative Laplacian on the u-face grid with Dirichlet walls."""
    import scipy.sparse as sp

    tx = _tridiag(spec.nx - 1, spec.hx, 2.0)
    ty = _tridiag(spec.ny, spec.hy, 3.0)
    return (sp.kron(tx, sp.identity(spec.ny)) +
            sp.kron(sp.identity(spec.nx - 1), ty)).tocsr()


@functools.lru_cache(maxsize=32)
def face_stiffness_v(spec: GridSpec):
    """Negative Laplacian on the v-face grid with Dirichlet walls."""
    import scipy.sparse as sp

    tx = _tridiag(spec.nx, spec.hx, 3.0)
    ty = _tridiag(spec.ny - 1, spec.hy, 2.0)
    return (sp.kron(tx, sp.identity(spec.ny - 1)) +
            sp.kron(sp.identity(spec.nx), ty)).tocsr()


@functools.lru_cache(maxsize=32)
def cell_laplacian_neumann(spec: GridSpec):
    """Negative cell-centered Laplacian with zero-flux walls (PSD)."""
    import scipy.sparse as sp

    return (sp.kron(_tridiag(spec.nx, spec.hx, 1.0), sp.identity(spec.ny)) +
            sp.kron(sp.identity(spec.nx), _tridiag(spec.ny, spec.hy, 1.0))).tocsr()


@functools.lru_cache(maxsize=32)
def divergence_matrix(spec: GridSpec):
    """Cells x interior-faces divergence, matching grid.divergence.

    Acts on the stacked vector [u_interior.ravel(), v_interior.ravel()].
    """
    import scipy.sparse as sp

    def faces_to_cells(n):
        # face k sits between cells k and k+1: +1 for the cell on its left
        return sp.diags([np.ones(n - 1), -np.ones(n - 1)], [0, -1],
                        shape=(n, n - 1))

    du = sp.kron(faces_to_cells(spec.nx), sp.identity(spec.ny)) / spec.hx
    dv = sp.kron(sp.identity(spec.nx), faces_to_cells(spec.ny)) / spec.hy
    return sp.hstack([du, dv]).tocsr()


def weighted_cell_flux_divergence(spec: GridSpec, w: np.ndarray):
    """Matrix of s -> div(w * grad s) with zero-flux walls.

    ``w`` is a nonnegative cell field; face weights are arithmetic means
    of the adjacent cells.  Symmetric negative semidefinite; equals
    -D diag(w_faces) D^T with D the divergence matrix, since the face
    gradient is the negative transpose of D.
    """
    import scipy.sparse as sp

    wx = 0.5 * (w[1:, :] + w[:-1, :])   # interior vertical faces (nx-1, ny)
    wy = 0.5 * (w[:, 1:] + w[:, :-1])   # interior horizontal faces (nx, ny-1)
    weights = np.concatenate([wx.ravel(), wy.ravel()])
    D = divergence_matrix(spec)
    return (-(D @ sp.diags(weights) @ D.T)).tocsr()
