"""Structured rectangular grid with staggered (MAC) field placement.

Scalars live at cell centers, velocity components at cell faces:
``u`` on vertical faces, shape (nx+1, ny); ``v`` on horizontal faces,
shape (nx, ny+1).  Index ``i`` runs along x, ``j`` along y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Raised when a field does not conform to its grid contract."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box partitioned into nx*ny uniform cells."""

    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0
    nx: int = 64
    ny: int = 64

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise GridError(f"need nx, ny >= 4, got {self.nx}x{self.ny}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise GridError("domain box has non-positive extent")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.hx

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.hy

    def x_faces(self) -> np.ndarray:
        return self.x_min + np.arange(self.nx + 1) * self.hx

    def y_faces(self) -> np.ndarray:
        return self.y_min + np.arange(self.ny + 1) * self.hy

    def cell_center_mesh(self):
        return np.meshgrid(self.x_centers(), self.y_centers(), indexing="ij")


@dataclass(frozen=True)
class ScalarField:
    """Cell-centered real grid function."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.spec.nx, self.spec.ny):
            raise GridError(
                f"scalar shape {vals.shape} != ({self.spec.nx}, {self.spec.ny})"
            )
        if not np.all(np.isfinite(vals)):
            raise GridError("scalar field contains non-finite entries")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, spec: GridSpec) -> "ScalarField":
        return cls(spec, np.zeros((spec.nx, spec.ny)))

    @classmethod
    def from_function(cls, spec: GridSpec, f) -> "ScalarField":
        xx, yy = spec.cell_center_mesh()
        return cls(spec, f(xx, yy))

    def integral(self) -> float:
        return float(self.values.sum() * self.spec.cell_area)

    def l2_norm(self) -> float:
        return float(np.sqrt((self.values**2).sum() * self.spec.cell_area))

    def max_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class VectorField:
    """Face-staggered two-component grid function."""

    spec: GridSpec
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != (self.spec.nx + 1, self.spec.ny):
            raise GridError(f"u shape {u.shape} != ({self.spec.nx + 1}, {self.spec.ny})")
        if v.shape != (self.spec.nx, self.spec.ny + 1):
            raise GridError(f"v shape {v.shape} != ({self.spec.nx}, {self.spec.ny + 1})")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise GridError("vector field contains non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def zeros(cls, spec: GridSpec) -> "VectorField":
        return cls(spec, np.zeros((spec.nx + 1, spec.ny)),
                   np.zeros((spec.nx, spec.ny + 1)))

    @classmethod
    def from_functions(cls, spec: GridSpec, fu, fv) -> "VectorField":
        xf, yc = np.meshgrid(spec.x_faces(), spec.y_centers(), indexing="ij")
        xc, yf = np.meshgrid(spec.x_centers(), spec.y_faces(), indexing="ij")
        return cls(spec, fu(xf, yc), fv(xc, yf))

    def max_face_speed(self) -> float:
        return float(max(np.abs(self.u).max(), np.abs(self.v).max()))

    def l2_norm(self) -> float:
        # face values weighted by one cell area each; boundary faces half-weighted
        wu = np.ones_like(self.u)
        wu[0, :] = wu[-1, :] = 0.5
        wv = np.ones_like(self.v)
        wv[:, 0] = wv[:, -1] = 0.5
        s = (wu * self.u**2).sum() + (wv * self.v**2).sum()
        return float(np.sqrt(s * self.spec.cell_area))

    def cell_centered(self):
        """Average both components to cell centers; returns (uc, vc) arrays."""
        uc = 0.5 * (self.u[:-1, :] + self.u[1:, :])
        vc = 0.5 * (self.v[:, :-1] + self.v[:, 1:])
        return uc, vc


def flux_divergence(fu: np.ndarray, fv: np.ndarray, spec: GridSpec,
                    out=None, tmp=None) -> np.ndarray:
    """div(f) of full face arrays; ``out`` and ``tmp`` take the x and y parts."""
    out = np.subtract(fu[1:, :], fu[:-1, :], out=out)
    out /= spec.hx
    tmp = np.subtract(fv[:, 1:], fv[:, :-1], out=tmp)
    tmp /= spec.hy
    out += tmp
    return out


def divergence(vec: VectorField) -> ScalarField:
    """Cell-centered divergence from face fluxes; exact for linear fields."""
    return ScalarField(vec.spec, flux_divergence(vec.u, vec.v, vec.spec))


def gradient(s: ScalarField) -> VectorField:
    """Face-centered gradient; boundary faces are set to zero.

    Negative adjoint of :func:`divergence` for fields vanishing on
    boundary faces, exactly in floating point.
    """
    spec = s.spec
    u = np.zeros((spec.nx + 1, spec.ny))
    v = np.zeros((spec.nx, spec.ny + 1))
    u[1:-1, :] = (s.values[1:, :] - s.values[:-1, :]) / spec.hx
    v[:, 1:-1] = (s.values[:, 1:] - s.values[:, :-1]) / spec.hy
    return VectorField(spec, u, v)


def mirror_pad(values: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """``pad`` holding ``values`` inside one ring of ghost cells that mirror
    the edge cells; the corners stay unset, as no 5-point stencil reads
    them."""
    pad[1:-1, 1:-1] = values
    pad[0, 1:-1], pad[-1, 1:-1], pad[1:-1, 0], pad[1:-1, -1] = (
        values[0], values[-1], values[:, 0], values[:, -1])
    return pad


def laplacian(s: ScalarField) -> ScalarField:
    """5-point Laplacian with zero-flux walls, realised by mirror ghost cells."""
    spec = s.spec
    g = mirror_pad(s.values, np.empty((spec.nx + 2, spec.ny + 2)))
    lap = (g[2:, 1:-1] - 2.0 * g[1:-1, 1:-1] + g[:-2, 1:-1]) / spec.hx**2 \
        + (g[1:-1, 2:] - 2.0 * g[1:-1, 1:-1] + g[1:-1, :-2]) / spec.hy**2
    return ScalarField(spec, lap)


def _d_centered(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centred first derivative of ``a`` along ``axis``, spacing h."""
    out = np.empty_like(a)
    a, o = a.swapaxes(0, axis), out.swapaxes(0, axis)
    o[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    # second-order one-sided at the two edges
    o[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
    o[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
    return out


def curl2d(vec: VectorField) -> ScalarField:
    """Scalar curl dv/dx - du/dy interpolated to cell centers."""
    uc, vc = vec.cell_centered()
    spec = vec.spec
    return ScalarField(spec, _d_centered(vc, spec.hx, 0)
                       - _d_centered(uc, spec.hy, 1))
