import numpy as np
import pytest

from tissueflow.grid import (GridError, GridSpec, ScalarField, VectorField,
                             curl2d, divergence, gradient, laplacian)
from tissueflow.operators import divergence_matrix


def random_fields(spec, seed=0):
    rng = np.random.default_rng(seed)
    s = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    u = rng.standard_normal((spec.nx + 1, spec.ny))
    v = rng.standard_normal((spec.nx, spec.ny + 1))
    u[0, :] = u[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return s, VectorField(spec, u, v)


def test_gridspec_validation():
    with pytest.raises(GridError):
        GridSpec(nx=3, ny=8)
    with pytest.raises(GridError):
        GridSpec(1.0, -1.0, -1.0, 1.0, 8, 8)
    spec = GridSpec(nx=10, ny=20)
    assert spec.hx == pytest.approx(0.2)
    assert spec.hy == pytest.approx(0.1)
    assert spec.cell_area == pytest.approx(0.02)


def test_field_shape_checks():
    spec = GridSpec(nx=8, ny=8)
    with pytest.raises(GridError):
        ScalarField(spec, np.zeros((8, 9)))
    with pytest.raises(GridError):
        VectorField(spec, np.zeros((8, 8)), np.zeros((8, 9)))
    with pytest.raises(GridError):
        ScalarField(spec, np.full((8, 8), np.nan))


def test_divergence_of_linear_field_is_exact():
    spec = GridSpec(nx=16, ny=12)
    v = VectorField.from_functions(spec, lambda x, y: 2.0 * x,
                                   lambda x, y: -3.0 * y)
    d = divergence(v)
    assert np.allclose(d.values, -1.0)


def test_divergence_matrix_matches_divergence():
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, nx=9, ny=14)
    _, v = random_fields(spec, seed=4)
    D = divergence_matrix(spec)
    nu, nv = (spec.nx - 1) * spec.ny, spec.nx * (spec.ny - 1)
    assert D.shape == (spec.nx * spec.ny, nu + nv)
    assert D.nnz == 2 * (nu + nv)
    d = D @ np.concatenate([v.u[1:-1, :].ravel(), v.v[:, 1:-1].ravel()])
    scale = max(np.abs(v.u).max() / spec.hx, np.abs(v.v).max() / spec.hy)
    assert np.abs(d - divergence(v).values.ravel()).max() <= 1e-14 * scale


def test_gradient_constant_and_linear():
    spec = GridSpec(nx=16, ny=16)
    c = ScalarField(spec, np.full((16, 16), 3.7))
    g = gradient(c)
    assert np.all(g.u == 0.0) and np.all(g.v == 0.0)
    s = ScalarField.from_function(spec, lambda x, y: x)
    g = gradient(s)
    assert np.allclose(g.u[1:-1, :], 1.0)
    assert np.all(g.u[0, :] == 0.0) and np.all(g.u[-1, :] == 0.0)


def test_divergence_gradient_adjointness():
    spec = GridSpec(nx=20, ny=14)
    s, v = random_fields(spec, seed=3)
    lhs = (gradient(s).u * v.u).sum() + (gradient(s).v * v.v).sum()
    rhs = -(divergence(v).values * s.values).sum()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_laplacian_constant_zero_flux():
    spec = GridSpec(nx=12, ny=12)
    c = ScalarField(spec, np.full((12, 12), 2.0))
    assert np.allclose(laplacian(c).values, 0.0)


def test_laplacian_quadratic_interior():
    spec = GridSpec(nx=64, ny=64)
    s = ScalarField.from_function(spec, lambda x, y: x**2 + y**2)
    lap = laplacian(s)
    interior = lap.values[4:-4, 4:-4]
    assert np.allclose(interior, 4.0, atol=1e-9)


def test_laplacian_zero_flux_conserves():
    # row sums of the operator vanish <=> the Laplacian integrates to zero
    spec = GridSpec(nx=10, ny=10)
    rng = np.random.default_rng(1)
    s = ScalarField(spec, rng.standard_normal((10, 10)))
    assert abs(laplacian(s).values.sum()) < 1e-10


def test_curl_of_rigid_rotation():
    spec = GridSpec(nx=24, ny=24)
    v = VectorField.from_functions(spec, lambda x, y: -y, lambda x, y: x)
    c = curl2d(v)
    assert np.allclose(c.values, 2.0)


def test_curl_of_constant_field_is_zero():
    spec = GridSpec(nx=12, ny=12)
    v = VectorField(spec, np.full((13, 12), 1.5), np.full((12, 13), -0.5))
    assert np.allclose(curl2d(v).values, 0.0)


def test_curl_of_gradient_vanishes():
    # the staggered derivatives commute, so curl(grad s) is zero to
    # roundoff away from the boundary ring, where the gradient's
    # zeroed boundary faces leave an imprint
    def smooth(x, y):
        return np.sin(np.pi * x) * np.cos(np.pi * y)

    spec = GridSpec(nx=48, ny=48)
    g = gradient(ScalarField.from_function(spec, smooth))
    c = curl2d(g).values
    assert np.abs(c[3:-3, 3:-3]).max() < 1e-12


def test_divergence_gradient_is_laplacian_interior():
    spec = GridSpec(nx=16, ny=16)
    rng = np.random.default_rng(7)
    s = ScalarField(spec, rng.standard_normal((16, 16)))
    lhs = divergence(gradient(s)).values[1:-1, 1:-1]
    rhs = laplacian(s).values[1:-1, 1:-1]
    # interior cells never see the boundary closure, so the stencils agree
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_operators_are_linear():
    spec = GridSpec(nx=10, ny=10)
    s1, v1 = random_fields(spec, seed=11)
    s2, v2 = random_fields(spec, seed=12)
    a, b = 2.5, -1.25
    comb = ScalarField(spec, a * s1.values + b * s2.values)
    g = gradient(comb)
    assert np.allclose(g.u, a * gradient(s1).u + b * gradient(s2).u)
    vv = VectorField(spec, a * v1.u + b * v2.u, a * v1.v + b * v2.v)
    assert np.allclose(divergence(vv).values,
                       a * divergence(v1).values + b * divergence(v2).values)
    assert np.allclose(curl2d(vv).values,
                       a * curl2d(v1).values + b * curl2d(v2).values)
