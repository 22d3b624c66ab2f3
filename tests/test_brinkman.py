import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tissueflow import brinkman
from tissueflow.brinkman import (SolverFailure, cell_pressure_operator,
                                 solve_brinkman, solve_brinkman_gradient_form,
                                 solve_brinkman_rhs, solve_screened_potential)
from tissueflow.grid import (GridSpec, ScalarField, VectorField, curl2d,
                             gradient, laplacian)
from tissueflow.operators import (cell_laplacian_neumann, divergence_matrix,
                                  face_stiffness_u, face_stiffness_v)


def assembled(K, beta):
    """The operator I + beta*K that the solves invert."""
    return (sp.identity(K.shape[0]) + beta * K).tocsr()


def manufactured_error(n, beta=0.5):
    spec = GridSpec(nx=n, ny=n)

    def vstar(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def rhs(x, y):
        return (2.0 * beta * np.pi**2 + 1.0) * vstar(x, y)

    f = VectorField.from_functions(spec, rhs, rhs)
    (v,) = solve_brinkman_rhs(f, (beta,))
    exact = VectorField.from_functions(spec, vstar, vstar)
    diff = VectorField(spec, v.u - exact.u, v.v - exact.v)
    return diff.l2_norm()


def test_constant_pressure_gives_zero_velocity():
    spec = GridSpec(nx=16, ny=16)
    p = ScalarField(spec, np.full((16, 16), 4.2))
    (v,) = solve_brinkman(p, (1.0,))
    assert v.max_face_speed() == 0.0


def test_manufactured_solution_second_order():
    e32 = manufactured_error(32)
    e64 = manufactured_error(64)
    assert 3.5 <= e32 / e64 <= 4.5


def test_boundary_faces_exactly_zero():
    spec = GridSpec(nx=16, ny=16)
    p = ScalarField.from_function(spec, lambda x, y: x * y + x**2)
    (v,) = solve_brinkman(p, (0.3,))
    assert np.all(v.u[0, :] == 0.0) and np.all(v.u[-1, :] == 0.0)
    assert np.all(v.v[:, 0] == 0.0) and np.all(v.v[:, -1] == 0.0)


def test_large_beta_damps_velocity():
    spec = GridSpec(nx=16, ny=16)
    p = ScalarField.from_function(spec, lambda x, y: np.sin(np.pi * x) * y)
    norms = [v.l2_norm() for v in solve_brinkman(p, (1.0, 10.0, 100.0))]
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 0.2 * norms[0]


def test_solution_linearity_in_pressure():
    spec = GridSpec(nx=12, ny=12)
    rng = np.random.default_rng(0)
    pa = ScalarField(spec, rng.standard_normal((12, 12)))
    pb = ScalarField(spec, rng.standard_normal((12, 12)))
    comb = ScalarField(spec, 2.0 * pa.values - 0.5 * pb.values)
    (va,) = solve_brinkman(pa, (0.7,))
    (vb,) = solve_brinkman(pb, (0.7,))
    (vc,) = solve_brinkman(comb, (0.7,))
    assert np.allclose(vc.u, 2.0 * va.u - 0.5 * vb.u, atol=1e-9)


def test_energy_identity():
    spec = GridSpec(nx=24, ny=24)
    beta = 0.4
    p = ScalarField.from_function(spec, lambda x, y: np.cos(np.pi * x) * y**2)
    (v,) = solve_brinkman(p, (beta,))
    Au = assembled(face_stiffness_u(spec), beta)
    Av = assembled(face_stiffness_v(spec), beta)
    g = gradient(p)
    # (I + beta*K)v = -grad p on the interior faces, so the assembled
    # residual is at solver roundoff
    res_u = Au @ v.u[1:-1, :].ravel() + g.u[1:-1, :].ravel()
    res_v = Av @ v.v[:, 1:-1].ravel() + g.v[:, 1:-1].ravel()
    scale = max(np.abs(g.u).max(), np.abs(g.v).max(), 1.0)
    assert max(np.abs(res_u).max(), np.abs(res_v).max()) < 1e-8 * scale


def test_operator_is_spd():
    spec = GridSpec(nx=10, ny=10)
    rng = np.random.default_rng(5)
    for K in (face_stiffness_u(spec), face_stiffness_v(spec)):
        A = assembled(K, 0.5)
        dense = A.toarray()
        assert np.allclose(dense, dense.T)
        for _ in range(5):
            x = rng.standard_normal(dense.shape[0])
            assert x @ (dense @ x) > 0.0


def test_transform_solves_match_sparse_solve_on_anisotropic_grid():
    # nx != ny and hx != hy: swapping the two axes' eigenvalues would fail
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, nx=12, ny=20)
    beta = 0.3
    rng = np.random.default_rng(7)
    f = VectorField(spec, rng.standard_normal((13, 20)),
                    rng.standard_normal((12, 21)))
    p = ScalarField(spec, rng.standard_normal((12, 20)))
    (v,) = solve_brinkman_rhs(f, (beta,))
    (k,) = solve_screened_potential(p, (beta,))
    for x, K, b in ((v.u[1:-1, :], face_stiffness_u(spec), f.u[1:-1, :]),
                    (v.v[:, 1:-1], face_stiffness_v(spec), f.v[:, 1:-1]),
                    (k.values, cell_laplacian_neumann(spec), p.values)):
        ref = spla.spsolve(assembled(K, beta).tocsc(), b.ravel())
        err = np.linalg.norm(x.ravel() - ref) / np.linalg.norm(ref)
        assert err < 1e-12


def test_cell_pressure_operator_matches_sparse_solve_on_anisotropic_grid():
    # hx = 0.1 != hy = 0.125 and unequal viscosities: swapping the axes'
    # spacings or the u/v bases would fail
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, nx=20, ny=24)
    betas = (1.0, 0.3)
    D = divergence_matrix(spec)
    K = sp.block_diag([face_stiffness_u(spec), face_stiffness_v(spec)])
    apply = cell_pressure_operator(betas, spec)
    rng = np.random.default_rng(11)
    xx, yy = spec.cell_center_mesh()
    # a field with a small mean and one with a large mean (the symbol's
    # zero mode)
    for p in (rng.standard_normal((20, 24)),
              3.0 + np.cos(2.0 * xx) * yy + 0.1 * rng.standard_normal((20, 24))):
        m = apply(p)
        assert m.shape == (2, 20, 24)
        for got, beta in zip(m, betas):
            ref = D @ spla.spsolve(assembled(K, beta).tocsc(), D.T @ p.ravel())
            assert np.linalg.norm(got.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)


def test_gradient_form_constant_pressure():
    spec = GridSpec(nx=16, ny=16)
    p = ScalarField(spec, np.full((16, 16), 2.0))
    (k,) = solve_screened_potential(p, (1.0,))
    assert np.allclose(k.values, 2.0, atol=1e-10)
    (v,) = solve_brinkman_gradient_form(p, (1.0,))
    assert v.max_face_speed() < 1e-10


def test_gradient_form_manufactured():
    def kstar(x, y):
        return np.cos(np.pi * x) * np.cos(np.pi * y)

    errs = []
    for n in (32, 64):
        spec = GridSpec(nx=n, ny=n)
        beta = 0.5
        p = ScalarField.from_function(
            spec, lambda x, y: (1.0 + 2.0 * beta * np.pi**2) * kstar(x, y))
        (v,) = solve_brinkman_gradient_form(p, (beta,))
        exact = gradient(ScalarField.from_function(spec, kstar))
        diff = VectorField(spec, v.u + exact.u, v.v + exact.v)
        errs.append(diff.l2_norm())
    assert errs[0] / errs[1] > 3.0


def test_gradient_form_curl_vanishes_under_refinement():
    def pfun(x, y):
        return np.sin(np.pi * x) * (y + 0.3) ** 2

    norms = []
    for n in (32, 64):
        spec = GridSpec(nx=n, ny=n)
        p = ScalarField.from_function(spec, pfun)
        (v,) = solve_brinkman_gradient_form(p, (0.5,))
        norms.append(curl2d(v).l2_norm())
    assert norms[1] < norms[0]
    # the Dirichlet solve on the same pressure has much larger curl
    spec = GridSpec(nx=64, ny=64)
    (vd,) = solve_brinkman(ScalarField.from_function(spec, pfun), (0.5,))
    assert curl2d(vd).l2_norm() > 10.0 * norms[1]


def test_nonconvergence_is_explicit(monkeypatch):
    # a tolerance below the transform solves' roundoff must raise, for the
    # vector solve and the screened potential alike
    spec = GridSpec(nx=32, ny=32)
    p = ScalarField.from_function(spec, lambda x, y: np.sin(3 * x) * y)
    monkeypatch.setattr(brinkman, "REL_TOL", 1e-18)
    with pytest.raises(SolverFailure, match="brinkman u-component") as vec:
        solve_brinkman(p, (1.0,))
    with pytest.raises(SolverFailure, match="screened potential") as pot:
        solve_screened_potential(p, (1.0,))
    # a transform solve has no iterations to report
    for err in (vec, pot):
        assert "iteration" not in str(err.value)
        assert err.value.iterations is None


def test_nan_solution_fails_the_residual_check(monkeypatch):
    # a NaN residual compares false against the tolerance; it must raise
    spec = GridSpec(nx=16, ny=16)
    p = ScalarField.from_function(spec, lambda x, y: np.sin(3 * x) * y)

    def nan_inverse(b, betas, spec, power=1):
        return np.full((len(betas),) + b.shape, np.nan)

    monkeypatch.setattr(brinkman, "face_brinkman_inverse", nan_inverse)
    monkeypatch.setattr(brinkman, "neumann_cell_inverse", nan_inverse)
    with pytest.raises(SolverFailure, match="brinkman u-component"):
        solve_brinkman(p, (1.0,))
    with pytest.raises(SolverFailure, match="screened potential"):
        solve_screened_potential(p, (1.0,))


def test_a_scipy_without_the_pocketfft_extension_names_its_version(tmp_path):
    # a scipy package whose fft/_pocketfft folder holds no extension
    (tmp_path / "scipy" / "fft" / "_pocketfft").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:3]; "
         "import tissueflow.brinkman", str(tmp_path), str(src)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert (f"ImportError: scipy {version('scipy')} has no pocketfft "
            "extension in") in proc.stderr
