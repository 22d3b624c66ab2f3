"""Reference measures of the stationary problem that no run computes.

``quadratic_form`` evaluates the coupled bilinear form from its assembled
matrix (criterion 07 and the coercivity tests).  ``interface_force_residuals``
measures the normal-stress balance across an interface with
moving-least-squares fits (criterion 09); the full-grid reference in
``test_stationary`` checks it.
"""

import numpy as np
from scipy.ndimage import distance_transform_edt, gaussian_filter

from tissueflow.constitutive import ModelParams
from tissueflow.grid import VectorField
from tissueflow.operators import stack_faces
from tissueflow.stationary import (_REGIONS, DomainPartition,
                                   StationarySolution, _stiffness,
                                   assemble_weak_form)


def quadratic_form(part: DomainPartition, params: ModelParams,
                   v1: VectorField, v2: VectorField):
    """Evaluate (energy, gradient-seminorm^2) of the coupled bilinear form.

    Both are scaled by the cell area so they approximate the continuum
    integrals; the coercivity bound predicts
    energy >= min(beta1 - 1/(4 g2), beta2 - 1/(4 g1)) * grad2.
    """
    spec = part.spec
    A, _ = assemble_weak_form(part, params)
    x1, x2 = stack_faces(v1), stack_faces(v2)
    x = np.concatenate([x1, x2])
    energy = float(x @ (A @ x)) * spec.cell_area
    K = _stiffness(spec)
    grad2 = float(x1 @ (K @ x1) + x2 @ (K @ x2)) * spec.cell_area
    return energy, grad2


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
