"""Wall vortices versus laminar flow from the same pressure field.

Runs the repulsion model on the three-band initial data, then computes
the lateral-tissue velocity twice from the final pressure: once with the
Dirichlet vector solve (which develops counter-rotating vortices at the
walls) and once with the gradient-form scalar solve (curl-free by
construction).  Writes both velocity fields and their curls as VTK.

Usage: python demos/curl_dichotomy.py [outdir] [n]
"""

import sys
from dataclasses import replace
from pathlib import Path

from tissueflow.brinkman import solve_brinkman, solve_brinkman_gradient_form
from tissueflow.fieldio import write_scalar_vtk, write_vector_vtk
from tissueflow.grid import GridSpec, curl2d
from tissueflow.harness import PRESETS, simulate


def main(outdir="demo_out/curl_dichotomy", n=48):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = replace(PRESETS["fig3-esvm"], grid=GridSpec(-1, 1, -1, 1, n, n),
                  t_end=0.05)
    _, state = simulate(cfg)

    (v_wall,) = solve_brinkman(state.p2, (cfg.params.beta2,))
    (v_laminar,) = solve_brinkman_gradient_form(state.p2, (cfg.params.beta2,))
    for name, v in (("wall", v_wall), ("laminar", v_laminar)):
        write_vector_vtk(v, out / f"v2_{name}.vtk")
        write_scalar_vtk(curl2d(v), out / f"curl_{name}.vtk", name="curl")
    ratio = curl2d(v_wall).l2_norm() / curl2d(v_laminar).l2_norm()
    print(f"curl L2, Dirichlet solve : {curl2d(v_wall).l2_norm():.4f}")
    print(f"curl L2, gradient form   : {curl2d(v_laminar).l2_norm():.4e}")
    print(f"ratio                    : {ratio:.1f}")
    print(f"fields written to {out}/")


if __name__ == "__main__":
    main(*sys.argv[1:2], *map(int, sys.argv[2:3]))
