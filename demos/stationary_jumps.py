"""Interface jump structure of the stationary transmission problem.

Solves the disk-in-annulus equilibrium at two resolutions and reports
how the interface-averaged jumps behave under refinement: the pressure
jump converges to a finite value while the velocity jump vanishes.

Usage: python demos/stationary_jumps.py [outdir]
"""

import sys
from pathlib import Path

from tissueflow.constitutive import ModelParams, coercivity_check
from tissueflow.fieldio import write_scalar_vtk, write_vector_vtk
from tissueflow.stationary import (concentric_partition, measure_jump,
                                   solve_stationary, verify_transmission,
                                   write_jump_csv)
from tissueflow.grid import GridSpec


def main(outdir="demo_out/stationary_jumps"):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    params = ModelParams(beta1=1.0, beta2=1.0, g1=1.0, g2=1.0,
                         p1_star=5.0, p2_star=10.0)
    coercivity = coercivity_check(params).warning_line()
    for n in (64, 128):
        part = concentric_partition(GridSpec(-1, 1, -1, 1, n, n))
        sol = solve_stationary(part, params)
        print(f"--- {n}x{n} ({coercivity})")
        tables = [measure_jump(sol, part, q)
                  for q in ("pressure", "v1", "v2")]
        for table in tables:
            avg = table.averages.get("gamma")
            print(f"    avg |jump {table.quantity:>8}| on interface: "
                  f"{avg:.5f}")
        report = verify_transmission(sol, part)
        print(f"    max continuity residual: {report.max_residual():.4f}")
        write_jump_csv(tables, out / f"jumps_{n}.csv")
        if n == 128:
            write_scalar_vtk(sol.p, out / "p.vtk", name="pressure")
            write_vector_vtk(sol.v1, out / "v1.vtk")
            write_vector_vtk(sol.v2, out / "v2.vtk")
    print(f"tables and fields written to {out}/")


if __name__ == "__main__":
    main(*sys.argv[1:2])
