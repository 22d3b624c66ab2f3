"""Stiffening sweep toward the incompressible, fully repulsive limit.

Runs the repulsion model on the three-band data for a sequence of
(eps, m, alpha) with eps and alpha shrinking and m growing, and tabulates
the overlap, the congestion-law residual and the mixedness at the final
time.  All three shrink along the sweep.  A run that fails is annotated
in its row instead of aborting the sweep.

Usage: python demos/limit_sweep.py [outdir] [n]
"""

import sys
from dataclasses import replace
from pathlib import Path

from tissueflow.grid import GridSpec
from tissueflow.harness import PRESETS, sweep, write_sweep_csv


def main(outdir="demo_out/limit_sweep", n=32):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep(replace(PRESETS["fig3-esvm"],
                         grid=GridSpec(-1, 1, -1, 1, n, n), t_end=0.05,
                         sweep_eps=(0.1, 0.05, 0.02),
                         sweep_m=(30.0, 60.0, 120.0),
                         sweep_alpha=(1e-3, 5e-4, 2e-4)))
    print(f"{'eps':>6} {'m':>6} {'alpha':>8} {'overlap':>10} "
          f"{'cong.res':>10} {'mixedness':>10}")
    for r in rows:
        if "error" in r:
            print(f"{r['eps']:>6} {r['m']:>6} {r['alpha']:>8} "
                  f"FAILED: {r['error']}")
        else:
            print(f"{r['eps']:>6} {r['m']:>6} {r['alpha']:>8} "
                  f"{r['overlap']:>10.5f} {r['comp_residual']:>10.5f} "
                  f"{r['mixedness']:>10.5f}")
    write_sweep_csv(rows, out / "sweep.csv")
    print(f"table written to {out}/sweep.csv")


if __name__ == "__main__":
    main(*sys.argv[1:2], *map(int, sys.argv[2:3]))
