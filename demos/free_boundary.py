"""Sharp-interface evolution of the congestion-limit model.

Evolves the three-band partition with the free-boundary stepper: one
stationary transmission solve per step, indicator advection at the
resulting velocities, rethresholding.  The partition stays exactly
segregated, since the partition class refuses any overlap; the lateral
tissue (higher homeostatic pressure) gains area faster than the center
one and develops posterior wall vortices.

Usage: python demos/free_boundary.py [outdir] [n]
"""

import csv
import sys
from dataclasses import replace
from pathlib import Path

from tissueflow.diagnostics import curl_signature
from tissueflow.freeboundary import write_partition_csv
from tissueflow.grid import GridSpec
from tissueflow.harness import PRESETS, simulate


def main(outdir="demo_out/free_boundary", n=64):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = replace(PRESETS["fig3-lesvm"], model="L-VM",
                  grid=GridSpec(-1, 1, -1, 1, n, n), t_end=0.1)

    def row(s, _):
        return (s.t, *s.areas())

    # a run to t = 0 observes the initial state
    first, _ = simulate(replace(cfg, t_end=0.0), [row])
    rows, state = simulate(cfg, [row])
    rows = first + rows

    with open(out / "areas.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "area1", "area2"])
        writer.writerows(rows)
    write_partition_csv(state.part, out / "partition.csv")

    t0, a10, a20 = rows[0]
    t1, a11, a21 = rows[-1]
    sig = curl_signature(state.sol.v2, mask=state.part.chi2.values == 1.0)
    print(f"t {t0:.2f} -> {t1:.2f}: area1 {a10:.4f} -> {a11:.4f}, "
          f"area2 {a20:.4f} -> {a21:.4f}")
    print(f"posterior curl means: left {sig.posterior_left_mean:.3f}, "
          f"right {sig.posterior_right_mean:.3f}")
    print(f"series written to {out}/")


if __name__ == "__main__":
    main(*sys.argv[1:2], *map(int, sys.argv[2:3]))
