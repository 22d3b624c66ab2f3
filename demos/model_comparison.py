"""Repulsion model versus congestion-only model on the same data.

Runs both evolution models from the three-band initial data and tracks
the interface overlap integral n1*n2 over time.  With the repulsion
pressure active the overlap stays smaller.  On segregated data at
alpha = 0 the repulsion pressure is 0 and the two models coincide
bitwise.

Usage: python demos/model_comparison.py [outdir] [n]
"""

import csv
import sys
from dataclasses import replace
from pathlib import Path

from tissueflow.diagnostics import observe
from tissueflow.grid import GridSpec
from tissueflow.harness import PRESETS, simulate


def main(outdir="demo_out/model_comparison", n=48):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    series = {}
    for preset in ("fig3-esvm", "fig3-vm"):
        cfg = replace(PRESETS[preset], grid=GridSpec(-1, 1, -1, 1, n, n),
                      t_end=0.1)
        records, _ = simulate(cfg, [observe], observe_every=5)
        series[preset] = records
        last = records[-1]
        print(f"{preset}: final overlap {last['overlap']:.5f}, "
              f"mass {last['mass1'] + last['mass2']:.4f}")

    with open(out / "overlap.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "overlap_esvm", "overlap_vm"])
        for ra, rb in zip(series["fig3-esvm"], series["fig3-vm"]):
            writer.writerow([ra["t"], ra["overlap"], rb["overlap"]])
    print(f"overlap series written to {out}/overlap.csv")


if __name__ == "__main__":
    main(*sys.argv[1:2], *map(int, sys.argv[2:3]))
