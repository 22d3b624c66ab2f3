"""The four benchmark workloads and the inputs each seed generates.

Every workload starts from a compiled-in preset on the (-1,1)^2 box and
overrides grid, t_end, advection scheme or q source the way a user would
in an INI config.  The seed changes only the initial band layout.

One round of a workload is a sweep of `members` simulations over the
band density range [0.85, 0.9], one per stratum of equal width.  The step
controller's trial count depends on the density so erratically (about 40
to 80 trials for esvm-bands-64) that a single density per seed would make the
run time mostly a function of the seed; a stratified sweep of six members
keeps the round's total within a few per cent while each seed still draws
its own inputs.  The upwind VM run hardly depends on the density and the
limit model not at all (its partition is the support of the bands), so
two members suffice there.

Seed 0 takes the top of each stratum and the preset edges, so its member
0 is the preset data exactly; any other seed draws each member's density
inside its stratum and moves each interior band edge by less than a cell.
The jittered bands are written into the run's own rectangles, so the
program sees plain initial data and `config.ini` still describes the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from tissueflow.harness import PRESETS, Rect, RunConfig

EDGE_JITTER_CELLS = 0.9      # largest edge move, in cells
DENSITY_TOP = 0.9            # the presets' band density
DENSITY_SPAN = 0.05          # densities lie in [TOP - SPAN, TOP]


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n: int
    t_end: float
    members: int
    scheme: str = "upwind"
    q_value: float | None = None     # uniform q0 for the limit model

    @property
    def dynamic(self) -> bool:
        return PRESETS[self.preset].model in ("ESVM", "VM")


WORKLOADS = {w.name: w for w in (
    Workload("esvm-bands-64", "fig3-esvm", 64, 0.025, 6),
    Workload("vm-bands-128", "fig3-vm", 128, 0.1, 2),
    Workload("laminar-sharp-128", "fig3-gradient-form", 128, 0.02, 6,
             scheme="sharp"),
    Workload("lesvm-ghost-64", "fig3-lesvm", 64, 0.04, 2, q_value=1.0),
)}


def band_rects(seed: int, member: int, members: int, h: float):
    """Band rectangles of one member of the density sweep.

    Seed 0, member 0 gives the preset rectangles unchanged.

    The two shared tissue 1 | tissue 2 edges (x = -2/3, 2/3) move together
    for both tissues, so the bands neither overlap nor open a gap; each
    band's top edge (y = 0) moves on its own.  Walls stay where they are.
    """
    left, right = -2.0 / 3.0, 2.0 / 3.0
    tops = (0.0, 0.0, 0.0)
    offset = 0.0
    if seed != 0:
        rng = np.random.default_rng([seed, member])
        # plain floats: the config writer spells a numpy scalar as np.float64(...)
        d = [float(x) for x in EDGE_JITTER_CELLS * h * rng.uniform(-1.0, 1.0, size=5)]
        left, right = left + d[0], right + d[1]
        tops = tuple(d[2:])
        offset = float(rng.uniform())
    rho = DENSITY_TOP - DENSITY_SPAN * (member + offset) / members
    r1 = (Rect(rho, left, right, -1.0, tops[0]),)
    r2 = (Rect(rho, -1.0, left, -1.0, tops[1]),
          Rect(rho, right, 1.0, -1.0, tops[2]))
    return r1, r2


def make_config(w: Workload, seed: int, member: int) -> RunConfig:
    base = PRESETS[w.preset]
    grid = replace(base.grid, nx=w.n, ny=w.n)
    r1, r2 = band_rects(seed, member, w.members, grid.hx)
    cfg = replace(base, grid=grid, t_end=w.t_end, scheme=w.scheme,
                  rects1=r1, rects2=r2)
    if w.q_value is not None:
        cfg = replace(cfg, q_source="uniform", q_value=w.q_value)
    return cfg
