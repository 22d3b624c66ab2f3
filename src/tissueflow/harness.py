"""Run configuration, figure presets, orchestration, and the CLI.

Configs use a flat INI grammar ([section] headers, key = value lines) so
they stay diff-friendly.  The four compiled-in presets reproduce the
standard two-tissue simulation panels: the full model with repulsion and
the interface penalty, the congestion-only model, the sharp-interface
limit, and the curl-free gradient-form variant.  Each run writes field
CSVs, a diagnostics CSV, and a manifest recording the config hash, grid,
status and wall time; a failed run still writes its manifest.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics, fieldio
from .brinkman import SolverFailure
from .constitutive import ModelParams, coercivity_check
from .dynamics import (InitialDataError, StepControl, StepFailure,
                       init_state, run)
from .grid import GridError, GridSpec, ScalarField
from .stationary import PartitionError

MODELS = ("ESVM", "VM", "L-ESVM", "L-VM", "STATIONARY", "STATIONARY-1SPECIES")
LIMIT_MODELS = ("L-ESVM", "L-VM")
STATIONARY_MODELS = ("STATIONARY", "STATIONARY-1SPECIES")

# the ModelParams keys in serialisation order, on which config hashes depend
_PARAM_ORDER = ("beta1", "beta2", "eps", "m", "alpha",
                "g1", "g2", "p1_star", "p2_star")

_KNOWN_KEYS = {
    "run": {"model", "preset", "out", "observe_every"},
    "grid": {"nx", "ny", "x_min", "x_max", "y_min", "y_max"},
    "params": set(_PARAM_ORDER),
    "control": {"dt", "cfl", "t_end", "velocity_law", "scheme"},
    "initial": {"n1", "n2"},
    "q": {"source", "value", "path"},
    "sweep": {"eps", "m", "alpha"},
}


class ConfigError(ValueError):
    """Carries every violation found in a config, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle painted with a constant density value."""

    value: float
    x0: float
    x1: float
    y0: float
    y1: float

    def paint(self, spec: GridSpec, into: np.ndarray) -> None:
        xx, yy = spec.cell_center_mesh()
        sel = ((xx > self.x0) & (xx < self.x1) &
               (yy > self.y0) & (yy < self.y1))
        into[sel] = self.value


@dataclass(frozen=True)
class RunConfig:
    model: str
    grid: GridSpec
    params: ModelParams
    dt: float = 1e-3
    cfl: float = 0.4
    t_end: float = 0.1
    velocity_law: str = "dirichlet"
    scheme: str = "upwind"
    observe_every: int = 1
    rects1: tuple = ()
    rects2: tuple = ()
    q_source: str = "zero"
    q_value: float = 0.0
    q_path: str | None = None
    out: str | None = None
    sweep_eps: tuple = ()
    sweep_m: tuple = ()
    sweep_alpha: tuple = ()
    preset: str | None = None


def _band_rects():
    """Initial panel layout: center band tissue 1, side bands tissue 2."""
    r1 = (Rect(0.9, -2.0 / 3.0, 2.0 / 3.0, -1.0, 0.0),)
    r2 = (Rect(0.9, -1.0, -2.0 / 3.0, -1.0, 0.0),
          Rect(0.9, 2.0 / 3.0, 1.0, -1.0, 0.0))
    return r1, r2


def _make_presets():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 128, 128)
    params = ModelParams(beta1=0.5, beta2=0.1, eps=0.1, m=30.0, alpha=0.001,
                         g1=1.0, g2=1.0, p1_star=5.0, p2_star=10.0)
    r1, r2 = _band_rects()
    base = dict(grid=grid, t_end=0.1, rects1=r1, rects2=r2, dt=1e-3)
    presets = {
        "fig3-esvm": RunConfig(model="ESVM", params=params, **base),
        "fig3-vm": RunConfig(model="VM", params=replace(params, alpha=0.0),
                             **base),
        "fig3-lesvm": RunConfig(model="L-ESVM", params=params, dt=2e-3,
                                **{k: v for k, v in base.items() if k != "dt"}),
        "fig3-gradient-form": RunConfig(model="VM",
                                        params=replace(params, alpha=0.0),
                                        velocity_law="gradient", **base),
    }
    return {name: replace(cfg, preset=name) for name, cfg in presets.items()}


PRESETS = _make_presets()


def _num(v) -> str:
    """Shortest round-tripping text of a number, numpy scalars included."""
    return repr(float(v))


def _format_rects(rects) -> str:
    return "; ".join(" ".join(_num(v) for v in
                              (r.value, r.x0, r.x1, r.y0, r.y1))
                     for r in rects)


def _parse_rects(text: str):
    rects = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [float(tok) for tok in chunk.split()]
        if len(parts) != 5:
            raise ValueError(f"rectangle needs 5 numbers, got {chunk!r}")
        rects.append(Rect(*parts))
    return tuple(rects)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text; parse(serialize(cfg)) reproduces cfg exactly."""
    g, p = cfg.grid, cfg.params
    lines = ["[run]", f"model = {cfg.model}"]
    if cfg.preset:
        lines.append(f"preset = {cfg.preset}")
    if cfg.out:
        lines.append(f"out = {cfg.out}")
    lines += [f"observe_every = {cfg.observe_every}", "",
              "[grid]",
              f"nx = {g.nx}", f"ny = {g.ny}",
              f"x_min = {_num(g.x_min)}", f"x_max = {_num(g.x_max)}",
              f"y_min = {_num(g.y_min)}", f"y_max = {_num(g.y_max)}", "",
              "[params]"]
    lines += [f"{k} = {_num(getattr(p, k))}" for k in _PARAM_ORDER
              if not (cfg.model in LIMIT_MODELS and k in ("eps", "m", "alpha"))]
    lines += ["", "[control]",
              f"dt = {_num(cfg.dt)}", f"cfl = {_num(cfg.cfl)}",
              f"t_end = {_num(cfg.t_end)}",
              f"velocity_law = {cfg.velocity_law}",
              f"scheme = {cfg.scheme}", "",
              "[initial]",
              f"n1 = {_format_rects(cfg.rects1)}",
              f"n2 = {_format_rects(cfg.rects2)}", "",
              "[q]", f"source = {cfg.q_source}"]
    if cfg.q_source == "uniform":
        lines.append(f"value = {_num(cfg.q_value)}")
    if cfg.q_source == "file":
        lines.append(f"path = {cfg.q_path}")
    if cfg.sweep_eps:
        lines += ["", "[sweep]",
                  "eps = " + ", ".join(map(_num, cfg.sweep_eps)),
                  "m = " + ", ".join(map(_num, cfg.sweep_m)),
                  "alpha = " + ", ".join(map(_num, cfg.sweep_alpha))]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Validated config, or ConfigError listing every violation."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    violations = []
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    raw = {}
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            violations.append(f"unknown section [{section}]")
            continue
        raw[section] = {}
        for key, val in cp.items(section):
            if key not in _KNOWN_KEYS[section]:
                violations.append(f"unknown key {key!r} in [{section}]")
            else:
                raw[section][key] = val

    def get(section, key, default=None):
        return raw.get(section, {}).get(key, default)

    preset_name = get("run", "preset")
    base = None
    if preset_name is not None:
        base = PRESETS.get(preset_name)
        if base is None:
            violations.append(f"unknown preset {preset_name!r}")

    model = get("run", "model", base.model if base else None)
    if model is None:
        violations.append("missing required key 'model' in [run]")
    elif model not in MODELS:
        violations.append(f"unknown model {model!r}")

    if model in LIMIT_MODELS:
        for key in ("eps", "m", "alpha"):
            if get("params", key) is not None:
                violations.append(
                    f"key {key!r} in [params] is incompatible with model {model}")

    def number(section, key, default, conv=float):
        val = get(section, key)
        if val is None:
            return default
        try:
            return conv(val)
        except ValueError:
            violations.append(f"bad value for {key!r} in [{section}]: {val!r}")
            return default

    bg = base.grid if base else GridSpec()
    try:
        grid = GridSpec(number("grid", "x_min", bg.x_min),
                        number("grid", "x_max", bg.x_max),
                        number("grid", "y_min", bg.y_min),
                        number("grid", "y_max", bg.y_max),
                        number("grid", "nx", bg.nx, int),
                        number("grid", "ny", bg.ny, int))
    except ValueError as exc:
        violations.append(f"grid: {exc}")
        grid = GridSpec()

    bp = base.params if base else ModelParams()
    try:
        params = ModelParams(**{k: number("params", k, getattr(bp, k))
                                for k in _PARAM_ORDER})
    except ValueError as exc:
        violations.append(f"params: {exc}")
        params = ModelParams()

    def rects(key, default):
        val = get("initial", key)
        if val is None:
            return default
        try:
            return _parse_rects(val)
        except ValueError as exc:
            violations.append(f"initial {key}: {exc}")
            return default

    rects1 = rects("n1", base.rects1 if base else ())
    rects2 = rects("n2", base.rects2 if base else ())
    if not rects1:
        violations.append("missing initial data: key 'n1' in [initial]")
    if not rects2 and model != "STATIONARY-1SPECIES":
        violations.append("missing initial data: key 'n2' in [initial]")

    q_source = get("q", "source", base.q_source if base else "zero")
    if q_source not in ("zero", "uniform", "file"):
        violations.append(f"q source must be zero|uniform|file, got {q_source!r}")
    q_value = number("q", "value", base.q_value if base else 0.0)
    if not q_value >= 0.0:
        violations.append(f"[q] value must be nonnegative, got {q_value!r}")
    q_path = get("q", "path", base.q_path if base else None)
    if q_source == "file" and q_path is None:
        violations.append("q source 'file' requires key 'path' in [q]")

    velocity_law = get("control", "velocity_law",
                       base.velocity_law if base else "dirichlet")
    if velocity_law not in ("dirichlet", "gradient"):
        violations.append(
            f"velocity_law must be dirichlet|gradient, got {velocity_law!r}")
    scheme = get("control", "scheme", base.scheme if base else "upwind")
    if scheme not in ("upwind", "sharp"):
        violations.append(f"scheme must be upwind|sharp, got {scheme!r}")

    def float_list(key):
        val = get("sweep", key)
        if val is None:
            return ()
        try:
            return tuple(float(tok) for tok in val.replace(",", " ").split())
        except ValueError:
            violations.append(f"bad sweep list for {key!r}: {val!r}")
            return ()

    sweep_eps = float_list("eps")
    sweep_m = float_list("m")
    sweep_alpha = float_list("alpha")
    if len({len(sweep_eps), len(sweep_m), len(sweep_alpha)}) > 1:
        violations.append("sweep lists eps, m, alpha must have equal length")
    for k, (eps, m, alpha) in enumerate(zip(sweep_eps, sweep_m, sweep_alpha)):
        try:
            replace(params, eps=eps, m=m, alpha=alpha)
        except ValueError as exc:
            violations.append(f"[sweep] tuple {k + 1} (eps = {eps!r}, "
                              f"m = {m!r}, alpha = {alpha!r}): {exc}")

    dt = number("control", "dt", base.dt if base else 1e-3)
    cfl = number("control", "cfl", base.cfl if base else 0.4)
    t_end = number("control", "t_end", base.t_end if base else 0.1)
    observe_every = number("run", "observe_every",
                           base.observe_every if base else 1, int)
    for ok, rule, val in ((dt > 0.0, "dt must be positive", dt),
                          (0.0 < cfl <= 1.0, "cfl must lie in (0, 1]", cfl),
                          (t_end >= 0.0, "t_end must be nonnegative", t_end),
                          (observe_every >= 1, "observe_every must be at least 1",
                           observe_every)):
        if not ok:
            violations.append(f"{rule}, got {val!r}")

    if violations:
        raise ConfigError(violations)
    return RunConfig(
        model=model, grid=grid, params=params,
        dt=dt, cfl=cfl, t_end=t_end,
        velocity_law=velocity_law,
        scheme=scheme,
        observe_every=observe_every,
        rects1=rects1, rects2=rects2,
        q_source=q_source, q_value=q_value, q_path=q_path,
        out=get("run", "out", base.out if base else None),
        sweep_eps=sweep_eps, sweep_m=sweep_m, sweep_alpha=sweep_alpha,
        preset=preset_name)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def initial_densities(cfg: RunConfig):
    """Paint the rectangle descriptors onto the grid."""
    n1 = np.zeros((cfg.grid.nx, cfg.grid.ny))
    n2 = np.zeros_like(n1)
    for rect in cfg.rects1:
        rect.paint(cfg.grid, n1)
    for rect in cfg.rects2:
        rect.paint(cfg.grid, n2)
    return ScalarField(cfg.grid, n1), ScalarField(cfg.grid, n2)


def initial_partition(cfg: RunConfig):
    """Sharp 0/1 partition from the rectangle descriptors."""
    from .stationary import DomainPartition

    n1, n2 = initial_densities(cfg)
    chi1 = (n1.values > 0.0).astype(float)
    chi2 = (n2.values > 0.0).astype(float) * (1.0 - chi1)
    return DomainPartition(ScalarField(cfg.grid, chi1),
                           ScalarField(cfg.grid, chi2))


def q_field(cfg: RunConfig) -> ScalarField:
    if cfg.q_source == "uniform":
        return ScalarField(cfg.grid, np.full((cfg.grid.nx, cfg.grid.ny),
                                             cfg.q_value))
    if cfg.q_source == "file":
        try:
            q = fieldio.read_scalar_csv(cfg.q_path)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"[q] path {cfg.q_path}: {exc}"]) from exc
        if not (q.values >= 0.0).all():
            raise ConfigError([f"[q] path {cfg.q_path}: limit repulsion "
                               "pressure must be nonnegative"])
        return q
    return ScalarField.zeros(cfg.grid)


def _write_manifest(out: Path, cfg: RunConfig, wall: float, final: dict,
                    status: str):
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        cols = ["config_hash", "model", "nx", "ny", "status", "wall_time_s"]
        vals = [config_hash(cfg), cfg.model, cfg.grid.nx, cfg.grid.ny,
                status, "%.3f" % wall]
        for key in sorted(final):
            cols.append(key)
            vals.append("%.17g" % final[key] if isinstance(final[key], float)
                        else final[key])
        writer.writerow(cols)
        writer.writerow(vals)


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override or cfg.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(serialize_config(cfg))
    return out


def run_dynamic(cfg: RunConfig, out: Path) -> dict:
    ctrl = StepControl(dt=cfg.dt, cfl_number=cfg.cfl, t_end=cfg.t_end,
                       model=cfg.model, velocity_law=cfg.velocity_law,
                       scheme=cfg.scheme)
    n1_0, n2_0 = initial_densities(cfg)
    state = init_state(n1_0, n2_0, cfg.params, ctrl)
    records, state = run(state, ctrl, cfg.params,
                         observers=[diagnostics.observe],
                         observe_every=cfg.observe_every)
    diagnostics.write_records_csv(records, out / "records.csv")
    for name, f in (("n1", state.n1), ("n2", state.n2),
                    ("p1", state.p1), ("p2", state.p2)):
        fieldio.write_scalar_csv(f, out / f"{name}.csv")
        fieldio.write_scalar_vtk(f, out / f"{name}.vtk", name=name)
    fieldio.write_vector_vtk(state.v2, out / "v2.vtk")
    last = records[-1]
    return {"t": state.t, "mass1": last.mass1, "mass2": last.mass2,
            "overlap": last.overlap, "comp_residual": last.comp_residual}


def run_limit_model(cfg: RunConfig, out: Path) -> dict:
    from . import freeboundary

    part = initial_partition(cfg)
    state = freeboundary.init_limit_state(part, cfg.params, q_field(cfg))
    ctrl = StepControl(dt=cfg.dt, cfl_number=cfg.cfl, t_end=cfg.t_end,
                       model="VM" if cfg.model == "L-VM" else "ESVM")

    rows = []

    def observer(s, params):
        a1, a2 = s.areas()
        rows.append([s.t, a1, a2, freeboundary.overlap_cells(s.part),
                     s.sol.iterations, s.sol.rel_residual])
        return rows[-1]

    _, state = freeboundary.run_limit(state, ctrl, cfg.params,
                                      observers=[observer],
                                      observe_every=cfg.observe_every)
    with open(out / "records.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "area1", "area2", "overlap_cells",
                         "gmres_iterations", "rel_residual"])
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v
                             for v in row])
    freeboundary.write_partition_csv(state.part, out / "partition.csv")
    fieldio.write_scalar_csv(state.q, out / "q.csv")
    fieldio.write_scalar_csv(state.sol.p, out / "p.csv")
    fieldio.write_vector_vtk(state.sol.v2, out / "v2.vtk")
    a1, a2 = state.areas()
    return {"t": state.t, "area1": a1, "area2": a2,
            "overlap_cells": float(rows[-1][3]),
            "max_gmres_iterations": max(row[4] for row in rows),
            "max_rel_residual": max(row[5] for row in rows)}


def run_stationary(cfg: RunConfig, out: Path) -> dict:
    from .stationary import (measure_jump, solve_stationary,
                             verify_transmission, write_jump_csv)

    part = initial_partition(cfg)
    sol = solve_stationary(part, cfg.params, q_field(cfg))
    print(sol.coercivity.warning_line())
    fieldio.write_scalar_csv(sol.p, out / "p.csv")
    fieldio.write_vector_csv(sol.v1, out / "v1_u.csv", out / "v1_v.csv")
    fieldio.write_vector_csv(sol.v2, out / "v2_u.csv", out / "v2_v.csv")
    fieldio.write_scalar_vtk(sol.p, out / "p.vtk", name="pressure")
    fieldio.write_vector_vtk(sol.v1, out / "v1.vtk")
    fieldio.write_vector_vtk(sol.v2, out / "v2.vtk")
    tables = [measure_jump(sol, part, qty)
              for qty in ("pressure", "v1", "v2")]
    write_jump_csv(tables, out / "jumps.csv")
    report = verify_transmission(sol, part)
    return {"rel_residual": sol.rel_residual, "iterations": sol.iterations,
            "max_transmission_residual": report.max_residual()}


def run_sweep(cfg: RunConfig, out: Path) -> dict:
    sequence = list(zip(cfg.sweep_eps, cfg.sweep_m, cfg.sweep_alpha))
    if not sequence:
        raise ConfigError(["sweep requires non-empty lists in [sweep]"])

    def make_initial(spec):
        return initial_densities(replace(cfg, grid=spec))

    ctrl_kwargs = {"dt": cfg.dt, "cfl_number": cfg.cfl,
                   "velocity_law": cfg.velocity_law, "scheme": cfg.scheme}
    rows = diagnostics.limit_sweep(make_initial, cfg.grid, cfg.params,
                                   sequence, cfg.t_end, ctrl_kwargs)
    diagnostics.write_sweep_csv(rows, out / "sweep.csv")
    ok = [r for r in rows if "error" not in r]
    return {"rows": float(len(rows)), "failed": float(len(rows) - len(ok))}


# ---------------------------------------------------------------------------
# self-test battery for the `check` subcommand

def _check_battery(seed: int):
    """Quick invariant self-tests; returns a list of (name, passed)."""
    from .grid import VectorField, curl2d, divergence, gradient
    from .stationary import concentric_partition, solve_stationary
    from .freeboundary import complementarity_closure

    rng = np.random.default_rng(seed)
    results = []
    spec = GridSpec(nx=24, ny=20)

    s = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    u = rng.standard_normal((spec.nx + 1, spec.ny))
    w = rng.standard_normal((spec.nx, spec.ny + 1))
    u[0, :] = u[-1, :] = 0.0
    w[:, 0] = w[:, -1] = 0.0
    v = VectorField(spec, u, w)
    lhs = (divergence(v).values * s.values).sum() * spec.cell_area
    g = gradient(s)
    rhs = -((g.u * v.u).sum() + (g.v * v.v).sum()) * spec.cell_area
    results.append(("divergence-gradient adjointness",
                    abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))))

    rot = VectorField.from_functions(spec, lambda x, y: -y, lambda x, y: x)
    c = curl2d(rot).values
    results.append(("curl of rigid rotation", np.allclose(c, 2.0)))

    from .constitutive import pressure_congestion
    n = ScalarField(spec, np.full((spec.nx, spec.ny), 0.9))
    ident = pressure_congestion(n, 0.1).values * (1.0 - n.values)
    results.append(("congestion complementarity identity",
                    np.allclose(ident, 0.1 * 0.9)))

    params = ModelParams(beta1=1.0, beta2=1.0, g1=1.0, g2=1.0,
                         p1_star=5.0, p2_star=10.0)
    spec2 = GridSpec(nx=32, ny=32)
    part = concentric_partition(spec2)
    sol = solve_stationary(part, params)
    r1, r2 = complementarity_closure(part, params, sol)
    results.append(("stationary divergence-law closure",
                    max(r1.max_norm(), r2.max_norm()) < 1e-8))

    ok_params = coercivity_check(ModelParams(beta1=1.0, beta2=1.0))
    flagged = coercivity_check(ModelParams())  # beta2*g1 = 0.1 < 1/4
    results.append(("coercivity condition classified correctly",
                    ok_params.holds and not flagged.holds))

    import tempfile
    field = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        fieldio.write_scalar_csv(field, path)
        back = fieldio.read_scalar_csv(path)
    results.append(("CSV round trip bit-exact",
                    np.array_equal(field.values, back.values)))
    return results


def run_cli(argv) -> int:
    """Entry point; returns the process exit code.

    0 success, 1 config error (an invalid grid, a step setting out of
    range, a [sweep] tuple that is not valid model parameters, initial
    densities with n1+n2 >= 1, a negative q and a q file that is
    missing, malformed or on another grid included), 2 solver
    failure (a non-finite field included; the manifest is still written,
    with status solver_failure), 3 invariant violation in `check`.
    """
    parser = argparse.ArgumentParser(prog="tissueflow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "stationary"):
        p = sub.add_parser(name)
        p.add_argument("config", help="config file path or preset name")
        p.add_argument("--out", default=None)
        p.add_argument("--grid", default=None, help="override, e.g. 64x64")
    p = sub.add_parser("check")
    p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.command == "check":
        results = _check_battery(args.seed)
        passed = sum(ok for _, ok in results)
        for name, ok in results:
            print(f"{'ok' if ok else 'FAIL'}  {name}")
        print(f"invariants passed: {passed}/{len(results)}")
        return 0 if passed == len(results) else 3

    try:
        if args.config in PRESETS:
            cfg = PRESETS[args.config]
        else:
            cfg = parse_config(Path(args.config).read_text())
        if args.grid:
            try:
                nx, ny = (int(tok) for tok in args.grid.lower().split("x"))
            except ValueError:
                raise ConfigError([f"bad --grid value {args.grid!r}"])
            cfg = replace(cfg, grid=replace(cfg.grid, nx=nx, ny=ny))
    except (ConfigError, GridError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = _out_dir(cfg, args.out)
    t0 = time.perf_counter()
    status, final = "ok", {}
    try:
        if args.command == "sweep":
            final = run_sweep(cfg, out)
        elif args.command == "stationary" or cfg.model in STATIONARY_MODELS:
            final = run_stationary(cfg, out)
        elif cfg.model in LIMIT_MODELS:
            final = run_limit_model(cfg, out)
        else:
            final = run_dynamic(cfg, out)
    except (ConfigError, InitialDataError, PartitionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolverFailure, StepFailure, GridError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        status = "solver_failure"
    _write_manifest(out, cfg, time.perf_counter() - t0, final, status)
    return 0 if status == "ok" else 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
