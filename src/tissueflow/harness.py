"""Run configuration, figure presets, orchestration, and the CLI.

Configs use a flat INI grammar ([section] headers, key = value lines) so
they stay diff-friendly.  `CONFIG_KEYS` lists every key in file order;
the unknown-key check, `parse_config` and `serialize_config` all read it.
A key a config leaves out takes its base's value (the named preset, else
`DEFAULT`, the dataclasses' own defaults), and a key the chosen run does
not read must keep it; each number is read by the type of its default
and must be finite.  The four compiled-in presets reproduce the standard
two-tissue simulation panels: the full model with repulsion and the
interface penalty, the congestion-only model, the sharp-interface limit,
and the curl-free gradient-form variant.  The config alone picks the
kind of run (see `run_cli`); `simulate` steps the evolution and limit
models.  Every run writes a manifest recording the config hash, grid,
status and wall time, also a run that fails once its directory exists.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics, fieldio, freeboundary
from .brinkman import SolverFailure
from .constitutive import ModelParams, coercivity_check
from .dynamics import (InitialDataError, StepControl, StepFailure,
                       init_state, run)
from .grid import GridError, GridSpec, ScalarField
from .stationary import (DomainPartition, PartitionError, measure_jump,
                         solve_stationary, verify_transmission, write_jump_csv)

MODELS = ("ESVM", "VM", "L-ESVM", "L-VM", "STATIONARY")
LIMIT_MODELS = ("L-ESVM", "L-VM")
STEPPED_MODELS = ("ESVM", "VM", *LIMIT_MODELS)    # every model but STATIONARY
# the relaxation parameters: the limit models have none, and [sweep] steps
# them toward the limit
RELAXATION_KEYS = ("eps", "m", "alpha")

# Every config key, section by section in file order (on which config
# hashes depend), with the field it sets: a GridSpec field for [grid], a
# ModelParams field for [params] and a RunConfig field for the rest.
CONFIG_KEYS = {
    "run": {k: k for k in ("model", "preset", "out", "observe_every")},
    "grid": {k: k for k in ("nx", "ny", "x_min", "x_max", "y_min", "y_max")},
    "params": {f.name: f.name for f in fields(ModelParams)},
    "control": {k: k for k in ("dt", "cfl", "t_end", "velocity_law", "scheme")},
    "initial": {"n1": "rects1", "n2": "rects2"},
    "q": {k: "q_" + k for k in ("source", "value", "path")},
    "sweep": {k: "sweep_" + k for k in RELAXATION_KEYS},
}

# the keys only some models read, with those models
READERS = {("run", "observe_every"): STEPPED_MODELS,
           ("params", "eps"): ("ESVM", "VM"),
           **{("params", k): ("ESVM",) for k in ("m", "alpha")},
           **{("control", k): STEPPED_MODELS for k in ("dt", "cfl", "t_end")},
           **{("control", k): ("ESVM", "VM") for k in ("velocity_law", "scheme")},
           # L-VM is L-ESVM with q = 0
           ("q", "source"): ("L-ESVM", "STATIONARY"),
           **{("sweep", k): ("ESVM",) for k in RELAXATION_KEYS}}
# a sweep runs its own relaxation tuples and observes every step
SWEEP_IGNORES = {"params": RELAXATION_KEYS, "run": ("observe_every",)}

# the words a word-valued key may take
_CHOICES = {"model": MODELS, "velocity_law": ("dirichlet", "gradient"),
            "scheme": ("upwind", "sharp"), "source": ("zero", "uniform", "file")}


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


# the values of the keys a config without a preset leaves out
DEFAULT = RunConfig(model=None, grid=GridSpec(), params=ModelParams())


def _make_presets():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 128, 128)
    params = ModelParams(beta1=0.5, beta2=0.1, eps=0.1, m=30.0, alpha=0.001,
                         g1=1.0, g2=1.0, p1_star=5.0, p2_star=10.0)
    # the panel layout: a center band of tissue 1, side bands of tissue 2
    r1 = (Rect(0.9, -2.0 / 3.0, 2.0 / 3.0, -1.0, 0.0),)
    r2 = (Rect(0.9, -1.0, -2.0 / 3.0, -1.0, 0.0),
          Rect(0.9, 2.0 / 3.0, 1.0, -1.0, 0.0))
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


def _owner(cfg: RunConfig, section: str):
    """The object whose fields the keys of `section` set."""
    return {"grid": cfg.grid, "params": cfg.params}.get(section, cfg)


def _num(v) -> str:
    """Shortest round-tripping text of a number, numpy scalars included."""
    return repr(float(v))


def _finite(tok: str) -> float:
    val = float(tok)
    if not math.isfinite(val):
        raise ValueError(f"{tok!r} is not a finite number")
    return val


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
        parts = [_finite(tok) for tok in chunk.split()]
        if len(parts) != 5:
            raise ValueError(f"rectangle needs 5 numbers, got {chunk!r}")
        rects.append(Rect(*parts))
    return tuple(rects)


def _read(section: str, key: str, default, text: str):
    """The value of a key from its text, by the type of its default."""
    if section == "initial":
        return _parse_rects(text)
    if section == "sweep":
        return tuple(_finite(tok) for tok in text.replace(",", " ").split())
    if isinstance(default, float):
        return _finite(text)
    if isinstance(default, int):
        return int(text)
    if key in _CHOICES and text not in _CHOICES[key]:
        raise ValueError(f"{text!r} is not one of {'|'.join(_CHOICES[key])}")
    return text


def _write(section: str, default, val) -> str:
    """The text of a key's value; `_read` turns it back into `val`."""
    if section == "initial":
        return _format_rects(val)
    if section == "sweep":
        return ", ".join(map(_num, val))
    return _num(val) if isinstance(default, float) else str(val)


def _written(cfg: RunConfig, section: str, key: str) -> bool:
    """Whether `serialize_config` writes a key: a limit model has no
    relaxation parameters, [sweep] is written whole or not at all, and the
    other optional keys are written when they are set (an empty `out`
    too) or used."""
    if section == "params" and key in RELAXATION_KEYS:
        return cfg.model not in LIMIT_MODELS
    if section == "sweep":
        return bool(cfg.sweep_eps)
    if section == "q" and key != "source":
        return cfg.q_source == ("uniform" if key == "value" else "file")
    if key in ("preset", "out"):
        return getattr(cfg, key) is not None
    return True


def _unread(cfg: RunConfig, section: str, key: str) -> str | None:
    """Why the run a config picks does not read a key, or None if it does."""
    if cfg.model not in READERS.get((section, key), MODELS):
        return f"by model {cfg.model}"
    if cfg.sweep_eps and key in SWEEP_IGNORES.get(section, ()):
        return "by a sweep"
    if section == "q" and not _written(cfg, section, key):
        return f"with [q] source {cfg.q_source}"
    return None


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text; parse(serialize(cfg)) reproduces cfg exactly."""
    blocks = []
    for section, keys in CONFIG_KEYS.items():
        owner, default = _owner(cfg, section), _owner(DEFAULT, section)
        lines = [f"{key} = " + _write(section, getattr(default, name),
                                      getattr(owner, name))
                 for key, name in keys.items() if _written(cfg, section, key)]
        if lines:
            blocks.append("\n".join([f"[{section}]", *lines]))
    return "\n\n".join(blocks) + "\n"


def parse_config(text: str) -> RunConfig:
    """Validated config, or ConfigError listing every violation.

    A key the text leaves out takes its base's value (the preset [run]
    names, else `DEFAULT`); a key the run does not read must keep it.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    violations = []
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            violations.append(f"unknown section [{section}]")
            continue
        violations += [f"unknown key {key!r} in [{section}]"
                       for key in cp[section] if key not in CONFIG_KEYS[section]]

    preset = cp.get("run", "preset", fallback=None)
    if preset is not None and preset not in PRESETS:
        violations.append(f"unknown preset {preset!r}")
    base = PRESETS.get(preset, DEFAULT)

    def value(section, key, name):
        val = getattr(_owner(base, section), name)
        text = cp.get(section, key, fallback=None)
        if text is not None:
            try:
                val = _read(section, key,
                            getattr(_owner(DEFAULT, section), name), text)
            except ValueError as exc:
                violations.append(f"bad value for {key!r} in [{section}]: {exc}")
        return val

    values = {section: {name: value(section, key, name)
                        for key, name in keys.items()}
              for section, keys in CONFIG_KEYS.items()}
    nested = {}
    for section, kind in (("grid", GridSpec), ("params", ModelParams)):
        try:
            nested[section] = kind(**values.pop(section))
        except ValueError as exc:
            violations.append(f"{section}: {exc}")
            nested[section] = getattr(base, section)
    cfg = RunConfig(**nested, **{name: val for section in values.values()
                                 for name, val in section.items()})

    if cfg.model is None and not cp.has_option("run", "model"):
        violations.append("missing required key 'model' in [run]")
    violations += [f"key {key!r} in [{section}] is not read {reason}"
                   for section, keys in CONFIG_KEYS.items()
                   for key, name in keys.items()
                   if cfg.model and (reason := _unread(cfg, section, key))
                   and getattr(_owner(cfg, section), name)
                   != getattr(_owner(base, section), name)]
    if not cfg.rects1:
        violations.append("missing initial data: key 'n1' in [initial]")
    if not cfg.rects2 and cfg.model != "STATIONARY":
        violations.append("missing initial data: key 'n2' in [initial]")
    if cfg.q_source == "file" and cfg.q_path is None:
        violations.append("q source 'file' requires key 'path' in [q]")

    sweep = (cfg.sweep_eps, cfg.sweep_m, cfg.sweep_alpha)
    if len(set(map(len, sweep))) > 1:
        violations.append("sweep lists eps, m, alpha must have equal length")
    for k, (eps, m, alpha) in enumerate(zip(*sweep)):
        try:
            replace(cfg.params, eps=eps, m=m, alpha=alpha)
        except ValueError as exc:
            violations.append(f"[sweep] tuple {k + 1} (eps = {eps!r}, "
                              f"m = {m!r}, alpha = {alpha!r}): {exc}")

    for ok, rule, val in (
            (cfg.dt > 0.0, "dt must be positive", cfg.dt),
            (0.0 < cfg.cfl <= 1.0, "cfl must lie in (0, 1]", cfg.cfl),
            (cfg.t_end >= 0.0, "t_end must be nonnegative", cfg.t_end),
            (cfg.observe_every >= 1, "observe_every must be at least 1",
             cfg.observe_every),
            (cfg.q_value >= 0.0, "[q] value must be nonnegative", cfg.q_value)):
        if not ok:
            violations.append(f"{rule}, got {val!r}")

    if violations:
        raise ConfigError(violations)
    return cfg


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
            q = fieldio.read_scalar_csv(cfg.q_path, cfg.grid)
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


def step_control(cfg: RunConfig) -> StepControl:
    """The step settings of a config.  A limit run's step
    (``freeboundary.step_limit``) reads only ``dt``, ``cfl_number`` and
    ``t_end``, so its control sets nothing else."""
    if cfg.model in LIMIT_MODELS:
        return StepControl(dt=cfg.dt, cfl_number=cfg.cfl, t_end=cfg.t_end)
    return StepControl(dt=cfg.dt, cfl_number=cfg.cfl, t_end=cfg.t_end,
                       model=cfg.model, velocity_law=cfg.velocity_law,
                       scheme=cfg.scheme)


def simulate(cfg: RunConfig, observers=(), observe_every: int = 1):
    """(records, final state) of a run from the config's initial data:
    the painted densities, or for a limit model their sharp partition and
    `q_field`.  Observers fire as in `dynamics.run`."""
    ctrl = step_control(cfg)
    if cfg.model in LIMIT_MODELS:
        state = freeboundary.init_limit_state(initial_partition(cfg),
                                              cfg.params, q_field(cfg))
        return freeboundary.run_limit(state, ctrl, cfg.params,
                                      observers=observers,
                                      observe_every=observe_every)
    state = init_state(*initial_densities(cfg), cfg.params, ctrl)
    return run(state, ctrl, cfg.params, observers=observers,
               observe_every=observe_every)


def run_dynamic(cfg: RunConfig, out: Path) -> dict:
    records = []

    def observer(s, params):
        records.append(diagnostics.observe(s, params))

    try:
        _, state = simulate(cfg, [observer], cfg.observe_every)
    finally:
        diagnostics.write_records_csv(records, out / "records.csv")
    for name, f in (("n1", state.n1), ("n2", state.n2),
                    ("p1", state.p1), ("p2", state.p2)):
        fieldio.write_scalar_csv(f, out / f"{name}.csv")
        fieldio.write_scalar_vtk(f, out / f"{name}.vtk", name=name)
    fieldio.write_vector_vtk(state.v2, out / "v2.vtk")
    last = records[-1]
    return {"t": state.t, "mass1": last.mass1, "mass2": last.mass2,
            "overlap": last.overlap, "comp_residual": last.comp_residual}


LIMIT_RECORD_COLUMNS = ("t", "area1", "area2", "gmres_iterations",
                        "rel_residual")


def run_limit_model(cfg: RunConfig, out: Path) -> dict:
    rows = []

    def observer(s, params):
        a1, a2 = s.areas()
        rows.append([s.t, a1, a2, s.sol.iterations, s.sol.rel_residual])

    try:
        _, state = simulate(cfg, [observer], cfg.observe_every)
    finally:
        diagnostics.write_records_csv(rows, out / "records.csv",
                                      columns=LIMIT_RECORD_COLUMNS)
    freeboundary.write_partition_csv(state.part, out / "partition.csv")
    fieldio.write_scalar_csv(state.q, out / "q.csv")
    fieldio.write_scalar_csv(state.sol.p, out / "p.csv")
    fieldio.write_vector_vtk(state.sol.v2, out / "v2.vtk")
    a1, a2 = state.areas()
    return {"t": state.t, "area1": a1, "area2": a2,
            "max_gmres_iterations": max(row[3] for row in rows),
            "max_rel_residual": max(row[4] for row in rows)}


def run_stationary(cfg: RunConfig, out: Path) -> dict:
    part = initial_partition(cfg)
    sol = solve_stationary(part, cfg.params, q_field(cfg))
    print(coercivity_check(cfg.params).warning_line())
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


SWEEP_COLUMNS = ("eps", "m", "alpha", "overlap", "comp_residual",
                 "mixedness", "sum_rescale", "congestion", "min_dt", "error")


def sweep(cfg: RunConfig) -> list:
    """One repulsion-model run per [sweep] tuple (eps, m, alpha), each a
    row dict of SWEEP_COLUMNS at t_end; a failed run's row holds its
    exception under ``error``, and the sweep goes on."""
    rows = []
    for eps, m, alpha in zip(cfg.sweep_eps, cfg.sweep_m, cfg.sweep_alpha):
        row = {"eps": eps, "m": m, "alpha": alpha}
        try:
            params = replace(cfg.params, eps=eps, m=m, alpha=alpha)
            dts, state = simulate(replace(cfg, params=params),
                                  [lambda s, _: s.dt_last])
            total = ScalarField(cfg.grid, state.n1.values + state.n2.values)
            row.update(
                overlap=diagnostics.segregation_metric(state.n1, state.n2),
                comp_residual=diagnostics.complementarity_residual(total, eps),
                mixedness=diagnostics.mixedness(total),
                sum_rescale=state.counters.sum_rescale,
                congestion=state.counters.congestion,
                min_dt=min(dts),
            )
        except Exception as exc:  # annotate, keep sweeping
            row["error"] = exc
        rows.append(row)
    return rows


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            err = row.get("error")
            writer.writerow([row.get(c, "") for c in SWEEP_COLUMNS[:-1]] + [
                "" if err is None else f"{type(err).__name__}: {err}"])


def run_sweep(cfg: RunConfig, out: Path) -> dict:
    """Write every row of the sweep, then raise the first row's failure."""
    rows = sweep(cfg)
    write_sweep_csv(rows, out / "sweep.csv")
    for row in rows:
        if "error" in row:
            raise row["error"]
    return {"rows": float(len(rows))}


def run_cli(argv) -> int:
    """Entry point; returns the process exit code.

    `run` is the only command; it picks the run from the config alone:
    [sweep] lists, STATIONARY, a limit model or an evolution model.
    0 success; 1 config error (an unknown key, a value not finite or not
    one of its key's words, a bad grid, a step setting out of range, a
    key the run does not read set off its base's value, a bad [sweep]
    tuple, initial n1+n2 >= 1, a negative q, a bad q file or one on
    another grid, an --out that cannot be made); 2 solver failure (a
    non-finite field included).  argparse exits 2 on an unknown command
    or flag.  A sweep ends as its first failed run, after writing every
    row.  Once the run directory exists every outcome writes its
    manifest, with status ok, config_error or solver_failure.
    """
    parser = argparse.ArgumentParser(prog="tissueflow")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("config", help="config file path or preset name")
    p.add_argument("--out", default=None)
    p.add_argument("--grid", default=None, help="override, e.g. 64x64")
    args = parser.parse_args(argv)

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
        out = _out_dir(cfg, args.out)
    except (ConfigError, GridError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    status, final = "ok", {}
    try:
        if cfg.sweep_eps:
            final = run_sweep(cfg, out)
        elif cfg.model == "STATIONARY":
            final = run_stationary(cfg, out)
        elif cfg.model in LIMIT_MODELS:
            final = run_limit_model(cfg, out)
        else:
            final = run_dynamic(cfg, out)
    except (ConfigError, InitialDataError, PartitionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        status = "config_error"
    except (SolverFailure, StepFailure, GridError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        status = "solver_failure"
    _write_manifest(out, cfg, time.perf_counter() - t0, final, status)
    return {"ok": 0, "config_error": 1, "solver_failure": 2}[status]


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
