import csv
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tissueflow import brinkman, dynamics, fieldio, freeboundary, harness
from tissueflow.constitutive import ModelParams
from tissueflow.harness import (PRESETS, ConfigError, Rect, RunConfig,
                                config_hash, initial_densities,
                                initial_partition, parse_config, run_cli,
                                serialize_config)
from tissueflow.grid import GridError, GridSpec, ScalarField


def test_preset_catalog():
    assert set(PRESETS) == {"fig3-esvm", "fig3-vm", "fig3-lesvm",
                            "fig3-gradient-form"}
    esvm = PRESETS["fig3-esvm"]
    assert esvm.params.beta1 == 0.5 and esvm.params.beta2 == 0.1
    assert esvm.params.p1_star == 5.0 and esvm.params.p2_star == 10.0
    assert esvm.params.eps == 0.1 and esvm.params.m == 30.0
    assert PRESETS["fig3-vm"].params.alpha == 0.0
    assert PRESETS["fig3-gradient-form"].velocity_law == "gradient"
    assert PRESETS["fig3-lesvm"].model == "L-ESVM"


def test_preset_config_hashes_are_stable():
    # the hashes in every manifest written so far; serialisation order
    # and number formatting must not drift
    assert {name: config_hash(cfg) for name, cfg in PRESETS.items()} == {
        "fig3-esvm": "5dbd3143024025a4",
        "fig3-vm": "0663b17f0775de86",
        "fig3-lesvm": "51474c3ac7c0520c",
        "fig3-gradient-form": "4d8f7dbb739ef496",
    }


def test_band_initial_data_covers_lower_half():
    cfg = PRESETS["fig3-esvm"]
    n1, n2 = initial_densities(cfg)
    assert n1.values.max() == 0.9 and n2.values.max() == 0.9
    assert (n1.values * n2.values).sum() == 0.0
    # total initial mass: 0.9 over the whole strip [-1,1] x [-1,0]
    assert (n1.integral() + n2.integral()) == pytest.approx(1.8, rel=1e-2)


def test_serialize_parse_round_trip_fixed_point():
    # numpy scalars must be written as plain numbers
    f = np.float64
    vm = PRESETS["fig3-vm"]
    numpy_cfg = replace(
        vm, rects1=(Rect(f(0.9), f(-2.0) / 3.0, f(2.0) / 3.0, f(-1.0), f(0.0)),),
        dt=f(5e-4), params=replace(vm.params, beta1=f(0.45)))
    for name, cfg in [*PRESETS.items(), ("numpy scalars", numpy_cfg)]:
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg, name
        assert serialize_config(again) == text, name
        assert config_hash(again) == config_hash(cfg)


def _numbers(lo, hi, **kw):
    """Finite floats, each a Python float or a numpy float64."""
    return st.builds(lambda x, as_numpy: np.float64(x) if as_numpy else x,
                     st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                               **kw), st.booleans())


_POSITIVE = _numbers(0.0, 1e6, exclude_min=True)
_NONNEGATIVE = _numbers(0.0, 1e3)
_EXPONENT = _numbers(1.0, 1e6, exclude_min=True)    # m > 1
_CORNER, _EXTENT = _numbers(-1e3, 1e3), _numbers(1e-3, 1e3)
_RECT = st.builds(Rect, *[_numbers(-10.0, 10.0)] * 5)
_CFL = _numbers(0.0, 1.0, exclude_min=True)
_SWEEP = st.lists(st.tuples(_POSITIVE, _EXPONENT, _NONNEGATIVE), max_size=3)
_PATH = st.text("abcXYZ019_./-", min_size=1, max_size=24)


@st.composite
def _configs(draw):
    """A config that parse_config accepts, on a preset or on none.

    A key the run does not read keeps the base's value; every other key is
    drawn.  [sweep] is drawn only for ESVM, a q source other than zero
    only for L-ESVM and STATIONARY, and the scheme and velocity law
    only for ESVM and VM.  ESVM reads the relaxation parameters, VM only
    eps and the limit models none; STATIONARY reads no step setting and
    a sweep neither the relaxation parameters nor observe_every.  A q
    value or path is drawn only where the q source uses it.
    """
    preset = draw(st.sampled_from([None, *PRESETS]))
    base = PRESETS[preset] if preset else harness.DEFAULT
    model = draw(st.sampled_from(harness.MODELS))
    sweep = draw(_SWEEP) if model == "ESVM" else []
    evolution, stepped = model in ("ESVM", "VM"), model != "STATIONARY"

    def read(reads, strategy, owner, name):
        return draw(strategy) if reads else getattr(owner, name)

    x_min, y_min = draw(_CORNER), draw(_CORNER)
    grid = GridSpec(x_min, x_min + draw(_EXTENT), y_min, y_min + draw(_EXTENT),
                    draw(st.integers(4, 512)), draw(st.integers(4, 512)))
    relax = evolution and not sweep
    params = ModelParams(
        beta1=draw(_POSITIVE), beta2=draw(_POSITIVE),
        eps=read(relax, _POSITIVE, base.params, "eps"),
        m=read(relax and model == "ESVM", _EXPONENT, base.params, "m"),
        alpha=read(relax and model == "ESVM", _NONNEGATIVE, base.params,
                   "alpha"),
        g1=draw(_POSITIVE), g2=draw(_POSITIVE), p1_star=draw(_NONNEGATIVE),
        p2_star=draw(_NONNEGATIVE))
    # n1 is required, and n2 by every model but STATIONARY
    rects1 = draw(st.lists(_RECT, min_size=1, max_size=3))
    rects2 = draw(st.lists(_RECT, max_size=3,
                           min_size=int(model != "STATIONARY")))
    q_source = read(model in ("L-ESVM", "STATIONARY"),
                    st.sampled_from(["zero", "uniform", "file"]), base,
                    "q_source")
    return RunConfig(
        model=model, grid=grid, params=params, preset=preset,
        dt=read(stepped, _POSITIVE, base, "dt"),
        cfl=read(stepped, _CFL, base, "cfl"),
        t_end=read(stepped, _NONNEGATIVE, base, "t_end"),
        velocity_law=read(evolution, st.sampled_from(["dirichlet", "gradient"]),
                          base, "velocity_law"),
        scheme=read(evolution, st.sampled_from(["upwind", "sharp"]), base,
                    "scheme"),
        observe_every=read(stepped and not sweep, st.integers(1, 1000), base,
                           "observe_every"),
        rects1=tuple(rects1), rects2=tuple(rects2), q_source=q_source,
        q_value=read(q_source == "uniform", _NONNEGATIVE, base, "q_value"),
        q_path=read(q_source == "file", _PATH, base, "q_path"),
        out=draw(st.none() | st.just("") | _PATH),
        sweep_eps=tuple(s[0] for s in sweep),
        sweep_m=tuple(s[1] for s in sweep),
        sweep_alpha=tuple(s[2] for s in sweep))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_configs())
def test_every_valid_config_round_trips(cfg):
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_empty_config_lists_every_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    msgs = "\n".join(err.value.violations)
    assert "model" in msgs and "n1" in msgs and "n2" in msgs


def test_unknown_keys_and_sections_are_collected():
    text = """
[run]
model = VM
typo_key = 3
[grud]
nx = 4
[initial]
n1 = 0.9 -0.5 0.5 -0.5 0.5
n2 = 0.9 0.5 0.9 -0.5 0.5
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msgs = "\n".join(err.value.violations)
    assert "typo_key" in msgs and "grud" in msgs


def test_limit_model_rejects_relaxation_parameters():
    text = "[run]\npreset = fig3-lesvm\n[params]\neps = {}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text.format(0.2))
    assert err.value.violations == [
        "key 'eps' in [params] is not read by model L-ESVM"]
    # fig3-lesvm's own value changes nothing, so it is accepted
    assert parse_config(text.format(0.1)) == PRESETS["fig3-lesvm"]


def test_bad_values_are_all_reported():
    text = """
[run]
model = VM
[grid]
nx = lots
[control]
scheme = fancy
velocity_law = psychic
[initial]
n1 = 0.9 -0.5 0.5 -0.5 0.5
n2 = 0.9 0.5 0.9 -0.5
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msgs = "\n".join(err.value.violations)
    assert "nx" in msgs and "fancy" in msgs and "psychic" in msgs
    assert "5 numbers" in msgs


def test_preset_overlay_overrides_fields():
    text = """
[run]
preset = fig3-vm
[grid]
nx = 32
ny = 32
[control]
t_end = 0.01
"""
    cfg = parse_config(text)
    assert cfg.model == "VM"
    assert cfg.grid.nx == 32
    assert cfg.t_end == 0.01
    assert cfg.params.beta2 == 0.1  # inherited from the preset


def test_rect_painting_uses_open_intervals():
    spec = GridSpec(nx=8, ny=8)
    into = np.zeros((8, 8))
    Rect(0.5, -1.0, 0.0, -1.0, 1.0).paint(spec, into)
    assert into[:4, :].min() == 0.5
    assert into[4:, :].max() == 0.0


def test_initial_partition_is_disjoint():
    cfg = PRESETS["fig3-lesvm"]
    part = initial_partition(cfg)
    assert (part.chi1.values * part.chi2.values).sum() == 0.0
    assert part.cell_counts()[0] > 0 and part.cell_counts()[1] > 0


@pytest.mark.parametrize("argv", [["run", "fig3-vm", "--seed", "1"],
                                  ["run", "fig3-vm", "--jobs", "2"],
                                  ["check"],
                                  ["stationary", "fig3-lesvm"],
                                  ["sweep", "fig3-esvm"]])
def test_cli_rejects_flags_nothing_reads(argv):
    # `run` is the only command: the config picks the run
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nmodel = WARP\n")
    assert run_cli(["run", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    assert run_cli(["run", str(tmp_path / "missing.ini")]) == 1
    assert run_cli(["run", "fig3-vm", "--grid", "banana"]) == 1


def test_cli_out_that_cannot_be_made_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert run_cli(["run", "fig3-vm", "--grid", "16x16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert len(err.strip().splitlines()) == 1
    assert out.read_text() == "a file, not a directory\n"


def test_cli_invalid_grid_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "tiny"
    assert run_cli(["run", "fig3-vm", "--grid", "2x2", "--out", str(out)]) == 1
    assert "need nx, ny >= 4" in capsys.readouterr().err


_SWEEP_LINES = "[sweep]\neps = 0.1, 0.05\nm = 30, 60\nalpha = 1e-3, 5e-4\n"
# (preset, lines, violation): one key the chosen run does not read, set
# off the preset's value
_UNREAD = {
    "scheme": ("fig3-lesvm", "[control]\nscheme = sharp",
               "key 'scheme' in [control] is not read by model L-ESVM"),
    "velocity_law": (
        "fig3-gradient-form", "model = STATIONARY\n[control]\n"
        "velocity_law = dirichlet",
        "key 'velocity_law' in [control] is not read by model STATIONARY"),
    "q-source": ("fig3-vm", "[q]\nsource = uniform\nvalue = 1.0",
                 "key 'source' in [q] is not read by model VM"),
    # L-VM is L-ESVM with q = 0
    "L-VM-q-source": ("fig3-lesvm",
                      "model = L-VM\n[q]\nsource = uniform\nvalue = 1.0",
                      "key 'source' in [q] is not read by model L-VM"),
    "sweep": ("fig3-vm", _SWEEP_LINES,
              "key 'eps' in [sweep] is not read by model VM"),
    **{f"VM-{key}": ("fig3-vm", f"[params]\n{key} = {value}",
                     f"key '{key}' in [params] is not read by model VM")
       for key, value in (("m", 5), ("alpha", 0.5))},
    **{f"STATIONARY-{key}": (
        "fig3-lesvm", "model = STATIONARY\n" +
        (f"{key} = 3" if section == "run" else f"[{section}]\n{key} = {value}"),
        f"key '{key}' in [{section}] is not read by model STATIONARY")
       for section, key, value in (
           ("control", "dt", 0.3), ("control", "cfl", 0.2),
           ("control", "t_end", 5.0), ("run", "observe_every", 3),
           ("params", "eps", 0.2), ("params", "m", 5.0),
           ("params", "alpha", 0.5))},
    **{f"sweep-{key}": (
        "fig3-esvm", (f"{key} = 3\n" if section == "run"
                      else f"[{section}]\n{key} = {value}\n") + _SWEEP_LINES,
        f"key '{key}' in [{section}] is not read by a sweep")
       for section, key, value in (
           ("params", "eps", 0.2), ("params", "m", 5.0),
           ("params", "alpha", 0.5), ("run", "observe_every", 3))},
    "q-value": ("fig3-lesvm", "[q]\nvalue = 1.0",
                "key 'value' in [q] is not read with [q] source zero"),
    "q-path": ("fig3-lesvm", "[q]\nsource = uniform\nvalue = 1.0\npath = q.csv",
               "key 'path' in [q] is not read with [q] source uniform"),
}


@pytest.mark.parametrize("preset,lines,message", _UNREAD.values(), ids=_UNREAD)
def test_cli_setting_the_model_does_not_read_is_a_config_error(
        tmp_path, capsys, preset, lines, message):
    cfgfile = tmp_path / "ignored.ini"
    cfgfile.write_text(f"[run]\npreset = {preset}\n{lines}\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert len(err.strip().splitlines()) == 1
    # parse_config fails before the run directory is made
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[run]\npreset = fig3-lesvm\nmodel = STATIONARY\n",
    "[run]\npreset = fig3-gradient-form\nmodel = STATIONARY\n",
    "[run]\npreset = fig3-vm\n[params]\nalpha = 0.0\nm = 30.0\n",
    "[run]\npreset = fig3-esvm\nobserve_every = 1\n[params]\neps = 0.1\n"
    + _SWEEP_LINES,
    "[run]\npreset = fig3-lesvm\n[q]\nsource = zero\nvalue = 0.0\n"],
    ids=["STATIONARY-dt", "STATIONARY-velocity_law", "VM-alpha",
         "sweep-eps", "q-value"])
def test_a_setting_the_run_does_not_read_is_accepted_at_its_base_value(text):
    # an unread key written at, or inherited with, its base's value
    # changes nothing, and config.ini records the config
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def _recorder(monkeypatch):
    """(reads, record): ``record(cfg)`` is a copy of a parsed config whose
    RunConfig, ModelParams and the StepControl made from it add each
    config key they are read for to the set ``reads``.  A copy made by
    ``dataclasses.replace``, ``serialize_config`` or ``step_control`` is
    not a read; the copy records the fields it kept."""
    reads, copying = set(), []

    def recording(cls):
        class Recording(cls):
            def __getattribute__(self, name):
                keys = object.__getattribute__(self, "__dict__").get("keys_", {})
                if name in keys and not copying:
                    reads.update(keys[name])
                return object.__getattribute__(self, name)
        return Recording

    classes = {cls: recording(cls)
               for cls in (RunConfig, ModelParams, dynamics.StepControl)}

    def mark(obj, keys):
        new = classes[type(obj)](**{f.name: getattr(obj, f.name)
                                    for f in fields(obj)})
        object.__setattr__(new, "keys_", keys)
        return new

    def copy(fn):
        def call(*args, **kwargs):
            copying.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                copying.pop()
        return call

    def replace_(obj, **changes):
        new = copy(replace)(obj, **changes)
        keys = getattr(obj, "keys_", {})
        object.__setattr__(new, "keys_", {name: key for name, key in keys.items()
                                          if name not in changes})
        return new

    ctrl_fields = {"dt": "dt", "cfl_number": "cfl", "t_end": "t_end",
                   "model": "model", "velocity_law": "velocity_law",
                   "scheme": "scheme"}
    make_ctrl = copy(harness.step_control)

    def step_control(cfg):
        keys = getattr(cfg, "keys_", {})
        return mark(make_ctrl(cfg),
                    {name: keys[field] for name, field in ctrl_fields.items()
                     if field in keys})

    def record(cfg):
        params = mark(cfg.params, {f.name: [("params", f.name)]
                                   for f in fields(ModelParams)})
        keys = {name: [(section, key)]
                for section, names in harness.CONFIG_KEYS.items()
                if section not in ("grid", "params")
                for key, name in names.items()}
        keys["grid"] = [("grid", key) for key in harness.CONFIG_KEYS["grid"]]
        return mark(replace(cfg, params=params), keys)

    monkeypatch.setattr(harness, "replace", replace_)
    monkeypatch.setattr(harness, "step_control", step_control)
    monkeypatch.setattr(harness, "serialize_config",
                        copy(harness.serialize_config))
    return reads, record


# a value off every preset's for each key a test run can take: 16x16 on an
# anisotropic box, a short t_end, bands with n1 + n2 < 1
_OFF_BASE = {
    "run": {"out": "{out}", "observe_every": "2"},
    "grid": {"nx": "16", "ny": "16", "x_min": "-1.1", "x_max": "1.1",
             "y_min": "-1.2", "y_max": "1.05"},
    "params": {"beta1": "0.6", "beta2": "0.2", "eps": "0.2", "m": "20.0",
               "alpha": "0.002", "g1": "1.5", "g2": "0.5", "p1_star": "6.0",
               "p2_star": "9.0"},
    "control": {"dt": "5e-4", "cfl": "0.3", "t_end": "0.002",
                "velocity_law": "gradient", "scheme": "sharp"},
    "initial": {"n1": "0.8 -0.6 0.6 -1 0",
                "n2": "0.8 -1 -0.6 -1 0; 0.8 0.6 1 -1 0"},
    "q": {"source": "uniform", "value": "0.5", "path": "{q}"},
    "sweep": {"eps": "0.2, 0.05", "m": "20, 60", "alpha": "0.002, 0.0"},
}
# each kind of run: the sections its config sets besides the keys above
_RUN_BASES = {
    "ESVM": {"run": {"preset": "fig3-esvm"}},
    "VM": {"run": {"preset": "fig3-vm"}},
    "L-ESVM": {"run": {"preset": "fig3-lesvm"}, "q": {"source": "uniform"}},
    "L-VM": {"run": {"preset": "fig3-lesvm", "model": "L-VM"}},
    "STATIONARY": {"run": {"preset": "fig3-lesvm", "model": "STATIONARY"}},
    "sweep": {"run": {"preset": "fig3-esvm"},
              "sweep": {"eps": "0.1, 0.05", "m": "30, 60",
                        "alpha": "1e-3, 5e-4"}},
}


def _ini(sections) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                              for key, value in keys.items())
                   for section, keys in sections.items())


@pytest.mark.parametrize("run", _RUN_BASES)
def test_every_setting_accepted_off_its_base_is_read(tmp_path, monkeypatch,
                                                      run):
    # each key of _OFF_BASE that parse_config accepts alone on the run's
    # config is set at once; every key then off the preset must be read
    paths = {"out": tmp_path / "out", "q": tmp_path / "q.csv"}

    def text(*changes):
        sections = {name: dict(keys) for name, keys in _RUN_BASES[run].items()}
        for section, key in changes:
            sections.setdefault(section, {})[key] = _OFF_BASE[section][key]
        return _ini(sections).format(**paths)

    def accepted(change):
        try:
            parse_config(text(change))
        except ConfigError:
            return False
        return True

    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text(*filter(accepted, (
        (section, key) for section, keys in _OFF_BASE.items()
        for key in keys))))
    cfg = parse_config(cfgfile.read_text())
    fieldio.write_scalar_csv(ScalarField(cfg.grid, np.full(
        (cfg.grid.nx, cfg.grid.ny), 0.5)), paths["q"])
    base = PRESETS[cfg.preset]
    off = {(section, key) for section, keys in harness.CONFIG_KEYS.items()
           for key, name in keys.items()
           if getattr(harness._owner(cfg, section), name)
           != getattr(harness._owner(base, section), name)}
    reads, record = _recorder(monkeypatch)
    monkeypatch.setattr(harness, "parse_config", lambda text: record(cfg))
    assert run_cli(["run", str(cfgfile)]) == 0
    assert ("grid", "nx") in off and ("run", "out") in off
    assert off - reads == set()


def test_cli_non_finite_field_is_a_solver_failure(tmp_path, capsys,
                                                   monkeypatch):
    def blow_up(cfg, out):
        raise GridError("scalar field contains non-finite entries")

    monkeypatch.setattr(harness, "run_dynamic", blow_up)
    out = tmp_path / "nan"
    assert run_cli(["run", "fig3-vm", "--grid", "16x16", "--out", str(out)]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_cli_dynamic_run_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["run", "fig3-vm", "--grid", "16x16", "--out", str(out)])
    assert code == 0
    for name in ("config.ini", "manifest.csv", "records.csv",
                 "n1.csv", "n2.csv", "p1.vtk", "v2.vtk"):
        assert (out / name).exists(), name
    with open(out / "manifest.csv") as fh:
        rows = list(csv.reader(fh))
    manifest = dict(zip(rows[0], rows[1]))
    assert manifest["model"] == "VM" and manifest["nx"] == "16"
    assert manifest["status"] == "ok"
    assert len(manifest["config_hash"]) == 16


_STATIONARY_CONFIG = """
[run]
model = STATIONARY
[grid]
nx = 24
ny = 24
[params]
beta1 = 1.0
beta2 = 1.0
[initial]
n1 = 1.0 -0.4 0.4 -0.4 0.4
n2 = 1.0 0.45 0.8 -0.4 0.4
"""


def test_cli_stationary_reports_coercivity(tmp_path, capsys):
    cfgfile = tmp_path / "stat.ini"
    cfgfile.write_text(_STATIONARY_CONFIG)
    out = tmp_path / "stat"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "coercivity" in text
    for name in ("p.csv", "v1_u.csv", "v2_v.csv", "jumps.csv", "p.vtk"):
        assert (out / name).exists(), name
    with open(out / "manifest.csv") as fh:
        rows = list(csv.reader(fh))
    manifest = dict(zip(rows[0], rows[1]))
    assert int(manifest["iterations"]) > 0
    assert float(manifest["rel_residual"]) <= 1e-10


_SWEEP_CONFIG = """
[run]
preset = fig3-esvm
[grid]
nx = 16
ny = 16
[control]
t_end = 0.004
[sweep]
eps = 0.1, 0.05
m = 30, 60
alpha = 1e-3, 5e-4
"""


def test_cli_sweep_writes_rows(tmp_path):
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text(_SWEEP_CONFIG)
    out = tmp_path / "sweep"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "eps" and len(rows) == 3
    assert all(r[-1] == "" for r in rows[1:])  # no error column entries


def _manifest(out):
    with open(out / "manifest.csv") as fh:
        return dict(zip(*csv.reader(fh)))


@pytest.mark.parametrize("config", ["fig3-esvm", "fig3-lesvm",
                                    "stationary", "sweep"])
def test_cli_runs_are_bitwise_reproducible(tmp_path, config):
    # the second run is made from the first run's config.ini alone
    text = {"stationary": _STATIONARY_CONFIG, "sweep": _SWEEP_CONFIG}
    first = ["run", config, "--grid", "16x16"]
    if config in text:
        (tmp_path / "config.ini").write_text(text[config])
        first = ["run", str(tmp_path / "config.ini")]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(first + ["--out", str(a)]) == 0
    assert run_cli(["run", str(a / "config.ini"), "--out", str(b)]) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    for name in names:
        if name != "manifest.csv":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ma, mb = _manifest(a), _manifest(b)
    assert (ma["model"], ma["config_hash"]) == (mb["model"], mb["config_hash"])


def test_cli_sweep_with_bad_initial_data_is_a_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text(_SWEEP_CONFIG + "[initial]\n"
                       "n1 = 0.6 -0.5 0.5 -0.5 0.5\n"
                       "n2 = 0.6 -0.5 0.5 -0.5 0.5\n")
    out = tmp_path / "sweep"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n1+n2 >= 1" in err
    # every row is still written, each with its error
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["error"].startswith("InitialDataError: ") for r in rows)
    assert _manifest(out)["status"] == "config_error"


def test_cli_sweep_with_a_failed_run_is_a_solver_failure(tmp_path, capsys,
                                                         monkeypatch):
    step_esvm = dynamics.step_esvm

    def failing(state, ctrl, params):
        if params.eps == 0.05:
            raise dynamics.StepFailure("dt collapsed")
        return step_esvm(state, ctrl, params)

    monkeypatch.setattr(dynamics, "step_esvm", failing)
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text(_SWEEP_CONFIG)
    out = tmp_path / "sweep"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 2
    assert "solver failure: dt collapsed" in capsys.readouterr().err
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["error"] == "" and float(rows[0]["overlap"]) >= 0.0
    assert rows[1]["error"] == "StepFailure: dt collapsed"
    assert _manifest(out)["status"] == "solver_failure"


@pytest.mark.parametrize("preset,module,step", [
    ("fig3-vm", dynamics, "step_vm"),
    ("fig3-lesvm", freeboundary, "step_limit")])
def test_cli_failed_run_keeps_the_records_observed(tmp_path, monkeypatch,
                                                   preset, module, step):
    inner, calls = getattr(module, step), []

    def third_fails(state, ctrl, params):
        calls.append(state.t)
        if len(calls) == 3:
            raise dynamics.StepFailure("third step fails")
        return inner(state, ctrl, params)

    monkeypatch.setattr(module, step, third_fails)
    out = tmp_path / "failed"
    assert run_cli(["run", preset, "--grid", "16x16", "--out", str(out)]) == 2
    with open(out / "records.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t" and len(rows) == 3
    assert float(rows[1][0]) < float(rows[2][0])
    assert _manifest(out)["status"] == "solver_failure"


@pytest.mark.parametrize("eps,m,alpha,bad", [
    ("0.1, -1", "30, 60", "1e-3, 5e-4", "eps = -1.0"),
    ("0.1, 0.05", "30, 0.5", "1e-3, 5e-4", "m = 0.5"),
    ("0.1, 0.05", "30, 60", "-1e-3, 5e-4", "alpha = -0.001")])
def test_cli_bad_sweep_tuple_is_a_config_error(tmp_path, capsys, eps, m,
                                               alpha, bad):
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text("[run]\npreset = fig3-esvm\n[grid]\nnx = 16\nny = 16\n"
                       "[control]\nt_end = 0.004\ndt = -1\n"
                       f"[sweep]\neps = {eps}\nm = {m}\nalpha = {alpha}\n")
    out = tmp_path / "sweep"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    # reported alongside the config's other violations
    assert "dt must be positive" in err and bad in err
    assert not (out / "sweep.csv").exists()


def test_cli_single_species_stationary_run(tmp_path):
    cfgfile = tmp_path / "one.ini"
    cfgfile.write_text("""
[run]
model = STATIONARY
[grid]
nx = 24
ny = 24
[params]
beta1 = 1.0
beta2 = 1.0
[initial]
n1 = 1.0 -0.4 0.4 -0.4 0.4
""")
    out = tmp_path / "one"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    with open(out / "jumps.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {r["interface"] for r in rows} == {"gamma1"}
    with open(out / "manifest.csv") as fh:
        head, vals = list(csv.reader(fh))
    manifest = dict(zip(head, vals))
    assert manifest["model"] == "STATIONARY"
    assert float(manifest["rel_residual"]) <= 1e-10
    assert int(manifest["iterations"]) > 0


def test_cli_limit_model_run(tmp_path):
    out = tmp_path / "lim"
    cfgfile = tmp_path / "lim.ini"
    cfgfile.write_text("""
[run]
preset = fig3-lesvm
[grid]
nx = 24
ny = 24
[control]
t_end = 0.01
""")
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 0
    with open(out / "records.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "area1", "area2", "gmres_iterations",
                       "rel_residual"]
    # each row records the stationary solve on that step's partition
    assert all(int(r[3]) > 0 for r in rows[1:])
    assert all(float(r[4]) <= brinkman.REL_TOL for r in rows[1:])
    assert (out / "partition.csv").exists()
    # the manifest carries the worst solve over the recorded rows
    with open(out / "manifest.csv") as fh:
        manifest = dict(zip(*csv.reader(fh)))
    assert manifest["status"] == "ok"
    assert int(manifest["max_gmres_iterations"]) == max(int(r[3])
                                                        for r in rows[1:])
    assert float(manifest["max_rel_residual"]) == max(float(r[4])
                                                      for r in rows[1:])


@pytest.mark.parametrize("model", harness.LIMIT_MODELS)
def test_limit_step_control_sets_only_what_the_limit_step_reads(model):
    # step_limit reads dt, cfl_number and t_end; the evolution settings of
    # the config do not reach its control
    cfg = replace(PRESETS["fig3-lesvm"], model=model, dt=2e-3, cfl=0.3,
                  t_end=0.05, velocity_law="gradient", scheme="sharp")
    assert harness.step_control(cfg) == dynamics.StepControl(
        dt=2e-3, cfl_number=0.3, t_end=0.05)


def test_cli_solver_failure_still_writes_the_manifest(tmp_path, monkeypatch,
                                                      capsys):
    # a zero tolerance cannot be met, so the first stationary solve fails
    monkeypatch.setattr(brinkman, "REL_TOL", 0.0)
    out = tmp_path / "failed"
    assert run_cli(["run", "fig3-lesvm", "--grid", "16x16",
                    "--out", str(out)]) == 2
    assert "solver failure" in capsys.readouterr().err
    with open(out / "manifest.csv") as fh:
        manifest = dict(zip(*csv.reader(fh)))
    assert manifest["status"] == "solver_failure"
    assert manifest["model"] == "L-ESVM" and manifest["nx"] == "16"
    assert float(manifest["wall_time_s"]) >= 0.0


def test_cli_overlapping_initial_rects_are_a_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "overlap.ini"
    cfgfile.write_text("""
[run]
preset = fig3-vm
[grid]
nx = 16
ny = 16
[initial]
n1 = 0.6 -0.5 0.5 -0.5 0.5
n2 = 0.6 -0.5 0.5 -0.5 0.5
""")
    out = tmp_path / "overlap"
    assert run_cli(["run", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n1+n2 >= 1" in err
    assert len(err.strip().splitlines()) == 1
    # found once the run directory exists, so the manifest says so
    with open(out / "manifest.csv") as fh:
        manifest = dict(zip(*csv.reader(fh)))
    assert manifest["status"] == "config_error"
    assert float(manifest["wall_time_s"]) >= 0.0


@pytest.mark.parametrize("key,value", [("dt", "abc"), ("t_end", "nope"),
                                       ("cfl", "2.0"), ("cfl", "0"),
                                       ("dt", "-1"), ("t_end", "-0.1"),
                                       ("observe_every", "0"),
                                       ("t_end", "inf"), ("dt", "nan"),
                                       ("x_max", "inf")])
def test_cli_bad_step_numbers_are_config_errors(tmp_path, capsys, key, value):
    line = f"{key} = {value}\n"
    section = {"observe_every": "run", "x_max": "grid"}.get(key, "control")
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text("[run]\npreset = fig3-vm\n" +
                       (line if section == "run" else f"[{section}]\n{line}"))
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("source", ["value", "file"])
def test_cli_negative_q_is_a_config_error(tmp_path, capsys, source):
    q_path = tmp_path / "q.csv"
    q = np.zeros((24, 24))
    q[5, 7] = -1e-3
    fieldio.write_scalar_csv(ScalarField(GridSpec(-1.0, 1.0, -1.0, 1.0,
                                                  24, 24), q), q_path)
    q_lines = ("source = uniform\nvalue = -1" if source == "value"
               else f"source = file\npath = {q_path}")
    cfgfile = tmp_path / "neg.ini"
    cfgfile.write_text("[run]\npreset = fig3-lesvm\n[grid]\nnx = 24\nny = 24\n"
                       f"[control]\nt_end = 0.01\n[q]\n{q_lines}\n")
    assert run_cli(["run", str(cfgfile), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "nonnegative" in err
    assert source == "value" or str(q_path) in err
    assert len(err.strip().splitlines()) == 1


_Q_FILE_CONFIG = """
[run]
model = {model}
[grid]
nx = {n}
ny = {n}
[params]
beta1 = 1.0
beta2 = 1.0
[initial]
n1 = 1.0 -0.4 0.4 -0.4 0.4
n2 = 1.0 0.45 0.8 -0.4 0.4
[q]
source = file
path = {q_path}
"""


def _run_with_q_file(tmp_path, q_path, model="STATIONARY", n=24):
    cfgfile = tmp_path / "stat.ini"
    cfgfile.write_text(_Q_FILE_CONFIG.format(model=model, q_path=q_path, n=n))
    return run_cli(["run", str(cfgfile), "--out", str(tmp_path / "stat")])


def test_cli_q_file_written_on_the_config_grid_is_read(tmp_path, capsys):
    # the header records x_min and hx, not x_max; on the default box
    # x_min + 49*hx is 0.9999999999999998
    q_path = tmp_path / "q.csv"
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 49, 49)
    fieldio.write_scalar_csv(ScalarField(grid, np.full((49, 49), 0.5)), q_path)
    assert _run_with_q_file(tmp_path, q_path, n=49) == 0, capsys.readouterr().err
    assert _manifest(tmp_path / "stat")["status"] == "ok"


@pytest.mark.parametrize("grid", [GridSpec(-1.0, 1.0, -1.0, 1.0, 16, 16),
                                  GridSpec(-2.0, 2.0, -2.0, 2.0, 24, 24)],
                         ids=["shape", "box"])
@pytest.mark.parametrize("model", ["STATIONARY", "L-ESVM"])
def test_cli_q_file_on_another_grid_is_a_config_error(tmp_path, capsys,
                                                       model, grid):
    # the config's grid is 24x24 on [-1, 1]^2
    q_path = tmp_path / "q.csv"
    fieldio.write_scalar_csv(ScalarField.zeros(grid), q_path)
    assert _run_with_q_file(tmp_path, q_path, model) == 1
    err = capsys.readouterr().err
    assert err == "config error: q lives on a different grid\n"
    assert _manifest(tmp_path / "stat")["status"] == "config_error"


@pytest.mark.parametrize("content", [None, "# nx ny\n# 24 24\n"],
                         ids=["missing", "two-token header"])
def test_cli_bad_q_path_is_a_config_error(tmp_path, capsys, content):
    q_path = tmp_path / "q.csv"
    if content is not None:
        q_path.write_text(content)
    assert _run_with_q_file(tmp_path, q_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(q_path) in err
    assert "Traceback" not in err


_TRACED_RUNS = """
import sys
sys.path[:0] = sys.argv[1:3]
import spans
tracer = spans.Tracer()
spans.install(tracer)
from tissueflow import freeboundary, harness
assert callable(harness.run) and callable(freeboundary.run_limit)
for preset, span in (("fig3-vm", "dynamics.step"),
                     ("fig3-lesvm", "freeboundary.step")):
    out = sys.argv[3] + "/" + preset
    assert harness.run_cli(["run", preset, "--grid", "16x16",
                            "--out", out]) == 0
    assert span in tracer.layers(), (span, sorted(tracer.layers()))
"""


def test_benchmark_tracer_finds_the_names_it_rebinds(tmp_path):
    # perfbench/spans.py and perfbench/worker.py look these names up in
    # the program's modules; a step looked up once, at import, would
    # escape the tracer and no step span would fire
    root = Path(__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", _TRACED_RUNS,
                    str(root / "src"), str(root / "perfbench"), str(tmp_path)],
                   check=True, timeout=300)


_UNTRACED_RUNS = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from tissueflow import brinkman, harness
out = Path(sys.argv[2])
(out / "stationary.ini").write_text(
    "[run]\\npreset = fig3-lesvm\\nmodel = STATIONARY\\n")
for config in ("fig3-vm", "fig3-esvm", "fig3-gradient-form", "fig3-lesvm",
               str(out / "stationary.ini")):
    assert harness.run_cli(["run", config, "--grid", "16x16", "--out",
                            str(out / Path(config).stem)]) == 0
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert scipy == ["scipy.fft._pocketfft.pypocketfft"], scipy
import scipy.sparse.linalg
assert brinkman.spla is scipy.sparse.linalg
assert not hasattr(brinkman, "no_such_name")
"""


def test_untraced_runs_do_not_import_sparse_linalg(tmp_path):
    # an untraced run of every model loads no scipy module but the
    # pocketfft extension; only the benchmark's tracer asks for
    # brinkman.spla, to count the factorisations of
    # scipy.sparse.linalg.splu
    root = Path(__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", _UNTRACED_RUNS, str(root / "src"),
                    str(tmp_path)], check=True, timeout=300)


_SCIPY_FFT_AFTER = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
if sys.argv[2] == "before":
    import scipy.fft
from tissueflow import brinkman, harness
if sys.argv[2] == "after":
    assert harness.run_cli(["run", "fig3-vm", "--grid", "16x16",
                            "--out", sys.argv[3]]) == 0
    assert "scipy.fft" not in sys.modules
    import scipy.fft
from scipy.fft._pocketfft import realtransforms
assert realtransforms.pfft is brinkman._pfft
assert sys.modules["scipy.fft._pocketfft.pypocketfft"] is brinkman._pfft
x = np.arange(6.0)
assert np.allclose(scipy.fft.idst(scipy.fft.dst(x, type=2), type=2), x)
"""


@pytest.mark.parametrize("scipy_fft", ["before", "after"])
def test_scipy_fft_shares_the_pocketfft_module(tmp_path, scipy_fft):
    # brinkman loads scipy's pocketfft extension under its own name; an
    # import of scipy.fft after a run reuses it, and one before it is
    # reused by brinkman, so the extension is never loaded twice
    root = Path(__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", _SCIPY_FFT_AFTER, str(root / "src"),
                    scipy_fft, str(tmp_path / "run")], check=True, timeout=300)


_ROOT = Path(__file__).resolve().parents[1]
_WORKLOADS = [w["name"] for w in
              json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_benchmark_worker_runs_clean(tmp_path, workload):
    # one traced member of each benchmark workload, as perfbench/run.py
    # starts it: a run failure or a lost span shows here, not only there
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--member", "0",
         "--trace", "1", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=_ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["coverage"] >= 0.9
