"""One benchmark simulation in a fresh process.

Runs one member of a workload's density sweep through the program's own
entry point, `harness.run_cli(["run", config.ini, "--out", DIR])`, exactly
as `tissueflow run` does.  The worker only rebinds the run loop the
harness calls (`harness.run`, `freeboundary.run_limit`) to note when the
first step starts, to check every accepted state and to keep the final
state.  The limit workload then measures the interface jumps on that
final state.  The outputs are checked and one JSON line is printed with
the timestamps, memory, checks and, when traced, the per-layer spans.

    python3 perfbench/worker.py --workload NAME --seed N --member K \
        --trace 0|1 --out DIR

Set-up and run are timed with `time.perf_counter`, which on Linux reads
the system-wide monotonic clock, so the parent can time set-up from the
moment it started this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    """Import tissueflow from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import tissueflow
    if Path(tissueflow.__file__).resolve().parent != SRC / "tissueflow":
        raise ImportError(f"tissueflow imported from {tissueflow.__file__}, "
                          f"not from {SRC}")


def _digest(arrays, out: Path) -> str:
    """Hash of the final in-memory fields and of every output file but the
    manifest, whose wall time differs between runs."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    for path in sorted(out.iterdir()):
        if path.name not in ("manifest.csv", "spans.jsonl"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class RunLoopHook:
    """Rebinds `module.name`, the run loop the harness calls.

    The hooked loop notes when the first step starts, runs `make_checks`'s
    observer on every state the harness's observers see (outside their
    records, and with its own time kept in `checks_s`) and keeps the
    final state.
    """

    def __init__(self, module, name, make_checks):
        self.t_first = None
        self.state = None
        self.checks = None
        self.checks_s = 0.0
        loop = getattr(module, name)

        def checked(observer):
            def observe(s, params):
                t0 = time.perf_counter()
                self.checks(s, params)
                self.checks_s += time.perf_counter() - t0
                return observer(s, params)
            return observe

        def hooked(state, ctrl, params, observers=(), observe_every=1):
            self.t_first = time.perf_counter()
            self.checks = make_checks(state, params)
            self.checks_s += time.perf_counter() - self.t_first
            records, self.state = loop(state, ctrl, params,
                                       observers=[checked(o) for o in observers],
                                       observe_every=observe_every)
            return records, self.state

        setattr(module, name, hooked)


def read_back(out: Path, fields: dict) -> list:
    """Messages for the written CSVs that do not read back bitwise."""
    from tissueflow import fieldio
    return [f"{name}.csv does not read back bitwise"
            for name, f in fields.items()
            if not (fieldio.read_scalar_csv(out / f"{name}.csv").values
                    == f.values).all()]


def dynamic_results(hook, cfg, out: Path):
    state, checks = hook.state, hook.checks
    failures = checks.final(state, cfg) + read_back(
        out, {"n1": state.n1, "n2": state.n2, "p1": state.p1, "p2": state.p2})
    arrays = [state.n1.values, state.n2.values, state.p1.values,
              state.p2.values, state.v1.u, state.v1.v, state.v2.u, state.v2.v]
    extra = {"steps": checks.steps, "min_dt": checks.min_dt,
             "cut_mass": checks.cut_mass,
             "negativity_cuts": state.counters.negativity}
    return failures, arrays, extra


def measure_jumps(hook, out: Path):
    """The paper's pressure-jump measurement on the final limit state."""
    from tissueflow import stationary
    sol, part = hook.state.sol, hook.state.part
    tables = [stationary.measure_jump(sol, part, qty)
              for qty in ("pressure", "v1", "v2")]
    stationary.write_jump_csv(tables, out / "jumps.csv")
    report = stationary.verify_transmission(sol, part)
    return {t.quantity: float(t.averages["gamma"]) for t in tables}, report


def limit_results(hook, cfg, out: Path, jumps, report):
    import numpy as np
    state, checks = hook.state, hook.checks
    failures = checks.final(state, cfg, jumps) + read_back(
        out, {"q": state.q, "p": state.sol.p})
    labels = np.loadtxt(out / "partition.csv", delimiter=",", dtype=int)
    if not (labels == state.part.labels).all():
        failures.append("partition.csv does not read back")
    arrays = [state.part.labels, state.q.values, state.sol.p.values,
              state.sol.v1.u, state.sol.v1.v, state.sol.v2.u, state.sol.v2.v]
    extra = {"steps": checks.steps, "pressure_jump": jumps["pressure"],
             "velocity_jump": max(jumps["v1"], jumps["v2"]),
             "max_transmission_residual": report.max_residual()}
    return failures, arrays, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--member", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import_program()
    from tissueflow import freeboundary, harness
    from checks import DynamicChecks, LimitChecks
    from workloads import WORKLOADS, make_config

    tracer = None
    if args.trace:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    w = WORKLOADS[args.workload]
    cfg = make_config(w, args.seed, args.member)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ini = out / "config.ini"
    ini.write_text(harness.serialize_config(cfg))
    if w.dynamic:
        hook = RunLoopHook(harness, "run", DynamicChecks)
    else:
        hook = RunLoopHook(freeboundary, "run_limit", LimitChecks)

    code = harness.run_cli(["run", str(ini), "--out", str(out)])
    if code != 0:
        print(f"tissueflow run exited with code {code}", file=sys.stderr)
        return 1
    if w.dynamic:
        t_last = time.perf_counter()
        failures, arrays, extra = dynamic_results(hook, cfg, out)
    else:
        jumps, report = measure_jumps(hook, out)
        t_last = time.perf_counter()
        failures, arrays, extra = limit_results(hook, cfg, out, jumps, report)

    if harness.config_hash(harness.parse_config(ini.read_text())) != harness.config_hash(cfg):
        failures.append("config.ini does not round-trip to the same config_hash")

    result = {"t_first": hook.t_first, "t_last": t_last,
              "checks_s": hook.checks_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "failures": failures, "digest": _digest(arrays, out), **extra}
    if tracer:
        tracer.dump(out / "spans.jsonl")
        result["layers"] = tracer.layers()
        result["counts"] = dict(tracer.counts)
        result["coverage"] = tracer.coverage(hook.t_first, t_last, hook.checks_s)
        result["field_bytes"] = sum(Path(p).stat().st_size for p in tracer.files)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
