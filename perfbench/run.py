"""Benchmark of tissueflow: four preset workloads, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A round runs each member of the workload's density sweep (see
workloads.py) in a fresh process, so every member pays the full set-up:
imports, config, initial data and the initial velocity or stationary
solve.  Rounds repeat until S seconds have passed; the last round always
completes.

--trace 0 reports the end-to-end metrics: the median set-up time of a
process, the median over rounds of the round's summed run time (first step
to last output file, less the time of the benchmark's own per-step
checks), and the largest peak resident memory.

--trace 1 reports the per-layer metrics from traced members, summed over a
round (median over rounds).  Each round first runs member 0 untraced; the
traced member 0 must write bitwise the same outputs, and the difference of
their run times is the tracing overhead.

Either way every member's outputs are checked (checks.py).  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; a failed check makes `correct` false and the exit code 1.
Per-member results and traced spans are kept under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0      # start no round that could end past this

# single-threaded BLAS: steadier timings on a shared machine, and no
# reduction-order differences between runs
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1")


def run_member(workload, seed, member, trace, out: Path):
    """Run one member in a fresh process; returns its result dict or None."""
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--member", str(member),
           "--trace", str(int(trace)), "--out", str(out)]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=ENV, cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"member {member}: killed after {WORKER_TIMEOUT_S:g} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"member {member}: exit {proc.returncode}\n{stderr}",
              file=sys.stderr)
        return None
    r = json.loads(stdout.strip().splitlines()[-1])
    r["setup_s"] = r["t_first"] - t_spawn
    # the benchmark's own per-step checks are not the program's time
    r["run_s"] = r["t_last"] - r["t_first"] - r["checks_s"]
    r.update(member=member, traced=bool(trace))
    (out / "result.json").write_text(json.dumps(r, indent=1))
    return r


def layer_metrics(members, overhead_s):
    """Per-layer metrics of one traced round (its members summed)."""
    self_s, calls, counts = {}, {}, {}
    for r in members:
        for name, (s, c) in r["layers"].items():
            self_s[name] = self_s.get(name, 0.0) + s
            calls[name] = calls.get(name, 0) + c
        for name, c in r["counts"].items():
            counts[name] = counts.get(name, 0) + c

    def total(key):
        return sum(r.get(key, 0) for r in members)

    steps = calls.get("dynamics.step", 0)
    trials = counts.get("dynamics.trials", 0)
    dynamic = [r for r in members if "min_dt" in r]
    m = {}
    for name in ("constitutive.pressure", "brinkman.dirichlet",
                 "brinkman.screened", "operators.assemble",
                 "dynamics.fourth_order", "dynamics.advect", "grid.laplacian",
                 "diagnostics.observe", "stationary.assemble",
                 "stationary.solve", "stationary.jumps",
                 "freeboundary.partition", "freeboundary.transport_q",
                 "fieldio.write"):
        m[f"{name}_s"] = (self_s.get(name, 0.0), "s")
    m["dynamics.step_self_s"] = (self_s.get("dynamics.step", 0.0), "s")
    m["freeboundary.step_self_s"] = (self_s.get("freeboundary.step", 0.0), "s")
    for metric, name in (("brinkman.dirichlet_calls", "brinkman.dirichlet"),
                         ("brinkman.screened_calls", "brinkman.screened"),
                         ("dynamics.fourth_order_calls", "dynamics.fourth_order"),
                         ("dynamics.steps", "dynamics.step"),
                         ("stationary.solves", "stationary.solve"),
                         ("freeboundary.steps", "freeboundary.step")):
        m[metric] = (calls.get(name, 0), "count")
    m["brinkman.factorisations"] = (counts.get("brinkman.factorisations", 0), "count")
    m["dynamics.trials"] = (trials, "count")
    m["dynamics.accept_ratio"] = (steps / trials if trials else 0.0, "ratio")
    m["dynamics.negativity_cuts"] = (total("negativity_cuts"), "count")
    m["dynamics.cut_mass"] = (total("cut_mass"), "mass")
    m["dynamics.min_dt"] = (min((r["min_dt"] for r in dynamic), default=0.0), "s")
    m["fieldio.bytes"] = (total("field_bytes"), "bytes")
    m["bench.checks_s"] = (total("checks_s"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.coverage"] = (min(r["coverage"] for r in members), "share")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tissueflow" / "__init__.py").is_file():
        print(f"no tissueflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    # (member, traced) in running order; a traced round first runs member 0 plain
    plan = [(k, args.trace) for k in range(WORKLOADS[args.workload].members)]
    if args.trace:
        plan.insert(0, (0, 0))

    out = OUT / args.workload
    if out.exists():
        shutil.rmtree(out)
    attempted = failed = 0
    failures, rounds = [], []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        results = []
        for member, trace in plan:
            attempted += 1
            r = run_member(args.workload, args.seed, member, trace,
                           out / f"round{len(rounds)}" / f"m{member}t{trace}")
            if r is None:
                failed += 1
                continue
            results.append(r)
            failures += [f"round {len(rounds)} member {member}: {f}"
                         for f in r["failures"]]
            print(f"round {len(rounds)} member {member} trace {trace}: "
                  f"setup {r['setup_s']:.3f} s, run {r['run_s']:.3f} s "
                  f"(checks {r['checks_s']:.3f} s excluded), "
                  f"steps {r['steps']}, peak {r['peak_rss_mb']:.1f} MB"
                  + (f", coverage {r['coverage']:.4f}" if trace else ""))
        rounds.append(results)
        now = time.perf_counter()
        if (now - start >= args.seconds
                or now - start + (now - t_round) > RUN_LIMIT_S):
            break

    metrics = {}
    complete = [rs for rs in rounds if len(rs) == len(plan)]
    if not complete:
        failures.append("no round completed")
    elif args.trace:
        per_round = []
        for rs in complete:
            plain, traced = rs[0], rs[1:]
            if plain["digest"] != traced[0]["digest"]:
                failures.append("traced outputs differ from the untraced run")
            cov = min(r["coverage"] for r in traced)
            if cov < 0.9:
                failures.append(f"top-level spans cover only {cov:.3f} of run_s")
            per_round.append(layer_metrics(traced,
                                           traced[0]["run_s"] - plain["run_s"]))
        for name, (_, unit) in per_round[0].items():
            metrics[name] = {"value": statistics.median(m[name][0] for m in per_round),
                             "unit": unit}
    else:
        done = [r for rs in complete for r in rs]
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in done),
                        "unit": "s"},
            "run_s": {"value": statistics.median(sum(r["run_s"] for r in rs)
                                                 for rs in complete),
                      "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in done),
                            "unit": "MB"},
        }

    for f in failures:
        print(f"CHECK FAILED: {f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
