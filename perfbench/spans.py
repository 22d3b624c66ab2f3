"""Span tracing of tissueflow from outside the package.

`install` rebinds the module-level names each tissueflow module looks up
at call time (for example `dynamics._solve_velocity`, or
`scipy.sparse.linalg` as the `spla` name each module sees) to timing
wrappers.  No source file changes, and the wrapped functions compute
exactly what they computed before, so a traced run writes the same bytes
as an untraced one.

Spans are kept in memory with parent links and written out when the run
ends.  A span's self time is its duration minus the time of its children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []     # [name, parent index or -1, start, end]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.files: list = []     # paths the field writers wrote

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, parent, time.perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name):
        """`name` is a span name or a function of the call's arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                return fn(*args, **kwargs)
        return traced

    def counted(self, fn, key):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counting

    def writer(self, fn, name):
        """Span around a field writer that also remembers the path written."""
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def writing(field, path, *args, **kwargs):
            self.files.append(str(path))
            return traced(field, path, *args, **kwargs)
        return writing

    def layers(self):
        """{span name: (summed self time in s, number of spans)}."""
        self_time = defaultdict(float)
        calls = Counter()
        for name, parent, start, end in self.spans:
            dur = end - start
            self_time[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= dur
        return {name: (self_time[name], calls[name]) for name in calls}

    def coverage(self, t0: float, t1: float, skip_s: float = 0.0) -> float:
        """Share of the window [t0, t1], less `skip_s` seconds spent
        outside the program, covered by top-level spans."""
        covered = sum(end - start for _, parent, start, end in self.spans
                      if parent < 0 and start >= t0 and end <= t1)
        return covered / (t1 - t0 - skip_s)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class _ModuleView:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Rebind the names the tissueflow modules call through to traced ones."""
    from tissueflow import (brinkman, diagnostics, dynamics, fieldio,
                            freeboundary, harness, stationary)

    def rebind(module, names, span):
        for name in names:
            setattr(module, name, tracer.wrap(getattr(module, name), span))

    # evolution models
    rebind(dynamics, ("total_pressures", "pressure_congestion"),
           "constitutive.pressure")
    dynamics._solve_velocity = tracer.wrap(
        dynamics._solve_velocity,
        lambda p, beta, ctrl: f"brinkman.{ctrl.velocity_law}")
    rebind(dynamics, ("upwind_flux_divergence", "sharp_flux_divergences"),
           "dynamics.advect")
    rebind(dynamics, ("_implicit_fourth_order",), "dynamics.fourth_order")
    rebind(dynamics, ("weighted_cell_flux_divergence", "cell_laplacian_neumann"),
           "operators.assemble")
    rebind(dynamics, ("laplacian",), "grid.laplacian")
    rebind(dynamics, ("step_esvm", "step_vm"), "dynamics.step")
    dynamics._tentative_densities = tracer.counted(
        dynamics._tentative_densities, "dynamics.trials")

    # velocity solves
    rebind(brinkman, ("solve_screened_potential",), "brinkman.screened")
    rebind(brinkman, ("face_stiffness_u", "face_stiffness_v",
                      "cell_laplacian_neumann"), "operators.assemble")
    brinkman.spla = _ModuleView(brinkman.spla, splu=tracer.counted(
        brinkman.spla.splu, "brinkman.factorisations"))

    # sharp-interface limit and the stationary problem
    rebind(freeboundary, ("step_limit",), "freeboundary.step")
    rebind(freeboundary, ("_advect_level", "rethreshold", "DomainPartition"),
           "freeboundary.partition")
    rebind(freeboundary, ("transport_q",), "freeboundary.transport_q")
    rebind(freeboundary, ("solve_stationary",), "stationary.solve")
    rebind(stationary, ("assemble_weak_form",), "stationary.assemble")
    rebind(stationary, ("divergence_matrix", "face_stiffness_u",
                        "face_stiffness_v"), "operators.assemble")
    rebind(stationary, ("measure_jump", "verify_transmission"),
           "stationary.jumps")

    # observers and output
    rebind(diagnostics, ("observe",), "diagnostics.observe")
    for name in ("write_scalar_csv", "write_scalar_vtk", "write_vector_vtk"):
        setattr(fieldio, name, tracer.writer(getattr(fieldio, name),
                                             "fieldio.write"))
    rebind(diagnostics, ("write_records_csv",), "io.records")
    rebind(freeboundary, ("write_partition_csv",), "io.records")
    rebind(stationary, ("write_jump_csv",), "io.records")
    rebind(harness, ("_write_manifest",), "io.records")
