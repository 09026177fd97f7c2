"""Outside-in layer tracing for the benchmark.

The tracer wraps public layer functions of the ``ionjump`` package from
outside the program: each wrapped call records a span (name, start,
end, parent span, run id) in memory.  A function is replaced in every
``ionjump`` module namespace that bound it by name, so a call through
``from .hamiltonians import build_pulse_hamiltonian`` in ``evolve`` is
traced as well as one through ``ionjump.hamiltonians``.  Symbols that a
later version of the program no longer has are reported as missing,
and the metrics derived from them are left out instead of failing.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass

#: Wrapped symbols: span name -> (module, attribute path).  Every public
#: function defined in ``ionjump.bounds`` is added by ``bounds_targets``.
TARGETS = {
    "cli.main": ("ionjump.cli", "main"),
    "atomic.load_database": ("ionjump.atomic", "load_database"),
    "tables.reproduce_table": ("ionjump.tables", "reproduce_table"),
    "gates.compile_gate": ("ionjump.gates", "compile_gate"),
    "gates.run_program_exact": ("ionjump.gates", "run_program_exact"),
    "hamiltonians.build_pulse_hamiltonian": ("ionjump.hamiltonians",
                                             "build_pulse_hamiltonian"),
    "register.apply_internal_unitary": ("ionjump.register", "apply_internal_unitary"),
    "evolve.run_trajectory": ("ionjump.evolve", "run_trajectory"),
    "evolve.JumpChannel.weight": ("ionjump.evolve", "JumpChannel.weight"),
    "evolve.JumpChannel.apply": ("ionjump.evolve", "JumpChannel.apply"),
    "dft.calibrate_gamma": ("ionjump.dft", "calibrate_gamma"),
    "dft.integrated_upper_population": ("ionjump.dft", "integrated_upper_population"),
    "dft.frequency_distribution": ("ionjump.dft", "frequency_distribution"),
    "dft.write_trajectories_csv": ("ionjump.dft", "write_trajectories_csv"),
    "dft.write_summary_json": ("ionjump.dft", "write_summary_json"),
    "dft.write_bins_csv": ("ionjump.dft", "write_bins_csv"),
}

WRITERS = ("dft.write_trajectories_csv", "dft.write_summary_json", "dft.write_bins_csv")
JUMP_SELECT = ("evolve.JumpChannel.weight", "evolve.JumpChannel.apply")


def bounds_targets() -> dict[str, tuple[str, str]]:
    """Every public function defined in ``ionjump.bounds``."""
    module = sys.modules["ionjump.bounds"]
    return {f"bounds.{name}": ("ionjump.bounds", name)
            for name, value in vars(module).items()
            if inspect.isfunction(value) and not name.startswith("_")
            and value.__module__ == module.__name__}


@dataclass
class Span:
    name: str
    start: float    # perf_counter at the call and at its return
    end: float
    parent: int     # index into Tracer.spans, -1 for a root span
    run: int        # id of the benchmark operation the span belongs to
    jumps: int | None   # emissions of a traced trajectory
    duration: float     # end - start, or that at the reference speed


class Tracer:
    """Installs span-recording wrappers and derives layer metrics."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.run = 0
        self.missing: list[str] = []
        self._bound_names: tuple[str, ...] = ()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                jumps = getattr(result, "emitted_count", None)
                tracer.spans[index] = Span(name, start, end, parent, tracer.run, jumps,
                                           end - start)

        return wrapper

    def install(self) -> None:
        """Wrap every target in each ``ionjump`` namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ionjump" or n.startswith("ionjump."))]
        bounds = bounds_targets()
        self._bound_names = tuple(bounds)
        for name, (module_name, path) in {**TARGETS, **bounds}.items():
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:   # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "run": span.run,
                }) + "\n")

    # -- derived metrics ------------------------------------------------------

    def correct(self, probe) -> None:
        """Set each span's duration at the reference speed.

        Every span takes the speed of its root span (the CLI call it
        belongs to), so a parent's time still covers its children's and
        self times stay consistent.
        """
        roots: list[int] = []
        speeds: dict[int, float] = {}
        for index, span in enumerate(self.spans):
            root = index if span.parent < 0 else roots[span.parent]
            roots.append(root)
            if root not in speeds:
                speeds[root] = probe.speed(span.start, span.end)
            span.duration = (span.end - span.start
                             - probe.probe_time(span.start, span.end)) * speeds[root]

    @functools.cached_property
    def _covered(self) -> list[float]:
        """Per span, the time its direct children cover (tracing done)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return covered

    def _has_ancestor(self, span: Span, names: tuple[str, ...]) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name in names:
                return True
        return False

    def outer_time(self, *names: str) -> float:
        """Time inside spans of ``names``, nested calls counted once."""
        return sum(s.duration for s in self.spans
                   if s.name in names and not self._has_ancestor(s, names))

    def count(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def self_time(self, *names: str) -> float:
        """Span time of ``names`` minus the part their child spans cover."""
        return sum(s.duration - self._covered[i] for i, s in enumerate(self.spans)
                   if s.name in names)

    def layer_metrics(self, pulses_per_program: int, write_bytes: int,
                      pulse_times: list[float] | None) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (value, unit) of the traced operations.

        ``pulse_times`` are the benchmark's own one-pulse timings, None
        when the program lacks the function they call.  Metrics whose
        wrapped symbol is missing are omitted.
        """
        traj = [s for s in self.spans if s.name == "evolve.run_trajectory"]
        pilots = [s for s in traj if self._has_ancestor(s, ("dft.calibrate_gamma",))]
        traj_ms = [1e3 * s.duration for s in traj]
        jumps = sum(s.jumps or 0 for s in traj)
        ops = self.count("cli.main")
        ops_time = self.outer_time("cli.main")
        builds = self.count("hamiltonians.build_pulse_hamiltonian")
        out = {
            "evolve.trajectories": (len(traj), "count"),
            "evolve.traj_self_s": (self.self_time("evolve.run_trajectory"), "s"),
            "evolve.traj_p50_ms": (_quantile(traj_ms, 0.5), "ms"),
            "evolve.traj_p90_ms": (_quantile(traj_ms, 0.9), "ms"),
            "evolve.jumps": (jumps, "count"),
            "evolve.jumps_per_traj": (jumps / len(traj) if traj else 0.0, "jumps/traj"),
            "evolve.jump_select_s": (self.outer_time(*JUMP_SELECT), "s"),
            "hamiltonians.builds": (builds, "count"),
            "hamiltonians.build_s": (
                self.outer_time("hamiltonians.build_pulse_hamiltonian"), "s"),
            "hamiltonians.builds_per_pulse": (
                builds / (pulses_per_program * ops) if pulses_per_program and ops else 0.0,
                "ratio"),
            "dft.calibrate_s": (self.outer_time("dft.calibrate_gamma"), "s"),
            "dft.pilot_trajectories": (len(pilots), "count"),
            "dft.pilot_share": (
                sum(s.duration for s in pilots) / ops_time if ops_time else 0.0, "share"),
            "dft.integrate_s": (self.outer_time("dft.integrated_upper_population"), "s"),
            "dft.readout_s": (self.outer_time("dft.frequency_distribution"), "s"),
            "dft.write_s": (self.outer_time(*WRITERS), "s"),
            "dft.write_bytes": (write_bytes, "bytes"),
            "register.instant_gates": (self.count("register.apply_internal_unitary"), "count"),
            "register.instant_s": (self.outer_time("register.apply_internal_unitary"), "s"),
            "gates.compile_s": (self.outer_time("gates.compile_gate"), "s"),
            "gates.exact_s": (self.outer_time("gates.run_program_exact"), "s"),
            "cli.calls": (ops, "count"),
            "cli.self_s": (self.self_time("cli.main"), "s"),
            "atomic.load_calls": (self.count("atomic.load_database"), "count"),
            "atomic.load_s": (self.outer_time("atomic.load_database"), "s"),
            "tables.reproduce_calls": (self.count("tables.reproduce_table"), "count"),
            "tables.reproduce_s": (self.outer_time("tables.reproduce_table"), "s"),
        }
        if pulse_times is not None:
            out["evolve.pulse_p50_ms"] = (_quantile([1e3 * t for t in pulse_times], 0.5),
                                          "ms")
        out["bounds.calls"] = (self.count(*self._bound_names), "count")
        out["bounds.self_s"] = (self.self_time(*self._bound_names), "s")
        return {name: value for name, value in out.items()
                if not _depends_on_missing(name, self.missing)}


#: Span names each metric is derived from, where a missing one voids it.
_METRIC_SOURCES = {
    "evolve.trajectories": ("evolve.run_trajectory",),
    "evolve.traj_self_s": ("evolve.run_trajectory",),
    "evolve.traj_p50_ms": ("evolve.run_trajectory",),
    "evolve.traj_p90_ms": ("evolve.run_trajectory",),
    "evolve.jumps": ("evolve.run_trajectory",),
    "evolve.jumps_per_traj": ("evolve.run_trajectory",),
    "evolve.jump_select_s": JUMP_SELECT,
    "hamiltonians.builds": ("hamiltonians.build_pulse_hamiltonian",),
    "hamiltonians.build_s": ("hamiltonians.build_pulse_hamiltonian",),
    "hamiltonians.builds_per_pulse": ("hamiltonians.build_pulse_hamiltonian",),
    "dft.calibrate_s": ("dft.calibrate_gamma",),
    "dft.pilot_trajectories": ("dft.calibrate_gamma", "evolve.run_trajectory"),
    "dft.pilot_share": ("dft.calibrate_gamma", "evolve.run_trajectory"),
    "dft.integrate_s": ("dft.integrated_upper_population",),
    "dft.readout_s": ("dft.frequency_distribution",),
    "dft.write_s": WRITERS,
    "register.instant_gates": ("register.apply_internal_unitary",),
    "register.instant_s": ("register.apply_internal_unitary",),
    "gates.compile_s": ("gates.compile_gate",),
    "gates.exact_s": ("gates.run_program_exact",),
    "atomic.load_calls": ("atomic.load_database",),
    "atomic.load_s": ("atomic.load_database",),
    "tables.reproduce_calls": ("tables.reproduce_table",),
    "tables.reproduce_s": ("tables.reproduce_table",),
}


def _depends_on_missing(metric: str, missing: list[str]) -> bool:
    return any(name in missing for name in _METRIC_SOURCES.get(metric, ()))


def _quantile(values: list[float], q: float) -> float:
    """Inclusive quantile of ``values``; 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
