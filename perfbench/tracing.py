"""Spans and counts around calls into cdrecho's public functions, installed from outside.

`Tracer.install()` replaces each probed function, wherever a cdrecho module
holds a reference to it (including tuples such as verify.CHECKS), with a
wrapper that records a span (id, parent, name, start, end) and updates the
probe's counters. `uninstall()` puts every original back. A span's name is
the per-layer metric its self time adds to; self time is the span's length
minus the length of its child spans.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

VERIFY_CHECKS = (
    "weak_chain",
    "half_pi_chain",
    "control_recovery",
    "engine_agreement",
    "rate_equations",
    "area_propagation",
)


def _simulate_metric(a) -> str:
    return "ensemble.simulate_ode_s" if a["engine"] == "ode" else "ensemble.simulate_hard_s"


def _count_samples(counts, a, result):
    counts["ensemble.atom_samples"] += a["spec"].n_atoms * len(result.times)


def _count_other(counts, a, result):
    counts["ensemble.other_peaks"] += sum(e.label == "other" for e in result.events)


def _count_csv(counts, a, result):
    counts["csvio.rows"] += a["table"].rows.shape[0]
    counts["csvio.bytes"] += len(result.encode("ascii"))


def _count_points(counts, a, result):
    counts["sweeps.points"] += a["spec"].steps


def _count_rk4(counts, a, result):
    # the integrator's documented contract: [0, t_end] is cut at every pulse
    # edge and each piece is divided into ceil(length / dt) equal steps
    seq, dt = a["seq"], a["dt"]
    cuts = sorted({0.0, seq.t_end, *(p.t_start for p in seq.pulses), *(p.t_end for p in seq.pulses)})
    counts["integrator.rk4_steps"] += sum(
        max(1, math.ceil((b - c) / dt - 1e-9)) for c, b in zip(cuts, cuts[1:]) if b > c
    )


def _count_area(counts, a, result):
    counts["area.steps"] += len(result) - 1


@dataclass(frozen=True)
class Probe:
    module: str
    function: str
    metric: str | Callable[[dict], str]
    count: Callable | None = None
    alloc_metric: str | None = None


PROBES = (
    Probe("cli", "cli_main", "cli.self_s"),
    Probe("seqfile", "parse_sequence_file", "seqfile.parse_s"),
    Probe("ensemble", "time_grid", "ensemble.time_grid_s"),
    Probe("ensemble", "simulate_ensemble", _simulate_metric, _count_samples,
          "ensemble.simulate_peak_alloc_mb"),
    Probe("ensemble", "predict_echo_times", "ensemble.predict_echo_times_s"),
    Probe("ensemble", "detect_echoes", "ensemble.detect_echoes_s", _count_other),
    Probe("csvio", "render_csv", "csvio.render_csv_s", _count_csv),
    Probe("sweeps", "figure_dataset", "sweeps.figure_dataset_s"),
    Probe("sweeps", "run_sweep", "sweeps.run_sweep_s", _count_points),
    Probe("stages", "stage_chain", "stages.stage_chain_s"),
    Probe("unitary", "run_sequence_hard", "unitary.run_sequence_hard_s"),
    Probe("integrator", "integrate_sequence", "integrator.integrate_sequence_s", _count_rk4),
    Probe("area", "propagate_area", "area.propagate_area_s", _count_area),
    *(Probe("verify", f"check_{c}", f"verify.check_{c}_s") for c in VERIFY_CHECKS),
)

TIME_METRICS = (
    *(p.metric for p in PROBES if isinstance(p.metric, str)),
    "ensemble.simulate_hard_s",
    "ensemble.simulate_ode_s",
)
COUNT_METRICS = (
    "ensemble.atom_samples",
    "ensemble.other_peaks",
    "csvio.rows",
    "csvio.bytes",
    "sweeps.points",
    "integrator.rk4_steps",
    "area.steps",
)


class Tracer:
    """Records spans and counts while installed; `measure_alloc` also takes the
    tracemalloc peak inside probes that name an alloc metric."""

    def __init__(self, measure_alloc: bool = False):
        self.measure_alloc = measure_alloc
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, probe: Probe, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            name = probe.metric(a) if callable(probe.metric) else probe.metric
            sid = len(self.spans)
            self.spans.append([sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0])
            self._stack.append(sid)
            alloc = self.measure_alloc and probe.alloc_metric
            if alloc:
                tracemalloc.start()
            self.spans[sid][3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid][4] = time.perf_counter()
                self._stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[probe.alloc_metric] = max(self.peaks.get(probe.alloc_metric, 0.0), peak)
            if probe.count is not None:
                probe.count(self.counts, a, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "cdrecho" or n.startswith("cdrecho.")]
        for probe in PROBES:
            orig = getattr(sys.modules[f"cdrecho.{probe.module}"], probe.function)
            wrapper = self._wrap(probe, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        new = wrapper
                    elif isinstance(value, tuple) and any(v is orig for v in value):
                        new = tuple(wrapper if v is orig else v for v in value)
                    else:
                        continue
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name; every probed metric is present."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return out
