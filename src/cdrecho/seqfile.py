"""JSON pulse-sequence files.

External units are experiment-friendly: times and durations in microseconds,
ensemble width in Hz, areas in units of pi. Parsing converts to the internal
SI units (seconds, rad/s, radians). Example:

    {
      "pulses": [
        {"channel": "optical12", "area_pi": 0.1, "t_start": 0.0, "duration": 0.0}
      ],
      "ensemble": {"sigma_hz": 1e6, "n_atoms": 201, "span": 5.0},
      "grid": {"t_end": 45.0, "dt": 0.005}
    }

"pulses" is required (may be empty); "ensemble" and "grid" fall back to the
defaults below. Default t_end is twice the last pulse end; default dt
resolves the fastest comb beat with 40 samples per period. A field not shown
here is refused, so a misspelt one cannot silently take its default.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .ensemble import (
    DEFAULT_N_ATOMS,
    DEFAULT_SIGMA,
    DEFAULT_SPAN,
    EnsembleSpec,
    check_trace_budget,
    time_grid,
)
from .states import Channel, Pulse, PulseOverlapError, PulseSequence

__all__ = [
    "SequenceFileError",
    "parse_sequence_file",
]

US = 1e-6
TWO_PI = 2.0 * math.pi

_CHANNELS = {c.value: c for c in Channel}


class SequenceFileError(ValueError):
    """Parse or validation failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def _default_dt(spec: EnsembleSpec) -> float:
    """40 samples per period of the largest comb detuning, in seconds."""
    edge_hz = spec.span * spec.sigma / TWO_PI
    if edge_hz <= 0:
        return 1e-7
    return 1.0 / (40.0 * edge_hz)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SequenceFileError("MISSING_REQUIRED_FIELD", f"{where} is missing {key!r}")
    return obj[key]


def _known(obj: dict, fields: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in fields:
            raise SequenceFileError(
                "INVALID_VALUE", f"{where} has unknown field {key!r} (known: {', '.join(fields)})"
            )


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SequenceFileError("INVALID_VALUE", f"{where} must be a number, got {value!r}")
    try:
        number = float(value)  # an int beyond the float range overflows here
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SequenceFileError("INVALID_VALUE", f"{where} must be finite")
    return number


def parse_sequence_file(text: str) -> tuple[PulseSequence, EnsembleSpec, np.ndarray]:
    """Parse JSON text into a sequence, ensemble spec and sample times.

    The times are time_grid(seq.t_end, dt) in seconds. A window whose echo run
    would pass the trace budget is refused with PROBLEM_TOO_LARGE before they
    exist.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SequenceFileError(
            "SYNTAX_ERROR", f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SequenceFileError("SYNTAX_ERROR", "top level must be an object")
    _known(doc, ("pulses", "ensemble", "grid"), "sequence")

    raw_pulses = _require(doc, "pulses", "sequence")
    if not isinstance(raw_pulses, list):
        raise SequenceFileError("INVALID_VALUE", "'pulses' must be a list")
    pulses = []
    for k, entry in enumerate(raw_pulses):
        where = f"pulses[{k}]"
        if not isinstance(entry, dict):
            raise SequenceFileError("INVALID_VALUE", f"{where} must be an object")
        _known(entry, ("channel", "area_pi", "t_start", "duration"), where)
        chan_name = _require(entry, "channel", where)
        if chan_name not in _CHANNELS:
            raise SequenceFileError(
                "UNKNOWN_CHANNEL",
                f"{where} channel {chan_name!r} is not one of {sorted(_CHANNELS)}",
            )
        area = _number(_require(entry, "area_pi", where), f"{where}.area_pi") * math.pi
        t_start = _number(_require(entry, "t_start", where), f"{where}.t_start") * US
        duration = _number(entry.get("duration", 0.0), f"{where}.duration") * US
        try:
            pulses.append(
                Pulse(
                    channel=_CHANNELS[chan_name],
                    area=area,
                    t_start=t_start,
                    duration=duration,
                )
            )
        except ValueError as exc:
            raise SequenceFileError("INVALID_VALUE", f"{where}: {exc}") from exc

    ens_doc = doc.get("ensemble", {})
    if not isinstance(ens_doc, dict):
        raise SequenceFileError("INVALID_VALUE", "'ensemble' must be an object")
    _known(ens_doc, ("sigma_hz", "n_atoms", "span"), "ensemble")
    sigma_hz = _number(ens_doc.get("sigma_hz", DEFAULT_SIGMA / TWO_PI), "ensemble.sigma_hz")
    n_atoms = ens_doc.get("n_atoms", DEFAULT_N_ATOMS)
    if isinstance(n_atoms, bool) or not isinstance(n_atoms, int):
        raise SequenceFileError("INVALID_VALUE", "ensemble.n_atoms must be an integer")
    span = _number(ens_doc.get("span", DEFAULT_SPAN), "ensemble.span")
    try:
        spec = EnsembleSpec(sigma=TWO_PI * sigma_hz, n_atoms=n_atoms, span=span)
    except ValueError as exc:
        raise SequenceFileError("INVALID_VALUE", f"ensemble: {exc}") from exc

    pulses.sort(key=lambda p: p.t_start)  # files may list pulses in any order

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise SequenceFileError("INVALID_VALUE", "'grid' must be an object")
    _known(grid_doc, ("t_end", "dt"), "grid")
    last_end = max((p.t_end for p in pulses), default=0.0)
    t_end = (
        _number(grid_doc["t_end"], "grid.t_end") * US
        if "t_end" in grid_doc
        else 2.0 * last_end
    )
    if "dt" in grid_doc:
        dt = _number(grid_doc["dt"], "grid.dt") * US
        if dt <= 0:
            raise SequenceFileError("INVALID_VALUE", "dt must be positive")
    else:
        dt = _default_dt(spec)
        if not 0.0 < dt < math.inf:
            raise SequenceFileError(
                "INVALID_VALUE",
                f"ensemble sigma_hz {sigma_hz:g} and span {span:g} give no default dt "
                f"({dt:g} s); set grid.dt",
            )
    try:
        seq = PulseSequence(pulses=tuple(pulses), t_end=t_end)
    except PulseOverlapError as exc:
        raise SequenceFileError("OVERLAPPING_PULSES", str(exc)) from exc
    except ValueError as exc:
        raise SequenceFileError("INVALID_VALUE", str(exc)) from exc
    longest = max((p.duration for p in pulses), default=0.0)
    try:
        check_trace_budget(
            spec.n_atoms, t_end / dt + 2.0, longest / dt + 1.0 if longest else 0.0
        )
    except ValueError as exc:
        raise SequenceFileError("PROBLEM_TOO_LARGE", str(exc)) from exc
    return seq, spec, time_grid(t_end, dt)

