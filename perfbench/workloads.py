"""The three workloads: their inputs, drawn from a seed, and their command lists.

shipped      the README's own use of the shipped sequence files and presets
echo-wide    hard-pulse traces over a 180 us window on a 2001-atom comb
echo-finite  finite-pulse traces with the ode engine on a 61-atom comb

All times below are microseconds; areas are in units of pi.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("shipped", "echo-wide", "echo-finite")

# echo-wide: sigma 1 MHz over +-5 sigma with 2001 atoms puts the comb revival
# 2*pi/d_delta at 200 us, beyond the 180 us window. r2 stays near 95 us so the
# longest pulse-free stretch, which sizes the program's dense phase matrix, is
# the last one (~85 us) on every seed.
WIDE_ENSEMBLE = {"sigma_hz": 1.0e6, "n_atoms": 2001, "span": 5.0}
WIDE_GRID = {"t_end": 180.0, "dt": 0.01}
WIDE_RANGES = {
    "area_d": (0.1, 0.5),
    "t_d": (0.0, 2.0),
    "t_r1": (16.0, 25.0),
    "c1_after_r1": (2.0, 8.0),
    "storage": (15.0, 30.0),  # c2 - c1
    "t_r2": (94.5, 95.5),
}

# echo-finite: 0.2 us square pulses; sigma 0.6 MHz over +-4 sigma with 61
# atoms puts the revival at 12.5 us, beyond the 9 us window.
FINITE_ENSEMBLE = {"sigma_hz": 0.6e6, "n_atoms": 61, "span": 4.0}
FINITE_GRID = {"t_end": 9.0, "dt": 0.01}
FINITE_DURATION = 0.2
FINITE_RANGES = {
    "area_d": (0.1, 0.5),
    "t_r1": (1.6, 2.0),
    "c1_gap": (0.2, 0.4),  # c1 start - r1 end
    "c2_gap": (0.6, 1.0),  # c2 start - c1 end
    "r2_after_e1": (1.2, 1.6),  # r2 centre - E1
}


def _draw(rng: random.Random, lo: float, hi: float, step: float) -> float:
    """Uniform on the grid lo, lo + step, ..., hi, so echo times land on samples."""
    k = rng.randint(0, round((hi - lo) / step))
    return round(lo + k * step, 6)


def _pulse(channel: str, area_pi: float, t_start: float, duration: float = 0.0) -> dict:
    return {"channel": channel, "area_pi": area_pi, "t_start": t_start, "duration": duration}


def wide_sequences(seed: int) -> dict[str, dict]:
    """A dr- and a cdr-pattern sequence sharing data, r1 and r2 pulses."""
    rng = random.Random(f"echo-wide:{seed}")
    r = WIDE_RANGES
    area_d = _draw(rng, *r["area_d"], 0.01)
    t_d = _draw(rng, *r["t_d"], 0.1)
    t_r1 = _draw(rng, *r["t_r1"], 0.1)
    t_c1 = round(t_r1 + _draw(rng, *r["c1_after_r1"], 0.1), 6)
    t_c2 = round(t_c1 + _draw(rng, *r["storage"], 0.1), 6)
    t_r2 = _draw(rng, *r["t_r2"], 0.1)
    optical = [
        _pulse(oracles.OPTICAL, area_d, t_d),
        _pulse(oracles.OPTICAL, 1.0, t_r1),
        _pulse(oracles.OPTICAL, 1.0, t_r2),
    ]
    control = [_pulse(oracles.CONTROL, 1.0, t_c1), _pulse(oracles.CONTROL, 1.0, t_c2)]
    common = {"ensemble": WIDE_ENSEMBLE, "grid": WIDE_GRID}
    return {
        "wide-dr": {"pulses": optical, **common},
        "wide-cdr": {"pulses": optical[:2] + control + optical[2:], **common},
    }


def finite_sequence(seed: int) -> dict:
    """A cdr-pattern sequence of square pulses."""
    rng = random.Random(f"echo-finite:{seed}")
    r = FINITE_RANGES
    w = FINITE_DURATION
    area_d = _draw(rng, *r["area_d"], 0.01)
    t_r1 = _draw(rng, *r["t_r1"], 0.02)
    t_c1 = round(t_r1 + w + _draw(rng, *r["c1_gap"], 0.02), 6)
    t_c2 = round(t_c1 + w + _draw(rng, *r["c2_gap"], 0.02), 6)
    e1 = 2.0 * (t_r1 + w / 2) - w / 2 + (t_c2 - t_c1)
    t_r2 = round(e1 + _draw(rng, *r["r2_after_e1"], 0.02) - w / 2, 6)
    pulses = [
        _pulse(oracles.OPTICAL, area_d, 0.0, w),
        _pulse(oracles.OPTICAL, 1.0, t_r1, w),
        _pulse(oracles.CONTROL, 1.0, t_c1, w),
        _pulse(oracles.CONTROL, 1.0, t_c2, w),
        _pulse(oracles.OPTICAL, 1.0, t_r2, w),
    ]
    return {"pulses": pulses, "ensemble": FINITE_ENSEMBLE, "grid": FINITE_GRID}


def write_inputs(workload: str, seed: int, work: Path) -> None:
    """Write the workload's input files into `work`."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "echo-wide":
        docs = wide_sequences(seed)
    elif workload == "echo-finite":
        docs = {"finite-cdr": finite_sequence(seed)}
    else:
        docs = {}
    for name, doc in docs.items():
        (work / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its output (stdout -> problems)."""

    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


def _echo(seq: str, out: Path, rng, engine: str = "hard") -> Op:
    check = oracles.check_hard_echo if engine == "hard" else oracles.check_finite_echo
    return Op(
        ("echo", "--seq", seq, "--engine", engine, "--out", str(out)),
        lambda stdout: check(seq, stdout, out, rng),
    )


def operations(workload: str, work: Path, rng) -> list[Op]:
    """The command list of one pass; paths are relative to the checkout root."""
    if workload == "echo-wide":
        return [_echo(str(work / f"{n}.json"), work / f"{n}.csv", rng) for n in ("wide-dr", "wide-cdr")]
    if workload == "echo-finite":
        return [_echo(str(work / "finite-cdr.json"), work / "finite-cdr.csv", rng, engine="ode")]
    if workload != "shipped":
        raise ValueError(f"unknown workload {workload!r}")

    sweeps = oracles.SweepOracle()
    areas_pi = {"phi_d": 0.1, "phi_r1": 1.0, "phi_c1": 1.0, "phi_c2": 1.0, "phi_r2": 1.0}
    figures, sweep_csv = work / "figures", work / "sweep.csv"
    ops = [_echo(f"sequences/{n}.json", work / f"{n}.csv", rng) for n in ("dr", "cdr")]
    ops += [
        Op(("verify",), oracles.check_verify),
        Op(("figures", "--out", str(figures)), lambda s: oracles.check_figures(s, sweeps)),
        Op(
            ("sweep", "--stage", "r2_cdr", "--varying", "phi_r2", "--phid", "0.1",
             "--steps", "401", "--out", str(sweep_csv)),
            lambda s: oracles.check_sweep(sweep_csv, "r2_cdr", "phi_r2", 0.0, 4.0, 401, areas_pi, sweeps),
        ),
    ]
    for phi0 in (0.01, math.pi):
        ops.append(
            Op(
                ("propagate", "--phi0", repr(phi0), "--alpha", "1.0", "--zmax", "2.0"),
                lambda s, p=phi0: oracles.check_propagate(s, p, 1.0, 2.0),
            )
        )
    ops.append(Op(("stages", "--phid", "0.1"), lambda s: oracles.check_stages(s, areas_pi)))
    return ops
