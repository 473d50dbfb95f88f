"""Reference physics for the benchmark's output checks, written apart from cdrecho.

Nothing here imports cdrecho. States follow one three-level atom per comb
member as a pure state psi, with rho = psi psi^dagger:

* The Hamiltonian is H = diag(0, delta, 0) - (Omega_12/2) G_12 - (Omega_23/2) G_23,
  where G_ij couples levels i and j, so d(rho)/dt = -i [H, rho].
* A square pulse is exp(-i H tau) from scipy.linalg.expm. A hard pulse is its
  zero-length limit exp(+i (area/2) G).
* The comb is n equally spaced detunings over [-span, span] * sigma with
  Gaussian weights summing to 1, and P(t) = sum_n w_n rho12_n(t).
* Echo times come from the phase ledger of the d, r1, (c1, c2), r2 pattern:
  E1 = 2 t_r1 - t_d + (t_c2 - t_c1) and E2 = 2 t_r2 - E1.

Every check takes the program's output and returns a list of problems; an
empty list means the output is correct. Tolerances are physical levels that
any correct method meets, not the digits today's code happens to print.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

US = 1e-6
PI = math.pi
OPTICAL = "optical12"
CONTROL = "control23"

# |P| tolerance, as a share of the echo amplitude sin(phi_d)/2. Hard traces are
# exact, so only the summation method's rounding is allowed (a chirp-z sum
# reaches ~1e-9); finite pulses also allow the time stepper's error.
HARD_P_TOL = 1e-7
FINITE_P_TOL = 1e-6
# Table values are printed with 12 significant digits and stay within [-1, 1].
TABLE_TOL = 1e-9
# `stages` prints 9 decimals.
STAGES_TOL = 2e-9

TRACE_COLUMNS = ("t_us", "re_p", "im_p", "abs_p", "rho11", "rho22", "rho33")
STAGE_AREAS = ("phi_d", "phi_r1", "phi_c1", "phi_c2", "phi_r2")
AREA_CHANNEL = {
    "phi_d": OPTICAL,
    "phi_r1": OPTICAL,
    "phi_c1": CONTROL,
    "phi_c2": CONTROL,
    "phi_r2": OPTICAL,
}
# pulses fired, in order, to reach each sweepable stage of the protocol
STAGE_PULSES = {
    "data": ("phi_d",),
    "r1": ("phi_d", "phi_r1"),
    "r2_dr": ("phi_d", "phi_r1", "phi_r2"),
    "c1": ("phi_d", "phi_r1", "phi_c1"),
    "c2": ("phi_d", "phi_r1", "phi_c1", "phi_c2"),
    "r2_cdr": STAGE_AREAS,
}


# --- propagators --------------------------------------------------------------


def coupling(channel: str) -> np.ndarray:
    """G for a channel: 1 on both off-diagonal entries of the driven pair."""
    i, j = (0, 1) if channel == OPTICAL else (1, 2)
    g = np.zeros((3, 3))
    g[i, j] = g[j, i] = 1.0
    return g


def pulse_propagator(channel: str, area) -> np.ndarray:
    """Hard pulse propagator exp(+i (area/2) G); broadcasts over an array of areas."""
    gen = 0.5j * np.multiply.outer(np.asarray(area, dtype=float), coupling(channel))
    return expm(gen)


def ground(n: int = 1) -> np.ndarray:
    psi = np.zeros((n, 3), dtype=complex)
    psi[:, 0] = 1.0
    return psi


def observables(psi: np.ndarray) -> dict[str, np.ndarray]:
    """Density-matrix entries of pure states psi (..., 3)."""
    return {
        "im_rho12": (psi[..., 0] * psi[..., 1].conj()).imag,
        "re_rho13": (psi[..., 0] * psi[..., 2].conj()).real,
        "rho11": np.abs(psi[..., 0]) ** 2,
        "rho22": np.abs(psi[..., 1]) ** 2,
        "rho33": np.abs(psi[..., 2]) ** 2,
    }


def stage_state(stage_names, areas: dict[str, np.ndarray | float]) -> np.ndarray:
    """Ground state after the named pulses fire in order; broadcasts over areas."""
    psi = None
    for name in stage_names:
        u = pulse_propagator(AREA_CHANNEL[name], areas[name])
        psi = u[..., :, 0] if psi is None else np.einsum("...ab,...b->...a", u, psi)
    return psi


# --- sequence files -------------------------------------------------------------


@dataclass(frozen=True)
class Pulse:
    channel: str
    area: float  # radians
    t0: float  # seconds
    dur: float  # seconds

    @property
    def center(self) -> float:
        return self.t0 + 0.5 * self.dur


@dataclass(frozen=True)
class Sequence:
    pulses: tuple[Pulse, ...]
    deltas: np.ndarray  # rad/s
    weights: np.ndarray
    t_end: float
    dt: float

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def sample_times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def read_sequence(path) -> Sequence:
    """A sequence file with every field present, in the file's own units."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    pulses = tuple(
        sorted(
            (
                Pulse(
                    channel=p["channel"],
                    area=p["area_pi"] * PI,
                    t0=p["t_start"] * US,
                    dur=p.get("duration", 0.0) * US,
                )
                for p in doc["pulses"]
            ),
            key=lambda p: p.t0,
        )
    )
    ens = doc["ensemble"]
    sigma = 2.0 * PI * ens["sigma_hz"]
    deltas = ens["span"] * sigma * np.linspace(-1.0, 1.0, ens["n_atoms"])
    weights = np.exp(-0.5 * (deltas / sigma) ** 2)
    weights /= weights.sum()
    return Sequence(pulses, deltas, weights, doc["grid"]["t_end"] * US, doc["grid"]["dt"] * US)


def ledger(seq: Sequence) -> list[tuple[float, int]]:
    """(time, sign of Im P) of E1 and E2 for a d, r1, (c1, c2), r2 pattern of pi pulses."""
    optical = [p for p in seq.pulses if p.channel == OPTICAL]
    control = [p for p in seq.pulses if p.channel == CONTROL]
    if len(optical) != 3 or len(control) not in (0, 2):
        raise ValueError("ledger needs three optical pulses and zero or two controls")
    d, r1, r2 = optical
    e1 = 2.0 * r1.center - d.center
    if control:
        e1 += control[1].center - control[0].center
    e2 = 2.0 * r2.center - e1
    sign_e2 = 1 if control else -1
    return [(e1, -sign_e2), (e2, sign_e2)]


def exact_trace(seq: Sequence, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(t) and mean populations at sorted times, by exact propagation per atom.

    A sample that falls on a hard pulse shows the state after the pulse.
    """
    n = seq.deltas.size
    level = np.column_stack([np.zeros(n), seq.deltas, np.zeros(n)])  # diag(H)
    psi = ground(n)
    pol = np.empty(times.size, dtype=complex)
    pops = np.empty((times.size, 3))
    k = 0
    now = 0.0

    def record(states):
        nonlocal k
        pol[k] = seq.weights @ (states[:, 0] * states[:, 1].conj())
        pops[k] = seq.weights @ np.abs(states) ** 2
        k += 1

    def free(states, h):
        return states * np.exp(-1j * level * h)

    for p in seq.pulses:
        while k < times.size and times[k] < p.t0:
            record(free(psi, times[k] - now))
        psi = free(psi, p.t0 - now)
        now = p.t0
        if p.dur == 0.0:
            psi = psi @ pulse_propagator(p.channel, p.area).T
            continue
        ham = np.zeros((n, 3, 3))
        ham[:, 1, 1] = seq.deltas
        ham -= 0.5 * (p.area / p.dur) * coupling(p.channel)
        end = p.t0 + p.dur
        while k < times.size and times[k] < end:
            u = expm(-1j * ham * (times[k] - now))
            record(np.einsum("nab,nb->na", u, psi))
        psi = np.einsum("nab,nb->na", expm(-1j * ham * p.dur), psi)
        now = end
    while k < times.size:
        record(free(psi, times[k] - now))
    return pol, pops


def hard_closed_form(seq: Sequence, times: np.ndarray) -> np.ndarray:
    """P(t) after the last pulse: +-(i/2) sin(phi_d) sum_n w_n exp(i delta_n (t - E2))."""
    (_, _), (e2, sign) = ledger(seq)
    amp = 0.5 * math.sin(seq.pulses[0].area)
    phase = np.exp(1j * np.multiply.outer(times - e2, seq.deltas))
    return sign * 1j * amp * (phase @ seq.weights)


# --- reading program output ------------------------------------------------------


@dataclass(frozen=True)
class Csv:
    meta: dict[str, str]
    columns: tuple[str, ...]
    rows: np.ndarray

    def col(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def parse_csv(text: str) -> Csv:
    lines = text.splitlines()
    meta = {}
    if lines and lines[0].startswith("# "):
        meta = dict(item.split("=", 1) for item in lines[0][2:].split())
        lines = lines[1:]
    columns = tuple(lines[0].split(","))
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], dtype=float)
    return Csv(meta, columns, rows.reshape(len(lines) - 1, len(columns)))


def read_csv(path) -> Csv:
    return parse_csv(Path(path).read_text(encoding="ascii"))


_EVENT = re.compile(
    r"^(E1|E2|other) (emissive|absorptive) t=(\S+)us \|P\|=(\S+) ImP=(\S+)$"
)


def echo_report(stdout: str) -> tuple[list[float], list[tuple[str, int, float, float]]]:
    """Predicted times (s) and (label, sign, time s, |P|) events from `echo` output."""
    predicted: list[float] = []
    events = []
    for line in stdout.splitlines():
        if line.startswith("predicted echo times (us): "):
            body = line.split(": ", 1)[1]
            if body != "none":
                predicted = [float(x) * US for x in body.split(", ")]
        m = _EVENT.match(line)
        if m:
            sign = 1 if m.group(2) == "emissive" else -1
            events.append((m.group(1), sign, float(m.group(3)) * US, float(m.group(4))))
    return predicted, events


# --- checks ----------------------------------------------------------------------


def _trace_shape(seq: Sequence, csv: Csv) -> list[str]:
    if csv.columns != TRACE_COLUMNS:
        return [f"trace columns {csv.columns}"]
    if csv.rows.shape[0] != seq.n_steps + 1:
        return [f"trace has {csv.rows.shape[0]} rows, want {seq.n_steps + 1}"]
    problems = []
    t_err = np.abs(csv.col("t_us") * US - seq.sample_times()).max()
    if t_err > 1e-6 * seq.dt:
        problems.append(f"sample times off the grid by {t_err:.2e} s")
    pol = csv.col("re_p") + 1j * csv.col("im_p")
    abs_err = np.abs(np.abs(pol) - csv.col("abs_p")).max()
    if abs_err > TABLE_TOL:
        problems.append(f"abs_p differs from |P| by {abs_err:.2e}")
    pop_sum = csv.col("rho11") + csv.col("rho22") + csv.col("rho33")
    sum_err = np.abs(pop_sum - 1.0).max()
    if sum_err > TABLE_TOL:
        problems.append(f"populations sum to 1 only within {sum_err:.2e}")
    return problems


def _compare(name, got, want, tol) -> list[str]:
    err = float(np.abs(got - want).max()) if got.size else 0.0
    return [f"{name} off by {err:.3e} (tol {tol:.1e})"] if err > tol else []


def _report_problems(stdout, expected, time_tol, amp=None) -> list[str]:
    """The printed ledger times, and an event of the right sign near each one;
    with `amp`, the E1 and E2 lines must also print that |P|."""
    predicted, events = echo_report(stdout)
    want = [t for t, _ in expected]
    if len(predicted) != len(want) or any(
        abs(a - b) > 1e-12 for a, b in zip(predicted, want)
    ):
        return [f"predicted echo times {predicted}, ledger says {want}"]
    problems = []
    for (t_e, sign), label in zip(expected, ("E1", "E2")):
        near = [e for e in events if abs(e[2] - t_e) <= time_tol and e[1] == sign]
        if not near:
            problems.append(f"no {label}-like event of sign {sign:+d} near {t_e / US:.6f} us")
    if amp is not None:
        for label, _, _, mag in events:
            if label in ("E1", "E2") and abs(mag - amp) > 1e-5 * amp:
                problems.append(f"{label} reported |P|={mag:.6e}, want {amp:.6e}")
    return problems


def check_hard_echo(seq_path, stdout: str, csv_path, rng) -> list[str]:
    """`echo` with hard pulses: echo times, signs, amplitudes and P(t) against the oracles."""
    seq = read_sequence(seq_path)
    csv = read_csv(csv_path)
    problems = _trace_shape(seq, csv)
    if problems:
        return problems
    times = seq.sample_times()
    pol = csv.col("re_p") + 1j * csv.col("im_p")
    amp = 0.5 * math.sin(seq.pulses[0].area)
    expected = ledger(seq)

    # populations are detuning-independent between hard pulses
    instants = np.array([p.t0 for p in seq.pulses])
    fired = np.searchsorted(instants, times, side="right")
    clear = np.min(np.abs(times[:, None] - instants[None, :]), axis=1) > 1e-3 * seq.dt
    psi = ground()
    stage_pops = [np.abs(psi[0]) ** 2]
    for p in seq.pulses:
        psi = psi @ pulse_propagator(p.channel, p.area).T
        stage_pops.append(np.abs(psi[0]) ** 2)
    want_pops = np.array(stage_pops)[fired[clear]]
    got_pops = csv.rows[clear][:, 4:7]
    problems += _compare("populations", got_pops, want_pops, TABLE_TOL)

    echo_idx = []
    for t_e, sign in expected:
        i = round(t_e / seq.dt)
        echo_idx += [i - 1, i, i + 1]
        if abs(i * seq.dt - t_e) > 1e-3 * seq.dt:
            problems.append(f"echo at {t_e} s is off the sample grid")
            continue
        if abs(abs(pol[i]) - amp) > HARD_P_TOL * amp:
            problems.append(f"|P| at echo {t_e / US:.3f} us is {abs(pol[i]):.9f}, want {amp:.9f}")
        if np.sign(pol[i].imag) != sign:
            problems.append(f"echo at {t_e / US:.3f} us has Im P {pol[i].imag:+.3e}, want sign {sign:+d}")

    n = times.size
    picks = np.unique(np.concatenate([rng.choice(n, size=min(n, 192), replace=False), echo_idx]))
    picks = picks[(picks >= 0) & (picks < n)]
    exact_p, _ = exact_trace(seq, times[picks])
    problems += _compare("P(t) against exact propagation", pol[picks], exact_p, HARD_P_TOL * amp)
    after = picks[times[picks] > seq.pulses[-1].t0 + 1e-3 * seq.dt]
    problems += _compare(
        "P(t) after the last pulse against the closed form",
        pol[after],
        hard_closed_form(seq, times[after]),
        HARD_P_TOL * amp,
    )
    problems += _report_problems(stdout, expected, 0.5 * seq.dt, amp)
    return problems


def check_finite_echo(seq_path, stdout: str, csv_path, rng) -> list[str]:
    """`echo --engine ode`: P(t) and populations against exact segment propagators,
    and a peak of the ledger's sign within one pulse length of each ledger time."""
    seq = read_sequence(seq_path)
    csv = read_csv(csv_path)
    problems = _trace_shape(seq, csv)
    if problems:
        return problems
    times = seq.sample_times()
    pol = csv.col("re_p") + 1j * csv.col("im_p")
    amp = 0.5 * math.sin(seq.pulses[0].area)
    tol = FINITE_P_TOL * amp

    n = times.size
    picks = np.sort(rng.choice(n, size=min(n, 96), replace=False))
    exact_p, exact_pops = exact_trace(seq, times[picks])
    problems += _compare("P(t) against exact propagation", pol[picks], exact_p, tol)
    problems += _compare("populations against exact propagation", csv.rows[picks][:, 4:7], exact_pops, tol)

    width = max(p.dur for p in seq.pulses)
    expected = ledger(seq)
    mag = np.abs(pol)
    for t_e, sign in expected:
        window = np.flatnonzero(np.abs(times - t_e) <= width)
        top = window[np.argmax(mag[window])]
        if top in (window[0], window[-1]):
            problems.append(f"no peak within {width / US:.2f} us of ledger time {t_e / US:.3f} us")
        elif np.sign(pol[top].imag) != sign:
            problems.append(f"peak near {t_e / US:.3f} us has Im P {pol[top].imag:+.3e}, want sign {sign:+d}")
    problems += _report_problems(stdout, expected, width)
    return problems


def check_verify(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passed = [ln for ln in lines if ln.startswith("PASS ")]
    if len(passed) != 6 or any(ln.startswith("FAIL ") for ln in lines):
        return [f"verify printed {len(passed)} PASS lines: {lines}"]
    return []


class SweepOracle:
    """Expected rows of sweep tables, memoised by the inputs that define them."""

    def __init__(self):
        self._memo: dict[tuple, dict[str, np.ndarray]] = {}

    def expected(self, stage: str, varying: str, fixed: dict[str, float], grid: np.ndarray):
        key = (stage, varying, tuple(sorted(fixed.items())), grid.tobytes())
        if key not in self._memo:
            areas = dict(fixed)
            areas[varying] = grid
            self._memo[key] = observables(stage_state(STAGE_PULSES[stage], areas))
        return self._memo[key]

    def check_table(self, csv: Csv, grid: np.ndarray | None = None) -> list[str]:
        """Every row equals the pulse-product state at that row's areas.

        The stage, the varied area and the fixed areas come from the table's
        metadata line; `grid`, when given, is the expected first column.
        """
        stage, varying = csv.meta.get("stage"), csv.meta.get("varying")
        if stage not in STAGE_PULSES or varying not in STAGE_PULSES[stage]:
            return [f"unknown stage/varying in metadata {csv.meta}"]
        if csv.columns[0] != f"{varying}_rad":
            return [f"first column {csv.columns[0]!r}"]
        x = csv.rows[:, 0]
        problems = []
        if grid is not None:
            if x.size != grid.size:
                return [f"{x.size} rows, want {grid.size}"]
            problems += _compare("area grid", x, grid, TABLE_TOL)
        fixed = {
            n: float(csv.meta[f"{n}_pi"]) * PI for n in STAGE_PULSES[stage] if n != varying
        }
        want = self.expected(stage, varying, fixed, x)
        for j, name in enumerate(csv.columns[1:], start=1):
            if name not in want:
                problems.append(f"unknown column {name!r}")
                continue
            problems += _compare(f"{stage}/{varying} {name}", csv.rows[:, j], want[name], TABLE_TOL)
        return problems


FIGURE_GRID = np.linspace(0.0, 4.0 * PI, 401)


def check_figures(stdout: str, oracle: SweepOracle) -> list[str]:
    paths = [ln.removeprefix("wrote ") for ln in stdout.splitlines() if ln.startswith("wrote ")]
    if len(set(paths)) != 14:
        return [f"figures wrote {len(set(paths))} files, want 14"]
    problems = []
    for path in paths:
        csv = read_csv(path)
        if csv.meta.get("figure") != Path(path).stem:
            problems.append(f"{path}: figure metadata {csv.meta.get('figure')!r}")
        problems += [f"{path}: {p}" for p in oracle.check_table(csv, FIGURE_GRID)]
    return problems


def check_sweep(csv_path, stage, varying, lo_pi, hi_pi, steps, fixed_pi, oracle) -> list[str]:
    csv = read_csv(csv_path)
    if (csv.meta.get("stage"), csv.meta.get("varying")) != (stage, varying):
        return [f"sweep metadata {csv.meta}"]
    problems = []
    for name, value in fixed_pi.items():
        if name != varying and name in STAGE_PULSES[stage]:
            if abs(float(csv.meta[f"{name}_pi"]) - value) > 1e-12:
                problems.append(f"sweep fixed {name} = {csv.meta[f'{name}_pi']}, want {value}")
    grid = np.linspace(lo_pi * PI, hi_pi * PI, steps)
    return problems + oracle.check_table(csv, grid)


def check_stages(stdout: str, areas_pi: dict[str, float]) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "stage,im_rho12,re_rho13,rho11,rho22,rho33":
        return [f"stages header {lines[:1]}"]
    rows = [ln.split(",") for ln in lines[1:]]
    labels = [r[0] for r in rows]
    if labels != ["D", "R1", "C1", "C2", "R2"]:
        return [f"stages rows {labels}"]
    areas = {n: v * PI for n, v in areas_pi.items()}
    problems = []
    for k, row in enumerate(rows):
        want = observables(stage_state(STAGE_AREAS[: k + 1], areas))
        got = np.array([float(x) for x in row[1:]])
        ref = np.array([want[c] for c in lines[0].split(",")[1:]])
        problems += _compare(f"stage {row[0]}", got, ref, STAGES_TOL)
    return problems


def check_propagate(stdout: str, phi0: float, alpha: float, zmax: float) -> list[str]:
    """Area samples against tan(phi/2) = tan(phi0/2) exp(-alpha z/2); a weak pulse
    also follows phi0 exp(-alpha z/2) and a pi area must not move."""
    csv = parse_csv(stdout)
    if csv.columns != ("z", "phi_rad") or csv.rows.shape[0] < 2:
        return [f"propagate table {csv.columns} with {csv.rows.shape[0]} rows"]
    z, phi = csv.col("z"), csv.col("phi_rad")
    problems = []
    if z[0] != 0.0 or abs(z[-1] - zmax) > 1e-12 * max(zmax, 1.0) or np.any(np.diff(z) <= 0):
        problems.append("z samples do not run from 0 to zmax")
    if abs(phi0 - PI) < 1e-12:
        return problems + _compare("pi area", phi, np.full_like(phi, PI), 1e-9)
    exact = 2.0 * np.arctan(math.tan(phi0 / 2.0) * np.exp(-0.5 * alpha * z))
    problems += _compare("area against the exact law", phi / phi0, exact / phi0, 1e-8)
    if abs(phi0) <= 0.05:
        weak = np.exp(-0.5 * alpha * z)
        problems += _compare("weak-pulse law", phi / phi0, weak, 1e-4)
    return problems
