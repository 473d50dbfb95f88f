"""Cross-validation suite wired to the `verify` CLI subcommand.

Each check pits one implementation route against an independent one (closed
forms vs unitary composition vs RK4, elementwise rate equations vs a matrix
commutator, closed-form area law vs the weak-pulse decay law) and reports
the worst deviation against a fixed tolerance.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .area import propagate_area
from .integrator import _rhs_elements, integrate_sequence
from .stages import CANONICAL, HALF_PI, after_c2, after_r1, after_r2_cdr, stage_chain
from .states import AtomParams, Channel, Pulse, PulseSequence, ground_state
from .unitary import run_sequence_hard

__all__ = ["Check", "run_checks"]

PI = math.pi


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    deviation: float
    tolerance: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" {self.note}" if self.note else ""
        return (
            f"{status} {self.name}: deviation {self.deviation:.3e}"
            f" (tol {self.tolerance:.1e}){extra}"
        )


def check_weak_chain() -> Check:
    """Stage coherences for the weak data pulse against their exact values."""
    a = 0.5 * math.sin(0.1 * PI)
    expected = [-a, +a, 0.0, -a, +a]
    chain = stage_chain(CANONICAL)
    final = chain[-1][1]
    devs = [abs(float(state[0, 1].imag) - e) for (_, state), e in zip(chain, expected)]
    devs.append(abs(float(final[2, 2].real)))
    devs.append(abs(float(final[1, 1].real) - math.sin(0.05 * PI) ** 2))
    dev = max(devs)
    return Check("weak-data-chain", dev <= 1e-9, dev, 1e-9)


def check_half_pi_chain() -> Check:
    """Stage coherences for a pi/2 data pulse: -1/2, +1/2, 0, -1/2, +1/2."""
    expected = [-0.5, +0.5, 0.0, -0.5, +0.5]
    chain = stage_chain(HALF_PI)
    dev = max(abs(float(state[0, 1].imag) - e) for (_, state), e in zip(chain, expected))
    return Check("half-pi-chain", dev <= 1e-9, dev, 1e-9)


def check_control_recovery() -> Check:
    """A 4pi control total restores the pre-control state; 2pi negates rho12."""
    base = after_r1(0.1 * PI, PI)
    restored = after_c2(0.1 * PI, PI, 2.0 * PI, 2.0 * PI)
    dev4 = float(np.abs(restored - base).max())

    negated = base.copy()
    negated[0, 1] *= -1.0
    negated[1, 0] *= -1.0
    flipped = after_c2(0.1 * PI, PI, PI, PI)
    dev2 = float(np.abs(flipped - negated).max())
    dev = max(dev4, dev2)
    return Check("control-recovery", dev <= 1e-12, dev, 1e-12)


def _canonical_sequence(duration: float) -> PulseSequence:
    """The five CANONICAL pulses (data, r1, c1, c2, r2) starting 2 us apart
    in a 10 us window; duration 0 gives hard pulses."""
    order = [
        (Channel.OPTICAL12, CANONICAL.phi_d),
        (Channel.OPTICAL12, CANONICAL.phi_r1),
        (Channel.CONTROL23, CANONICAL.phi_c1),
        (Channel.CONTROL23, CANONICAL.phi_c2),
        (Channel.OPTICAL12, CANONICAL.phi_r2),
    ]
    pulses = tuple(
        Pulse(channel=c, area=a, t_start=2e-6 * i, duration=duration)
        for i, (c, a) in enumerate(order)
    )
    return PulseSequence(pulses=pulses, t_end=1e-5)


def check_engine_agreement() -> Check:
    """Closed forms, hard-pulse unitaries and RK4 give one final state."""
    analytic = after_r2_cdr(*astuple(CANONICAL))
    atom = AtomParams()
    seq = _canonical_sequence(0.0)
    _, hard = run_sequence_hard(ground_state(), seq, atom, [seq.t_end])
    _, states = integrate_sequence(
        ground_state(), _canonical_sequence(1e-6), atom, dt=1e-9, sample_stride=50
    )
    dev = float(np.abs(np.stack([hard[-1], states[-1]]) - analytic).max())
    traces = np.trace(states, axis1=1, axis2=2).real
    purities = np.trace(states @ states, axis1=1, axis2=2).real
    drift = float(max(np.abs(traces - 1.0).max(), np.abs(purities - 1.0).max()))
    ok = dev <= 1e-8 and drift <= 1e-9
    return Check(
        "engine-agreement", ok, dev, 1e-8, note=f"trace/purity drift {drift:.1e}"
    )


def _commutator_oracle(rho: np.ndarray, oj: np.ndarray, ok_: np.ndarray) -> np.ndarray:
    """-i[H, rho] for a stack of states, with the coupling H built from each
    state's own drive pair."""
    h = np.zeros(rho.shape, dtype=complex)
    h[:, 0, 1] = h[:, 1, 0] = -0.5 * oj
    h[:, 1, 2] = h[:, 2, 1] = -0.5 * ok_
    return -1j * (h @ rho - rho @ h)


def check_rate_equations() -> Check:
    """Elementwise derivatives equal the commutator built from the coupling
    matrix, on 100 random valid states, each with its own random drive pair.

    The states and drives are drawn one state at a time, so the random stream
    is fixed; the normalization, the elementwise derivative and the
    commutator then each act on the whole (100, 3, 3) stack in one call."""
    rng = np.random.default_rng(20260815)
    a = np.empty((100, 3, 3), dtype=complex)
    drives = np.empty((100, 2))
    for i in range(100):
        a[i] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        drives[i] = rng.uniform(-2.0, 2.0, size=2)
    oj, ok_ = drives.T
    m = a @ a.conj().transpose(0, 2, 1)
    m /= np.trace(m, axis1=1, axis2=2)[:, None, None]
    got = _rhs_elements(m, oj, ok_, AtomParams())
    want = _commutator_oracle(m, oj, ok_)
    worst = float(np.abs(got - want).max())
    return Check("rate-equations-vs-commutator", worst <= 1e-14, worst, 1e-14)


def check_area_propagation() -> Check:
    """Weak areas follow exp(-alpha z / 2); a pi area does not move."""
    weak = propagate_area(0.01, 1.0, 2.0)
    expected = 0.01 * math.exp(-1.0)
    rel = float(abs(weak[-1, 1] - expected) / expected)

    stat = propagate_area(PI, 1.0, 2.0)
    drift = float(np.abs(stat[:, 1] - PI).max())
    ok = rel <= 1e-2 and drift <= 1e-12
    return Check(
        "area-propagation", ok, rel, 1e-2, note=f"pi-area drift {drift:.1e}"
    )


CHECKS = (
    check_weak_chain,
    check_half_pi_chain,
    check_control_recovery,
    check_engine_agreement,
    check_rate_equations,
    check_area_propagation,
)


def run_checks() -> list[Check]:
    return [fn() for fn in CHECKS]
