"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test prints one line of the form

    PASS <name>: <measured> (tol <bound>)

before asserting, so a red run still shows the measured number. Tolerances
are pinned here and must not be loosened to make a failing build green.
"""

import math
import time
from pathlib import Path

import numpy as np

from conftest import column, purity, rhs

from cdrecho import (
    AtomParams,
    FigureId,
    StageAreas,
    detect_echoes,
    figure_dataset,
    ground_state,
    integrate_sequence,
    parse_sequence_file,
    propagate_area,
    render_csv,
    run_sequence_hard,
    simulate_ensemble,
    stage_chain,
    write_csv,
)
from cdrecho.cli import cli_main
from cdrecho.stages import CANONICAL, HALF_PI, after_c2, after_r1
from cdrecho.verify import _canonical_sequence

import pytest

PI = math.pi
US = 1e-6
ROOT = Path(__file__).resolve().parents[1]

SIN_WEAK_HALF = 0.1545084971874737  # sin(0.1 pi) / 2
POP_WEAK = 0.024471741852423214  # sin^2(0.05 pi)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _chain_im12(areas: StageAreas) -> list[float]:
    return [float(state[0, 1].imag) for _, state in stage_chain(areas)]


def _protocol_run(name: str):
    seq, spec, times = parse_sequence_file(
        (ROOT / "sequences" / name).read_text(encoding="utf-8")
    )
    trace = simulate_ensemble(seq, spec, times)
    rep = detect_echoes(times, trace.polarization, seq)
    return seq, times, trace, rep


@pytest.fixture(scope="module")
def dr_run():
    return _protocol_run("dr.json")


@pytest.fixture(scope="module")
def cdr_run():
    return _protocol_run("cdr.json")


def test_01_weak_data_chain_signs():
    want = [-SIN_WEAK_HALF, +SIN_WEAK_HALF, 0.0, -SIN_WEAK_HALF, +SIN_WEAK_HALF]
    got = _chain_im12(CANONICAL)
    final = stage_chain(CANONICAL)[-1][1]
    dev = max(abs(g - w) for g, w in zip(got, want))
    dev = max(dev, final[2, 2].real, abs(final[1, 1].real - POP_WEAK))
    ok = dev <= 1e-9
    report("weak-data-chain", ok, f"max deviation {dev:.3e} (tol 1e-9)")
    assert ok


def test_02_half_pi_chain_signs():
    want = [-0.5, +0.5, 0.0, -0.5, +0.5]
    got = _chain_im12(HALF_PI)
    dev = max(abs(g - w) for g, w in zip(got, want))
    ok = dev <= 1e-9
    report("half-pi-chain", ok, f"max deviation {dev:.3e} (tol 1e-9)")
    assert ok


def test_03_control_area_recovery():
    base = after_r1(0.1 * PI, PI)
    dev4 = float(np.abs(after_c2(0.1 * PI, PI, 2 * PI, 2 * PI) - base).max())
    negated = base.copy()
    negated[0, 1] *= -1.0
    negated[1, 0] *= -1.0
    dev2 = float(np.abs(after_c2(0.1 * PI, PI, PI, PI) - negated).max())
    dev = max(dev4, dev2)
    ok = dev <= 1e-12
    report(
        "control-recovery",
        ok,
        f"4pi restore {dev4:.3e}, 2pi negation {dev2:.3e} (tol 1e-12)",
    )
    assert ok


def test_04_three_engines_agree():
    t0 = time.perf_counter()
    atom = AtomParams()
    analytic = stage_chain(CANONICAL)[-1][1]

    seq = _canonical_sequence(0.0)
    _, hard = run_sequence_hard(ground_state(), seq, atom, [seq.t_end])
    _, traj = integrate_sequence(
        ground_state(), _canonical_sequence(1e-6), atom, dt=1e-9, sample_stride=50
    )

    dev = max(
        float(np.abs(analytic - hard[-1]).max()),
        float(np.abs(analytic - traj[-1]).max()),
    )
    drift = max(
        np.abs(np.trace(traj, axis1=1, axis2=2).real - 1.0).max(),
        np.abs(purity(traj) - 1.0).max(),
    )
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-8 and drift <= 1e-9 and elapsed < 30.0
    report(
        "engine-agreement",
        ok,
        f"state deviation {dev:.3e} (tol 1e-8), drift {drift:.3e} (tol 1e-9), "
        f"{elapsed:.1f}s (budget 30s)",
    )
    assert ok


def test_05_rate_equations_match_commutator():
    rng = np.random.default_rng(123457)
    atom = AtomParams()
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = a @ a.conj().T
        m /= m.trace()
        oj, ok_ = rng.uniform(-2.0, 2.0, size=2)
        h = -0.5 * np.array(
            [[0.0, oj, 0.0], [oj, 0.0, ok_], [0.0, ok_, 0.0]], dtype=complex
        )
        want = -1j * (h @ m - m @ h)
        got = rhs(m, oj, ok_, atom)
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-14
    report("rate-equations", ok, f"worst element {worst:.3e} (tol 1e-14)")
    assert ok


def test_06_second_echo_sign_flip(dr_run, cdr_run):
    t0 = time.perf_counter()
    _, dr_times, _, dr_rep = dr_run
    _, cdr_times, _, cdr_rep = cdr_run

    dr_e2 = [e for e in dr_rep.events if e.label == "E2"]
    cdr_e2 = [e for e in cdr_rep.events if e.label == "E2"]
    have_both = len(dr_e2) == 1 and len(cdr_e2) == 1
    if not have_both:
        report("second-echo-sign", False, "missing E2 event")
        assert have_both
    dr_e2, cdr_e2 = dr_e2[0], cdr_e2[0]

    sign_ok = dr_e2.im_sign < 0 < cdr_e2.im_sign
    amp_gap = abs(dr_e2.amplitude - cdr_e2.amplitude) / max(
        dr_e2.amplitude, cdr_e2.amplitude
    )
    t_dev = max(
        abs(dr_e2.time - 40 * US), abs(cdr_e2.time - 36 * US)
    )
    step = max(dr_times[1] - dr_times[0], cdr_times[1] - cdr_times[0])
    elapsed = time.perf_counter() - t0
    ok = sign_ok and amp_gap <= 0.05 and t_dev <= step + 1e-15 and elapsed < 120.0
    report(
        "second-echo-sign",
        ok,
        f"ImP signs {dr_e2.im_sign:+d}/{cdr_e2.im_sign:+d} (want -/+), "
        f"amplitude gap {amp_gap:.2%} (tol 5%), time dev {t_dev / US:.4f}us "
        f"(tol one step), {elapsed:.1f}s (budget 120s)",
    )
    assert ok


def test_07_population_inversion_at_echoes(cdr_run):
    _, _, trace, rep = cdr_run
    e1 = [e for e in rep.events if e.label == "E1"][0]
    e2 = [e for e in rep.events if e.label == "E2"][0]
    i1, i2 = (trace.times.tolist().index(e.time) for e in (e1, e2))
    g1, x1 = trace.pop_ground[i1], trace.pop_excited[i1]
    g2, x2 = trace.pop_ground[i2], trace.pop_excited[i2]
    ok = x1 > g1 and x2 < g2
    report(
        "echo-population-order",
        ok,
        f"at E1 rho22={x1:.4f} vs rho11={g1:.4f} (want >), "
        f"at E2 rho22={x2:.4f} vs rho11={g2:.4f} (want <)",
    )
    assert ok


def test_08_area_theorem_limits():
    weak = propagate_area(0.01, 1.0, 2.0)
    beer = 0.01 * math.exp(-1.0)
    rel = abs(weak[-1, 1] - beer) / beer

    stat = propagate_area(PI, 1.0, 2.0)
    drift = float(np.abs(stat[:, 1] - PI).max())
    ok = rel <= 1e-2 and drift <= 1e-12
    report(
        "area-theorem",
        ok,
        f"weak-decay error {rel:.3e} (tol 1e-2), pi drift {drift:.3e} (tol 1e-12)",
    )
    assert ok


def test_09_figure_datasets_reproducible(tmp_path):
    first = {fig: figure_dataset(fig) for fig in FigureId}
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    for fig, table in first.items():
        write_csv(table, dir_a / f"{fig.value}.csv")
        write_csv(figure_dataset(fig), dir_b / f"{fig.value}.csv")
    identical = all(
        (dir_a / f"{fig.value}.csv").read_bytes() == (dir_b / f"{fig.value}.csv").read_bytes()
        for fig in FigureId
    )
    rendered_twice = all(
        render_csv(first[fig]) == render_csv(figure_dataset(fig)) for fig in FigureId
    )

    spots = [
        (FigureId.FIG2A, 100, +SIN_WEAK_HALF),
        (FigureId.FIG3C, 300, +SIN_WEAK_HALF),
        (FigureId.FIG4A, 100, +SIN_WEAK_HALF),
        (FigureId.FIG5A, 100, +0.5),
    ]
    spot_dev = max(
        abs(column(first[fig], "im_rho12")[row] - want) for fig, row, want in spots
    )
    ok = identical and rendered_twice and spot_dev <= 1e-9
    report(
        "figure-datasets",
        ok,
        f"14 files byte-identical={identical}, spot deviation {spot_dev:.3e} (tol 1e-9)",
    )
    assert ok


def test_10_verify_command():
    t0 = time.perf_counter()
    rc = cli_main(["verify"])
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and elapsed < 60.0
    report("verify-command", ok, f"exit code {rc} (want 0), {elapsed:.1f}s (budget 60s)")
    assert ok
