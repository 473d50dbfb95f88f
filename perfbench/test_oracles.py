"""Each output check passes on the program's real output and fails once it is corrupted.

Run from the checkout root:  python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cdrecho.cli import cli_main  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

AREAS_PI = {"phi_d": 0.1, "phi_r1": 1.0, "phi_c1": 1.0, "phi_c2": 1.0, "phi_r2": 1.0}


def run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue()


def rewrite(path: Path, edit) -> None:
    """Apply edit(rows) to a CSV's numeric rows and write it back."""
    csv = oracles.read_csv(path)
    rows = csv.rows.copy()
    edit(rows, csv.columns)
    lines = [",".join(csv.columns)] + [",".join(f"{x:.12g}" for x in r) for r in rows]
    if csv.meta:
        lines.insert(0, "# " + " ".join(f"{k}={v}" for k, v in csv.meta.items()))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def flip_sign(rows, columns):
    for c in ("re_p", "im_p"):
        rows[:, columns.index(c)] *= -1.0


def shift_one_step(rows, columns):
    for c in ("re_p", "im_p", "abs_p"):
        j = columns.index(c)
        rows[:, j] = np.roll(rows[:, j], 1)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def hard_echo(tmp_path_factory):
    out = tmp_path_factory.mktemp("hard") / "cdr.csv"
    seq = str(ROOT / "sequences" / "cdr.json")
    return seq, run("echo", "--seq", seq, "--out", str(out)), out


@pytest.fixture(scope="module")
def finite_echo(tmp_path_factory):
    work = tmp_path_factory.mktemp("finite")
    workloads.write_inputs("echo-finite", 3, work)
    seq, out = work / "finite-cdr.json", work / "finite-cdr.csv"
    return seq, run("echo", "--seq", str(seq), "--engine", "ode", "--out", str(out)), out


@pytest.mark.parametrize("corrupt", [None, flip_sign, shift_one_step])
def test_hard_echo_check(hard_echo, corrupt, rng, tmp_path):
    seq, stdout, out = hard_echo
    copy = tmp_path / out.name
    copy.write_bytes(out.read_bytes())
    if corrupt is not None:
        rewrite(copy, corrupt)
    problems = oracles.check_hard_echo(seq, stdout, copy, rng)
    assert bool(problems) == (corrupt is not None), problems


def test_hard_echo_check_reads_the_report(hard_echo, rng):
    seq, stdout, out = hard_echo
    assert oracles.check_hard_echo(seq, stdout.replace("E2 emissive", "E2 absorptive"), out, rng)
    assert oracles.check_hard_echo(seq, stdout.replace("t=36.000000us", "t=36.005000us"), out, rng)


def test_hard_closed_form_matches_exact_propagation():
    seq = oracles.read_sequence(ROOT / "sequences" / "dr.json")
    times = np.linspace(31e-6, 45e-6, 57)
    exact, _ = oracles.exact_trace(seq, times)
    assert np.abs(exact - oracles.hard_closed_form(seq, times)).max() < 1e-12


@pytest.mark.parametrize("corrupt", [None, flip_sign, shift_one_step])
def test_finite_echo_check(finite_echo, corrupt, rng, tmp_path):
    seq, stdout, out = finite_echo
    copy = tmp_path / out.name
    copy.write_bytes(out.read_bytes())
    if corrupt is not None:
        rewrite(copy, corrupt)
    problems = oracles.check_finite_echo(seq, stdout, copy, rng)
    assert bool(problems) == (corrupt is not None), problems


def test_figures_check(tmp_path):
    stdout = run("figures", "--out", str(tmp_path))
    oracle = oracles.SweepOracle()
    assert oracles.check_figures(stdout, oracle) == []

    def perturb(rows, columns):
        rows[200, 1] += 1e-6

    rewrite(tmp_path / "fig4a.csv", perturb)
    assert oracles.check_figures(stdout, oracle)


def test_sweep_check(tmp_path):
    out = tmp_path / "sweep.csv"
    run("sweep", "--stage", "c1", "--varying", "phi_c1", "--phid", "0.3", "--steps", "51",
        "--lo", "0.5", "--hi", "2.5", "--out", str(out))
    fixed = {**AREAS_PI, "phi_d": 0.3}
    oracle = oracles.SweepOracle()
    assert oracles.check_sweep(out, "c1", "phi_c1", 0.5, 2.5, 51, fixed, oracle) == []

    def perturb(rows, columns):
        rows[17, columns.index("rho33")] += 1e-6

    rewrite(out, perturb)
    assert oracles.check_sweep(out, "c1", "phi_c1", 0.5, 2.5, 51, fixed, oracle)


def test_stages_check():
    stdout = run("stages", "--phid", "0.1")
    assert oracles.check_stages(stdout, AREAS_PI) == []
    lines = stdout.splitlines()
    label, *values = lines[3].split(",")
    values[0] = f"{float(values[0]) + 1e-6:+.9f}"
    lines[3] = ",".join([label, *values])
    assert oracles.check_stages("\n".join(lines), AREAS_PI)


@pytest.mark.parametrize("phi0", [0.01, math.pi])
def test_propagate_check(phi0):
    stdout = run("propagate", "--phi0", repr(phi0), "--alpha", "1.0", "--zmax", "2.0")
    assert oracles.check_propagate(stdout, phi0, 1.0, 2.0) == []
    lines = stdout.splitlines()
    z, phi = lines[500].split(",")
    lines[500] = f"{z},{float(phi) * (1 + 1e-6):.12g}"
    assert oracles.check_propagate("\n".join(lines), phi0, 1.0, 2.0)


def test_verify_check():
    stdout = run("verify")
    assert oracles.check_verify(stdout) == []
    assert oracles.check_verify(stdout.replace("PASS", "FAIL", 1))
