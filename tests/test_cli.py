"""Exit codes, output formats and file emission of the command line tool."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdrecho import (
    AtomParams,
    PulseSequence,
    integrate_sequence,
    verify,
)
from cdrecho.cli import cli_main
from cdrecho.ensemble import predict_echo_times, trace_bytes

ROOT = Path(__file__).resolve().parents[1]
FIGURE_NAMES = {
    f"fig{n}{letter}.csv"
    for n, letters in (("2", "abcd"), ("3", "abcd"), ("4", "ab"), ("5", "abcd"))
    for letter in letters
}
AREA_OPTIONS = ("--phid", "--phir1", "--phic1", "--phic2", "--phir2")


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_stages_requires_phid(self, capsys):
        assert cli_main(["stages"]) == 2
        capsys.readouterr()

    def test_sweep_rejects_unknown_stage(self, capsys):
        rc = cli_main(["sweep", "--stage", "r9", "--varying", "phi_r1"])
        assert rc == 2
        assert "unknown stage" in capsys.readouterr().err

    def test_sweep_rejects_steps_past_the_cap(self, capsys):
        argv = ["sweep", "--stage", "r1", "--varying", "phi_r1", "--steps", "1000001"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "steps must be in [2, 1000000]" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["echo", "--seq", "SQUARE"],  # square pulses need --engine ode
            ["sweep", "--stage", "r1", "--varying", "phi_r1", "--steps", "1"],
            ["propagate", "--phi0", "1", "--alpha", "-1", "--zmax", "1"],
            ["stages", "--phid", "nan"],
        ],
        ids=["echo-square-pulses", "sweep-steps", "propagate-alpha", "stages-phid"],
    )
    def test_every_refused_value_prints_a_code(self, argv, tmp_path, capsys):
        doc = json.loads((ROOT / "sequences" / "dr.json").read_text())
        for pulse in doc["pulses"]:
            pulse["duration"] = 0.2
        square = tmp_path / "square.json"
        square.write_text(json.dumps(doc))
        assert cli_main([str(square) if a == "SQUARE" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: INVALID_VALUE: ")
        assert captured.err.count("\n") == 1


class TestParser:
    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        assert cli_main(["stages", "--phid", "0.1"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli_main(["stages", "--phid", "0.1"]) == 0
        assert cli_main(["frobnicate"]) == 2
        capsys.readouterr()
        assert built == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["echo", "--seq", str(ROOT / "sequences" / "dr.json"), "--threshold", "0.5"],
            ["propagate", "--phi0", "0.1", "--alpha", "1", "--zmax", "1", "--dz", "1e-15"],
        ],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


    @pytest.mark.parametrize(
        "command, option",
        [("sweep", o) for o in ("--lo", "--hi", *AREA_OPTIONS)]
        + [("stages", o) for o in AREA_OPTIONS]
        + [("propagate", o) for o in ("--phi0", "--alpha", "--zmax")],
    )
    @pytest.mark.parametrize("value", ["-2e-3", "-1e308", "-0.5", "-inf"])
    def test_negative_float_after_an_option_is_its_value(self, command, option, value, capsys):
        base = {
            "sweep": ["--stage", "r1", "--varying", "phi_r1", "--steps", "3"],
            "stages": ["--phid", "0.1"],
            "propagate": ["--phi0", "0.1", "--alpha", "1", "--zmax", "1"],
        }[command]
        runs = []
        for given in ([option, value], [f"{option}={value}"]):
            rc = cli_main([command, *base, *given])  # the last of two options wins
            runs.append((rc, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert "expected one argument" not in runs[0][2]


class TestFigures:
    def test_writes_all_datasets_deterministically(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["figures", "--out", str(out_a)]) == 0
        assert cli_main(["figures", "--out", str(out_b)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sum(l.startswith("wrote ") for l in lines) == 28
        assert {p.name for p in out_a.iterdir()} == FIGURE_NAMES
        for name in sorted(FIGURE_NAMES):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unwritable_output_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert cli_main(["figures", "--out", str(blocker / "sub")]) == 3
        capsys.readouterr()


class TestSweep:
    def test_stdout_csv_shape(self, capsys):
        rc = cli_main(
            ["sweep", "--stage", "r1", "--varying", "phi_r1", "--steps", "5"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# stage=r1 varying=phi_r1")
        assert lines[1] == "phi_r1_rad,im_rho12,re_rho13,rho11,rho22,rho33"
        assert len(lines) == 7

    def test_area_flags_are_in_pi_units(self, capsys):
        rc = cli_main(
            [
                "sweep",
                "--stage",
                "r1",
                "--varying",
                "phi_r1",
                "--steps",
                "2",
                "--lo",
                "0",
                "--hi",
                "1",
                "--phid",
                "0.5",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # at phi_r1 = pi with phi_d = pi/2 the coherence is +0.5
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(math.pi, rel=1e-11)
        assert float(last[1]) == pytest.approx(0.5, abs=1e-11)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        rc = cli_main(
            [
                "sweep",
                "--stage",
                "c2",
                "--varying",
                "phi_c2",
                "--steps",
                "3",
                "--out",
                str(path),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().splitlines()[1].startswith("phi_c2_rad,")


class TestStages:
    def test_canonical_table(self, capsys):
        assert cli_main(["stages", "--phid", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "stage,im_rho12,re_rho13,rho11,rho22,rho33"
        assert [l.split(",")[0] for l in lines[1:]] == ["D", "R1", "C1", "C2", "R2"]
        d_im = float(lines[1].split(",")[1])
        r2_im = float(lines[5].split(",")[1])
        assert d_im == pytest.approx(-0.154508497, abs=1e-9)
        assert r2_im == pytest.approx(+0.154508497, abs=1e-9)

    @pytest.mark.parametrize("phid", ["nan", "1e308"])
    def test_refused_area_prints_no_header(self, phid, capsys):
        # 1e308 pi overflows to inf; the table must not start before the refusal
        assert cli_main(["stages", "--phid", phid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: INVALID_VALUE: phi_d must be finite\n"


class TestEcho:
    def test_shipped_dr_sequence(self, capsys):
        rc = cli_main(["echo", "--seq", str(ROOT / "sequences" / "dr.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted echo times (us): 20.000000, 40.000000" in out
        assert "E1 emissive t=20.000000us" in out
        assert "E2 absorptive t=40.000000us" in out

    def test_shipped_cdr_sequence_with_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        rc = cli_main(
            [
                "echo",
                "--seq",
                str(ROOT / "sequences" / "cdr.json"),
                "--out",
                str(trace_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted echo times (us): 24.000000, 36.000000" in out
        assert "E1 absorptive t=24.000000us" in out
        assert "E2 emissive t=36.000000us" in out
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "# source=cdr.json engine=hard"
        assert lines[1] == "t_us,re_p,im_p,abs_p,rho11,rho22,rho33"
        assert len(lines) == 2 + 9001

    def test_dr_trace_writes_re_p_as_zero(self, tmp_path, capsys):
        # P is exactly imaginary for real couplings, so every re_p cell is one text
        trace_path = tmp_path / "trace.csv"
        seq = str(ROOT / "sequences" / "dr.json")
        assert cli_main(["echo", "--seq", seq, "--out", str(trace_path)]) == 0
        capsys.readouterr()
        rows = trace_path.read_text().splitlines()[2:]
        assert len(rows) == 9001
        assert {row.split(",")[1] for row in rows} == {"0"}

    def test_non_ascii_sequence_name_is_escaped_in_the_trace(self, tmp_path, capsys):
        seq = tmp_path / "donn\u00e9es.json"
        seq.write_bytes((ROOT / "sequences" / "dr.json").read_bytes())
        out = tmp_path / "t.csv"
        assert cli_main(["echo", "--seq", str(seq), "--out", str(out)]) == 0
        assert "E2 absorptive t=40.000000us" in capsys.readouterr().out
        assert out.read_bytes().split(b"\n")[0] == b"# source=donn\\xe9es.json engine=hard"

    def test_one_run_predicts_the_echo_times_once(self, monkeypatch, capsys):
        calls = []

        def counted(seq):
            calls.append(seq)
            return predict_echo_times(seq)

        for name, module in list(sys.modules.items()):
            if name == "cdrecho" or name.startswith("cdrecho."):
                for attr, value in list(vars(module).items()):
                    if value is predict_echo_times:
                        monkeypatch.setattr(module, attr, counted)
        assert cli_main(["echo", "--seq", str(ROOT / "sequences" / "cdr.json")]) == 0
        assert "predicted echo times (us): 24.000000, 36.000000" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "ensemble",
        [
            {"sigma_hz": 1e-300},
            {"sigma_hz": 1e10, "span": 1e300},
            {"sigma_hz": 1e300},
            {"sigma_hz": 1.4e153},  # (span sigma)^2 overflows at the comb's edge
        ],
    )
    def test_comb_that_is_not_finite_is_a_usage_error(self, tmp_path, capsys, ensemble):
        doc = json.loads((ROOT / "sequences" / "dr.json").read_text())
        doc["ensemble"].update(ensemble)
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(doc))
        assert cli_main(["echo", "--seq", str(seq)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: INVALID_VALUE: ensemble: ")

    def test_default_dt_that_is_not_finite_asks_for_grid_dt(self, tmp_path, capsys):
        # the comb's edge of 1e-310 Hz is subnormal, so 1 / (40 edge) is inf
        doc = json.loads((ROOT / "sequences" / "dr.json").read_text())
        doc["ensemble"].update({"sigma_hz": 1e-160, "span": 1e-150})
        del doc["grid"]["dt"]
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(doc))
        assert cli_main(["echo", "--seq", str(seq)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: INVALID_VALUE: ensemble sigma_hz 1e-160 and span")
        assert captured.err.rstrip().endswith("set grid.dt")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = cli_main(["echo", "--seq", str(tmp_path / "missing.json")])
        assert rc == 3
        capsys.readouterr()

    def test_deeply_nested_file_is_a_syntax_error(self, tmp_path, capsys):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100000 + "]" * 100000)
        assert cli_main(["echo", "--seq", str(nested)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SYNTAX_ERROR: ")
        assert captured.err.count("\n") == 1

    def test_bad_sequence_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pulses": [{"channel": "warp", "area_pi": 1, "t_start": 0}]}')
        rc = cli_main(["echo", "--seq", str(bad)])
        assert rc == 2
        assert "UNKNOWN_CHANNEL" in capsys.readouterr().err

    def test_trace_past_the_memory_budget_is_a_usage_error(self, tmp_path, capsys):
        # 4.5e10 samples: the sample times alone would take 335 GiB
        seq = tmp_path / "huge.json"
        seq.write_text(
            '{"pulses": [{"channel": "optical12", "area_pi": 0.1, "t_start": 0.0}],'
            ' "grid": {"t_end": 45, "dt": 1e-9}}'
        )
        tracemalloc.start()
        try:
            rc = cli_main(["echo", "--seq", str(seq)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "PROBLEM_TOO_LARGE" in capsys.readouterr().err
        assert peak <= 1e6

    @pytest.mark.parametrize(
        "n_atoms, t_end, dt, duration",
        [
            (201, 45.0, 0.005, 0.0),
            (2001, 9.0, 0.01, 0.0),
            (20001, 9.0, 0.01, 0.0),
            (61, 9.0, 0.005, 0.2),
            (1001, 4.0, 0.01, 0.5),
            (2001, 4.0, 0.0005, 0.5),  # 1001 samples inside each square pulse
            (20001, 4.0, 0.0005, 0.5),  # where the pulses' 4-column sum sets the estimate
        ],
    )
    def test_echo_peak_stays_under_its_estimate(
        self, tmp_path, capsys, n_atoms, t_end, dt, duration
    ):
        pulses = [
            {"channel": "optical12", "area_pi": 0.3, "t_start": 0.0, "duration": duration},
            {"channel": "optical12", "area_pi": 1.0, "t_start": 1.0, "duration": duration},
            {"channel": "control23", "area_pi": 1.0, "t_start": 2.0, "duration": duration},
        ]
        grid = {"t_end": t_end, "dt": dt}
        doc = {"pulses": pulses, "ensemble": {"n_atoms": n_atoms}, "grid": grid}
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(doc))
        engine = "ode" if duration else "hard"
        argv = ["echo", "--seq", str(seq), "--engine", engine, "--out", str(tmp_path / "t.csv")]
        tracemalloc.start()
        try:
            assert cli_main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        pulse_samples = duration / dt + 1.0 if duration else 0.0
        assert peak <= trace_bytes(n_atoms, t_end / dt + 2.0, pulse_samples)

    def test_no_signed_zero_before_the_first_optical_pulse(self, tmp_path, capsys):
        # 2001 atoms: the free stretches take the chirp-z, whose FFT rounds a
        # zero input to zeros of either sign
        pulses = [
            {"channel": "control23", "area_pi": 1.0, "t_start": 0.5},
            {"channel": "optical12", "area_pi": 0.3, "t_start": 2.0},
            {"channel": "optical12", "area_pi": 1.0, "t_start": 20.0},
        ]
        doc = {"pulses": pulses, "ensemble": {"n_atoms": 2001}, "grid": {"t_end": 60.0, "dt": 0.01}}
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        assert cli_main(["echo", "--seq", str(seq), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        before = [row for row in rows if float(row[0]) < 2.0]
        assert len(before) == 200
        assert all(row[1:4] == ["0", "0", "0"] for row in before)

    def test_no_echo_sequence_reports_none(self, tmp_path, capsys):
        seq = tmp_path / "fid.json"
        seq.write_text(
            '{"pulses": [{"channel": "optical12", "area_pi": 0.1, "t_start": 0.0}],'
            ' "grid": {"t_end": 2.0, "dt": 0.01}}'
        )
        assert cli_main(["echo", "--seq", str(seq)]) == 0
        out = capsys.readouterr().out
        assert "predicted echo times (us): none" in out
        assert "no echoes detected" in out

    @pytest.mark.parametrize(
        "pulse",
        [
            {"channel": "optical12", "area_pi": 1e-320, "t_start": 0.0, "duration": 0.2},
            {"channel": "optical12", "area_pi": 1.0, "t_start": 0.0, "duration": 1e-300},
        ],
        ids=["area-1e-320-pi", "duration-1e-300-us"],
    )
    def test_rounding_noise_prints_no_echo(self, tmp_path, capsys, pulse):
        # both traces are rounding noise, |P| up to about 1.3e-16 here, under
        # the absolute echo floor; relative to its own largest lobe alone,
        # each printed an `other` peak
        ensemble = {"sigma_hz": 1e6, "n_atoms": 61, "span": 4.0}
        doc = {"pulses": [pulse], "ensemble": ensemble, "grid": {"t_end": 5.0, "dt": 0.01}}
        seq = tmp_path / "noise.json"
        seq.write_text(json.dumps(doc))
        assert cli_main(["echo", "--seq", str(seq), "--engine", "ode"]) == 0
        assert capsys.readouterr().out == "predicted echo times (us): none\nno echoes detected\n"

    def test_weak_data_pulse_echo_clears_the_floor(self, tmp_path, capsys):
        pulses = [
            {"channel": "optical12", "area_pi": 1e-9, "t_start": 0.0},
            {"channel": "optical12", "area_pi": 1.0, "t_start": 5.0},
        ]
        doc = {"pulses": pulses, "ensemble": {"n_atoms": 201}, "grid": {"t_end": 15.0}}
        seq = tmp_path / "weak.json"
        seq.write_text(json.dumps(doc))
        assert cli_main(["echo", "--seq", str(seq)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "predicted echo times (us): 10.000000",
            "E1 emissive t=10.000000us |P|=1.570796e-09 ImP=+1.570796e-09",
        ]


def test_readme_states_the_echo_transcripts_and_every_error_code(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # a `$ cdrecho ...` line, then its output up to a blank line or the fence
    transcripts = re.findall(r"^\$ cdrecho (.+)\n((?:(?!```)[^\n]+\n)+)", readme, re.M)
    assert [argv for argv, _ in transcripts] == [
        "echo --seq sequences/dr.json",
        "echo --seq sequences/cdr.json",
    ]
    for argv, out in transcripts:
        assert cli_main([str(ROOT / a) if a.endswith(".json") else a for a in argv.split()]) == 0
        assert capsys.readouterr().out.splitlines() == out.splitlines()

    error = re.compile(r"(?:SequenceFileError|CsvWriteError)\(\s*\"([A-Z_]+)\"")
    codes = {c for f in (ROOT / "src").rglob("*.py") for c in error.findall(f.read_text())}
    assert {"SYNTAX_ERROR", "NON_FINITE_VALUE", "PROBLEM_TOO_LARGE"} <= codes
    assert sorted(c for c in codes if f"`{c}`" not in readme) == []


class TestPropagate:
    def test_beer_limit_table(self, capsys):
        rc = cli_main(
            ["propagate", "--phi0", "0.01", "--alpha", "1.0", "--zmax", "2.0"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# phi0_rad=0.01 alpha=1"
        assert lines[1] == "z,phi_rad"
        z, phi = (float(v) for v in lines[-1].split(","))
        assert z == 2.0
        assert phi == pytest.approx(0.01 * math.exp(-1.0), rel=0.01)

    @pytest.mark.parametrize(
        "alpha, zmax",
        [(1.0, 1000.0), (1.0, 20000.0), (50.0, 200.0), (1e308, 2.0), (1e308, 1e308)],
    )
    def test_any_optical_depth_follows_the_area_law(self, alpha, zmax, capsys):
        assert cli_main(
            ["propagate", "--phi0", "1", "--alpha", repr(alpha), "--zmax", repr(zmax)]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        z, phi = np.loadtxt(lines[2:], delimiter=",").T
        assert len(z) == 1001 and z[-1] == zmax
        assert np.all((0.0 <= phi) & (phi <= 1.0))
        assert np.all(np.diff(phi) <= 0.0)
        # tan(phi/2) = tan(1/2) exp(-alpha z / 2), the half angle kept in (0, pi/2)
        with np.errstate(over="ignore"):
            decay = np.exp(-0.5 * alpha * z)
        want = 2.0 * np.arctan2(math.sin(0.5) * decay, math.cos(0.5))
        np.testing.assert_allclose(phi, want, rtol=0.0, atol=1e-12)

    def test_rejects_negative_alpha(self, capsys):
        rc = cli_main(
            ["propagate", "--phi0", "0.01", "--alpha", "-1.0", "--zmax", "2.0"]
        )
        assert rc == 2
        capsys.readouterr()


class TestVerify:
    def test_runs_as_a_module_from_the_source_tree(self):
        # a fresh interpreter with only src/ on its path, as from a checkout
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "cdrecho", "verify"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "PASS weak-data-chain",
            "PASS half-pi-chain",
            "PASS control-recovery",
            "PASS engine-agreement",
            "PASS rate-equations-vs-commutator",
            "PASS area-propagation",
        ]
        assert lines[-1] == "all 6 checks passed"

    def test_all_checks_pass(self, capsys):
        assert cli_main(["verify"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 7
        for line in lines[:-1]:
            assert line.startswith("PASS ")
        assert lines[-1] == f"all {len(lines) - 1} checks passed"

    def test_non_finite_state_is_numerical_failure(self, monkeypatch, capsys):
        # an RK4 step far past its stability limit overflows the state
        def unstable_check():
            excited = np.zeros((3, 3), dtype=complex)
            excited[1, 1] = 1.0
            integrate_sequence(
                excited,
                PulseSequence(pulses=(), t_end=1e-7),
                AtomParams(gamma=(0.0, 1e13, 0.0)),
                dt=1e-9,
                sample_stride=50,
            )

        monkeypatch.setattr(verify, "CHECKS", (unstable_check,))
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_main(["verify"]) == 4
        assert capsys.readouterr().err == "error: integration produced non-finite state\n"
