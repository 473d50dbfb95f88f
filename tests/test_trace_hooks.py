"""The benchmark's tracer still finds every function it probes.

`perfbench/tracing.py` looks its probes up by module and function name when
it installs, names the ensemble span after the `engine` argument and counts
sweep points from `spec.steps`; a public-API trim that drops one of those
names would break `--trace 1`.
"""

import importlib.util
import sys
from pathlib import Path

from cdrecho.cli import cli_main

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_verify_and_echo_record_probe_spans(monkeypatch, capsys):
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        assert cli_main(["verify"]) == 0
        assert cli_main(["echo", "--seq", str(ROOT / "sequences" / "dr.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[2] for span in tracer.spans}
    assert "unitary.run_sequence_hard_s" in names
    assert "ensemble.simulate_hard_s" in names
    assert "integrator.integrate_sequence_s" in names
    assert tracer.counts["ensemble.atom_samples"] > 0
    # the tracer counts RK4 steps from integrate_sequence's seq and dt, by its
    # documented segmenting: verify's canonical run is 10 us at 1 ns
    assert tracer.counts["integrator.rk4_steps"] == 10000


def test_figures_sweep_and_stages_record_probe_spans(monkeypatch, capsys, tmp_path):
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    steps = 37
    try:
        assert cli_main(["figures", "--out", str(tmp_path)]) == 0
        assert cli_main(
            ["sweep", "--stage", "c2", "--varying", "phi_c2", "--steps", str(steps),
             "--out", str(tmp_path / "sweep.csv")]
        ) == 0
        assert cli_main(["stages", "--phid", "0.1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[2] for span in tracer.spans}
    assert "sweeps.figure_dataset_s" in names
    assert "sweeps.run_sweep_s" in names
    assert "stages.stage_chain_s" in names
    # every figure's sweep runs through the probed run_sweep
    assert tracer.counts["sweeps.points"] == 14 * 401 + steps


def test_echo_and_figures_count_the_bytes_of_every_file_written(monkeypatch, capsys, tmp_path):
    # the tracer counts csvio.bytes from render_csv's text, which write_csv encodes
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    seq = str(ROOT / "sequences" / "cdr.json")
    try:
        assert cli_main(["echo", "--seq", seq, "--out", str(tmp_path / "echo.csv")]) == 0
        assert cli_main(["figures", "--out", str(tmp_path / "figures")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    files = sorted(tmp_path.rglob("*.csv"))
    assert len(files) == 15
    spans = [span for span in tracer.spans if span[2] == "csvio.render_csv_s"]
    assert len(spans) == len(files)
    assert tracer.counts["csvio.bytes"] == sum(path.stat().st_size for path in files)


def test_propagate_records_area_span_and_steps(monkeypatch, capsys):
    # the tracer counts area.steps as the table's rows minus one
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        assert cli_main(["propagate", "--phi0", "0.5", "--alpha", "1", "--zmax", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert "area.propagate_area_s" in {span[2] for span in tracer.spans}
    assert tracer.counts["area.steps"] == 1000
