"""JSON sequence-file parsing, defaults, error codes and round-tripping."""

import json
import math

import pytest

from cdrecho import (
    Channel,
    EnsembleSpec,
    GridConfig,
    SequenceFileError,
    parse_sequence_file,
    serialize_sequence_file,
)
from cdrecho.cli import cli_main
from cdrecho.seqfile import default_dt

PI = math.pi
US = 1e-6

GOOD = """
{
  "pulses": [
    {"channel": "optical12", "area_pi": 0.1, "t_start": 0.0, "duration": 0.0},
    {"channel": "optical12", "area_pi": 1.0, "t_start": 10.0},
    {"channel": "control23", "area_pi": 1.0, "t_start": 12.0}
  ],
  "ensemble": {"sigma_hz": 2.0e6, "n_atoms": 101, "span": 4.0},
  "grid": {"t_end": 30.0, "dt": 0.01}
}
"""


class TestParseGoodFile:
    def test_units_and_fields(self):
        seq, spec, grid = parse_sequence_file(GOOD)
        assert len(seq.pulses) == 3
        d, r1, c1 = seq.pulses
        assert d.channel is Channel.OPTICAL12
        assert d.area == pytest.approx(0.1 * PI)
        assert d.t_start == 0.0
        assert r1.area == pytest.approx(PI)
        assert r1.t_start == pytest.approx(10 * US)
        assert r1.duration == 0.0
        assert c1.channel is Channel.CONTROL23
        assert spec.sigma == pytest.approx(2 * PI * 2.0e6)
        assert spec.n_atoms == 101
        assert spec.span == 4.0
        assert grid.t_end == pytest.approx(30 * US)
        assert grid.dt == pytest.approx(0.01 * US)
        assert seq.t_end == grid.t_end

    def test_pulses_sorted_by_start_time(self):
        text = json.dumps(
            {
                "pulses": [
                    {"channel": "optical12", "area_pi": 1.0, "t_start": 10.0},
                    {"channel": "optical12", "area_pi": 0.1, "t_start": 0.0},
                ]
            }
        )
        seq, _, _ = parse_sequence_file(text)
        assert [p.t_start for p in seq.pulses] == [0.0, 10 * US]

    def test_empty_pulse_list_allowed(self):
        seq, spec, grid = parse_sequence_file('{"pulses": []}')
        assert seq.pulses == ()
        assert spec == EnsembleSpec()
        assert grid.t_end == 0.0


class TestDefaults:
    def test_missing_ensemble_and_grid(self):
        text = json.dumps(
            {"pulses": [{"channel": "optical12", "area_pi": 1.0, "t_start": 5.0}]}
        )
        seq, spec, grid = parse_sequence_file(text)
        assert spec == EnsembleSpec()
        assert grid.t_end == pytest.approx(10 * US)  # twice the last pulse end
        assert grid.dt == pytest.approx(default_dt(spec))

    def test_default_dt_resolves_fastest_beat(self):
        spec = EnsembleSpec(sigma=2 * PI * 1e6, n_atoms=201, span=5.0)
        assert default_dt(spec) == pytest.approx(1.0 / (40 * 5e6))

    def test_default_dt_with_zero_span(self):
        assert default_dt(EnsembleSpec(span=0.0)) == 1e-7

    def test_default_duration_is_hard(self):
        text = json.dumps(
            {"pulses": [{"channel": "optical12", "area_pi": 1.0, "t_start": 0.0}]}
        )
        seq, _, _ = parse_sequence_file(text)
        assert seq.pulses[0].is_hard


class TestErrorCodes:
    def _code(self, text):
        with pytest.raises(SequenceFileError) as exc_info:
            parse_sequence_file(text)
        return exc_info.value.code

    def test_syntax_error(self):
        assert self._code("{not json") == "SYNTAX_ERROR"
        assert self._code("[1, 2]") == "SYNTAX_ERROR"

    def test_syntax_error_reports_location(self):
        with pytest.raises(SequenceFileError, match=r"line \d+ column \d+"):
            parse_sequence_file('{"pulses": [}')

    def test_missing_pulses_key(self):
        assert self._code("{}") == "MISSING_REQUIRED_FIELD"

    def test_missing_pulse_fields(self):
        for missing in ("channel", "area_pi", "t_start"):
            entry = {"channel": "optical12", "area_pi": 1.0, "t_start": 0.0}
            del entry[missing]
            assert self._code(json.dumps({"pulses": [entry]})) == "MISSING_REQUIRED_FIELD"

    def test_unknown_channel(self):
        text = json.dumps(
            {"pulses": [{"channel": "spin13", "area_pi": 1.0, "t_start": 0.0}]}
        )
        assert self._code(text) == "UNKNOWN_CHANNEL"

    def test_overlapping_pulses(self):
        text = json.dumps(
            {
                "pulses": [
                    {"channel": "optical12", "area_pi": 1.0, "t_start": 0.0, "duration": 2.0},
                    {"channel": "control23", "area_pi": 1.0, "t_start": 1.0, "duration": 2.0},
                ]
            }
        )
        assert self._code(text) == "OVERLAPPING_PULSES"

    def test_invalid_values(self):
        bad = [
            {"pulses": "nope"},
            {"pulses": [42]},
            {"pulses": [{"channel": "optical12", "area_pi": "big", "t_start": 0.0}]},
            {"pulses": [{"channel": "optical12", "area_pi": 1.0, "t_start": -1.0}]},
            {"pulses": [], "ensemble": {"n_atoms": 10}},
            {"pulses": [], "ensemble": {"sigma_hz": -1.0}},
            {"pulses": [], "ensemble": {"n_atoms": 11.5}},
            {"pulses": [], "grid": {"t_end": 10.0, "dt": 0.0}},
            {"pulses": [], "ensemble": "nope"},
            {"pulses": [], "grid": "nope"},
        ]
        for doc in bad:
            assert self._code(json.dumps(doc)) == "INVALID_VALUE"

    def test_integers_beyond_float_range(self, tmp_path, capsys):
        # JSON reads a 401-digit number as an int, which float() cannot hold
        huge = "1" + "0" * 400
        pulse = '{"channel": "optical12", "area_pi": %s, "t_start": %s}'
        texts = [
            '{"pulses": [%s]}' % (pulse % (huge, "0")),
            '{"pulses": [%s]}' % (pulse % ("1", huge)),
            '{"pulses": [], "grid": {"t_end": %s}}' % huge,
            '{"pulses": [], "ensemble": {"sigma_hz": %s}}' % huge,
        ]
        for text in texts:
            assert self._code(text) == "INVALID_VALUE"
        path = tmp_path / "huge.json"
        path.write_text(texts[0])
        assert cli_main(["echo", "--seq", str(path)]) == 2
        assert "INVALID_VALUE" in capsys.readouterr().err

    def test_grid_shorter_than_sequence(self):
        text = json.dumps(
            {
                "pulses": [{"channel": "optical12", "area_pi": 1.0, "t_start": 10.0}],
                "grid": {"t_end": 5.0, "dt": 0.01},
            }
        )
        assert self._code(text) == "INVALID_VALUE"

    def test_message_carries_code_prefix(self):
        with pytest.raises(SequenceFileError, match="^UNKNOWN_CHANNEL:"):
            parse_sequence_file(
                '{"pulses": [{"channel": "x", "area_pi": 1, "t_start": 0}]}'
            )


class TestRoundTrip:
    def test_serialize_then_parse(self):
        seq, spec, grid = parse_sequence_file(GOOD)
        text = serialize_sequence_file(seq, spec, grid)
        seq2, spec2, grid2 = parse_sequence_file(text)
        assert spec2 == spec
        assert grid2.t_end == pytest.approx(grid.t_end, rel=1e-12)
        assert grid2.dt == pytest.approx(grid.dt, rel=1e-12)
        assert len(seq2.pulses) == len(seq.pulses)
        for a, b in zip(seq.pulses, seq2.pulses):
            assert a.channel is b.channel
            assert a.area == pytest.approx(b.area, rel=1e-12)
            assert a.t_start == pytest.approx(b.t_start, rel=1e-12, abs=1e-18)
            assert a.duration == pytest.approx(b.duration, rel=1e-12, abs=1e-18)

    def test_serialized_text_is_json_with_trailing_newline(self):
        seq, spec, grid = parse_sequence_file(GOOD)
        text = serialize_sequence_file(seq, spec, grid)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert set(doc) == {"pulses", "ensemble", "grid"}
        assert doc["pulses"][0]["area_pi"] == pytest.approx(0.1)


class TestShippedFiles:
    @pytest.mark.parametrize("name", ["dr.json", "cdr.json"])
    def test_parses_cleanly(self, name):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        seq, spec, grid = parse_sequence_file((root / "sequences" / name).read_text())
        assert spec == EnsembleSpec()
        assert grid.t_end == pytest.approx(45 * US)
        assert all(p.is_hard for p in seq.pulses)

    def test_shipped_protocols_differ_by_control_pair(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        dr, _, _ = parse_sequence_file((root / "sequences" / "dr.json").read_text())
        cdr, _, _ = parse_sequence_file((root / "sequences" / "cdr.json").read_text())
        assert len(cdr.pulses) == len(dr.pulses) + 2
        assert [p.channel for p in cdr.pulses].count(Channel.CONTROL23) == 2
        assert all(p.channel is Channel.OPTICAL12 for p in dr.pulses)
        assert [p.t_start for p in dr.pulses] == [
            p.t_start for p in cdr.pulses if p.channel is Channel.OPTICAL12
        ]
