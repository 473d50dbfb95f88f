"""JSON sequence-file parsing, defaults, error codes and the size budget."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cdrecho import (
    Channel,
    EnsembleSpec,
    SequenceFileError,
    parse_sequence_file,
    time_grid,
)
from cdrecho.cli import cli_main
from cdrecho.ensemble import _TRACE_BUDGET_BYTES, trace_bytes
from cdrecho.seqfile import _default_dt

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
        seq, spec, times = parse_sequence_file(GOOD)
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
        assert seq.t_end == pytest.approx(30 * US)
        assert np.array_equal(times, time_grid(seq.t_end, 0.01 * US))
        assert times.size == 3001

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
        seq, spec, times = parse_sequence_file('{"pulses": []}')
        assert seq.pulses == ()
        assert spec == EnsembleSpec()
        assert seq.t_end == 0.0
        assert np.array_equal(times, time_grid(0.0, _default_dt(spec)))


class TestDefaults:
    def test_missing_ensemble_and_grid(self):
        text = json.dumps(
            {"pulses": [{"channel": "optical12", "area_pi": 1.0, "t_start": 5.0}]}
        )
        seq, spec, times = parse_sequence_file(text)
        assert spec == EnsembleSpec()
        assert seq.t_end == pytest.approx(10 * US)  # twice the last pulse end
        assert np.array_equal(times, time_grid(seq.t_end, _default_dt(spec)))

    def test_default_dt_resolves_fastest_beat(self):
        spec = EnsembleSpec(sigma=2 * PI * 1e6, n_atoms=201, span=5.0)
        assert _default_dt(spec) == pytest.approx(1.0 / (40 * 5e6))

    def test_default_dt_with_zero_span(self):
        assert _default_dt(EnsembleSpec(span=0.0)) == 1e-7

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

    def test_deep_nesting_is_a_syntax_error(self):
        # json.loads raises RecursionError here, not JSONDecodeError
        assert self._code("[" * 100000 + "]" * 100000) == "SYNTAX_ERROR"

    def test_integer_past_the_digit_limit_is_a_syntax_error(self):
        # json.loads raises a plain ValueError here, whose advice names a
        # function of the interpreter
        text = '{"pulses": [], "ensemble": {"n_atoms": ' + "1" * 4301 + "}}"
        with pytest.raises(SequenceFileError, match=r"integer longer than \d+ digits") as exc:
            parse_sequence_file(text)
        assert exc.value.code == "SYNTAX_ERROR"
        assert "set_int_max_str_digits" not in str(exc.value)

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
        # a list or an object as the channel once raised an unhashable-type TypeError
        for channel in ("spin13", ["optical12"], {"optical12": 1}, None, 12):
            text = json.dumps({"pulses": [{"channel": channel, "area_pi": 1.0, "t_start": 0.0}]})
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
            {"pulses": [], "grid": {"t_end": 1e300, "dt": -0.01}},
            {"pulses": [], "ensemble": "nope"},
            {"pulses": [], "grid": "nope"},
        ]
        for doc in bad:
            assert self._code(json.dumps(doc)) == "INVALID_VALUE"

    def test_pulse_too_short_to_move_its_start(self):
        entry = {"channel": "optical12", "area_pi": 1.0, "t_start": 1.0, "duration": 1e-17}
        with pytest.raises(SequenceFileError, match="too short to move t_start") as exc_info:
            parse_sequence_file(json.dumps({"pulses": [entry]}))
        assert exc_info.value.code == "INVALID_VALUE"

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


class TestUnknownFields:
    """A misspelt field is refused by name, never read as its default."""

    PULSE = {"channel": "optical12", "area_pi": 1.0, "t_start": 0.0}

    def _message(self, doc):
        with pytest.raises(SequenceFileError) as exc_info:
            parse_sequence_file(json.dumps(doc))
        assert exc_info.value.code == "INVALID_VALUE"
        return str(exc_info.value)

    def test_top_level(self):
        doc = {"pulses": [self.PULSE], "grd": {"t_end": 45.0}}
        assert "sequence has unknown field 'grd'" in self._message(doc)

    def test_pulse(self):
        doc = {"pulses": [self.PULSE, {**self.PULSE, "t_start": 5.0, "durration": 0.2}]}
        assert "pulses[1] has unknown field 'durration'" in self._message(doc)

    def test_ensemble(self):
        doc = {"pulses": [self.PULSE], "ensemble": {"n_atom": 2001}}
        assert "ensemble has unknown field 'n_atom'" in self._message(doc)

    def test_grid(self):
        doc = {"pulses": [self.PULSE], "grid": {"t_end": 10.0, "dt": 0.01, "t_start": 0.0}}
        assert "grid has unknown field 't_start'" in self._message(doc)

    def test_echo_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"pulses": [{**self.PULSE, "durration": 0.2}]}))
        assert cli_main(["echo", "--seq", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: INVALID_VALUE: pulses[0] has unknown field")


class TestSizeBudget:
    """PROBLEM_TOO_LARGE at the edge of the trace budget; parsing builds no trace."""

    @staticmethod
    def doc(n_atoms, t_end, dt, duration):
        return json.dumps(
            {
                "pulses": [
                    {
                        "channel": "optical12",
                        "area_pi": 0.5,
                        "t_start": 1.0,
                        "duration": duration,
                    }
                ],
                "ensemble": {"n_atoms": n_atoms},
                "grid": {"t_end": t_end, "dt": dt},
            }
        )

    def code(self, *args):
        try:
            parse_sequence_file(self.doc(*args))
        except SequenceFileError as exc:
            return exc.code
        return None

    @pytest.mark.parametrize(
        "n_atoms, duration", [(3, 0.0), (2001, 0.0), (200001, 0.0), (61, 0.2), (2001, 0.2)]
    )
    def test_window_just_inside_the_budget_parses(self, n_atoms, duration):
        dt = 0.005
        pulse = duration / dt + 1.0 if duration else 0.0
        lo, hi = 2.0, 1e15  # samples, bisected to where the estimate meets the budget
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            fits = trace_bytes(n_atoms, mid, pulse) <= _TRACE_BUDGET_BYTES
            lo, hi = (mid, hi) if fits else (lo, mid)
        t_end = (lo - 2.0) * dt
        assert t_end > 1.0 + duration
        assert self.code(n_atoms, t_end * (1 - 1e-6), dt, duration) is None
        assert self.code(n_atoms, t_end * (1 + 1e-6), dt, duration) == "PROBLEM_TOO_LARGE"

    @pytest.mark.parametrize("duration", [0.0, 0.2])
    def test_atoms_just_past_the_budget_are_refused(self, duration):
        lo, hi = 1, 2**40  # odd atom counts 2 lo + 1 fit, 2 hi + 1 do not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fits = self.code(2 * mid + 1, 45.0, 0.005, duration) is None
            lo, hi = (mid, hi) if fits else (lo, mid)
        assert self.code(2 * lo + 1, 45.0, 0.005, duration) is None
        assert self.code(2 * hi + 1, 45.0, 0.005, duration) == "PROBLEM_TOO_LARGE"

    def test_one_pulse_sample_decides_at_the_edge(self):
        # a square pulse filling most of the window: its walk term,
        # phase_sum(pulse_samples, 3 n_atoms, 4), sets trace_bytes, so the
        # longest pulse that fits is accepted and one dt more is refused,
        # before the time grid exists
        n_atoms, t_end, dt = 30001, 500.0, 0.005
        n_t = t_end * US / (dt * US) + 2.0

        def duration(m):  # m steps of dt, in us
            return round(m * dt, 10)

        def pulse(m):  # the pulse's samples, as parse_sequence_file counts them
            return duration(m) * US / (dt * US) + 1.0

        def fits(m):
            return trace_bytes(n_atoms, n_t, pulse(m)) <= _TRACE_BUDGET_BYTES

        lo, hi = 1, round((t_end - 1.0) / dt)
        assert fits(lo) and not fits(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        assert trace_bytes(n_atoms, n_t, pulse(lo)) > 2 * trace_bytes(n_atoms, n_t, 0.0)
        assert self.code(n_atoms, t_end, dt, duration(lo)) is None
        tracemalloc.start()
        try:
            code = self.code(n_atoms, t_end, dt, duration(hi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == "PROBLEM_TOO_LARGE"
        assert peak < 8 * n_t / 10  # a tenth of the time grid's bytes

    def test_shipped_cdr_at_200001_atoms_fits(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        doc = json.loads((root / "sequences" / "cdr.json").read_text())
        doc["ensemble"]["n_atoms"] = 200001
        _, spec, _ = parse_sequence_file(json.dumps(doc))
        assert spec.n_atoms == 200001

    def test_overflowing_sample_count_is_too_large(self):
        assert self.code(3, 1e300, 1e-300, 0.0) == "PROBLEM_TOO_LARGE"


class TestShippedFiles:
    @pytest.mark.parametrize("name", ["dr.json", "cdr.json"])
    def test_parses_cleanly(self, name):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        seq, spec, times = parse_sequence_file((root / "sequences" / name).read_text())
        assert spec == EnsembleSpec()
        assert seq.t_end == pytest.approx(45 * US)
        assert np.array_equal(times, time_grid(seq.t_end, 0.005 * US))
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
