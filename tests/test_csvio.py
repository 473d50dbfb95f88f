"""Deterministic CSV rendering and the numeric table container."""

import errno
import math
import os
import shutil
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrecho import CsvWriteError, Table, cli, render_csv, write_csv
from cdrecho.csvio import _format_float

ROOT = Path(__file__).resolve().parents[1]

# the values whose text a run must keep: signed zeros, the smallest subnormal,
# rounding noise and exactly representable numbers
RUN_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.0, 0.5, -2.16840434497e-19, 1e300]
# an old file longer than any table written over it here
STALE = b"stale,bytes\n" * 1000


def unprivileged(attempt, timeout: float = 60.0) -> int:
    """attempt()'s integer result, run in a child process that drops root's
    file access to the user and group nobody (65534); in the same process
    when not root."""
    if os.geteuid() != 0:
        return attempt()
    pid = os.fork()
    if pid == 0:  # the child leaves by os._exit alone, whatever attempt does
        code = 99
        try:
            os.setgid(65534)
            os.setuid(65534)
            code = attempt()
        finally:
            os._exit(code)
    deadline = time.monotonic() + timeout
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError(f"the child ran past {timeout} s")
        time.sleep(0.01)
    return os.waitstatus_to_exitcode(done[1])


def per_cell(table: Table) -> str:
    """The CSV text built cell by cell with _format_float."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in table.meta)] if table.meta else []
    lines.append(",".join(table.columns))
    lines += [",".join(_format_float(x) for x in row) for row in table.rows.tolist()]
    return "\n".join(lines) + "\n"


def table_of(rows) -> Table:
    rows = np.asarray(rows, dtype=float)
    return Table(columns=tuple(f"c{k}" for k in range(rows.shape[1])), rows=rows)


@st.composite
def piecewise_constant_tables(draw):
    """Columns made of runs 1 to 3 m rows long, m the column count."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12 * m))
    value = st.one_of(
        st.sampled_from(RUN_VALUES), st.floats(allow_nan=False, allow_infinity=False)
    )
    columns = []
    for _ in range(m):
        column: list[float] = []
        while len(column) < n:
            column += [draw(value)] * draw(st.integers(min_value=1, max_value=3 * m))
        columns.append(column[:n])
    return table_of(np.array(columns).T)


@st.composite
def headed_tables(draw):
    """A piecewise_constant_tables table with % in its column names and meta,
    and with all of its rows or none."""
    table = draw(piecewise_constant_tables())
    name = st.text(alphabet="ab%sd(._", min_size=1, max_size=6)
    m = table.rows.shape[1]
    columns = tuple(draw(st.lists(name, min_size=m, max_size=m)))
    meta = tuple(draw(st.lists(st.tuples(name, name), max_size=3)))
    rows = table.rows[: draw(st.sampled_from([0, table.rows.shape[0]]))]
    return Table(columns=columns, rows=rows, meta=meta)


class TestFormatFloat:
    def test_twelve_significant_digits(self):
        assert _format_float(math.pi) == "3.14159265359"
        assert _format_float(2.0 / 3.0) == "0.666666666667"

    def test_short_forms(self):
        assert _format_float(1.0) == "1"
        assert _format_float(-0.5) == "-0.5"
        assert _format_float(0.0) == "0"
        assert _format_float(1e-20) == "1e-20"
        assert _format_float(2.5e9) == "2500000000"

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(CsvWriteError) as exc_info:
                _format_float(bad)
            assert exc_info.value.code == "NON_FINITE_VALUE"

    def test_error_is_a_value_error(self):
        assert issubclass(CsvWriteError, ValueError)


class TestTable:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Table(columns=("x",), rows=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Table(columns=("x", "y"), rows=np.zeros(4))

    def test_rows_are_read_only_copy(self):
        src = np.array([[1.0, 2.0]])
        t = Table(columns=("x", "y"), rows=src)
        src[0, 0] = 99.0
        assert t.rows[0, 0] == 1.0
        with pytest.raises(ValueError):
            t.rows[0, 0] = 5.0

    def test_meta_stringified(self):
        t = Table(columns=("x",), rows=np.zeros((1, 1)), meta=(("n", 3), ("tag", "a")))
        assert t.meta == (("n", "3"), ("tag", "a"))


class TestRenderCsv:
    def test_exact_layout_with_meta(self):
        t = Table(
            columns=("x", "y"),
            rows=np.array([[0.5, 1.0], [1.5, -2.25]]),
            meta=(("stage", "r1"), ("phi_d_pi", "0.1")),
        )
        assert render_csv(t) == (
            "# stage=r1 phi_d_pi=0.1\n"
            "x,y\n"
            "0.5,1\n"
            "1.5,-2.25\n"
        )

    def test_no_meta_line_when_empty(self):
        t = Table(columns=("x",), rows=np.array([[1.0]]))
        assert render_csv(t) == "x\n1\n"

    def test_lf_only(self):
        t = Table(columns=("x",), rows=np.array([[1.0], [2.0]]))
        assert "\r" not in render_csv(t)

    def test_percent_signs_in_names_and_meta_are_literal(self):
        # the file is one % template: header text must not be read as a format
        t = Table(columns=("x%", "%s"), rows=np.array([[1.0, 2.0]]), meta=(("src", "5%d"),))
        assert render_csv(t) == "# src=5%d\nx%,%s\n1,2\n"
        assert render_csv(Table(columns=("%%",), rows=np.zeros((0, 1)))) == "%%\n"

    def test_non_finite_cell_refused(self):
        t = Table(columns=("x",), rows=np.array([[math.inf]]))
        with pytest.raises(CsvWriteError):
            render_csv(t)

    def test_first_non_finite_cell_in_row_order_is_named(self):
        rows = np.array([[1.0, -math.inf], [math.nan, 2.0]])
        t = Table(columns=("x", "y"), rows=rows)
        with pytest.raises(CsvWriteError, match="-inf") as exc_info:
            render_csv(t)
        assert exc_info.value.code == "NON_FINITE_VALUE"

    @settings(max_examples=100)
    @given(
        columns=st.integers(min_value=1, max_value=6),
        cells=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1e-300, -5e-324, 1e20, -1e-20, 1.7e308]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=60,
        ),
    )
    def test_rows_render_as_per_cell_format_float(self, columns, cells):
        cells = cells[: len(cells) // columns * columns]
        rows = np.array(cells, dtype=float).reshape(-1, columns)
        t = Table(columns=tuple(f"c{k}" for k in range(columns)), rows=rows)
        want = [",".join(t.columns)]
        want += [",".join(_format_float(x) for x in row) for row in rows]
        assert render_csv(t) == "\n".join(want) + "\n"

    def test_trace_sized_table_renders_as_per_cell_format_float(self):
        # the echo trace's shape: 18001 x 7, with signed zeros, subnormals and
        # rounding noise near 1e-19 as re_p carries on real-valued traces
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((18001, 7))
        rows[:, 1] *= 1e-19
        rows[::5, 2] = -0.0
        rows[1::5, 2] = 0.0
        rows[::7, 3] = 5e-324 * rng.integers(-9, 10, rows[::7, 3].size)
        rows[:, 4] = rng.uniform(-1.0, 1.0, 18001) * 1e300
        t = Table(columns=tuple("abcdefg"), rows=rows)
        want = [",".join(t.columns)]
        want += [",".join(_format_float(x) for x in row) for row in rows.tolist()]
        assert render_csv(t) == "\n".join(want) + "\n"


class TestRenderRuns:
    """Runs of more than a row's width of bit-identical cells are formatted
    once; the bytes must stay those of _format_float on every cell."""

    @settings(max_examples=300)
    @given(table=piecewise_constant_tables())
    def test_piecewise_constant_columns_render_as_per_cell_format_float(self, table):
        assert render_csv(table) == per_cell(table)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_signed_zeros_are_different_runs(self, m):
        # -0.0 == 0.0, but their texts differ: runs split on the bit pattern
        column = ([0.0] * (m + 2) + [-0.0] * (m + 2)) * 3
        rows = np.column_stack([column] + [np.arange(len(column), dtype=float)] * (m - 1))
        text = render_csv(table_of(rows))
        assert text == per_cell(table_of(rows))
        firsts = [line.split(",")[0] for line in text.splitlines()[1:]]
        assert firsts.count("-0") == firsts.count("0") == 3 * (m + 2)

    @pytest.mark.parametrize("m", [1, 3])
    def test_subnormal_runs(self, m):
        column = [5e-324] * (3 * m) + [-5e-324] * (m + 1) + [0.0] * (m + 1)
        rows = np.column_stack([column] * m)
        assert render_csv(table_of(rows)) == per_cell(table_of(rows))

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("length", ["m", "m+1"])
    def test_runs_at_both_ends_and_at_the_hold_threshold(self, m, length):
        # runs of exactly m rows are formatted cell by cell, m + 1 rows are held
        k = m + (length == "m+1")
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((4 * k + 3, m))
        rows[:k] = 1.0 / 3.0  # opens at the first row
        rows[-k:] = 2.0 / 3.0  # closes at the last row
        rows[k + 1 : 2 * k + 1, 0] = -0.25
        rows[2 * k + 1 : 3 * k + 1, -1] = 0.75  # starts where the run above ends
        assert render_csv(table_of(rows)) == per_cell(table_of(rows))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0]],
            [[-0.0]],
            [[5e-324, 5e-324, -0.0, 0.0]],
            [[1.0]] * 5,
            [[-0.0], [-0.0], [0.0], [0.0], [0.0], [-0.0]],
            [[0.1]] * 3 + [[0.2]] * 1 + [[0.1]] * 2,
        ],
        ids=["cell", "negative-zero", "row", "column-run", "column-zeros", "column-mixed"],
    )
    def test_one_row_and_one_column_tables(self, rows):
        assert render_csv(table_of(rows)) == per_cell(table_of(rows))

    def test_cdr_echo_table_renders_as_per_cell_format_float(self, monkeypatch, capsys):
        # the table `cdrecho echo --out` writes for the shipped cdr sequence
        tables = []
        monkeypatch.setattr(cli, "write_csv", lambda table, path: tables.append(table))
        seq = str(ROOT / "sequences" / "cdr.json")
        assert cli.cli_main(["echo", "--seq", seq, "--out", "unused.csv"]) == 0
        capsys.readouterr()
        (table,) = tables
        assert table.rows.shape == (9001, 7)
        assert render_csv(table) == per_cell(table)


class TestWriteCsv:
    def test_bytes_match_render_and_are_stable(self, tmp_path):
        t = Table(
            columns=("a", "b"),
            rows=np.array([[math.pi, 1e-7], [1.0 / 3.0, 12345.678]]),
            meta=(("k", "v"),),
        )
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        write_csv(t, p1)
        write_csv(t, p2)
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        assert data == render_csv(t).encode("ascii")
        assert b"\r" not in data

    @settings(max_examples=150)
    @given(table=headed_tables())
    def test_file_bytes_are_the_per_cell_text(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(table, path)
            assert path.read_bytes() == per_cell(table).encode("ascii")

    def test_text_that_is_not_ascii_raises_before_the_file_exists(self, tmp_path):
        meta = Table(columns=("a",), rows=np.zeros((1, 1)), meta=(("source", "donn\u00e9es.json"),))
        column = Table(columns=("\u03c6",), rows=np.zeros((0, 1)))
        for table in (meta, column):
            with pytest.raises(UnicodeEncodeError):
                render_csv(table)
            path = tmp_path / "t.csv"
            with pytest.raises(UnicodeEncodeError):
                write_csv(table, path)
            assert not path.exists()
            # nor is an existing file touched
            path.write_bytes(STALE)
            with pytest.raises(UnicodeEncodeError):
                write_csv(table, path)
            assert path.read_bytes() == STALE
            path.unlink()

    def test_non_finite_cell_leaves_an_existing_file_untouched(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(STALE)
        with pytest.raises(CsvWriteError, match="nan"):
            write_csv(table_of([[1.0, math.nan]]), path)
        assert path.read_bytes() == STALE

    @pytest.mark.parametrize("old_size", ["longer", "shorter", "equal"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old_size):
        table = table_of(np.arange(12.0).reshape(4, 3))
        new = render_csv(table).encode("ascii")
        old = {"longer": STALE, "shorter": b"x\n", "equal": b"y" * len(new)}[old_size]
        path = tmp_path / "t.csv"
        path.write_bytes(old)
        write_csv(table, path)
        assert path.read_bytes() == new

    def test_rewrite_through_a_symlink_keeps_the_link(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(STALE)
        link.symlink_to(target)
        table = table_of([[1.0, 2.0]])
        write_csv(table, link)
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == render_csv(table).encode("ascii")

    def test_rewrite_keeps_inode_mode_and_hard_links(self, tmp_path):
        path, twin = tmp_path / "t.csv", tmp_path / "twin.csv"
        path.write_bytes(STALE)
        path.chmod(0o640)
        os.link(path, twin)
        before = os.stat(path)
        table = table_of([[1.0, 2.0]])
        write_csv(table, path)
        after = os.stat(path)
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino, before.st_mode, before.st_nlink
        )
        assert twin.read_bytes() == render_csv(table).encode("ascii")

    def test_read_only_file_is_refused_and_kept(self):
        # root writes over any mode, so the attempts run as an unprivileged user
        shared = Path(tempfile.mkdtemp())
        try:
            shared.chmod(0o755)
            path = shared / "t.csv"
            path.write_bytes(STALE)
            path.chmod(0o444)
            seq = shared / "dr.json"
            seq.write_bytes((ROOT / "sequences" / "dr.json").read_bytes())

            def write():
                try:
                    write_csv(table_of([[1.0]]), path)
                except PermissionError:
                    return 10
                return 0

            assert unprivileged(write) == 10
            echo = ["echo", "--seq", str(seq), "--out", str(path)]
            assert unprivileged(lambda: cli.cli_main(echo)) == 3
            assert path.read_bytes() == STALE
        finally:
            shutil.rmtree(shared)

    def test_character_device_gets_no_truncate(self, monkeypatch):
        if not os.path.exists(os.devnull):
            pytest.skip(f"no {os.devnull}")
        cut = []
        monkeypatch.setattr(os, "ftruncate", lambda fd, size: cut.append(size))
        write_csv(table_of(np.zeros((3, 2))), os.devnull)
        assert cut == []

    def test_write_that_fails_part_way_leaves_an_empty_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "t.csv"
        path.write_bytes(STALE)
        real_write = os.write

        def write_half(fd, data):
            if len(data) < 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data[: len(data) // 2])

        with monkeypatch.context() as m:
            m.setattr(os, "write", write_half)
            with pytest.raises(OSError, match="No space"):
                write_csv(table_of(np.arange(40.0).reshape(20, 2)), path)
            assert path.read_bytes() == b""
            path.write_bytes(STALE)
            seq = str(ROOT / "sequences" / "dr.json")
            assert cli.cli_main(["echo", "--seq", seq, "--out", str(path)]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert path.read_bytes() == b""

    def test_values_survive_reparse_to_twelve_digits(self, tmp_path):
        rng = np.random.default_rng(77)
        rows = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-6, 6, (20, 3))
        t = Table(columns=("a", "b", "c"), rows=rows)
        path = tmp_path / "t.csv"
        write_csv(t, path)
        back = np.genfromtxt(path, delimiter=",", skip_header=1)
        np.testing.assert_allclose(back, rows, rtol=1e-11)
