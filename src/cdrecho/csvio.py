"""Byte-deterministic CSV tables for sweep and trace output.

Layout: an optional leading "# key=value ..." metadata line, a header line,
then rows. Floats are printed with 12 significant digits and LF endings so
regenerated files are byte-identical. Non-finite values are refused.

render_csv prints every cell as %.12g would, but formats as few as it can:
a held run down a column is printed once, a column on a decimal grid (the
echo trace's t_us) is written from its integer and fraction digits, and a
column that is |x| of another (abs_p of im_p) reuses x's digits.
"""

from __future__ import annotations

import bisect
import math
import operator
import os
import stat
from dataclasses import dataclass

import numpy as np

__all__ = ["Table", "CsvWriteError", "render_csv", "write_csv"]

_CELL = b"%.12g"
_SIGNS = np.array([b"", b"-"], dtype=object)


class CsvWriteError(ValueError):
    """Serialization failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _format_float(x: float) -> str:
    """12-significant-digit decimal form; rejects NaN and infinities."""
    if not math.isfinite(x):
        raise CsvWriteError("NON_FINITE_VALUE", f"refusing to serialize {x!r}")
    return "%.12g" % x


@dataclass(frozen=True)
class Table:
    """Column-named numeric table plus ordered string metadata."""

    columns: tuple[str, ...]
    rows: np.ndarray
    meta: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError(
                f"rows shape {rows.shape} does not match {len(self.columns)} columns"
            )
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "meta", tuple((str(k), str(v)) for k, v in self.meta))


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells inside runs of more than a row's width of bit-identical cells
    down their column, and the rows where such a run starts or ends."""
    n, m = rows.shape
    bits = rows.view(np.uint64).T  # -0.0 and 0.0 differ here, as their text does
    new = np.ones((m, n), dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=n * m)
    long = lengths > m
    edges = np.concatenate(([0], starts[long] % n, (starts[long] + lengths[long]) % n))
    return np.repeat(long, lengths).reshape(m, n).T, np.unique(edges)


def _decimal(column: np.ndarray) -> np.ndarray | None:
    """K = rint(1000 v) when %.12g prints each cell v as the decimal K / 1000
    with its trailing zeros and bare point cut, else None.

    Every v must lie below 1e9 and have no sign bit set, and
    |v - K / 1000| <= 1e-14 * K / 1000 must hold, so K = 0 only where v is
    +0.0. K / 1000 is then a point of the 12-significant-digit grid, whose step
    near v is more than 1e-12 * v, so %.12g rounds v to it with 50 times the
    margin; K / 1000 is 0 or from 1e-3 to 1e9, where %g prints no exponent.
    """
    if np.signbit(column).any() or not column.max() < 1e9:
        return None
    v = column[-1].item()  # one cell alone turns most other columns away
    if abs(v - round(v * 1e3) / 1e3) > 1e-14 * (round(v * 1e3) / 1e3):
        return None
    k = np.rint(column * 1e3)
    q = k / 1e3
    return k.astype(np.int64) if (np.abs(column - q) <= 1e-14 * q).all() else None


# what %g prints after the integer part of K / 1000, indexed by K % 1000
_FRACTIONS = np.array([b""] + [(b".%03d" % f).rstrip(b"0") for f in range(1, 1000)], dtype=object)


def _ladder(rows: np.ndarray, held: np.ndarray, first: np.ndarray) -> tuple[int, tuple]:
    """The first never-held column that _decimal prints where the joins pay,
    with K // 1000, K % 1000 and the row where each join starts; (-1, ()) if none.

    A join covers a stretch's rows that share an integer part. Measured on
    18000-row tables against %.12g of the same column, the route saves about
    0.19 us a row, a join costs 0.58 us and a stretch 1.2 us more, so it breaks
    even near 3.1 rows per change of integer part plus 9.6 per stretch; it is
    taken from 4 and 12, a quarter above.
    """
    n = rows.shape[0]
    for c in np.flatnonzero(~held.any(axis=0)).tolist():
        if (k := _decimal(rows[:, c])) is not None:
            whole, part = np.divmod(k, 1000)
            cuts = np.flatnonzero(whole[1:] != whole[:-1]) + 1
            if 4 * (cuts.size + 3 * first.size) <= n:
                return c, (whole, part, np.union1d(first, cuts))
    return -1, ()


def _mirrors(rows: np.ndarray, held: np.ndarray, ladder: int) -> dict[int, int]:
    """{j: i} for the columns j, other than the ladder's, whose open rows are
    column i's and whose open cells are bit for bit np.abs of i's; no i is a j."""
    m = rows.shape[1]
    first = held.argmin(axis=0).tolist()  # each column's first and last open row
    last = (rows.shape[0] - 1 - held[::-1].argmin(axis=0)).tolist()
    top, bottom = rows[first, range(m)].tolist(), rows[last, range(m)].tolist()
    free = [c for c in range(m) if c != ladder and not held[first[c], c]]
    found: dict[int, int] = {}
    for j in free:
        for i in free:
            if (
                i != j
                and first[i] == first[j]
                and abs(top[i]) == top[j]
                and abs(bottom[i]) == bottom[j]
                and i not in found
                and j not in found.values()
                and np.array_equal(held[:, i], held[:, j])
                and np.array_equal(
                    np.abs(rows[~held[:, i], i]).view(np.uint64), rows[~held[:, j], j].view(np.uint64)
                )
            ):
                found[j] = i
                break
    return found


def _values(rows: np.ndarray, held: np.ndarray, first: np.ndarray, ladder: int, mirrors: dict[int, int]) -> tuple:
    """What the template's fields take, in row order: a float per %.12g, a sign
    and a text per %b%b of a mirrored column i, the same text per %b of a
    column that mirrors i. One %.12g fill over |i| makes i's texts."""
    if not mirrors:
        cells = ~held
        if ladder >= 0:
            cells[:, ladder] = False
        return tuple(rows[cells].tolist())
    texts, signs = {}, {}
    for i in set(mirrors.values()):
        x = rows[~held[:, i], i]
        texts[i] = ((b"%.12g\n" * x.size) % tuple(np.abs(x).tolist())).split(b"\n")
        signs[i] = _SIGNS[np.signbit(x).view(np.uint8)].tolist()
    pattern = held[first]  # blocks of stretches with the same open columns
    starts = first[np.concatenate(([True], (pattern[1:] != pattern[:-1]).any(axis=1)))].tolist()
    blocks, used = [], dict.fromkeys(texts, 0)
    for a, b in zip(starts, [*starts[1:], rows.shape[0]]):
        fields = []  # each field's values down the block
        for c in np.flatnonzero(~held[a]).tolist():
            i = mirrors.get(c, c)
            if c in texts:
                fields += [signs[c][used[c] : used[c] + b - a], texts[c][used[c] : used[c] + b - a]]
            elif i in texts:
                fields.append(texts[i][used[i] : used[i] + b - a])
            elif c != ladder:
                fields.append(rows[a:b, c].tolist())
        for i in texts:
            used[i] += 0 if held[a, i] else b - a
        blocks.append((b - a, fields))
    values = [None] * sum(k * len(fields) for k, fields in blocks)
    o = 0
    for k, fields in blocks:
        for f, field in enumerate(fields):
            values[o + f : o + k * len(fields) : len(fields)] = field
        o += k * len(fields)
    return tuple(values)


def _template(head: list[str], rows: np.ndarray) -> tuple[bytes, tuple]:
    """The whole file as one bytes % template, and the values it takes.

    The rows are cut wherever a held run starts or ends (see _runs), so in each
    stretch of rows a column is held throughout or open throughout. A held
    cell's text goes into the stretch's row template, which repeats down the
    stretch. An open cell takes one of three routes:
    - in the column _ladder picks, its text goes into the template: one join
      per run of a stretch's rows sharing an integer part, over the fractions,
      with the row template around the cell and the integer as separator;
    - in a column i that columns j mirror (_mirrors), it is %b%b filled with
      its sign and its text of |i|, and j's cell is %b filled with that text;
    - otherwise it is %.12g filled with its value.
    """
    lines = [(line.replace("%", "%%") + "\n").encode("ascii") for line in head]
    n, m = rows.shape
    if not n:
        return b"".join(lines), ()
    held, first = _runs(rows)
    ladder, grid = _ladder(rows, held, first)
    mirrors = _mirrors(rows, held, ladder)
    values = _values(rows, held, first, ladder, mirrors)
    place = [_CELL] * m  # an open cell's text in the template
    for j, i in mirrors.items():
        place[i], place[j] = b"%b%b", b"%b"
    if grid:
        place[ladder] = b""
    cells = np.empty((first.size, m), dtype=object)
    cells[:] = place
    top = held[first]
    cells[top] = [_CELL % x for x in rows[first][top].tolist()]
    edges = [*first.tolist(), n]
    if not grid:
        lines += [(b",".join(row) + b"\n") * (b - a) for a, b, row in zip(edges, edges[1:], cells.tolist())]
        return b"".join(lines), values
    whole, part, starts = grid
    fractions = _FRACTIONS[part].tolist()
    texts = (b"%d\n" * starts.size % tuple(whole[starts].tolist())).split(b"\n")
    starts = [*starts.tolist(), n]
    for a, b, row in zip(edges, edges[1:], cells.tolist()):
        prefix, suffix = b",".join(row[: ladder + 1]), b",".join(row[ladder:]) + b"\n"
        tail = suffix + prefix  # from the ladder cell's end to the next row's
        lines.append(prefix)
        g, h = bisect.bisect_left(starts, a), bisect.bisect_left(starts, b)
        for u, v, text in zip(starts[g:h], starts[g + 1 : h + 1], texts[g:h]):
            lines += [text, (tail + text).join(fractions[u:v]), tail]
        lines[-1] = suffix
    return b"".join(lines), values


def render_csv(table: Table) -> str:
    """The full file contents, newline-terminated, as _format_float prints
    every cell; text that is not ASCII raises UnicodeEncodeError.

    One bytes % call fills the file's template (see _template): str % costs 5
    to 15 % more per cell, and a call per row about 20 % more. Each route
    prints %.12g's bytes:
    - a held cell is %.12g of its value, once for the whole run;
    - a decimal-grid cell v is within 1e-14 * v of K / 1000 (_decimal), which
      %.12g prints exactly, as its integer part and its fraction digits
      without trailing zeros; the join costs are paid only where they save
      (_ladder);
    - a mirrored cell x is its sign followed by %.12g of |x|, which is how
      %.12g prints any finite x, -0.0 included, and its mirror holds |x| bit
      for bit, so it is printed as that same text;
    - every other cell is %.12g of its value.
    On the 18001-row echo traces this formats one column of the three that
    change row by row, where %.12g formatted all three.
    """
    head = []
    if table.meta:
        head.append("# " + " ".join(f"{k}={v}" for k, v in table.meta))
    head.append(",".join(table.columns))
    rows = table.rows
    bad = rows[~np.isfinite(rows)]
    if bad.size:
        _format_float(bad[0])  # raises NON_FINITE_VALUE for the first, in row order
    # the lines and masks die before %, the template and values before the decode
    return operator.mod(*_template(head, rows)).decode("ascii")


def write_csv(table: Table, path) -> None:
    """Write render_csv(table) as ASCII; text it cannot encode raises
    UnicodeEncodeError before the file is opened, so no file is left.

    An existing file is rewritten in place, not truncated first: on ext4 a
    truncate to zero makes close start writeback, and the next truncate waits
    for it. The bytes go over the old ones, then a longer regular file loses
    its tail. Links, inode, mode and errors are those of open(path, "wb"). A
    write that fails leaves a regular file empty, never the new head on the
    old tail. No fsync is called.
    """
    data = render_csv(table).encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        old = os.fstat(fd)
        regular = stat.S_ISREG(old.st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular and old.st_size > len(data):
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)
