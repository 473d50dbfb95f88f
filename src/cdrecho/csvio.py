"""Byte-deterministic CSV tables for sweep and trace output.

Layout: an optional leading "# key=value ..." metadata line, a header line,
then rows. Floats are printed with 12 significant digits and LF endings so
regenerated files are byte-identical. Non-finite values are refused.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["Table", "CsvWriteError", "render_csv", "write_csv"]

_CELL = "%.12g"


class CsvWriteError(ValueError):
    """Serialization failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _format_float(x: float) -> str:
    """12-significant-digit decimal form; rejects NaN and infinities."""
    if not math.isfinite(x):
        raise CsvWriteError("NON_FINITE_VALUE", f"refusing to serialize {x!r}")
    return _CELL % x


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


def _template(head: list[str], rows: np.ndarray) -> tuple[bytes, tuple]:
    """The whole file as one bytes % template, and the values of its open cells.

    A run of more than one row's width of bit-identical cells down a column is
    printed into the template once: the rows are cut wherever such a run starts
    or ends, and each stretch of rows repeats one row template with the run's
    text in place of its %.12g.
    """
    lines = [(line.replace("%", "%%") + "\n").encode("ascii") for line in head]  # literal text
    values = ()
    if rows.shape[0]:
        held, first = _runs(rows)
        cells = np.full((first.size, rows.shape[1]), _CELL, dtype=object)
        top = held[first]
        cells[top] = [_CELL % x for x in rows[first][top].tolist()]
        counts = np.diff(first, append=rows.shape[0]).tolist()
        lines += [(",".join(r) + "\n").encode("ascii") * k for r, k in zip(cells.tolist(), counts)]
        values = tuple(rows[~held].tolist())
    return b"".join(lines), values


def render_csv(table: Table) -> str:
    """The full file contents, newline-terminated, as _format_float prints
    every cell; text that is not ASCII raises UnicodeEncodeError.

    One bytes % call fills the file's template: str % costs 5 to 15 % more per
    cell, and a call per row about 20 % more.
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
    UnicodeEncodeError before the file is opened, so no file is left."""
    data = render_csv(table).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
