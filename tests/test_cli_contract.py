"""The `echo` contract under mutated sequence files: exit 0 or 2, never a
traceback, one coded error line on a refusal, and no allocation past a
lowered trace budget.

`documents` draws a valid sequence file, hard or square pulses on a small
comb, and `mutated` breaks it: extreme floats, wrong types, unknown and
duplicated keys, deep nesting and huge atom counts, rendered as JSON text.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrecho import ensemble
from cdrecho.cli import cli_main

# about 6000 samples of a small comb: every draw that passes allocates a few MB
BUDGET_BYTES = 4 * 2**20

EXTREME_FLOATS = [1e308, -1e308, 5e-324, -5e-324, -0.0, 0.0, 1e-320, 10**400]
WRONG_TYPES = [True, False, "1", [1.0], None, {}, {"a": 1}]
HUGE_ATOMS = [2**31 - 1, 10**18 + 1, 10**400 + 1, 2**20, -3, 0]


@st.composite
def documents(draw):
    """A valid sequence document: 0 to 3 pulses, all hard or all square, on 3
    to 41 atoms, over at most a few hundred samples."""
    square = draw(st.booleans())
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    pulses, t = [], 0.0
    for _ in range(draw(st.integers(0, 3))):
        t += draw(st.integers(0, 50)) * dt
        width = draw(st.integers(1, 20)) * dt if square else 0.0
        pulse = {
            "channel": draw(st.sampled_from(["optical12", "control23"])),
            "area_pi": draw(st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.0])),
            "t_start": round(t, 6),
        }
        if square or draw(st.booleans()):
            pulse["duration"] = round(width, 6)
        pulses.append(pulse)
        t += width
    doc = {"pulses": pulses}
    if draw(st.booleans()):
        doc["ensemble"] = {
            "sigma_hz": draw(st.sampled_from([0.3e6, 1e6, 3e6])),
            "n_atoms": draw(st.sampled_from([3, 9, 41])),
            "span": draw(st.sampled_from([0.0, 2.0, 5.0])),
        }
    else:  # the default sigma and span
        doc["ensemble"] = {"n_atoms": draw(st.sampled_from([3, 9, 41]))}
    doc["grid"] = {"t_end": round(t + draw(st.integers(1, 100)) * dt, 6), "dt": dt}
    return doc


def _paths(value, path=()):
    """Every (path, value) below value, path as a tuple of keys and indices."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, (*path, key))


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@st.composite
def mutated(draw):
    """The JSON text of a valid document after 0 to 3 mutations."""
    doc = draw(documents())
    duplicates = []  # (key, JSON value) pairs to write once more before the key
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["float", "type", "unknown", "duplicate", "nest", "atoms"]))
        paths = [p for p, v in _paths(doc) if p and (kind != "float" or isinstance(v, float))]
        if kind == "atoms":
            doc["ensemble"] = {"n_atoms": draw(st.sampled_from(HUGE_ATOMS))}
        elif kind == "unknown":
            objects = [p for p, v in _paths(doc) if isinstance(v, dict)]
            where = draw(st.sampled_from(objects))
            _put(doc, (*where, "extra"), 1.0)
        elif kind == "duplicate":
            keys = sorted({p[-1] for p in paths if isinstance(p[-1], str)})
            value = draw(st.sampled_from(EXTREME_FLOATS + WRONG_TYPES))
            duplicates.append((draw(st.sampled_from(keys)), json.dumps(value)))
        elif paths:
            pool = {
                "float": EXTREME_FLOATS,
                "type": WRONG_TYPES,
                "nest": [[[[[[1.0]]]]]],
            }[kind]
            # a copy, so that a later mutation inside it leaves the pool alone
            _put(doc, draw(st.sampled_from(paths)), copy.deepcopy(draw(st.sampled_from(pool))))
    text = json.dumps(doc)
    for key, value in duplicates:  # json keeps the last of two equal keys
        text = text.replace(f'"{key}": ', f'"{key}": {value}, "{key}": ', 1)
    if draw(st.integers(0, 9)) == 0:  # deeper than the parser can follow
        text = "[" * 100000 + text + "]" * 100000
    return text


def run_echo(text: str, engine: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cdrecho echo` on the text as a file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(["echo", "--seq", str(path), "--engine", engine])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(mutated(), st.sampled_from(["hard", "ode"]))
# each of these once raised: an atom count past the float range, a list as
# the channel, and a step whose one sample puts the comb's phase past it
@example('{"pulses": [], "ensemble": {"n_atoms": ' + str(10**400 + 1) + "}}", "hard")
@example('{"pulses": [{"channel": [1.0], "area_pi": 1, "t_start": 0}]}', "hard")
@example(
    '{"pulses": [{"channel": "optical12", "area_pi": 0.5, "t_start": 0}],'
    ' "grid": {"t_end": 0.04, "dt": 1e308}}',
    "hard",
)
def test_echo_exits_0_or_2_with_one_coded_line(text, engine):
    with mock.patch.object(ensemble, "_TRACE_BUDGET_BYTES", BUDGET_BYTES):
        rc, out, err = run_echo(text, engine)
    assert rc in (0, 2), (rc, err)
    if rc == 2:
        assert out == ""
        assert re.fullmatch(r"error: [A-Z_]+: [^\n]*\n", err), err
    else:
        assert out.startswith("predicted echo times (us): ")
