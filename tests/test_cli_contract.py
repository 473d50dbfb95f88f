"""The CLI contract under mutated inputs: exit 0 or 2, never a traceback,
one coded error line on a refusal, and no allocation past a lowered trace
budget.

`documents` draws a valid sequence file, hard or square pulses on a small
comb, and `mutated` breaks it: extreme floats, wrong types, unknown and
duplicated keys, deep nesting and huge atom counts, rendered as JSON text.
`arguments` draws the options of `sweep`, `stages` and `propagate` from
extreme, malformed and missing values; now and then a longer old file waits
where `--out` writes, and a run must replace it whole or leave it as it was.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrecho import ensemble
from cdrecho.cli import _negative_floats_joined, _parser, cli_main
from cdrecho.stages import COLUMNS, STAGES

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
# each of these once raised or printed no code of its own: an atom count past
# the float range, an integer past the interpreter's digit limit, a list as
# the channel, and a step whose one sample puts the comb's phase past it
@example('{"pulses": [], "ensemble": {"n_atoms": ' + str(10**400 + 1) + "}}", "hard")
@example('{"pulses": [], "ensemble": {"n_atoms": ' + "9" * 4301 + "}}", "hard")
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


NUMBERS = ["0", "-0.0", "0.5", "1", "4", "-3", "1e308", "-1e308", "5e-324", "1e-320",
           "5e307", "-5e307", "nan", "inf", "-inf", "1e400", "abc", "", "0x10", "1_0"]
# a sweep holds about 280 B per point: either few points or a count it refuses
STEPS = ["-1", "0", "1", "2", "3", "17", str(10**6 + 1), str(10**30), "2.5", "x", ""]
AREAS = ("--phid", "--phir1", "--phic1", "--phic2", "--phir2")
AREA_NAMES = sorted({n for names, _ in STAGES.values() for n in names})
OPTIONS = {  # the options each command takes, and whether it requires them
    "sweep": {"--stage": True, "--varying": True, "--lo": False, "--hi": False,
              "--steps": False, **dict.fromkeys(AREAS, False)},
    "stages": {"--phid": True, **dict.fromkeys(AREAS[1:], False)},
    "propagate": {"--phi0": True, "--alpha": True, "--zmax": True},
}


def _values(option):
    if option == "--stage":
        return st.sampled_from([*STAGES, "r3", ""])
    if option == "--varying":
        return st.sampled_from([*AREA_NAMES, "phi_x"])
    if option == "--steps":
        return st.sampled_from(STEPS)
    return st.one_of(st.sampled_from(NUMBERS), st.floats().map(repr))


@st.composite
def arguments(draw):
    """(command, argv after the command, whether to add --out): each option
    as `--name value` or `--name=value`, a required one left out now and then,
    an optional one given twice now and then."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    names = [n for n, required in OPTIONS[command].items() if required and draw(st.integers(0, 19))]
    names += draw(st.lists(st.sampled_from(list(OPTIONS[command])), max_size=4))
    argv = []
    for name in names:
        value = draw(_values(name))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return command, argv, command != "stages" and draw(st.booleans())


def _cells(lines: list[str], header: list[str]) -> list[list[float]]:
    """The rows below the header as finite floats, each as wide as the header."""
    assert lines[0].split(",") == header, lines[0]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert all(len(r) == len(header) and all(map(math.isfinite, r)) for r in rows)
    return rows


def _check_output(command: str, argv: list[str], text: str) -> None:
    """The documented table: a sweep's meta line, header and one row per grid
    point; the five stages; propagate's meta line and 1 or 1001 depths."""
    lines = text.splitlines()
    if command == "stages":
        rows = _cells([line.split(",", 1)[1] for line in lines], list(COLUMNS))
        assert [line.split(",")[0] for line in lines] == ["stage", "D", "R1", "C1", "C2", "R2"]
        assert len(rows) == 5
    elif command == "sweep":
        assert lines[0].startswith("# stage=") and lines[1].endswith("_rad," + ",".join(COLUMNS))
        rows = _cells(lines[1:], lines[1].split(","))
        assert len(rows) == _parser().parse_args(_negative_floats_joined([command, *argv])).steps
    else:
        assert lines[0].startswith("# phi0_rad=")
        assert len(_cells(lines[1:], ["z", "phi_rad"])) in (1, 1001)


# an old --out file longer than any table a drawn run writes, and no table
STALE = b"stale,bytes\n" * 20000


@settings(max_examples=300)
@given(arguments(), st.integers(0, 3).map(lambda k: k == 0))  # now and then a stale --out
# each of these once gave a NaN table: a grid whose hi - lo overflows, and
# areas whose sum in a closed form overflows
@example(
    ("sweep", ["--stage", "data", "--varying", "phi_d", "--lo=-5e307", "--hi=5e307"], False), False
)
@example(
    ("sweep", ["--stage", "r1", "--varying", "phi_r1", "--phid=5e307", "--hi=5e307"], True), True
)
@example(("stages", ["--phid", "0", "--phic1", "5e307", "--phic2", "5e307"], False), False)
# a negative float in exponent form is a value, not an option
@example(("propagate", ["--phi0", "-2e-3", "--alpha", "1", "--zmax", "1"], True), True)
def test_sweep_stages_and_propagate_exit_0_or_2_with_one_error_line(drawn, stale):
    command, argv, to_file = drawn
    stale = to_file and stale
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        if stale:
            path.write_bytes(STALE)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main([command, *argv, *(["--out", str(path)] if to_file else [])])
        written = path.read_bytes() if path.exists() else None
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2), (rc, err)
    if rc == 2:
        assert out == ""
        # a value argparse refuses prints its usage; one the run refuses, its code
        usage = rf"usage: cdrecho {command} .*\ncdrecho {command}: error: [^\n]*\n"
        assert re.fullmatch(r"error: [A-Z_]+: [^\n]*\n", err) or re.fullmatch(usage, err, re.S), err
        assert written == (STALE if stale else None)
    elif to_file:
        assert out == ""
        assert len(written) < len(STALE)
        _check_output(command, argv, written.decode("ascii"))  # a stale tail fails here
    else:
        _check_output(command, argv, out)
