"""Command-line frontend.

Subcommands: figures (write all preset datasets), sweep (one custom area
sweep), stages (closed-form pulse-by-pulse table), echo (ensemble trace and
echo report from a sequence file), propagate (pulse-area attenuation),
verify (cross-validation suite). Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 I/O error, 4 numerical failure (a state turned
non-finite). A value that argparse accepts but the run refuses exits 2 with
one line `error: CODE: message`. Pulse-area options are in units of pi
except propagate --phi0, which is radians.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from .area import propagate_area
from .csvio import CsvWriteError, Table, render_csv, write_csv
from .ensemble import detect_echoes, simulate_ensemble
from .seqfile import SequenceFileError, parse_sequence_file
from .stages import COLUMNS, StageAreas, observables, stage_chain
from .sweeps import FigureId, SweepSpec, figure_dataset, run_sweep
from .verify import run_checks

__all__ = ["cli_main", "main"]

US = 1e-6


def _add_area_options(parser: argparse.ArgumentParser, required_phid: bool):
    parser.add_argument(
        "--phid",
        type=float,
        required=required_phid,
        default=None if required_phid else 0.1,
        help="data pulse area / pi (default 0.1)",
    )
    for name, text in (
        ("phir1", "first rephasing area / pi"),
        ("phic1", "first control area / pi"),
        ("phic2", "second control area / pi"),
        ("phir2", "second rephasing area / pi"),
    ):
        parser.add_argument(f"--{name}", type=float, default=1.0, help=f"{text} (default 1)")


def _areas_from(args) -> StageAreas:
    return StageAreas(
        phi_d=args.phid * math.pi,
        phi_r1=args.phir1 * math.pi,
        phi_c1=args.phic1 * math.pi,
        phi_c2=args.phic2 * math.pi,
        phi_r2=args.phir2 * math.pi,
    )


def _emit_table(table: Table, out: str | None) -> None:
    if out is None:
        sys.stdout.write(render_csv(table))
    else:
        write_csv(table, out)


def _cmd_figures(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fig in FigureId:
        path = out_dir / f"{fig.value}.csv"
        write_csv(figure_dataset(fig), path)
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        stage=args.stage,
        varying=args.varying,
        lo=args.lo * math.pi,
        hi=args.hi * math.pi,
        steps=args.steps,
        fixed=_areas_from(args),
    )
    _emit_table(run_sweep(spec), args.out)
    return 0


def _cmd_stages(args) -> int:
    # build the chain first, so a refused area prints no header
    chain = stage_chain(_areas_from(args))
    print(",".join(("stage", *COLUMNS)))
    for label, state in chain:
        print(label + "," + ",".join(f"{v:+.9f}" for v in observables(state)))
    return 0


def _cmd_echo(args) -> int:
    text = Path(args.seq).read_text(encoding="utf-8")
    seq, spec, times = parse_sequence_file(text)
    trace = simulate_ensemble(seq, spec, times, engine=args.engine)
    report = detect_echoes(times, trace.polarization, seq)

    if report.predicted:
        stamps = ", ".join(f"{t / US:.6f}" for t in report.predicted)
        print(f"predicted echo times (us): {stamps}")
    else:
        print("predicted echo times (us): none")
    if not report.events:
        print("no echoes detected")
    for e in report.events:
        kind = "emissive" if e.im_sign > 0 else "absorptive"
        print(
            f"{e.label} {kind} t={e.time / US:.6f}us "
            f"|P|={e.amplitude:.6e} ImP={e.im_sign * e.amplitude:+.6e}"
        )
    if args.out is not None:
        # the CSV is ASCII, so a non-ASCII file name goes in escaped: donn\xe9es.json
        source = Path(args.seq).name.encode("ascii", "backslashreplace").decode("ascii")
        # Table keeps its own copy, so the stacked rows die with this call
        table = Table(
            columns=("t_us", "re_p", "im_p", "abs_p", "rho11", "rho22", "rho33"),
            rows=np.column_stack(
                [
                    times / US,
                    trace.polarization.real,
                    trace.polarization.imag,
                    np.abs(trace.polarization),
                    trace.pop_ground,
                    trace.pop_excited,
                    trace.pop_spin,
                ]
            ),
            meta=(("source", source), ("engine", args.engine)),
        )
        write_csv(table, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_propagate(args) -> int:
    samples = propagate_area(args.phi0, args.alpha, args.zmax)
    table = Table(
        columns=("z", "phi_rad"),
        rows=samples,
        meta=(
            ("phi0_rad", f"{args.phi0:.12g}"),
            ("alpha", f"{args.alpha:.12g}"),
        ),
    )
    _emit_table(table, args.out)
    return 0


def _cmd_verify(args) -> int:
    checks = run_checks()
    for c in checks:
        print(c.line())
    failed = [c for c in checks if not c.ok]
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cdrecho",
        description="Three-level photon-echo simulator and verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="write all preset sweep datasets as CSV")
    p.add_argument("--out", default="figures", help="output directory (default figures/)")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("sweep", help="sweep one pulse area of one stage")
    p.add_argument("--stage", required=True, help="data, r1, r2_dr, c1, c2 or r2_cdr")
    p.add_argument("--varying", required=True, help="area name, e.g. phi_r1")
    p.add_argument("--lo", type=float, default=0.0, help="grid start / pi (default 0)")
    p.add_argument("--hi", type=float, default=4.0, help="grid end / pi (default 4)")
    p.add_argument("--steps", type=int, default=401, help="grid points (default 401)")
    _add_area_options(p, required_phid=False)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("stages", help="closed-form state after each pulse")
    _add_area_options(p, required_phid=True)
    p.set_defaults(func=_cmd_stages)

    p = sub.add_parser("echo", help="simulate an ensemble sequence file")
    p.add_argument("--seq", required=True, help="JSON sequence file")
    p.add_argument("--engine", choices=("hard", "ode"), default="hard")
    p.add_argument("--out", default=None, help="optional trace CSV path")
    p.set_defaults(func=_cmd_echo)

    p = sub.add_parser("propagate", help="propagate a pulse area through an absorber")
    p.add_argument("--phi0", type=float, required=True, help="initial area, radians")
    p.add_argument("--alpha", type=float, required=True, help="absorption coefficient")
    p.add_argument("--zmax", type=float, required=True, help="propagation depth")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def _negative_floats_joined(argv: list[str]) -> list[str]:
    """argv with each `--name -<float>` written as `--name=-<float>`.

    argparse (Python 3.11) takes only `-1` and `-0.5` shapes for values and
    reads `-2e-3` or `-inf` as an option. No cdrecho option but --help is a
    flag and none is positional, so a negative float after `--name` can only
    be its value.
    """
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        option = prev != "--help" and re.fullmatch(r"--\w[\w-]*", prev)
        if option and arg.startswith("-") and _is_float(arg):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def cli_main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(_negative_floats_joined(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CsvWriteError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # a SequenceFileError's message starts with its own code
        code = "" if isinstance(exc, SequenceFileError) else "INVALID_VALUE: "
        print(f"error: {code}{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_main())
