"""Runs one workload in this process through cdrecho.cli.cli_main and checks every output.

Started by run.py with the checkout root as working directory. One pass runs
the workload's command list once; each command together with its output
check is one operation. An untimed warm-up pass comes first, then passes
repeat until --seconds have gone by (at least MIN_PASSES). Only the CLI calls
are timed; the checks run between them.

On a virtual machine that shares its cores with other tenants, CPU speed can
swing by up to 2x over minutes, so raw pass times from runs a few minutes
apart differ by more than a regression bound. A fixed reference computation
(`reference`) therefore runs before the first pass and after every pass. Each
pass's time is divided by the mean of the two reference runs around it, and
the median of these ratios over the run is reported.

--trace 0 prints wall_rel and cpu_rel (pass wall and CPU time in multiples
of the reference's, medians over passes) and peak_rss_mb.
--trace 1 alternates untraced and traced passes, prints the median self time
of each layer over the traced passes, the layer counts, and the tracing
overhead (median traced minus median untraced pass), and writes every span
and count to --trace-out as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from cdrecho import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed computation with the program's mix of work:
    interpreted Python, numpy calls on tiny arrays, and one pass over fresh big arrays."""
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    rho = np.zeros(3, complex)
    for _ in range(20_000):
        rho = rho * 0.9999 + 0.5j
    # 16 MB of fresh float64 and two 32 MB complex temporaries: page faults
    # and memory traffic weigh in here as in the program's dense echo traces
    np.exp(1j * np.linspace(0.0, 1.0, 2_000_000)).sum()
    return time.perf_counter() - t0, time.process_time() - c0


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self) -> tuple[float, float]:
        """Run every operation once; returns the CLI calls' wall and CPU seconds."""
        wall = cpu = 0.0
        for op in self.ops:
            self.attempted += 1
            out = io.StringIO()
            gc.collect()  # every call starts from a swept heap
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.cli_main(list(op.argv))
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                rc = None
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if rc != 0:
                self.failed += 1
                print(f"failed ({rc}): cdrecho {' '.join(op.argv)}", file=sys.stderr)
                continue
            try:
                problems = op.check(out.getvalue())
            except Exception as exc:  # output too malformed to compare
                problems = [f"check raised {exc!r}"]
            self.problems += [f"cdrecho {' '.join(op.argv)}: {p}" for p in problems]
        return wall, cpu


def measure(runner: Runner, seconds: float) -> dict:
    runner.run_pass()
    # every pass repeats the same calls, so the warm-up pass sets the program's
    # peak; it is read now because the reference allocates as well
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_before = reference()
    wall_rel, cpu_rel = [], []
    start = time.perf_counter()
    while len(wall_rel) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, cpu = runner.run_pass()
        ref_after = reference()
        wall_rel.append(2.0 * wall / (ref_before[0] + ref_after[0]))
        cpu_rel.append(2.0 * cpu / (ref_before[1] + ref_after[1]))
        ref_before = ref_after
    return {
        "wall_rel": statistics.median(wall_rel),
        "cpu_rel": statistics.median(cpu_rel),
        "peak_rss_mb": peak_rss_mb,
    }


def measure_traced(runner: Runner, seconds: float, trace_out: Path) -> dict:
    warm = tracing.Tracer(measure_alloc=True)
    warm.install()
    try:
        runner.run_pass()
    finally:
        warm.uninstall()

    plain_walls, traced_walls, ref_walls, layer_runs, passes = [], [], [], [], []
    start = time.perf_counter()
    while len(traced_walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        ref_walls.append(reference()[0])
        plain_walls.append(runner.run_pass()[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            pass_start = time.perf_counter()
            wall = runner.run_pass()[0]
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        layer_runs.append({**tracer.self_times(), **tracer.counts})
        passes.append(
            {
                "wall_s": wall,
                "counts": tracer.counts,
                "spans": [
                    {"id": i, "parent": p, "name": n, "start": s - pass_start, "end": e - pass_start}
                    for i, p, n, s, e in tracer.spans
                ],
            }
        )

    layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
    layers["ensemble.simulate_peak_alloc_mb"] = warm.peaks.get("ensemble.simulate_peak_alloc_mb", 0.0)
    layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    layers["host.reference_s"] = statistics.median(ref_walls)
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(
        json.dumps(
            {
                "untraced_wall_s": plain_walls,
                "traced_wall_s": traced_walls,
                "reference_wall_s": ref_walls,
                "overhead_s": layers["trace.overhead_s"],
                "layers": layers,
                "passes": passes,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True, help="directory holding the inputs")
    ap.add_argument("--trace-out", type=Path, help="span file for --trace 1")
    args = ap.parse_args(argv)

    rng = np.random.default_rng([args.seed, workloads.WORKLOADS.index(args.workload)])
    runner = Runner(workloads.operations(args.workload, args.work, rng))
    if args.trace:
        metrics = measure_traced(runner, args.seconds, args.trace_out)
    else:
        metrics = measure(runner, args.seconds)
    for problem in runner.problems[:20]:
        print(problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not runner.problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
