"""Benchmark of the cdrecho CLI: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 25 --trace 0

Set-up writes the workload's inputs (drawn from --seed) and starts a fresh
interpreter that imports cdrecho.cli. This is timed SETUP_REPEATS times before
the workload and as many times after it, so that one slow moment of the
machine does not set it alone; setup_s is the median of all of them. The
workload runs in its own process (worker.py), which checks
every output against independent oracles. The last line of standard output
is one JSON object: correct, attempted, failed and metrics, where the metrics
are the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 4
TIME_LIMIT_S = 170.0
UNITS = {
    "setup_s": "s",
    "wall_rel": "ref",
    "cpu_rel": "ref",
    "peak_rss_mb": "MB",
    "ensemble.atom_samples": "count",
    "ensemble.other_peaks": "count",
    "ensemble.simulate_peak_alloc_mb": "MB",
    "csvio.rows": "count",
    "csvio.bytes": "bytes",
    "sweeps.points": "count",
    "integrator.rk4_steps": "count",
    "area.steps": "count",
}


# One BLAS/OpenMP thread: on a machine of two shared cores a second thread
# mostly measures what else runs there, and a run's figures scatter with it.
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _env() -> dict[str, str]:
    env = {**os.environ, **SINGLE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup(workload: str, seed: int, work: Path) -> list[float]:
    """Times of: write the inputs, then import cdrecho.cli in a fresh interpreter."""
    env = _env()
    cmd = [sys.executable, "-c", "import cdrecho.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workloads.write_inputs(workload, seed, work)
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cdrecho CLI benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cdrecho" / "cli.py").is_file():
        print(f"error: no cdrecho sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    out_dir = HERE / "out"
    work = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        # one untimed import leaves the bytecode caches warm
        subprocess.run([sys.executable, "-c", "import cdrecho.cli"], env=_env(), cwd=ROOT, check=True)
        setup_times = setup(args.workload, args.seed, work)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work.relative_to(ROOT)),
            "--trace-out", str(out_dir / f"trace-{args.workload}-seed{args.seed}.json"),
        ]
        done = subprocess.run(
            cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=TIME_LIMIT_S - (time.perf_counter() - started),
        )
        setup_times += setup(args.workload, args.seed, work)
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    values = result["metrics"]
    if not args.trace:
        values = {"setup_s": statistics.median(setup_times), **{k: values[k] for k in ("wall_rel", "cpu_rel", "peak_rss_mb")}}
    metrics = {
        k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in values.items()
    }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
