"""entswap benchmark: Monte Carlo experiment calls through the CLI.

Run from the root of an entswap checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` measures every workload in turn, each with its own
report and result line.

Workloads (see measure.WORKLOADS and BENCHMARK.json):

    pure-general   experiment pure, workers=1: general swap path + fit
    belldiag-par   experiment belldiag, workers=2: X-state fast path + pool
    oracle-equiv   experiment oracle-equiv --eta 0.5, workers=1: optics oracle

``--trace 0`` prints the end-to-end metrics (samples_per_s, call_s_tail,
setup_s, peak_rss_mb); ``--trace 1`` prints the per-layer metrics of a
separate traced run. Human-readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed and
metrics. The exit code is nonzero when any output check failed or the
checkout holds no entswap sources.

This script only orchestrates: it starts measure.py in fresh
interpreters, SETUP_RUNS times in all, and reports as setup_s the median
time from process start to the end of the warm-up call, scaled to the
reference host speed like every other time (see measure.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MEASURE = HERE / "measure.py"
SETUP_RUNS = 7
# Every process must finish well inside the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_measure(extra: "list[str]", deadline: float) -> "tuple[float, dict]":
    """Start measure.py; return its scaled set-up seconds, measured up to
    its 'ready' line, and the JSON object on its last line."""
    start = time.perf_counter()
    # its own process group, so that a kill also ends its pool workers
    proc = subprocess.Popen([sys.executable, str(MEASURE), *extra],
                            stdout=subprocess.PIPE, text=True, env=child_env(),
                            start_new_session=True)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"measure.py exited with {proc.returncode}: {ready}{out}")
    result = json.loads(out.strip().splitlines()[-1])
    return setup * result.pop("setup_scale"), result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload, print its report and result line; return
    the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    work_dir = Path(".perfbench") / f"{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace),
              "--work-dir", str(work_dir)]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_measure(common + ["--setup-only"], deadline)[0])
        setup, result = run_measure(common, deadline)
        setups.append(setup)
    except BenchError as exc:
        print(f"perfbench: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = result.pop("report")
    if not trace:
        setup_s = statistics.median(setups)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        report.append(f"setup_s: {setup_s:.6g} s (median of "
                      f"{' '.join(f'{x:.4g}' for x in setups)}: scaled time "
                      "from process start to the end of the warm-up call)")
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and not result["failed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "in BENCHMARK.json in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/entswap/cli.py").is_file():
        print("perfbench: run from the root of an entswap checkout "
              "(src/entswap/cli.py not found)", file=sys.stderr)
        return 2
    workloads = [args.workload]
    if args.workload == "all":
        bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in bench["workloads"]]
    return max(run_workload(w, args.seed, args.seconds, args.trace)
               for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
