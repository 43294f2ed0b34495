"""Measurement process of the entswap benchmark (started by run.py).

Drives ``entswap.cli.main(["experiment", ...])`` in-process. After the
imports and one untimed warm-up call it prints ``ready``; run.py times
set-up up to that line. It then times calls for the requested seconds,
checks every call's outputs and prints a JSON result as its last line.

Host speed. On a shared 2-core VM the CPU speed drifted by up to 1.7x
within minutes, far more than any regression bound. Every timed call is
therefore bracketed by a fixed host-speed probe (small numpy calls and
Python work, independent of entswap), and the reported times are
scaled to a host on which the probe takes PROBE_REF_S:
``scaled = wall * PROBE_REF_S / probe``. Raw wall times are printed
alongside. Per-layer times from the traced run are not scaled.

With ``--trace 1`` it also runs a few calls under the span tracer and
reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, fixed before numpy is imported:
# OpenBLAS otherwise starts one thread per core in every pool worker.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ORACLE_TOL = 1e-10
# Calls cycle over this many input seeds derived from --seed.
DISTINCT_INPUTS = 4
# Tail percentile of the call times. A fixed percentile keeps call_s_tail
# comparable across commits whose call counts differ; a timed phase makes
# at least MIN_CALLS calls, so at least ten calls lie beyond it.
TAIL_PCT = 90
MIN_CALLS = 100
# Traced calls per run; every span of them is kept in memory.
TRACED_CALLS = 8
# Untimed calls per phase of the traced run, which reports medians only.
LAYER_MIN_CALLS = 20
# Interval at which the worker processes' private memory is sampled, and
# the untimed calls it is sampled over. In about one call in four the
# workers' private memory peaks some 50% higher than in the others, so the
# median of the per-call peaks is reported.
MEMORY_SAMPLE_S = 0.002
MEMORY_CALLS = 2 * DISTINCT_INPUTS
# Probe duration on the reference host; only ratios to it are reported.
PROBE_REF_S = 0.003
PROBE_ROUNDS = 60
_PROBE_MATRIX = np.arange(16.0).reshape(4, 4) * (1 + 1j)
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.conj().T


@dataclass(frozen=True)
class Workload:
    experiment: str
    samples: int
    workers: int
    rows_per_sample: int
    extra: "tuple[str, ...]" = ()
    oracle_tol: "float | None" = None
    # Check the CSV bytes against an untraced workers=1 call of the same seed.
    reference: bool = False


# Sample counts. The mirrored acceptance calls run 10^5 (10^3) samples,
# where per-call costs (argument parsing, process-pool start-up, summary)
# vanish. Each N here keeps the cost of an N=1 call at about 5% of a call
# or less (experiments.fixed_call_share), while a 30 s run still makes
# MIN_CALLS calls.
WORKLOADS = {
    "pure-general": Workload("pure", samples=100, workers=1, rows_per_sample=4),
    "belldiag-par": Workload("belldiag", samples=1500, workers=2,
                             rows_per_sample=4, reference=True),
    "oracle-equiv": Workload("oracle-equiv", samples=100, workers=1,
                             rows_per_sample=1, extra=("--eta", "0.5"),
                             oracle_tol=ORACLE_TOL),
}


def host_probe() -> float:
    """Wall seconds of a fixed mix like entswap's own: small dense linear
    algebra, Python containers and float formatting."""
    m = _PROBE_MATRIX
    start = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        w, v = np.linalg.eigh(m)
        np.linalg.svd(m, compute_uv=False)
        np.kron(m, m)
        (v * w) @ v.conj().T
        {"round": i, "items": [j for j in range(30)]}
        ",".join(f"{x:.17g}" for x in w)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Call:
    seconds: float
    rows: int
    csv_bytes: int


@dataclass(frozen=True)
class Phase:
    """Calls of one phase; ``scaled`` holds their host-speed-scaled times."""

    calls: "list[Call]"
    scaled: "list[float]"

    @property
    def raw(self) -> "list[float]":
        return [c.seconds for c in self.calls]


class Runner:
    """Makes checked CLI calls of one workload and tallies failures."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path):
        from entswap import cli

        self.main = cli.main
        self.workload = workload
        self.seeds = [seed * DISTINCT_INPUTS + j for j in range(DISTINCT_INPUTS)]
        self.csv_path = out_dir / "records.csv"
        self.summary_path = out_dir / "records.summary.json"
        self.references: "dict[int, bytes]" = {}
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []

    def argv(self, seed: int, workers: int, samples: int) -> "list[str]":
        w = self.workload
        return ["experiment", w.experiment, "--samples", str(samples),
                "--seed", str(seed), "--workers", str(workers),
                "--out", str(self.csv_path), *w.extra]

    def call(self, seed: int, workers: int, main=None,
             samples: "int | None" = None) -> Call:
        """One timed CLI call, from argument parsing to written outputs,
        followed by the untimed output checks. ``samples`` defaults to
        the workload's N."""
        main = main or self.main
        w = self.workload
        samples = samples or w.samples
        argv = self.argv(seed, workers, samples)
        for path in (self.csv_path, self.summary_path):
            path.unlink(missing_ok=True)
        captured = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crashing call is a failed call
            rc, error = None, repr(exc)
        seconds = time.perf_counter() - start

        csv = self.csv_path.read_bytes() if self.csv_path.exists() else None
        try:
            summary = json.loads(self.summary_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            summary = None
        reference = None
        if w.reference and samples == w.samples:
            reference = self.references.get(seed)
            if reference is None and workers == 1 and main is self.main:
                self.references[seed] = csv
        problems = checks.check_call(
            rc, summary, csv, expected_rows=w.rows_per_sample * samples,
            oracle_tol=w.oracle_tol, reference=reference)
        self.attempted += 1
        if problems:
            self.failed += 1
            detail = f" ({error})" if error else ""
            self.problems.append(f"{' '.join(argv)}: {'; '.join(problems)}{detail}")
        rows = csv.count(b"\n") - 1 if csv else 0
        return Call(seconds, rows, len(csv or b""))

    def phase(self, workers: int, seconds: float = 0.0,
              min_calls: int = MIN_CALLS, main=None,
              samples: "int | None" = None) -> Phase:
        """Calls cycling over the input seeds until ``seconds`` have passed
        and at least ``min_calls`` were made, each between two probes."""
        calls, probes = [], [host_probe()]
        deadline = time.perf_counter() + seconds
        while len(calls) < min_calls or time.perf_counter() < deadline:
            seed = self.seeds[len(calls) % DISTINCT_INPUTS]
            calls.append(self.call(seed, workers, main, samples))
            probes.append(host_probe())
        scaled = [c.seconds * 2 * PROBE_REF_S / (before + after)
                  for c, before, after in zip(calls, probes, probes[1:])]
        return Phase(calls, scaled)


def tail(times: "list[float]") -> float:
    """The TAIL_PCT percentile of ``times``, by nearest rank."""
    ordered = sorted(times)
    return ordered[math.ceil(TAIL_PCT / 100 * len(ordered)) - 1]


def private_kib(smaps_rollup: str) -> int:
    """Memory only this process maps (Private_Clean + Private_Dirty), in
    KiB, from the text of /proc/<pid>/smaps_rollup. A forked worker's
    pages that are still shared with its parent are not counted."""
    kib = 0
    for line in smaps_rollup.splitlines():
        key, _, rest = line.partition(":")
        if key in ("Private_Clean", "Private_Dirty"):
            kib += int(rest.split()[0])
    return kib


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:  # the process or thread has just ended
        return ""


class WorkerMemory:
    """Samples, in a background thread, the summed private memory of this
    process's live child processes (the pool workers) and keeps its peak.
    Linux only: it reads /proc."""

    def __init__(self):
        self.peak_kib = 0
        self.samples_with_workers = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _children(self) -> "list[str]":
        task_dir = f"/proc/{os.getpid()}/task"
        return [pid for tid in os.listdir(task_dir)
                for pid in _read(f"{task_dir}/{tid}/children").split()]

    def _run(self) -> None:
        while not self._stop.wait(MEMORY_SAMPLE_S):
            children = self._children()
            if children:
                self.samples_with_workers += 1
                total = sum(private_kib(_read(f"/proc/{pid}/smaps_rollup"))
                            for pid in children)
                self.peak_kib = max(self.peak_kib, total)

    def __enter__(self) -> "WorkerMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def own_peak_kib() -> int:
    """Peak RSS of this process over its life, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(runner: Runner, seconds: float) -> "tuple[dict, list[str]]":
    w = runner.workload
    if w.reference:
        for seed in runner.seeds:
            runner.call(seed, 1)
    timed = runner.phase(w.workers, seconds)
    n = len(timed.calls)
    median = statistics.median(timed.scaled)
    tail_s = tail(timed.scaled)
    worker_kib = 0
    if w.workers > 1:
        peaks = []
        for i in range(MEMORY_CALLS):
            with WorkerMemory() as memory:
                runner.call(runner.seeds[i % DISTINCT_INPUTS], w.workers)
            if not memory.samples_with_workers:
                runner.problems.append("no worker process seen by the memory sampler")
            peaks.append(memory.peak_kib)
        worker_kib = statistics.median(peaks)
    own_kib = own_peak_kib()
    rss = (own_kib + worker_kib) / 1024.0
    values = {"samples_per_s": w.samples / median, "call_s_tail": tail_s,
              "peak_rss_mb": rss}
    units = declared_units()
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    report = [
        f"samples_per_s: {w.samples / median:.6g} samples/s "
        f"({w.samples} samples / median of {n} scaled call times; "
        f"raw wall {w.samples / statistics.median(timed.raw):.6g})",
        f"call_s_tail: {tail_s:.6g} s (scaled p{TAIL_PCT} of {n} calls; "
        f"raw wall {tail(timed.raw):.6g})",
        f"peak_rss_mb: {rss:.6g} MB (measuring process peak RSS {own_kib / 1024:.6g} "
        f"+ median over {MEMORY_CALLS} untimed calls of the per-call peak of the "
        f"workers' summed private memory {worker_kib / 1024:.6g}, sampled every "
        f"{MEMORY_SAMPLE_S * 1e3:g} ms; the two peaks may fall at different times)",
    ]
    return metrics, report


def declared_units() -> "dict[str, str]":
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def per_layer(runner: Runner, seconds: float, spans_path: Path):
    import tracer as tracing

    w = runner.workload
    untraced = runner.phase(1, seconds / 2 if w.workers > 1 else seconds,
                            LAYER_MIN_CALLS)
    speedup, pooled = 1.0, untraced
    if w.workers > 1:
        pooled = runner.phase(w.workers, seconds / 2, LAYER_MIN_CALLS)
        speedup = statistics.median(untraced.scaled) / statistics.median(pooled.scaled)
    single = runner.phase(w.workers, min_calls=LAYER_MIN_CALLS, samples=1)
    fixed_share = statistics.median(single.scaled) / statistics.median(pooled.scaled)

    tracer = tracing.Tracer()
    wrapped_main = tracer.wrap("cli.main", runner.main)

    def traced_main(argv):
        tracer.call += 1
        return wrapped_main(argv)

    with tracer.installed():
        traced = runner.phase(1, min_calls=TRACED_CALLS, main=traced_main)
    overhead = (statistics.median(traced.scaled)
                / statistics.median(untraced.scaled) - 1.0)
    values = tracing.layer_metrics(
        tracer, samples=TRACED_CALLS * w.samples,
        rows=sum(c.rows for c in traced.calls),
        csv_bytes=sum(c.csv_bytes for c in traced.calls))
    values["experiments.pool_speedup"] = speedup
    values["experiments.fixed_call_share"] = fixed_share
    values["trace.overhead"] = overhead
    tracer.write(spans_path)

    share_sum = sum(values[name] for name in tracing.SHARES)
    if abs(share_sum - 1.0) > 1e-6:
        runner.problems.append(f"layer shares sum to {share_sum!r}, not 1")
    units = declared_units()
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    report = [f"{name}: {v:.6g} {units[name]}" for name, v in values.items()]
    report.append(f"spans: {len(tracer.names)} over {TRACED_CALLS} traced "
                  f"workers=1 calls, written to {spans_path}")
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after the warm-up call and a probe")
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import entswap

    src = (Path.cwd() / "src").resolve()
    if src not in Path(entswap.__file__).resolve().parents:
        print(f"entswap imported from {entswap.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.work_dir)
    runner.call(runner.seeds[0], workload.workers)  # warm-up
    print("ready", flush=True)
    # host speed right after set-up, to scale the set-up time
    probe_s = statistics.median(host_probe() for _ in range(5))
    setup_scale = PROBE_REF_S / probe_s
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}))
        return 1 if runner.failed else 0

    if args.trace:
        spans_path = args.work_dir.parent / f"spans-{args.workload}-{args.seed}.csv"
        metrics, report = per_layer(runner, args.seconds, spans_path)
    else:
        metrics, report = end_to_end(runner, args.seconds)
    head = [
        f"workload: {args.workload}: entswap experiment {workload.experiment} "
        f"--samples {workload.samples} --workers {workload.workers} "
        f"{' '.join(workload.extra)}".rstrip(),
        f"seed: {args.seed} (call seeds {runner.seeds})",
        f"env: {json.dumps(environment(), sort_keys=True)}",
        f"host probe: {probe_s * 1e3:.4g} ms (reference {PROBE_REF_S * 1e3:g} ms)",
        f"fail_ratio: {runner.failed}/{runner.attempted} = "
        f"{runner.failed / runner.attempted:.6g}",
    ]
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "setup_scale": setup_scale,
        "report": head + report + runner.problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
