import functools
import gc
import importlib.util
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import entswap as es
from entswap import experiments as ex
from entswap.ensembles import STATE_ENSEMBLES, bell_diagonal_x
from entswap.qstate import concurrence_batch, concurrence_x, pure_batch, pure_concurrence
from entswap.swap import conditional_states, conditional_x_states, swap_batch, swap_x_batch


def test_conservation_small_run():
    records, report = ex.run_experiment("conserve", 100, 5)
    assert report.hard_violations == 0
    assert report.checks["conservation"]["worst"] < 1e-9
    assert len(records["sample"]) == 400  # four outcomes per sample
    assert np.all(records["c_b"] == 1.0) and np.all(records["rank_b"] == 1)


def test_conservation_ensemble_choices(monkeypatch):
    for ensemble in STATE_ENSEMBLES:
        _, report = ex.run_experiment("conserve", 20, 5, ensemble=ensemble)
        assert report.hard_violations == 0
    # an unknown ensemble is refused before any chunk runs, on any workers
    calls, real = [], ex._swap_pass
    monkeypatch.setattr(ex, "_swap_pass", lambda *a: calls.append(a) or real(*a))
    for workers in (1, 2):
        with pytest.raises(ValueError, match="unknown ensemble 'ornstein'"):
            ex.run_experiment("conserve", 3 * ex.DRAW_SAMPLES, 5, ensemble="ornstein",
                              workers=workers)
    assert calls == []


def test_belldiag_small_run():
    records, report = ex.run_experiment("belldiag", 2000, 5)
    assert report.hard_violations == 0
    assert report.checks["belldiag_floor"]["worst"] == 0.0


def test_pure_small_run():
    records, report = ex.run_experiment("pure", 300, 5)
    assert report.hard_violations == 0
    assert report.checks["pure_identity"]["violations"] == 0
    assert report.checks["schmidt_floor"]["violations"] == 0
    assert report.extras == {}
    assert np.all(records["rank_a"] == 1) and np.all(records["rank_b"] == 1)
    assert np.all(records["ratio"] >= 1.0)


def test_rank_relation_small_run():
    records, report = ex.run_experiment("rank", 8, 5)
    assert report.samples == 128
    assert report.hard_violations == 0
    assert report.checks["input_rank"]["violations"] == 0
    combos = set(zip(records["rank_a"].tolist(), records["rank_b"].tolist()))
    assert combos == {(i, j) for i in range(1, 5) for j in range(1, 5)}


def test_rank2_selfswap_grid():
    records, report = ex.run_experiment("rank2-selfswap", 19, 0)
    assert report.checks["self_swap_square"]["violations"] == 0
    assert report.checks["self_swap_square"]["worst"] < 1e-12
    # every outcome of every grid point is recorded
    assert len(records["sample"]) == 19 * 4


def test_oracle_equiv_small_run():
    _, report = ex.run_experiment("oracle-equiv", 25, 5)
    assert report.hard_violations == 0
    assert report.checks["trace_distance"]["worst"] < 1e-10
    assert report.checks["probability_diff"]["worst"] < 1e-10
    # the benchmark's two keys copy the checks' worst values
    assert report.extras == {"max_trace_distance": report.checks["trace_distance"]["worst"],
                             "max_probability_diff": report.checks["probability_diff"]["worst"]}


def test_haar_stats_small_run():
    _, report = ex.run_experiment("haar-stats", 5000, 5)
    assert report.hard_violations == 0
    assert abs(report.extras["phase_mean"]) < 0.02
    assert report.extras["phase_std"] == pytest.approx(ex.HAAR_PHASE_STD, abs=0.02)


def test_haar_stats_passes_at_2000_samples():
    # |mean| = 0.0327 is over 0.02 but only 2.40 standard errors here
    _, report = ex.run_experiment("haar-stats", 2000, 42)
    assert report.hard_violations == 0, report.extras["phase_mean"]
    assert report.checks["phase_mean_z"]["worst"] == pytest.approx(2.40, abs=0.01)


def test_haar_stats_flags_a_planted_phase_bias(monkeypatch):
    # every phase shifted by 0.2 moves the mean by 0.2 and the mean square
    # by 0.04 plus 0.4 times the mean, which the square's z-score does not
    # flag here; a shift of 0.1 (z = 4.94 at this seed) would stay under the bound
    spec = ex.EXPERIMENTS["haar-stats"]

    def biased(drawn, lo):
        a, b, cols = spec.inputs(drawn, lo)
        return a, b, {"phase_sum": cols["phase_sum"] + 0.8,
                      "phase_sq": cols["phase_sq"] + 0.4 * cols["phase_sum"] + 0.16}

    monkeypatch.setitem(ex.EXPERIMENTS, "haar-stats", spec._replace(inputs=biased))
    _, report = ex.run_experiment("haar-stats", 2000, 42)
    mean_z, square_z = report.checks["phase_mean_z"], report.checks["phase_mean_square_z"]
    assert (mean_z["violations"], square_z["violations"]) == (1, 0)
    assert mean_z["worst"] > 2 * ex.HAAR_Z_BOUND
    assert square_z["worst"] < ex.HAAR_Z_BOUND


@pytest.mark.parametrize("samples", [1, 2])
def test_haar_stats_of_one_or_two_samples_passes(samples):
    # the standard errors are the CUE's exact ones, not estimated from the
    # run, so a handful of samples is no false alarm
    _, report = ex.run_experiment("haar-stats", samples, 42)
    assert report.hard_violations == 0
    assert all(c["worst"] < 1.0 for c in report.checks.values())


def test_haar_phase_sum_variances_match_monte_carlo():
    # 10^5 unitaries at a fixed seed: the standard error of each sample
    # variance is about 0.3%
    drawn = ex._haar_draw(None, np.random.default_rng(2001), 0, 100_000)
    _, _, cols = ex._haar_inputs(drawn, 0)
    assert np.var(cols["phase_sum"]) == pytest.approx(ex.HAAR_VAR_SUM, rel=0.02)
    assert np.var(cols["phase_sq"]) == pytest.approx(ex.HAAR_VAR_SQ, rel=0.02)
    assert np.mean(cols["phase_sq"]) == pytest.approx(4.0 * np.pi ** 2 / 3.0, rel=0.005)
    # the run's sums are exactly rounded, so no order and no Python version
    # (3.12 made the built-in sum compensated) moves them
    sums = ex._phase_sums(cols)
    assert sums == (100_000, math.fsum(cols["phase_sum"]), math.fsum(cols["phase_sq"]))
    order = np.random.default_rng(7).permutation(100_000)
    assert ex._phase_sums({key: column[order] for key, column in cols.items()}) == sums


@pytest.mark.parametrize("workers", [1, 3])
def test_haar_stats_keeps_no_rows(workers):
    for fmt, text in (("csv", ",".join(ex.CSV_COLUMNS) + "\n"), ("json", "[]\n")):
        records, report = ex.run_experiment("haar-stats", 3 * ex.DRAW_SAMPLES, 5,
                                            workers=workers, fmt=fmt)
        assert "".join(records) == text
        assert (report.samples, report.skipped) == (3 * ex.DRAW_SAMPLES, 0)
    cols, _ = ex.run_experiment("haar-stats", 3 * ex.DRAW_SAMPLES, 5, workers=workers)
    assert all(len(column) == 0 for column in cols.values())


def test_dispatcher_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment"):
        ex.run_experiment("frobnicate", 10, 1)


def test_dispatcher_rejects_unknown_formats_and_rank_tolerances():
    with pytest.raises(ValueError, match="unknown records format 'xml'"):
        ex.run_experiment("belldiag", 10, 1, fmt="xml")
    # every rank is counted at DEFAULT_RANK_TOL; a run takes no cutoff
    with pytest.raises(TypeError, match="rank_tol"):
        ex.run_experiment("rank", 3, 1, rank_tol=0.0)


def test_swap_chunk_returns_its_per_sample_columns_unexpanded():
    # pure's checks read record columns alone: its pass sends back its rows,
    # each per-sample column expanded to them, with the rows' check tallies
    args = ex.Args(300, "bures")
    chunk = ex._swap_pass("pure", args, None, [(np.random.default_rng(3), 256, 300)])
    cols = chunk.records
    assert {key: len(column) for key, column in cols.items()} == dict.fromkeys(
        ("sample", "c_a", "c_b", "rank_a", "rank_b", "ratio", "outcome", "c_f", "prob",
         "rank_f"), 4 * 44)
    assert cols["sample"].tolist() == [n for n in range(256, 300) for _ in range(4)]
    assert (chunk.per_sample, chunk.skipped) == ({}, 0)
    assert chunk.tallies == ex._row_tallies(ex.EXPERIMENTS["pure"].checks, cols, args)
    assert [violations for violations, _ in chunk.tallies] == [0, 0, 0]
    # a rendering pass sends back its rows' text alone, one piece for its one
    # chunk, tallied over the same columns; only the pass of sample 0 renders
    # the CSV header
    for fmt in ("csv", "json"):
        text = ex._swap_pass("pure", args, fmt, [(np.random.default_rng(3), 256, 300)])
        assert [type(piece) for piece in text.records] == [str]
        assert (text.per_sample, text.skipped, text.tallies) == ({}, 0, chunk.tallies)
        first = ex._swap_pass("pure", args, fmt, [(np.random.default_rng(3), 0, 256)]).records
        header = [",".join(ex.CSV_COLUMNS) + ",ratio\n"] if fmt == "csv" else []
        assert first[:len(header)] == header and len(first) == len(header) + 1
    # haar-stats' checks read its per-sample columns: those come back unexpanded
    chunk = ex._swap_pass("haar-stats", args, None, [(np.random.default_rng(3), 256, 300)])
    assert {key: len(column) for key, column in chunk.per_sample.items()} == dict.fromkeys(
        ("sample", "phase_sum", "phase_sq"), 44)
    assert chunk.per_sample["sample"].tolist() == list(range(256, 300))
    assert chunk.tallies == (None, None)
    assert all(len(column) == 0 for column in chunk.records.values())


def test_a_per_sample_check_reads_the_per_sample_columns():
    # one value per sample, one of them past the tolerance; the record
    # columns hold nothing this check could read
    per_sample = {"x": np.array([0.1, 0.7, 0.3])}
    check = ex.Check("x_bound", lambda s, _: s["x"], 0.5, per_sample=True)
    report = ex.BoundReport("hand-built", 3, 0)
    ex._apply_checks(report, [check], {}, None, per_sample)
    assert report.checks == {"x_bound": {"tol": 0.5, "violations": 1, "worst": 0.7}}
    assert report.hard_violations == 1


@pytest.mark.parametrize("name, samples", [("conserve", 20), ("belldiag", 200), ("pure", 60),
                                           ("rank", 2), ("rank2-selfswap", 9),
                                           ("oracle-equiv", 10), ("haar-stats", 300)])
def test_every_check_is_reported_under_its_own_name(name, samples):
    checks = ex.EXPERIMENTS[name].checks
    assert len({check.name for check in checks}) == len(checks)
    _, report = ex.run_experiment(name, samples, 5)
    assert list(report.checks) == [check.name for check in checks]
    assert report.hard_violations == sum(c["violations"] for c in report.checks.values()) == 0
    for check in checks:
        reported = report.checks[check.name]
        assert reported["tol"] == check.tol
        assert 0.0 <= reported["worst"] <= check.tol, check.name


def test_runners_reject_empty_sample_counts(monkeypatch):
    with pytest.raises(ValueError, match="at least 1"):
        ex.run_experiment("conserve", 0, 1)
    with pytest.raises(ValueError, match="at least 1"):
        ex.run_experiment("rank2-selfswap", 0, 0)
    # rank's count is named as given, not as the total of its 16 classes
    with pytest.raises(ValueError, match="^sample count must be at least 1, got -2$"):
        ex.run_experiment("rank", -2, 0)
    # worker counts below 1 and a negative seed are refused too, each by
    # its value, before any pass runs
    calls, real = [], ex._swap_pass
    monkeypatch.setattr(ex, "_swap_pass", lambda *a: calls.append(a) or real(*a))
    for workers in (0, -1, -3):
        with pytest.raises(ValueError, match=f"^worker count must be at least 1, got {workers}$"):
            ex.run_experiment("pure", 300, 1, workers=workers)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        ex.run_experiment("pure", 300, -1)
    assert calls == []
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        es.RngStream(-1)


# ------------------------------------------------------------ determinism


def test_records_reproducible():
    a = "".join(ex.run_experiment("belldiag", 200, 17, fmt="csv")[0])
    b = "".join(ex.run_experiment("belldiag", 200, 17, fmt="csv")[0])
    assert a == b
    c = "".join(ex.run_experiment("belldiag", 200, 18, fmt="csv")[0])
    assert a != c


def test_records_independent_of_worker_count():
    # 700 samples span three draw chunks; rank's 300-sample combos put
    # chunk edges off the multiples of DRAW_SAMPLES
    for name, samples in (("conserve", 60), ("belldiag", 700), ("pure", 700),
                          ("oracle-equiv", 700), ("rank", 300)):
        one = "".join(ex.run_experiment(name, samples, 17, workers=1, fmt="csv")[0])
        for workers in (2, 3):
            many = "".join(ex.run_experiment(name, samples, 17, workers=workers, fmt="csv")[0])
            assert many == one, (name, workers)


def test_csv_bytes_deterministic():
    recs1, _ = ex.run_experiment("pure", 40, 3, fmt="csv")
    recs2, _ = ex.run_experiment("pure", 40, 3, fmt="csv")
    assert "".join(recs1) == "".join(recs2)


# ------------------------------------------------------------ worker pool


def _pid_pass(chunks):
    """The process id that ran each chunk of the pass."""
    return [os.getpid()] * len(chunks)


def _per_chunk(passes) -> list:
    """The entries of passes that return one per chunk, in chunk order."""
    return [entry for result in passes for entry in result]


def _pool_call(workers):
    """The process id that ran each chunk of a 12-chunk run_passes call."""
    stream = es.RngStream(seed=1, stream_id=0)
    return _per_chunk(ex.run_passes(_pid_pass, stream, 12 * ex.DRAW_SAMPLES, workers))


def test_worker_calls_share_one_pool():
    ex._close_pool()
    _pool_call(2)
    # two processes run the chunks: the caller and one pool process
    workers = multiprocessing.active_children()
    assert len(workers) == 1
    for _ in range(2):
        assert set(_pool_call(2)) == {os.getpid(), workers[0].pid}
        assert multiprocessing.active_children() == workers


_MARKS = []


def _marking_pass(chunks):
    """Marks its chunks in the process that runs it; for each chunk, that
    process's id and the marks it then holds."""
    _MARKS.extend(lo for _, lo, _ in chunks)
    return [(os.getpid(), tuple(_MARKS))] * len(chunks)


def test_a_new_worker_count_replaces_the_pool():
    # a call that needs more processes than the pool holds replaces it
    ex._close_pool()
    _pool_call(2)
    old = multiprocessing.active_children()
    _MARKS.clear()
    making = _per_chunk(ex.run_passes(_marking_pass, es.RngStream(seed=1, stream_id=0),
                                      12 * ex.DRAW_SAMPLES, 3))
    # the call that makes a pool runs its first pass, chunks 0 to 3, here,
    # before the fork: the new pool processes inherit its marks
    first = tuple(range(0, 4 * ex.DRAW_SAMPLES, ex.DRAW_SAMPLES))
    assert making[:4] == [(os.getpid(), first)] * 4
    assert all(pid != os.getpid() and marks[:4] == first for pid, marks in making[4:])
    new = multiprocessing.active_children()
    assert len(new) == 2 and not set(new) & set(old)
    assert all(p.exitcode is not None for p in old)
    assert os.getpid() in _pool_call(3)


def test_the_pool_has_at_most_one_worker_per_chunk():
    # 2 draw chunks: a workers=8 call runs in 2 processes, the caller and one
    # pool process, and writes the same bytes
    ex._close_pool()
    one, _ = ex.run_experiment("belldiag", 2 * ex.DRAW_SAMPLES, 17, workers=1, fmt="csv")
    many, _ = ex.run_experiment("belldiag", 2 * ex.DRAW_SAMPLES, 17, workers=8, fmt="csv")
    assert len(ex._pool) == 1
    assert multiprocessing.active_children() == [ex._pool[0][0]]
    assert many == one


def test_each_process_runs_one_contiguous_share():
    # 12 chunks in 3 processes: shares of 4, the caller's first. A call that
    # makes the pool has run its first pass before the fork, and it counts
    # toward the caller's share.
    ex._close_pool()
    making, kept = _pool_call(3), _pool_call(3)
    me = os.getpid()
    assert making[:4] == [me] * 4 and kept[:4] == [me] * 4
    children = {p.pid for p in multiprocessing.active_children()}
    for theirs in (making[4:], kept[4:]):
        assert set(theirs) <= children and me not in theirs
        runs = [pid for pid, _ in itertools.groupby(theirs)]
        assert len(runs) == len(set(runs)) == 2


def test_the_larger_shares_go_first():
    # 5 chunks in 2 processes: the caller runs 3, the pool the last 2
    pids = _per_chunk(ex.run_passes(_pid_pass, es.RngStream(seed=1, stream_id=0),
                                    5 * ex.DRAW_SAMPLES, 2))
    assert pids[:3] == [os.getpid()] * 3 and os.getpid() not in pids[3:]


def _layout_pass(chunks):
    """The process that ran the pass and the indices of its draw chunks."""
    return os.getpid(), [lo // ex.DRAW_SAMPLES for _, lo, _ in chunks]


def test_each_share_runs_as_passes_of_at_most_four_chunks():
    # 9 draw chunks: passes of 4, 4 and 1 in one process; at workers 2 the
    # caller's share of 5 runs as passes of 4 and 1 and the pool's share of
    # 4 as one, whether the call makes the pool or finds it
    stream, me = es.RngStream(seed=1, stream_id=0), os.getpid()
    alone = ex.run_passes(_layout_pass, stream, 9 * ex.DRAW_SAMPLES, 1)
    assert alone == [(me, [0, 1, 2, 3]), (me, [4, 5, 6, 7]), (me, [8])]
    ex._close_pool()
    for _ in range(2):
        passes = ex.run_passes(_layout_pass, stream, 9 * ex.DRAW_SAMPLES, 2)
        assert [chunks for _, chunks in passes] == [[0, 1, 2, 3], [4], [5, 6, 7, 8]]
        assert [pid == me for pid, _ in passes] == [True, True, False]


def test_a_rendering_run_joins_no_record_column(monkeypatch):
    ex._close_pool()
    joins, real_join = [], ex._joined
    monkeypatch.setattr(ex, "_joined", lambda parts: joins.append(parts) or real_join(parts))
    replies, real_receive = [], ex._receive
    monkeypatch.setattr(ex, "_receive", lambda conn: replies.append(real_receive(conn))
                        or replies[-1])
    records, _ = ex.run_experiment("belldiag", 9 * ex.DRAW_SAMPLES, 7, workers=2, fmt="csv")
    # the run joins only per-sample columns, which belldiag sends none of
    assert all(part == {} for parts in joins for part in parts)
    # the header, then each draw chunk's rows rendered as a piece of its own
    assert len(records) == 1 + 9 and all(type(piece) is str for piece in records)
    assert "".join(records).count("\n") == 1 + 4 * 9 * ex.DRAW_SAMPLES
    # the pool's share, one pass of 4 chunks, sent back its text alone
    (error, parts), = replies
    assert error is None and len(parts) == 1
    assert [type(piece) for piece in parts[0].records] == [str] * 4
    ex._close_pool()


def test_a_call_that_needs_fewer_processes_keeps_the_pool():
    # 6 chunks need 2 pool processes at workers=3, 2 chunks need one: the
    # smaller calls run on the pool's first process and keep the pool
    ex._close_pool()
    kept = []
    for samples in (1500, 400) * 4:
        ex.run_experiment("belldiag", samples, 3, workers=3, fmt="csv")
        kept.append([process.pid for process, _ in ex._pool])
    assert len(kept[0]) == 2 and kept == kept[:1] * 8
    assert {p.pid for p in multiprocessing.active_children()} == set(kept[0])
    assert _pool_call(2) == [os.getpid()] * 6 + [kept[0][0]] * 6
    # one that needs more replaces it
    _pool_call(4)
    assert len(ex._pool) == 3 and not {p.pid for p, _ in ex._pool} & set(kept[0])


def test_replies_cross_the_sockets_and_match_one_process():
    # every pool share's reply, records and tallies, crosses its process's
    # socket; the text and the summary are those of one process
    ex._close_pool()
    try:
        for fmt in ("csv", "json"):
            runs = {}
            for workers in (1, 2, 3):
                records, report = ex.run_experiment("belldiag", 700, 9, workers=workers, fmt=fmt)
                del report.runtime_ms
                runs[workers] = "".join(records), vars(report)
            assert runs[2] == runs[1] and runs[3] == runs[1], fmt
            assert len(ex._pool) == 2
    finally:
        ex._close_pool()


_SPAWNED_POOL = """
import multiprocessing
multiprocessing.set_start_method("spawn")
from entswap import experiments
texts = {"".join(experiments.run_experiment("belldiag", 700, 5, workers=w, fmt="csv")[0])
         for w in (1, 3)}
print(len(texts))
"""


def test_a_pool_of_another_start_method_replies_over_its_sockets(tmp_path):
    # the pool's processes are spawned, not forked: the replies cross the
    # sockets all the same, and the text is one process's
    assert _run_python(_SPAWNED_POOL, tmp_path).split() == ["1"]


def test_making_the_pool_freezes_the_objects_alive_at_the_fork():
    # the caller's full collections then leave the pages it shares with the
    # pool unwritten
    ex._close_pool()
    frozen = gc.get_freeze_count()
    _pool_call(2)
    assert gc.get_freeze_count() > frozen


def _pass_failing_at(path, bad, chunks):
    """For each of its chunks in order, leaves a file named after the
    chunk's first sample in ``path``, then raises if that sample is in
    ``bad``; the chunks' first samples."""
    for _, lo, _ in chunks:
        time.sleep(0.05)
        (path / str(lo)).touch()
        if lo in bad:
            raise ValueError(f"chunk {lo}")
    return [lo for _, lo, _ in chunks]


def _chunks_run(path) -> list:
    return sorted(int(f.name) for f in path.iterdir())


def test_an_error_in_the_callers_share_waits_for_the_pool(tmp_path):
    n, size = 12 * ex.DRAW_SAMPLES, ex.DRAW_SAMPLES
    stream = es.RngStream(seed=1, stream_id=0)
    _pool_call(3)  # makes the pool, unless an earlier call did
    with pytest.raises(ValueError, match=f"^chunk {size}$"):
        ex.run_passes(functools.partial(_pass_failing_at, tmp_path, {size}), stream, n, 3)
    # the pool's two shares ran to their ends before the caller's error
    assert _chunks_run(tmp_path) == [0, size, *range(4 * size, n, size)]
    # with errors in every share, the first failing chunk's is raised, as on
    # one process
    for workers in (1, 3):
        with pytest.raises(ValueError, match=f"^chunk {size}$"):
            ex.run_passes(functools.partial(_pass_failing_at, tmp_path, range(size, n)), stream,
                          n, workers)
    passes = ex.run_passes(functools.partial(_pass_failing_at, tmp_path, ()), stream, n, 3)
    assert _per_chunk(passes) == list(range(0, n, size))


def test_the_callers_error_wins_over_a_pool_shares(tmp_path):
    n, size = 12 * ex.DRAW_SAMPLES, ex.DRAW_SAMPLES
    stream = es.RngStream(seed=1, stream_id=0)
    ex._close_pool()
    _pool_call(3)
    workers = multiprocessing.active_children()
    with pytest.raises(ValueError, match=f"^chunk {size}$"):
        ex.run_passes(functools.partial(_pass_failing_at, tmp_path, {size, n - size}), stream,
                      n, 3)
    # the last share failed at its last chunk, after running all of it
    assert _chunks_run(tmp_path) == [0, size, *range(4 * size, n, size)]
    # failing shares leave the pool in service
    assert multiprocessing.active_children() == workers
    assert set(_pool_call(3)) == {os.getpid(), *(p.pid for p in workers)}


def _pass_raising(error, at, chunks):
    if any(lo == at for _, lo, _ in chunks):
        raise error
    return [lo for _, lo, _ in chunks]


@pytest.mark.parametrize("error", [es.ImpossibleOutcome(es.BellLabel.PSI_MINUS, 0.0),
                                   es.ValidationError("trace invariant violated")])
def test_an_error_in_a_pool_share_reaches_the_caller_as_itself(error):
    # 4 chunks in 2 processes: chunk 2 is the pool's; its reply crosses the
    # socket
    stream = es.RngStream(seed=1, stream_id=0)
    ex._close_pool()
    ex.run_passes(functools.partial(_pass_raising, None, None), stream,
                  4 * ex.DRAW_SAMPLES, 2)
    with pytest.raises(type(error)) as info:
        ex.run_passes(functools.partial(_pass_raising, error, 2 * ex.DRAW_SAMPLES), stream,
                      4 * ex.DRAW_SAMPLES, 2)
    assert type(info.value) is type(error) and info.value.args == error.args
    assert vars(info.value) == vars(error)
    assert "raised in a pool process" in str(info.value.__cause__)
    ex._close_pool()


_IMPORTS_AT_ONE_WORKER = """
import sys
from entswap import cli, experiments
experiments.run_experiment("belldiag", 600, 5, fmt="csv")
print(*sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))))
"""


def _run_python(code: str, cwd) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    entswap; its standard output."""
    src = str(Path(ex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_a_one_worker_run_imports_no_process_pool(tmp_path):
    assert _run_python(_IMPORTS_AT_ONE_WORKER, tmp_path).strip() == ""


# -------------------------------------------------------------- emission


def test_csv_header_and_shape(tmp_path):
    records, _ = ex.run_experiment("conserve", 10, 2, fmt="csv")
    path = tmp_path / "out.csv"
    ex.write_records(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,outcome,c_a,c_b,c_f,prob,rank_a,rank_b,rank_f"
    assert len(lines) == 1 + len(ex.run_experiment("conserve", 10, 2)[0]["sample"])
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] in {l.value for l in es.BellLabel}


def test_pure_csv_carries_ratio_column(tmp_path):
    records, _ = ex.run_experiment("pure", 5, 2, fmt="csv")
    path = tmp_path / "pure.csv"
    ex.write_records(records, path)
    header = path.read_text().splitlines()[0]
    assert header.endswith(",ratio")


def test_float_serialization_has_17_significant_digits():
    records, _ = ex.run_experiment("belldiag", 3, 2, fmt="csv")
    row = "".join(records).splitlines()[1].split(",")
    cols, _ = ex.run_experiment("belldiag", 3, 2)
    assert float(row[2]) == cols["c_a"][0]  # round-trips exactly


def test_json_records_round_trip(tmp_path):
    records, _ = ex.run_experiment("pure", 4, 2, fmt="json")
    path = tmp_path / "out.json"
    ex.write_records(records, path)
    rows = json.loads(path.read_text())
    cols, _ = ex.run_experiment("pure", 4, 2)
    assert len(rows) == len(cols["sample"])
    assert rows[0]["outcome"] == list(es.BellLabel)[cols["outcome"][0]].value
    assert rows[0]["c_f"] == cols["c_f"][0]
    assert "ratio" in rows[0]


def test_write_records_refuses_records_without_text(tmp_path):
    records, _ = ex.run_experiment("pure", 4, 2)
    assert isinstance(records, dict)
    with pytest.raises(ValueError, match="no text"):
        ex.write_records(records, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_write_records_writes_the_records_text_piece_by_piece(workers, tmp_path):
    path = tmp_path / "records"
    for name, samples in (("belldiag", 700), ("pure", 300), ("haar-stats", 600)):
        for fmt in ("csv", "json"):
            records, _ = ex.run_experiment(name, samples, 11, workers=workers, fmt=fmt)
            ex.write_records(records, path)
            assert path.read_bytes() == "".join(records).encode("utf-8"), (name, fmt)
            assert len(records) > 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_records_rendered_in_the_chunks_match_the_whole_table(workers):
    # rank's 16 combos of 20 samples make 16 chunks, each rendered apart
    for name, samples in (("conserve", 60), ("belldiag", 700), ("pure", 300), ("rank", 20),
                          ("rank2-selfswap", 19), ("oracle-equiv", 300)):
        for fmt in ("csv", "json"):
            records, _ = ex.run_experiment(name, samples, 17, workers=workers, fmt=fmt)
            cols, _ = ex.run_experiment(name, samples, 17, workers=workers)
            whole = _whole_table(ex._names(cols), [_per_row_reference(cols, fmt)], fmt)
            assert "".join(records) == whole, (name, fmt)


def test_rendered_pieces_join_around_a_chunk_without_rows():
    records, _ = ex.run_experiment("pure", 40, 3)
    parts = [{key: column[lo:hi] for key, column in records.items()}
             for lo, hi in ((0, 50), (50, 50), (50, 160))]
    for fmt in ("csv", "json"):
        pieces = [ex._render_rows(part, fmt, {"sample": part["sample"]},
                                  np.arange(len(part["sample"]))) for part in parts]
        assert pieces[1] == ""
        whole = _whole_table(ex._names(records), [_per_row_reference(records, fmt)], fmt)
        assert _whole_table(ex._names(records), pieces, fmt) == whole
    assert _whole_table(ex._names(records), [pieces[1]], "json") == "[]\n"


def _whole_table(names, pieces, fmt):
    """The records text of the rows rendered in ``pieces``, under the
    header ``names`` in CSV."""
    header = [",".join(names) + "\n"] if fmt == "csv" else []
    return "".join(ex._table(header + pieces, fmt))


def _per_row_reference(cols, fmt):
    """The renderer as it formatted every field of every row, kept as the
    reference the one-pass renderer must match byte for byte."""
    names = ex._names(cols)
    lists = [cols[name].tolist() if cols else [] for name in names]
    lists[1] = [ex._LABELS[k] for k in lists[1]]
    if fmt == "csv":
        template = ",".join("%.17g" if name in ex._FLOAT_COLUMNS else "%s" for name in names) + "\n"
        return "".join([template % row for row in zip(*lists)])
    rows = [dict(zip(names, row)) for row in zip(*lists)]
    return json.dumps(rows, separators=(",", ":"))[1:-1]


# one draw chunk of 6 samples keeping 0, 1, 2, 3, 2 and 0 outcomes; the
# values take the exponent form, 0.0, 1.0 and inf (a ratio over C = 0)
_EDGE_POSSIBLE = np.array([[0, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1],
                           [1, 1, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0]], dtype=bool)
_EDGE_INPUTS = {
    "c_a": np.array([0.0, 1e-5, 5e-324, 1.0, 0.5, 0.25]),
    "c_b": np.array([0.5, 1.0, 0.0, 1e-5, 2.5e-17, 1.0]),
    "rank_a": np.array([1, 2, 3, 4, 1, 2]),
    "rank_b": np.array([4, 3, 2, 1, 1, 1]),
    "ratio": np.array([np.inf, 1e5, np.inf, 1e5, 2e16, 4.0]),
}


def _edge_chunk(monkeypatch, fmt, possible=_EDGE_POSSIBLE, lo=256, c_f=None, kept_prob=None):
    """_swap_pass's record columns, skipped count and rendered rows of the
    edge chunk starting at ``lo``, a pass of its own, swapped once for its
    columns and once for its rows; ``c_f`` and ``kept_prob`` replace the
    rows' default c_f and prob."""
    kept = int(possible.sum())
    if c_f is None:
        c_f = np.resize([0.0, 1.0, 1e-5, 5e-324, 1.0 / 3.0, 0.1], kept)
    eigs = np.resize([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.4, 0.3, 0.3, 0.0],
                      [0.25, 0.25, 0.25, 0.25]], (kept, 4))
    prob = np.where(possible, np.resize([0.25, 1e-5, 1.0, 0.0, 0.375], possible.shape), 0.0)
    if kept_prob is not None:
        prob[possible] = kept_prob

    def inputs(drawn, lo):
        return None, None, {key: column[:len(possible)] for key, column in _EDGE_INPUTS.items()}

    def outcomes(a, b, where):
        return ex._ALL_OUTCOMES, possible, prob, c_f, eigs, {}

    monkeypatch.setitem(ex.EXPERIMENTS, "edge",
                        ex.Experiment(lambda *_: (), inputs, outcomes, ()))
    args = ex.Args(len(possible), "bures")
    chunk = ex._swap_pass("edge", args, None, [(None, lo, lo + len(possible))])
    text, = ex._swap_pass("edge", args, fmt, [(None, lo, lo + len(possible))]).records
    return chunk.records, chunk.skipped, text  # one piece, of the one draw chunk


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_renderer_matches_the_per_row_formatter_at_its_edges(fmt, monkeypatch):
    cols, skipped, text = _edge_chunk(monkeypatch, fmt)
    assert skipped == 24 - 8
    assert cols["sample"].tolist() == [257, 258, 258, 259, 259, 259, 260, 260]
    assert text == _per_row_reference(cols, fmt)
    forms = {"csv": ("inf", "1.0000000000000001e-05", "4.9406564584124654e-324", ",0,", ",1,"),
             "json": ("Infinity", "1e-05", "5e-324", ":0.0,", ":1.0,")}
    for form in forms[fmt]:
        assert form in text, form
    # every column but the sample rendered per row, and so alike
    whole = _whole_table(ex._names(cols), [_per_row_reference(cols, fmt)], fmt)
    rows = np.arange(len(cols["sample"]))
    assert ex._render_rows(cols, fmt, {"sample": cols["sample"]}, rows) == text
    if fmt == "json":
        rows = json.loads(whole)
        assert [row["ratio"] for row in rows[:3]] == [1e5, np.inf, np.inf]
        assert [row["c_f"] for row in rows] == cols["c_f"].tolist()
    # a chunk without rows, and one without samples
    empty, skipped, none = _edge_chunk(monkeypatch, fmt, np.zeros((6, 4), dtype=bool))
    assert (none, skipped, len(empty["sample"])) == ("", 24, 0)
    assert _per_row_reference(empty, fmt) == ""
    assert ex._render_rows({key: column[:0] for key, column in cols.items()}, fmt,
                           {"sample": cols["sample"][:0]}, rows[:0]) == ""
    # each of the real experiments
    for name, samples in (("conserve", 60), ("belldiag", 300), ("pure", 300),
                          ("rank", 5), ("rank2-selfswap", 19), ("oracle-equiv", 60)):
        records, _ = ex.run_experiment(name, samples, 23, fmt=fmt)
        cols, _ = ex.run_experiment(name, samples, 23)
        reference = _whole_table(ex._names(cols), [_per_row_reference(cols, fmt)], fmt)
        assert "".join(records) == reference, name


# a quiet NaN with a payload and a negative quiet NaN: their bits differ
_NANS = np.array([0x7FF8000000000001, -0x8000000000000], dtype=np.int64).view(np.float64)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_renderer_formats_each_repeated_row_value_once_by_its_bits(fmt, monkeypatch):
    # c_f repeats 0.0 and -0.0, which compare equal but render "0" and "-0"
    # ("0.0" and "-0.0" in JSON); prob repeats two NaN payloads, inf and
    # 5e-324; both columns repeat a value in consecutive rows
    c_f = np.array([-0.0, 0.0, -0.0, 5e-324, -0.0, np.inf, 5e-324, 0.0])
    prob = np.array([_NANS[0], _NANS[0], _NANS[1], np.inf, 0.25, 0.25, 5e-324, _NANS[1]])
    cols, _, text = _edge_chunk(monkeypatch, fmt, c_f=c_f, kept_prob=prob)
    assert np.array_equal(cols["c_f"].view(np.int64), c_f.view(np.int64))
    assert np.array_equal(cols["prob"].view(np.int64), prob.view(np.int64))
    for name in ("c_f", "prob"):
        assert ex._repeated_text(cols[name], fmt) is not None, name
    assert text == _per_row_reference(cols, fmt)
    forms = {"csv": (",-0,nan,", ",0,nan,", ",inf,0.25,", "4.9406564584124654e-324"),
             "json": ('"c_f":0.0,', '"c_f":-0.0,', "NaN", "Infinity", "5e-324")}
    for form in forms[fmt]:
        assert form in text, form
    # chunks whose rows repeat no c_f or prob, or none in consecutive rows
    # (NaN equals nothing), keep the inline formatting
    distinct = np.arange(1.0, 9.0) / 3.0
    for c_f, prob in ((distinct, distinct / 7.0),
                      (np.resize([0.0, 0.5], 8), np.resize([0.25, _NANS[0], _NANS[0]], 8))):
        cols, _, text = _edge_chunk(monkeypatch, fmt, c_f=c_f, kept_prob=prob)
        for name in ("c_f", "prob"):
            assert ex._repeated_text(cols[name], fmt) is None, name
        assert text == _per_row_reference(cols, fmt)


def test_no_rendered_name_label_or_field_holds_a_percent_sign():
    # _render_rows fills a chunk's joined row templates in one formatting,
    # so a % in any text formatted into a template would be read as a spec
    rng = np.random.default_rng(3)
    floats = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 1e-5, 1.0 / 3.0,
              *rng.integers(-2**63, 2**63, 2000).view(np.float64).tolist()]
    texts = [*ex._names({}), *ex._names({"ratio": None}), *ex._LABELS,
             *ex._fields(list(ex._LABELS), "json")]
    for fmt in ("csv", "json"):
        texts += ex._fields(floats, fmt) + ex._fields(list(range(-5, 300)), fmt)
    assert {"ratio", "outcome", '"psi-"', "nan", "NaN", "-inf", "-Infinity", "-0", "-0.0",
            "5e-324", "1e+300"} <= set(texts)
    assert not [text for text in texts if "%" in text]


def test_summary_json_fields(tmp_path):
    _, report = ex.run_experiment("belldiag", 50, 2)
    path = tmp_path / "summary.json"
    ex.write_summary(report, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"experiment", "samples", "seed", "checks", "hard_violations",
                            "skipped", "extras", "runtime_ms"}
    assert {name: set(check) for name, check in payload["checks"].items()} == dict.fromkeys(
        ("product_upper", "belldiag_floor"), {"tol", "violations", "worst"})
    assert payload["seed"] == 2
    assert payload["samples"] == 50


def test_oracle_run_refuses_the_first_pair_without_coincidence(monkeypatch):
    # the harness conditions the beamsplitter stack with the shared step;
    # pairs 2 and 4 fall to coincidence 1e-13 and 0, normalizations 2e-13 and
    # 0 below the floor's 1e-12
    real = ex.swap_via_beamsplitter_batch

    def fading(a, b, eta):
        out, prob = real(a, b, eta)
        scale = np.ones(len(prob))
        scale[[2, 4]] = 1e-13 / prob[2], 0.0
        return out * scale[:, None, None], prob * scale

    monkeypatch.setattr(ex, "swap_via_beamsplitter_batch", fading)
    message = r"^outcome psi- has normalization 2\.000e-13 <= 1e-12;"
    with pytest.raises(es.ImpossibleOutcome, match=message):
        ex.run_experiment("oracle-equiv", 6, 5)


def test_chunk_tallies_merge_to_the_whole_runs():
    # three rows past product_upper, each in a chunk of its own
    c_a = np.full(4, 0.5)
    cols = {"c_a": c_a, "c_b": c_a, "c_f": 0.25 + np.array([1e-8, -0.05, 3e-8, 2e-8])}
    checks = ex.EXPERIMENTS["belldiag"].checks[:1]
    report = ex.BoundReport("belldiag", 4, 0)
    ex._apply_checks(report, checks, _tallies_per_row(checks, cols, None), None)
    assert report.checks["product_upper"]["violations"] == report.hard_violations == 3
    assert report.checks["product_upper"]["worst"] == np.max(cols["c_f"] - 0.25)


def _tallies_per_row(checks, cols, args) -> list:
    """_row_tallies of ``cols`` cut into one chunk per row."""
    rows = len(next(iter(cols.values())))
    return [ex._row_tallies(checks, {key: column[i:i + 1] for key, column in cols.items()}, args)
            for i in range(rows)]


def test_rank_gap_is_the_lower_deviation():
    # ranks (1, 1), (1, 2) and (2, 2) at combos 0, 1 and 5 (one pair each);
    # only the middle row, with a pure input, misses R_F = max(R_A, R_B), by 2:
    # the pure-input equality's deviation
    cols = {"sample": np.array([0, 1, 5]), "rank_a": np.array([1, 1, 2]),
            "rank_b": np.array([1, 2, 2]), "rank_f": np.array([1, 4, 3])}
    report = ex.BoundReport("rank", 3, 0)
    checks, args = ex.EXPERIMENTS["rank"].checks, ex.Args(1, "bures")
    # one chunk per row: the tallies merge to the whole run's
    ex._apply_checks(report, checks, _tallies_per_row(checks, cols, args), args)
    assert report.checks == {"rank_floor": {"tol": 0, "violations": 0, "worst": 0.0},
                             "pure_rank_equality": {"tol": 0, "violations": 1, "worst": 2.0},
                             "input_rank": {"tol": 0, "violations": 0, "worst": 0.0}}
    assert report.hard_violations == 1


def test_zero_probability_outcomes_are_skipped_not_recorded():
    # a pure |HH> input against itself kills both psi outcomes
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0])
    results = es.swap_all_outcomes(hh, hh)
    dead = [r for r in results if r.state is None]
    assert {r.outcome for r in dead} == {es.BellLabel.PSI_PLUS, es.BellLabel.PSI_MINUS}
    assert all(r.probability == 0.0 for r in dead)


# ------------------------------------------------------------ batched path


def test_batched_input_errors_name_the_sample(monkeypatch):
    real = STATE_ENSEMBLES["bures"]

    def broken(rng, n):
        mats = real(rng, n)
        mats[3] *= 2.0
        return mats

    monkeypatch.setitem(STATE_ENSEMBLES, "bures", broken)
    with pytest.raises(es.ValidationError,
                       match=r"^trace invariant violated: .*\(input of sample 3\)$"):
        ex.run_experiment("conserve", 6, 5)


def test_belldiag_input_errors_name_the_sample(monkeypatch):
    real = ex.random_bell_diagonal

    def broken(rng, size):
        weights = real(rng, size)
        weights[4] *= 2.0
        return weights

    monkeypatch.setattr(ex, "random_bell_diagonal", broken)
    with pytest.raises(es.ValidationError, match=r"^trace invariant violated: "
                       r"\|tr - 1\| = 1\.000e\+00 \(input a of sample 4\)$"):
        ex.run_experiment("belldiag", 6, 5)


def _plant(monkeypatch, name, plants):
    """Experiment ``name`` with plants[n](a, b, i) applied to the drawn pair
    of sample n at index i of its draw chunk, in a fresh pool's processes
    too."""
    spec = ex.EXPERIMENTS[name]

    def draw(args, rng, lo, hi):
        a, b = spec.draw(args, rng, lo, hi)
        for n, plant in plants.items():
            if lo <= n < hi:
                plant(a, b, n - lo)
        return a, b

    monkeypatch.setitem(ex.EXPERIMENTS, name, spec._replace(draw=draw))
    ex._close_pool()


def _doubled(a, b, i):
    a[i] *= 2.0


def _refused_by(normalization):
    """A plant that leaves the pair's psi- the given normalization: modes
    (2, 3) in |HV> with that weight and |HH> else."""
    def plant(a, b, i):
        a[i] = np.diag([1.0, 0.0, 0.0, 0.0])
        b[i] = np.diag([1.0 - normalization, 0.0, normalization, 0.0])
    return plant


# samples 300 and 600 lie in the second and third of a 768-sample run's 3
# draw chunks: one pass at workers 1, at workers 2 passes of 2 and 1 chunks
# (the third chunk in the pool), at workers 3 one chunk per process


@pytest.mark.parametrize("workers", [1, 2])
def test_a_bad_input_in_a_third_draw_chunk_is_named_by_its_sample(workers, monkeypatch):
    _plant(monkeypatch, "oracle-equiv", {600: _doubled})
    try:
        with pytest.raises(es.ValidationError, match=r"^trace invariant violated: "
                           r"\|tr - 1\| = 1\.000e\+00 \(input a of sample 600\)$"):
            ex.run_experiment("oracle-equiv", 3 * ex.DRAW_SAMPLES, 5, workers=workers)
    finally:
        ex._close_pool()


@pytest.mark.parametrize("workers", [1, 2])
def test_an_impossible_psi_minus_in_a_third_draw_chunk_is_refused(workers, monkeypatch):
    # the refusal names the sample, also from a pool share
    _plant(monkeypatch, "oracle-equiv", {600: _refused_by(600e-16)})
    try:
        with pytest.raises(es.ImpossibleOutcome, match=r"^outcome psi- has normalization "
                           r"6\.000e-14 <= 1e-12; the conditional state is undefined "
                           r"\(output of sample 600, outcome psi-\)$") as info:
            ex.run_experiment("oracle-equiv", 3 * ex.DRAW_SAMPLES, 5, workers=workers)
        assert info.value.normalization == pytest.approx(600e-16, rel=1e-12)
    finally:
        ex._close_pool()


def test_a_run_raises_its_first_failing_chunks_error_on_any_passes(monkeypatch):
    # a pass validates its whole stack of inputs before it swaps: the bad
    # input of sample 600 would win over the impossible psi- of sample 300
    # in a one-pass run, had the pass not swapped its chunks alone again
    _plant(monkeypatch, "oracle-equiv", {300: _refused_by(300e-16), 600: _doubled})
    try:
        for workers in (1, 2, 3):
            with pytest.raises(es.ImpossibleOutcome, match=r"normalization 3\.000e-14 ") as info:
                ex.run_experiment("oracle-equiv", 3 * ex.DRAW_SAMPLES, 5, workers=workers)
            assert info.value.normalization == pytest.approx(300e-16, rel=1e-12), workers
    finally:
        ex._close_pool()


def test_blocks_split_at_the_block_size_and_groups(monkeypatch):
    monkeypatch.setattr(ex, "DRAW_SAMPLES", 4)
    assert ex._blocks(13) == [(0, 4), (4, 8), (8, 12), (12, 13)]
    grouped = ex._blocks(13, group=5)
    assert grouped == [(0, 4), (4, 5), (5, 8), (8, 10), (10, 12), (12, 13)]
    assert all(0 < hi - lo <= 4 and lo // 5 == (hi - 1) // 5 for lo, hi in grouped)


# ------------------------------------------------------------ closed-form floors


def _schmidt(angles):
    """cos(a)|HH> + sin(a)|VV> for each angle a."""
    v = np.zeros((len(angles), 4))
    v[:, 0], v[:, 3] = np.cos(angles), np.sin(angles)
    return v


def test_aligned_schmidt_pairs_meet_the_schmidt_floor():
    # larger Schmidt weight on |HH> on both sides: phi+/- take the largest
    # probability, (1 + s_A s_B) / 4, and so sit on the floor
    alpha, beta = np.meshgrid(np.linspace(0.05, np.pi / 4, 8), np.linspace(0.05, np.pi / 4, 8))
    va, vb = _schmidt(alpha.ravel()), _schmidt(beta.ravel())
    c_a, c_b = pure_concurrence(va), pure_concurrence(vb)
    raw, prob = swap_batch(pure_batch(va), pure_batch(vb))
    possible, states, _ = conditional_states(raw, prob)
    assert possible.all()
    c_f = concurrence_batch(states).reshape(-1, 4)
    cols = {"c_a": c_a[:, None], "c_b": c_b[:, None], "c_f": c_f[:, 2:]}
    assert np.abs(ex._schmidt_floor(cols, None)).max() < 1e-12
    assert np.abs(4.0 * prob * c_f - (c_a * c_b)[:, None]).max() < 1e-12


@pytest.mark.parametrize("a, b", [(0.9, 0.8), (0.7, 0.95), (0.55, 0.6)])
def test_disjoint_bell_weights_meet_the_bell_diagonal_floor(a, b):
    # A's and B's remaining weight on different Bell labels: each output
    # weight is one product, the largest a b
    x_a = bell_diagonal_x(np.array([[a, 1.0 - a, 0.0, 0.0]]))
    x_b = bell_diagonal_x(np.array([[b, 0.0, 1.0 - b, 0.0]]))
    possible, x, _ = conditional_x_states(*swap_x_batch(x_a, x_b))
    assert possible.all()
    c_a, c_b = concurrence_x(*x_a), concurrence_x(*x_b)
    floor = 0.5 * (c_a + c_b + c_a * c_b - 1.0)
    assert np.abs(concurrence_x(*x) - max(0.0, floor[0])).max() < 1e-12


@pytest.mark.parametrize("name, check_name", [("belldiag", "belldiag_floor"),
                                              ("pure", "squared_product_floor"),
                                              ("pure", "pure_identity"),
                                              ("pure", "schmidt_floor")])
def test_a_row_past_a_floor_is_one_hard_violation(name, check_name):
    c_a, c_b = np.array([0.9, 0.6]), np.array([0.8, 0.7])
    s_a, s_b = np.sqrt(1.0 - c_a * c_a), np.sqrt(1.0 - c_b * c_b)
    # each floor and the identity's C_F on both rows, then row 0 moved 1e-8 past it
    c_f = {"belldiag_floor": 0.5 * (c_a + c_b + c_a * c_b - 1.0),
           "squared_product_floor": (c_a * c_b) ** 2,
           "pure_identity": c_a * c_b,  # at prob 1/4
           "schmidt_floor": c_a * c_b / (1.0 + s_a * s_b)}[check_name]
    cols = {"c_a": c_a, "c_b": c_b, "c_f": c_f - [1e-8, 0.0], "prob": np.full(2, 0.25)}
    check, = (c for c in ex.EXPERIMENTS[name].checks if c.name == check_name)
    report = ex.BoundReport(name, 2, 0)
    # one chunk per row, the one past the floor first
    ex._apply_checks(report, [check], _tallies_per_row([check], cols, None), None)
    assert report.hard_violations == report.checks[check_name]["violations"] == 1
    assert report.checks[check_name]["worst"] == pytest.approx(1e-8, rel=1e-6)


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # importing scipy now raises ImportError
from entswap import cli
runs = [["experiment", "conserve", "--samples", "20"],
        ["experiment", "belldiag", "--samples", "200"],
        ["experiment", "pure", "--samples", "60"],
        ["experiment", "rank", "--samples", "2"],
        ["experiment", "rank2-selfswap", "--samples", "9"],
        ["experiment", "oracle-equiv", "--samples", "10"],
        ["experiment", "haar-stats", "--samples", "5000"],
        ["sample", "bures", "--samples", "3"]]
sys.exit(max(cli.main(argv + ["--seed", "5"]) for argv in runs))
"""


def test_experiments_and_sample_run_without_scipy(tmp_path):
    _run_python(_WITHOUT_SCIPY, tmp_path)
    checks = json.loads((tmp_path / "pure.summary.json").read_text())["checks"]
    assert checks["pure_identity"]["violations"] == checks["schmidt_floor"]["violations"] == 0


def test_benchmark_tracer_targets_stay_resolvable():
    # the benchmark's span tracer wraps these attributes by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip("no benchmark tracer in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, _ in tracer._targets():
        assert attr in vars(owner), attr
