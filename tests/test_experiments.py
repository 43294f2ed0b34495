import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entswap as es
from entswap import experiments as ex
from entswap.ensembles import STATE_ENSEMBLES


def test_conservation_small_run():
    records, report = ex.run_experiment("conserve", 100, 5)
    assert report.hard_violations == 0
    assert report.max_upper_excess < 1e-9
    assert len(records["sample"]) == 400  # four outcomes per sample
    assert np.all(records["c_b"] == 1.0) and np.all(records["rank_b"] == 1)


def test_conservation_ensemble_choices():
    for ensemble in STATE_ENSEMBLES:
        _, report = ex.run_experiment("conserve", 20, 5, ensemble=ensemble)
        assert report.hard_violations == 0
    with pytest.raises(ValueError, match="ensemble"):
        ex.run_experiment("conserve", 2, 5, ensemble="ornstein")


def test_belldiag_small_run():
    records, report = ex.run_experiment("belldiag", 2000, 5)
    assert report.violations_upper == 0
    assert report.max_lower_deficit <= ex.EMPIRICAL_SLACK
    assert report.soft_violations == 0
    assert report.fit_params is not None
    # the refit floor should resemble a line of positive slope
    assert report.fit_params["slope"] > 0.5


def test_pure_small_run():
    records, report = ex.run_experiment("pure", 300, 5)
    assert report.hard_violations == 0
    assert np.all(records["rank_a"] == 1) and np.all(records["rank_b"] == 1)
    assert np.all(records["ratio"] >= 1.0)


def test_rank_relation_small_run():
    records, report = ex.run_experiment("rank", 8, 5)
    assert report.samples == 128
    assert report.hard_violations == 0
    assert report.extras["input_rank_mismatches"] == 0
    combos = set(zip(records["rank_a"].tolist(), records["rank_b"].tolist()))
    assert combos == {(i, j) for i in range(1, 5) for j in range(1, 5)}


def test_rank2_selfswap_grid():
    records, report = ex.run_experiment("rank2-selfswap", 19, 0)
    assert report.violations_upper == 0
    assert report.max_upper_excess < 1e-12
    # every outcome of every grid point is recorded
    assert len(records["sample"]) == 19 * 4


def test_oracle_equiv_small_run():
    _, report = ex.run_experiment("oracle-equiv", 25, 5)
    assert report.hard_violations == 0
    assert report.extras["max_trace_distance"] < 1e-10
    assert report.extras["max_probability_diff"] < 1e-10


def test_haar_stats_small_run():
    _, report = ex.run_experiment("haar-stats", 5000, 5)
    assert report.hard_violations == 0
    assert abs(report.extras["phase_mean"]) < ex.HAAR_STATS_TOL
    assert report.extras["phase_std"] == pytest.approx(
        ex.HAAR_PHASE_STD, abs=ex.HAAR_STATS_TOL
    )


def test_dispatcher_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment"):
        ex.run_experiment("frobnicate", 10, 1)


def test_runners_reject_empty_sample_counts():
    with pytest.raises(ValueError, match="at least 1"):
        ex.run_experiment("conserve", 0, 1)
    with pytest.raises(ValueError, match="at least 1"):
        ex.run_experiment("rank2-selfswap", 0, 0)


# ------------------------------------------------------------ determinism


def test_records_reproducible():
    a, _ = ex.run_experiment("belldiag", 200, 17)
    b, _ = ex.run_experiment("belldiag", 200, 17)
    assert ex.records_to_csv(a) == ex.records_to_csv(b)
    c, _ = ex.run_experiment("belldiag", 200, 18)
    assert ex.records_to_csv(a) != ex.records_to_csv(c)


def test_records_independent_of_worker_count():
    # 700 samples span three draw chunks; rank's 300-sample combos put
    # chunk edges off the multiples of DRAW_SAMPLES
    for name, samples in (("conserve", 60), ("belldiag", 700), ("pure", 700),
                          ("oracle-equiv", 700), ("rank", 300)):
        one = ex.records_to_csv(ex.run_experiment(name, samples, 17, workers=1)[0])
        for workers in (2, 3):
            many, _ = ex.run_experiment(name, samples, 17, workers=workers)
            assert ex.records_to_csv(many) == one, (name, workers)


def test_csv_bytes_deterministic():
    recs1, _ = ex.run_experiment("pure", 40, 3)
    recs2, _ = ex.run_experiment("pure", 40, 3)
    assert ex.records_to_csv(recs1) == ex.records_to_csv(recs2)


# ------------------------------------------------------------ worker pool


def _pid_chunk(rng, lo, hi):
    return os.getpid()


def _pool_call(workers):
    """The process ids that ran the chunks of a 12-chunk run_chunks call."""
    stream = es.RngStream(seed=1, stream_id=0)
    return set(ex.run_chunks(_pid_chunk, stream, 12 * ex.DRAW_SAMPLES, workers))


def test_worker_calls_share_one_pool():
    _pool_call(2)  # makes the pool, unless an earlier call did
    workers = multiprocessing.active_children()
    assert len(workers) == 2
    for _ in range(2):
        assert _pool_call(2) <= {p.pid for p in workers}
        assert set(multiprocessing.active_children()) == set(workers)


def test_a_new_worker_count_replaces_the_pool():
    _pool_call(2)
    old = multiprocessing.active_children()
    # the call that makes a pool runs its first chunk here, before the fork
    assert os.getpid() in _pool_call(3)
    new = multiprocessing.active_children()
    assert len(new) == 3 and not set(new) & set(old)
    assert all(p.exitcode is not None for p in old)
    assert os.getpid() not in _pool_call(3)


# -------------------------------------------------------------- emission


def test_csv_header_and_shape(tmp_path):
    records, _ = ex.run_experiment("conserve", 10, 2, fmt="csv")
    path = tmp_path / "out.csv"
    ex.write_records(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,outcome,c_a,c_b,c_f,prob,rank_a,rank_b,rank_f"
    assert len(lines) == 1 + len(records["sample"])
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] in {l.value for l in es.BellLabel}


def test_pure_csv_carries_ratio_column(tmp_path):
    records, _ = ex.run_experiment("pure", 5, 2, fmt="csv")
    path = tmp_path / "pure.csv"
    ex.write_records(records, path)
    header = path.read_text().splitlines()[0]
    assert header.endswith(",ratio")


def test_float_serialization_has_17_significant_digits():
    records, _ = ex.run_experiment("belldiag", 3, 2)
    text = ex.records_to_csv(records)
    row = text.splitlines()[1].split(",")
    assert float(row[2]) == records["c_a"][0]  # round-trips exactly


def test_json_records_round_trip(tmp_path):
    records, _ = ex.run_experiment("pure", 4, 2, fmt="json")
    path = tmp_path / "out.json"
    ex.write_records(records, path, fmt="json")
    rows = json.loads(path.read_text())
    assert len(rows) == len(records["sample"])
    assert rows[0]["outcome"] == list(es.BellLabel)[records["outcome"][0]].value
    assert rows[0]["c_f"] == records["c_f"][0]
    assert "ratio" in rows[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_records_rendered_in_the_chunks_match_the_whole_table(workers):
    # rank's 16 combos of 20 samples make 16 chunks, each rendered apart
    for name, samples in (("conserve", 60), ("belldiag", 700), ("pure", 300), ("rank", 20),
                          ("rank2-selfswap", 19), ("oracle-equiv", 300)):
        for fmt, render in (("csv", ex.records_to_csv), ("json", ex.records_to_json)):
            records, _ = ex.run_experiment(name, samples, 17, workers=workers, fmt=fmt)
            assert records.text == {fmt: render(records)}, (name, fmt)


def test_rendered_pieces_join_around_a_chunk_without_rows():
    records, _ = ex.run_experiment("pure", 40, 3)
    parts = [{key: column[lo:hi] for key, column in records.items()}
             for lo, hi in ((0, 50), (50, 50), (50, 160))]
    for fmt, render in (("csv", ex.records_to_csv), ("json", ex.records_to_json)):
        pieces = [ex._render_rows(part, fmt) for part in parts]
        assert pieces[1] == ""
        assert ex._table(ex._names(records), pieces, fmt) == render(records)
    assert ex.records_to_json({key: column[:0] for key, column in records.items()}) == "[]\n"


def test_summary_json_fields(tmp_path):
    _, report = ex.run_experiment("belldiag", 50, 2)
    path = tmp_path / "summary.json"
    ex.write_summary(report, path)
    payload = json.loads(path.read_text())
    for key in ("samples", "violations_upper", "violations_lower",
                "max_upper_excess", "max_lower_deficit", "runtime_ms", "seed"):
        assert key in payload
    assert payload["seed"] == 2
    assert payload["samples"] == 50


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
    with pytest.raises(es.ValidationError,
                       match=r"^trace invariant violated: sum = 2\.0\d* \(input a of sample 4\)$"):
        ex.run_experiment("belldiag", 6, 5)


def test_blocks_split_at_the_block_size_and_groups(monkeypatch):
    monkeypatch.setattr(ex, "DRAW_SAMPLES", 4)
    assert ex._blocks(13) == [(0, 4), (4, 8), (8, 12), (12, 13)]
    grouped = ex._blocks(13, group=5)
    assert grouped == [(0, 4), (4, 5), (5, 8), (8, 10), (10, 12), (12, 13)]
    assert all(0 < hi - lo <= 4 and lo // 5 == (hi - 1) // 5 for lo, hi in grouped)


@pytest.mark.parametrize("offset, scale", [(0.1, 0.05), (-0.3, 0.35)])
@pytest.mark.parametrize("rate", [-2.0, 0.5, 1.3, 4.0])
def test_exponential_fit_recovers_noiseless_points(offset, scale, rate):
    x = np.linspace(0.0, 1.0, 600)
    cols = {"c_a": x, "c_b": np.ones_like(x), "c_f": offset + scale * np.exp(rate * x)}
    fit = ex._fit_lower_exponential(cols)
    assert fit == pytest.approx({"offset": offset, "scale": scale, "rate": rate}, rel=0, abs=1e-8)


def test_exponential_fit_is_never_worse_than_curve_fit():
    optimize = pytest.importorskip("scipy.optimize")

    def sse(params, pts):
        offset, scale, rate = params
        return float(np.sum((offset + scale * np.exp(rate * pts[:, 0]) - pts[:, 1]) ** 2))

    compared = 0
    for samples in (30, 60, 100):
        for seed in range(1, 101):
            cols, report = ex.run_experiment("pure", samples, seed)
            xs = cols["c_a"] * cols["c_b"]
            # the envelope points the fit uses
            pts = ex._envelope_minima(xs, cols["c_f"], int(np.clip(xs.size // 20, 6, 30)))
            fit = report.fit_params
            assert -30.0 < fit["rate"] < 30.0
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", optimize.OptimizeWarning)
                    reference, _ = optimize.curve_fit(
                        lambda x, a, b, c: a + b * np.exp(c * x), pts[:, 0], pts[:, 1],
                        p0=(0.0, 0.05, 1.0), maxfev=20000)
            except RuntimeError:
                continue
            ours = sse((fit["offset"], fit["scale"], fit["rate"]), pts)
            assert ours <= sse(reference, pts) * (1.0 + 1e-12), (samples, seed)
            compared += 1
    assert compared >= 300


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
    src = str(Path(ex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads((tmp_path / "pure.summary.json").read_text())["fit_params"] is not None


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
