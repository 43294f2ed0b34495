import importlib.util
import json
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


# -------------------------------------------------------------- emission


def test_csv_header_and_shape(tmp_path):
    records, _ = ex.run_experiment("conserve", 10, 2)
    path = tmp_path / "out.csv"
    ex.write_records(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,outcome,c_a,c_b,c_f,prob,rank_a,rank_b,rank_f"
    assert len(lines) == 1 + len(records["sample"])
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] in {l.value for l in es.BellLabel}


def test_pure_csv_carries_ratio_column(tmp_path):
    records, _ = ex.run_experiment("pure", 5, 2)
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
    records, _ = ex.run_experiment("pure", 4, 2)
    path = tmp_path / "out.json"
    ex.write_records(records, path, fmt="json")
    rows = json.loads(path.read_text())
    assert len(rows) == len(records["sample"])
    assert rows[0]["outcome"] == list(es.BellLabel)[records["outcome"][0]].value
    assert rows[0]["c_f"] == records["c_f"][0]
    assert "ratio" in rows[0]


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
    # edges are counted from sample 0, not from the start of the range
    assert ex._blocks(3, 13) == [(3, 4), (4, 8), (8, 12), (12, 13)]
    grouped = ex._blocks(3, 13, group=5)
    assert [lo for lo, _ in grouped[1:]] == [hi for _, hi in grouped[:-1]]
    assert (grouped[0][0], grouped[-1][1]) == (3, 13)
    assert all(0 < hi - lo <= 4 and lo // 5 == (hi - 1) // 5 for lo, hi in grouped)


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
