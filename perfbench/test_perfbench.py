"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import re
import sys
from pathlib import Path

import pytest

import checks
import measure
import tracer

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Metrics measure.py adds to tracer.layer_metrics in the traced run.
MEASURED_PER_LAYER = {"experiments.pool_speedup", "experiments.fixed_call_share",
                      "trace.overhead"}


def test_self_time_of_nested_and_sibling_spans():
    # root [0,10] holds siblings a [1,3] and b [4,8]; a holds c [1.5,2.5]
    starts = [0.0, 1.0, 1.5, 4.0]
    ends = [10.0, 3.0, 2.5, 8.0]
    parents = [-1, 0, 1, 0]
    assert tracer.self_times(starts, ends, parents) == [4.0, 1.0, 1.0, 4.0]


class Impossible(Exception):
    pass


Impossible.__name__ = tracer.IMPOSSIBLE


def _traced_tree():
    # the clock ticks by one on every reading, so durations are exact
    ticks = iter(range(1000))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def kernel(fail):
        if fail:
            raise Impossible()

    general = t.wrap("swap.general", kernel)

    def run():
        for fail in (False, True, False, False):
            try:
                general(fail)
            except Impossible:
                pass

    t.wrap("cli.main", t.wrap("experiments.run", run))()
    return t


def test_layer_metrics_shares_sum_to_one_and_count_impossible():
    t = _traced_tree()
    assert t.names == ["cli.main", "experiments.run"] + ["swap.general"] * 4
    assert set(t.errors.values()) == {tracer.IMPOSSIBLE}
    values = tracer.layer_metrics(t, samples=2, rows=3, csv_bytes=30)
    assert sum(values[name] for name in tracer.SHARES) == pytest.approx(1.0)
    assert values["swap.impossible_ratio"] == 0.25
    assert values["swap.general_us"] == 1e6
    assert values["optics.unitary_us"] == 0.0
    assert values["experiments.csv_bytes_per_sample"] == 15.0


def test_every_metric_name_is_valid_and_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(declared) == len(set(declared))
    for name in declared:
        assert METRIC_NAME.fullmatch(name), name
    emitted = set(tracer.layer_metrics(_traced_tree(), samples=1, rows=1,
                                       csv_bytes=1)) | MEASURED_PER_LAYER
    assert emitted == {m["name"] for m in bench["per_layer"]}
    assert set(tracer.SHARES) <= emitted


def test_tracer_restores_the_original_attributes():
    from entswap import experiments, qstate, swap

    before = (experiments.swap_all_outcomes, swap.swap_general,
              vars(qstate.DensityMatrix)["validate"])
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert experiments.swap_all_outcomes is not before[0]
            qstate.DensityMatrix.maximally_mixed()
            raise RuntimeError("leave the block early")
    after = (experiments.swap_all_outcomes, swap.swap_general,
             vars(qstate.DensityMatrix)["validate"])
    assert after == before
    assert t.names == ["qstate.validate"]


GOOD_SUMMARY = {"hard_violations": 0, "skipped": 1}
GOOD_CSV = b"sample,outcome\n0,psi+\n0,psi-\n0,phi+\n"


def _check(rc=0, summary=GOOD_SUMMARY, csv=GOOD_CSV, **kwargs):
    return checks.check_call(rc, summary, csv, expected_rows=4, **kwargs)


def test_check_accepts_a_good_call():
    assert _check(reference=GOOD_CSV) == []


def test_check_rejects_a_nonzero_exit():
    assert _check(rc=1)
    assert _check(rc=None)


def test_check_rejects_hard_violations():
    assert _check(summary={"hard_violations": 1, "skipped": 1})


def test_check_rejects_a_csv_that_differs_by_one_byte():
    altered = GOOD_CSV.replace(b"phi+", b"phi-")
    assert len(altered) == len(GOOD_CSV)
    assert _check(csv=altered, reference=GOOD_CSV)


def test_check_rejects_missing_rows_and_outputs():
    assert _check(csv=GOOD_CSV.rsplit(b"\n", 2)[0] + b"\n")
    assert _check(csv=None)
    assert _check(summary=None)


def test_check_rejects_oracle_distances_above_tolerance():
    summary = dict(GOOD_SUMMARY, extras={"max_trace_distance": 3e-16,
                                         "max_probability_diff": 2e-10})
    assert _check(summary=summary, oracle_tol=1e-10)
    summary["extras"]["max_probability_diff"] = 1e-16
    assert _check(summary=summary, oracle_tol=1e-10) == []


def test_private_memory_leaves_out_pages_shared_with_the_parent():
    rollup = ("Rss:  9000 kB\nPss:  5000 kB\nShared_Clean:  6000 kB\n"
              "Shared_Dirty:  1000 kB\nPrivate_Clean:  120 kB\n"
              "Private_Dirty:  1880 kB\nAnonymous:  1900 kB\n")
    assert measure.private_kib(rollup) == 2000
    assert measure.private_kib("") == 0
