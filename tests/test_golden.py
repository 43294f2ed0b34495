"""Byte contract of the experiment outputs.

For fixed seeds the CSV (or JSON) records and the summary JSON, with the
wall-clock ``runtime_ms`` removed, must stay byte-identical across
refactors and worker counts. The hashes below were
taken with samples drawn in 256-sample draw chunks, each from one
generator keyed by its first sample index; a change that moves them
changes the program's observable behaviour and has to say so.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import multiprocessing.connection
import os
import signal

import numpy as np
import pytest

from entswap import cli, experiments

# (experiment, samples, seed, extra CLI args, records format) ->
# (records sha256, summary sha256 without runtime_ms)
GOLDEN = {
    ("conserve", 40, 5, ("--ensemble", "bures"), "csv"): (
        "c23c18191c78427c43b220b7fdacc252f99cc877730542dad5008e11990e0bad",
        "11c0946a1cce58f71c9bd14d4ebe3e72e02a6c376011e3621d0656700abdd7e9",
    ),
    ("conserve", 40, 5, ("--ensemble", "pure"), "csv"): (
        "8765fc8462c69d072a4c9d6ab4a19e917e81c40122f19bd52634d5a80993a1b6",
        "c997db953f6d5d878bf1b698a0ec0dabe0149943074f7d7ea5ffa2dfa211fda1",
    ),
    ("conserve", 40, 5, ("--ensemble", "induced-2"), "csv"): (
        "22e706662a59de17ffe86dfb8a685f59e5162b10a76ae9d9e67f3af7da423a8d",
        "e481009a40dd3434152e71e4aceee914be11d7b441e4028fb1d22f9e498081da",
    ),
    # pure summaries carry the identity and Schmidt-floor checks by name
    ("pure", 60, 5, (), "csv"): (
        "cd32f218c1ec41af74c59d6f7b354f3af388859d7070d403ababc23eecdeaa7d",
        "f1829aaa9127010698a1678befdddd18cc0adc44304265c01c50e5d261aa4121",
    ),
    ("pure", 60, 501, (), "csv"): (
        "ab13f71dd3da06b33d0b44c0b4165c9366b89648e09495ddcb8b226188d1685a",
        "9dd12b71eb33d109489f05b8ffbaaf5e33308d74dcd820da6474a343652ce929",
    ),
    ("rank", 3, 77, (), "csv"): (
        "60eca757cfbb659d85d2e51f6ff30dc9d6a9e7edfa3e9c9ffb57e13827439bcf",
        "1e246e968b75c7118c052c9457f7ed79fa05d805364d5ead6c7c8c9ea2dadb84",
    ),
    ("rank2-selfswap", 19, 5, (), "csv"): (
        "386a260761204a49ec0618c8689c2c54d730fd567c0db7d1699789b9ecc880a8",
        "31defd57795b92b66575ee8a9f74d4df6b39a602b3c8026b5e9e797f37930c22",
    ),
    ("oracle-equiv", 20, 5, ("--eta", "0.5"), "csv"): (
        "ad8966d694fd252e21be46c2b37d740fb1a1ab8eb2fc460c61199e8def6f31da",
        "2cbcdb38de6207ceacfd9f1aaacb722f4ebb20ca47220d9d693263bb7cde69ca",
    ),
    ("belldiag", 200, 5, (), "csv"): (
        "d54e5db17ef2a5cd621a87ebe5fb9efac6baae350e8b7f5a52c92474de964753",
        "987f123a29403be69921188c79bf764c60781e788d413aac0c43b1f9029e6cba",
    ),
    # several 256-sample blocks at workers=1, several pool chunks at 2
    ("belldiag", 600, 7, (), "csv"): (
        "ca60e74b1a117518a22681b7984f14499627efe75c96e2a132e969512d6398f7",
        "8df0b306aa3185f15f92a9692a18184801943910e9248f3bb660068c06d6567e",
    ),
    ("belldiag", 600, 501, (), "csv"): (
        "3dea2a042fa8617977f7d7688632929117e7e97212c139df0796caa22f234039",
        "92ddb7b82064bc11dae8e5020ede5166132460e2c95087b02a1a3372b3330680",
    ),
    ("pure", 30, 7, (), "json"): (
        "f892d651e7e56249af5a56c9b428fd64157c3440643313217d92f46620244c42",
        "d6e00bd81a198ca2eeb9c584e7afadd9a2d0e9b55a948c2466f0d78879052423",
    ),
    # JSON records tell 1 from 1.0, so they pin each column's int or float type
    ("conserve", 40, 5, ("--ensemble", "bures"), "json"): (
        "f0d109aac422c3c814748fa64b5b5f6a18d4ecd1111ad3214d03e212fd86b746",
        "11c0946a1cce58f71c9bd14d4ebe3e72e02a6c376011e3621d0656700abdd7e9",
    ),
    ("rank", 3, 77, (), "json"): (
        "6f00c1fdb25ab2269d6407f2fc3e8c925fa9afb179159f35a454dc41271b3cd9",
        "1e246e968b75c7118c052c9457f7ed79fa05d805364d5ead6c7c8c9ea2dadb84",
    ),
    ("oracle-equiv", 20, 5, ("--eta", "0.5"), "json"): (
        "953a5ca42883677a8c2a11e4efc32771cac39bb72cc1f440b4f5708ada1437d4",
        "2cbcdb38de6207ceacfd9f1aaacb722f4ebb20ca47220d9d693263bb7cde69ca",
    ),
}

# sha256 of the output of `entswap sample <ensemble> --samples 7 --seed 3`,
# on one worker or two.
SAMPLE_GOLDEN = {
    "bures": "14c65de6e837c5122347e51f070c8f4c41d9ec9910bb8219f8e9f93c59c23ca8",
    "induced-1": "50b53635137890e96a575b9cbbbce2cbcbaf0b3a6e2d444602175a69ba309dfe",
    "induced-2": "06bf737460a0b690b9fce128945905dbd4de63267318fc00a5f64378cbe39e67",
    "induced-3": "cc8308bcc259b9afa60bec3cfdde4517758db2feda042c32ec621b62dcd5e955",
    "induced-4": "b14fe6ab45af65a78df7a02fb3958f4bc06cac862ffa30716122d3cd88ca85b6",
    "pure": "c9d5ec096321474b609b428c48f8e557df1ab37287def95e799a079ea865ea2d",
    "bell-diagonal": "9d095e09138a8f8328a723a1a74350e44ad8ebc52a1adb82b0237f47a37e8dc3",
    "x": "7c851c6f2fbdec09f640969c9640703c7f0b6a642129e9e509f0fd222d429358",
}

# sha256 of `entswap swap a.json b.json --outcome <outcome> --out out.json`,
# stdout and out.json alike (the same text), for the pair a, b written by
# `entswap sample bures --samples 2 --seed 3`: all four outcomes possible.
SWAP_GOLDEN = {
    "psi+": "26bcaf39ee02c328f0090347a670cfbb7c17dd49f4968bb3bc4f697563201d28",
    "psi-": "e6d411d2550842da0d626248616120ff89bb80f1b086330dba1c3562e2b51e09",
    "phi+": "84fa074f9b0c3b1b4ab7d8578c96f0320d0219945aeb312860acba394dc65a6a",
    "phi-": "0cccffca2ed773e7e7261b55432c616e73740dc79e6aa3edfc27ddbf7913d1bc",
}

# haar-stats writes header-only records; its phase sums are accumulated in
# sample order, so its summary is the same on any worker count. Its two
# checks' worst values are the |z| of the phase sum and the sum of squares.
HAAR_RECORDS = "d385aea90d72c4220184d1350b92753f8b3b50c1012d6e93bb5f872890df9fad"
HAAR_SUMMARY = "b9c30a72d051e222cfc9771fe9123786cd38037001bb32f1fb72105349589fbe"


def _run_hashes(tmp_path, name, samples, seed, extra, fmt, workers):
    out = tmp_path / f"{name}.{fmt}"
    argv = ["experiment", name, "--samples", str(samples), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out), "--format", fmt,
            *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    del summary["runtime_ms"]
    canonical = json.dumps(summary, sort_keys=True).encode()
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(canonical).hexdigest())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN),
                         ids=lambda c: "-".join(map(str, (c[0], c[2], c[4], *c[3]))))
def test_outputs_match_golden_hashes(tmp_path, case, workers):
    assert _run_hashes(tmp_path, *case, workers) == GOLDEN[case]


def test_a_killed_worker_is_replaced_by_a_fresh_pool(tmp_path):
    case = ("belldiag", 600, 7, (), "csv")
    experiments._close_pool()
    assert _run_hashes(tmp_path, *case, 2) == GOLDEN[case]
    (victim, _), = experiments._pool
    os.kill(victim.pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
    assert _run_hashes(tmp_path, *case, 2) == GOLDEN[case]
    # a workers=2 call runs in the caller and one pool process, a fresh one
    (fresh, _), = experiments._pool
    assert multiprocessing.active_children() == [fresh] and fresh is not victim


def _in_blocks(outcomes, size):
    """An experiment's outcomes function run as stacked calls of at most
    ``size`` pairs, its results joined as if from one call."""
    def take(stack, rows):
        return tuple(part[rows] for part in stack) if isinstance(stack, tuple) else stack[rows]

    def split(a, b, where):
        parts = []
        for lo in range(0, len(b[0] if isinstance(b, tuple) else b), size):
            rows = slice(lo, lo + size)
            parts.append(outcomes(take(a, rows), take(b, rows),
                                  lambda n, k=None, lo=lo: where(lo + n, k)))
        kept, *stacks, extra = zip(*parts)
        return (kept[0], *map(np.concatenate, stacks),
                {key: np.concatenate([part[key] for part in extra]) for key in extra[0]})
    return split


@pytest.mark.parametrize("case", sorted(GOLDEN),
                         ids=lambda c: "-".join(map(str, (c[0], c[2], c[4], *c[3]))))
def test_small_engine_blocks_keep_golden_hashes(tmp_path, monkeypatch, case):
    # each draw chunk is one stacked engine call; cut into 7-pair calls, every
    # stacked route must give each pair the same bits
    spec = experiments.EXPERIMENTS[case[0]]
    monkeypatch.setitem(experiments.EXPERIMENTS, case[0],
                        spec._replace(outcomes=_in_blocks(spec.outcomes, 7)))
    assert _run_hashes(tmp_path, *case, 1) == GOLDEN[case]


@pytest.mark.parametrize("workers", [1, 2])
def test_haar_stats_matches_golden_hashes(tmp_path, workers):
    records, summary = _run_hashes(tmp_path, "haar-stats", 500, 5, (), "csv",
                                   workers)
    assert (records, summary) == (HAAR_RECORDS, HAAR_SUMMARY)


@pytest.mark.parametrize("ensemble", sorted(SAMPLE_GOLDEN))
def test_sample_output_matches_golden_hashes(capsys, ensemble):
    for workers in ("1", "2"):
        argv = ["sample", ensemble, "--samples", "7", "--seed", "3", "--workers", workers]
        assert cli.main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_GOLDEN[ensemble], workers


@pytest.mark.parametrize("outcome", sorted(SWAP_GOLDEN))
def test_swap_output_matches_golden_hashes(tmp_path, capsys, outcome):
    pair = tmp_path / "pair.jsonl"
    assert cli.main(["sample", "bures", "--samples", "2", "--seed", "3",
                     "--out", str(pair)]) == cli.EXIT_OK
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, line in zip(paths, pair.read_text().splitlines()):
        path.write_text(line)
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert cli.main(["swap", *map(str, paths), "--outcome", outcome,
                     "--out", str(out)]) == cli.EXIT_OK
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert stdout == hashlib.sha256(out.read_bytes()).hexdigest() == SWAP_GOLDEN[outcome]
