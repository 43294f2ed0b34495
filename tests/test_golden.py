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
        "14ba37b00913b0081d5a74298ffc8320aa9c710a96beee9cbf9019e8db83b7bd",
        "8623ac7ee117f501108d4e3386239946a0ad03803f0fc53b48a68d1a1951bef3",
    ),
    ("conserve", 40, 5, ("--ensemble", "pure"), "csv"): (
        "e989a2e29bff66cc8effa20a9f8ebaf0aaf9ef3c8e12032fb43bb13326b9daa5",
        "8623ac7ee117f501108d4e3386239946a0ad03803f0fc53b48a68d1a1951bef3",
    ),
    ("conserve", 40, 5, ("--ensemble", "induced-2"), "csv"): (
        "f6bbbbcc65d400ac796c6de9ed7df36429d779e4f36490fc3a0c9bb3fba40357",
        "0871eb320e3f10b3b6099d853fc97a8df23572d08aca7e80946649d4a1ef3bb1",
    ),
    # pure summaries carry the exponential floor's fit_params
    ("pure", 60, 5, (), "csv"): (
        "6f401c26251383dd3be778e4611952c273583b0e5efefb36463889eb79528b7a",
        "5ed6cc44325f408bc18ba6bfa3093742951be18a2f8be394841add6ec84d425c",
    ),
    ("pure", 60, 501, (), "csv"): (
        "f734fb4bcb94fc3a6e50c14ec5dffb6af9a5a858e65137c17710d4127332761a",
        "e1c236fe28cf880073a837745d2cddf83899b8669359c0606d1118b55126e7b0",
    ),
    ("rank", 3, 77, (), "csv"): (
        "71071e15791d8a6f1da3d8df3123d83a888011e35d1a5de999cac86dd06fa501",
        "0d37e8ba8e84c078586173db508e0d2af9b9cacf3dfae832c2bf5732bed41bad",
    ),
    ("rank2-selfswap", 19, 5, (), "csv"): (
        "40e85effa32d450f5679acbb05142b373ea59caaadb19da0a48dddc6216e01ff",
        "3fac4377a1065de787ea198aa0af3eae8491d029ab2df67176894ae7cd81aee7",
    ),
    ("oracle-equiv", 20, 5, ("--eta", "0.5"), "csv"): (
        "42e19a0fe3e6c605f1517f0de69bcec1dcfd93514a1ed6dcf1db3f4e4087fb14",
        "cd17deaaa97b4312051341a095a246c9e6a7cae2889a5d43f14052d01b39c7a5",
    ),
    ("belldiag", 200, 5, (), "csv"): (
        "d54e5db17ef2a5cd621a87ebe5fb9efac6baae350e8b7f5a52c92474de964753",
        "7451b3d66c723c3d7803dab576bf4b40e7d2daf667b4e3c7e32bb8c145b09c03",
    ),
    # several 256-sample blocks at workers=1, several pool chunks at 2
    ("belldiag", 600, 7, (), "csv"): (
        "ca60e74b1a117518a22681b7984f14499627efe75c96e2a132e969512d6398f7",
        "f229341c0d4100d65afdd81c7a0268ae765931bde3fcde34a3b6805e344eb8cc",
    ),
    ("belldiag", 600, 501, (), "csv"): (
        "3dea2a042fa8617977f7d7688632929117e7e97212c139df0796caa22f234039",
        "f212808ff265651e0efee834a851501d4bb27473e2abcfdc02f4a0a3b488dad2",
    ),
    ("pure", 30, 7, (), "json"): (
        "5dea9440995c28f4a3db04dcd465416dde82d3052b1efedb890eb3b2db3141b5",
        "4fc2001771b89cb1ffd38896a8409be6aa9cc5049d8e03d1b879279d1136fd68",
    ),
    # JSON records tell 1 from 1.0, so they pin each column's int or float type
    ("conserve", 40, 5, ("--ensemble", "bures"), "json"): (
        "e23979ef302a9f2b0a5abab057968e9c76637297a4b563e72586d6bb320d8222",
        "8623ac7ee117f501108d4e3386239946a0ad03803f0fc53b48a68d1a1951bef3",
    ),
    ("rank", 3, 77, (), "json"): (
        "055c16d4778fb28aa2d49537f704486f4577449c2f2effaa7b4aec0cead093cf",
        "0d37e8ba8e84c078586173db508e0d2af9b9cacf3dfae832c2bf5732bed41bad",
    ),
    ("oracle-equiv", 20, 5, ("--eta", "0.5"), "json"): (
        "69bbf52cb749ae5d2da2e95beb7954404a1ad60861892f77a09b6289fa913ed1",
        "cd17deaaa97b4312051341a095a246c9e6a7cae2889a5d43f14052d01b39c7a5",
    ),
    # an unbalanced beamsplitter: every sample is a hard violation
    ("oracle-equiv", 6, 11, ("--eta", "0.3"), "csv"): (
        "07901b9ca21e0c9e20cff43423f6f50a9817ef94b45eadf1ab4177847977519d",
        "c4da0975a24c3b76c7780dd67ac238705a7d91aae483322e670673e9ca758c17",
    ),
}

# Cases that exit with a code other than EXIT_OK.
EXIT_CODES = {("oracle-equiv", 6, 11, ("--eta", "0.3"), "csv"): cli.EXIT_VIOLATION}

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

# haar-stats writes header-only records; its phase sums are accumulated in
# sample order, so its summary is the same on any worker count.
HAAR_RECORDS = "d385aea90d72c4220184d1350b92753f8b3b50c1012d6e93bb5f872890df9fad"
HAAR_SUMMARY = "6b09768306eb16037ca575527a85139a01f0ff90f1123f58aee6ca18c3863737"


def _run_hashes(tmp_path, name, samples, seed, extra, fmt, workers, rc=cli.EXIT_OK):
    out = tmp_path / f"{name}.{fmt}"
    argv = ["experiment", name, "--samples", str(samples), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out), "--format", fmt,
            *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == rc
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    del summary["runtime_ms"]
    canonical = json.dumps(summary, sort_keys=True).encode()
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(canonical).hexdigest())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN),
                         ids=lambda c: "-".join(map(str, (c[0], c[2], c[4], *c[3]))))
def test_outputs_match_golden_hashes(tmp_path, case, workers):
    rc = EXIT_CODES.get(case, cli.EXIT_OK)
    assert _run_hashes(tmp_path, *case, workers, rc) == GOLDEN[case]


def test_a_killed_worker_is_replaced_by_a_fresh_pool(tmp_path):
    case = ("belldiag", 600, 7, (), "csv")
    assert _run_hashes(tmp_path, *case, 2) == GOLDEN[case]
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
    assert _run_hashes(tmp_path, *case, 2) == GOLDEN[case]
    workers = multiprocessing.active_children()
    assert len(workers) == 2 and victim not in workers


def _in_blocks(outcomes, size):
    """An experiment's outcomes function run as stacked calls of at most
    ``size`` pairs, its results joined as if from one call."""
    def take(stack, rows):
        return tuple(part[rows] for part in stack) if isinstance(stack, tuple) else stack[rows]

    def split(a, b, where, args):
        parts = []
        for lo in range(0, len(b[0] if isinstance(b, tuple) else b), size):
            rows = slice(lo, lo + size)
            parts.append(outcomes(take(a, rows), take(b, rows),
                                  lambda n, k=None, lo=lo: where(lo + n, k), args))
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
    rc = EXIT_CODES.get(case, cli.EXIT_OK)
    assert _run_hashes(tmp_path, *case, 1, rc) == GOLDEN[case]


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
