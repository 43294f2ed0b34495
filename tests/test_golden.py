"""Byte contract of the experiment outputs.

For fixed seeds the CSV (or JSON) records and the summary JSON, with the
wall-clock ``runtime_ms`` removed, must stay byte-identical across
refactors and worker counts. The hashes below were taken from the
per-sample reference implementation; a change that moves them changes
the program's observable behaviour and has to say so.
"""

import contextlib
import hashlib
import io
import json

import pytest

from entswap import cli, experiments

# (experiment, samples, seed, extra CLI args, records format) ->
# (records sha256, summary sha256 without runtime_ms)
GOLDEN = {
    ("conserve", 40, 5, ("--ensemble", "bures"), "csv"): (
        "14ae93b459a5956003fff498f7e62a89312648b232f285013e4c3a90fef5dcce",
        "269d065ba2d1d59cd0da76a523966f4661b8ff2098c0acb5ec8ebd34e34e53ce",
    ),
    ("conserve", 40, 5, ("--ensemble", "pure"), "csv"): (
        "628659747e4ed3325e6a568ae4f7054b488a455aef890e7284744f37b0cd60dd",
        "dfedc55c961111cf254258198ebefd1eb2511e35bd1ce2dc5e9d4202820e2f89",
    ),
    ("conserve", 40, 5, ("--ensemble", "induced-2"), "csv"): (
        "3f3b8dd006e37dba32164850f983705f792c76c64e384c9a6b6613f18bd12228",
        "6125bc5525c4dfeba054d9cf23ccbb25c18d54735087e839c11011b6f3b3d986",
    ),
    ("pure", 60, 5, (), "csv"): (
        "1a22a0ed90577403a96d2ab07165edbc976ee025cd301ab76ea720510f595747",
        "56c81c924d226349d302441b9ebeadb89f9706f7fab6cd98417433d1a7dcc27b",
    ),
    ("pure", 60, 501, (), "csv"): (
        "5815c8f0c24c266404c58d823c9769a49057867ff52a953bc2ae3533156ac98a",
        "2a4095b4ecd322bf2ba9eee613ef326aa834eb5c0de4efd758b92353db951b17",
    ),
    ("rank", 3, 77, (), "csv"): (
        "2db6d27741dec406ee8b254ac857d127eb01a8f969802b5e10e0b9785de2928e",
        "0d37e8ba8e84c078586173db508e0d2af9b9cacf3dfae832c2bf5732bed41bad",
    ),
    ("rank2-selfswap", 19, 5, (), "csv"): (
        "40e85effa32d450f5679acbb05142b373ea59caaadb19da0a48dddc6216e01ff",
        "3fac4377a1065de787ea198aa0af3eae8491d029ab2df67176894ae7cd81aee7",
    ),
    ("oracle-equiv", 20, 5, ("--eta", "0.5"), "csv"): (
        "d33036e50e0ebb1f9dfb4ee21a6afb7d2b458ecce183be30884f457b629b39af",
        "1fbdee62af244bb0f6a9a944dd32c5da99a19147720fd6e77e00e04e614fd3ec",
    ),
    ("belldiag", 200, 5, (), "csv"): (
        "7aedaa4ad8e2dcb18604dc89a88cd362f0c2514bb610dba20564e65ec96736e6",
        "7451b3d66c723c3d7803dab576bf4b40e7d2daf667b4e3c7e32bb8c145b09c03",
    ),
    # several 256-sample blocks at workers=1, several pool chunks at 2
    ("belldiag", 600, 7, (), "csv"): (
        "8f93a0754e65f9538810466696103d9bc987d1d8cc3bb5027556448afeb48422",
        "f229341c0d4100d65afdd81c7a0268ae765931bde3fcde34a3b6805e344eb8cc",
    ),
    ("belldiag", 600, 501, (), "csv"): (
        "f1215ee75011852c4215c2de6e36c04b6b821e8fc2aadbe8daf939c856e00a8e",
        "b94bd41ad9056a84fc43bf5d31a186cd600aff5efb6800f48c1553d709c2936d",
    ),
    ("pure", 30, 7, (), "json"): (
        "5661426892f78d4e235b2e47b49b2df006be8c7eacb2ea1859697d44a0a22424",
        "8015772210f549dce56a6122a89b33899bec3a149f2ba1c0eb939901d4b87924",
    ),
    # JSON records tell 1 from 1.0, so they pin each column's int or float type
    ("conserve", 40, 5, ("--ensemble", "bures"), "json"): (
        "36f1492a9d4e6d4ed295211864f673b6997be0f1502efbfc2be3ce256d609a51",
        "269d065ba2d1d59cd0da76a523966f4661b8ff2098c0acb5ec8ebd34e34e53ce",
    ),
    ("rank", 3, 77, (), "json"): (
        "c8dcb1bfccd239c3c7494c2d395f273b3b99a513d467c3723673d1ee70319c7e",
        "0d37e8ba8e84c078586173db508e0d2af9b9cacf3dfae832c2bf5732bed41bad",
    ),
    ("oracle-equiv", 20, 5, ("--eta", "0.5"), "json"): (
        "62141198502d2f77351368c0b03fa713ac66bbb94fc83734867e61cfe97000b0",
        "1fbdee62af244bb0f6a9a944dd32c5da99a19147720fd6e77e00e04e614fd3ec",
    ),
    # an unbalanced beamsplitter: every sample is a hard violation
    ("oracle-equiv", 6, 11, ("--eta", "0.3"), "csv"): (
        "6fd59bff597c5705f34e20e57830833a6f8d874c3b031a710776e8a4696eaa79",
        "aff2e5221aa614e2886d63f81040e5c28b6edbf13a53650e2254caabce388da6",
    ),
}

# Cases that exit with a code other than EXIT_OK.
EXIT_CODES = {("oracle-equiv", 6, 11, ("--eta", "0.3"), "csv"): cli.EXIT_VIOLATION}

# sha256 of the output of `entswap sample <ensemble> --samples 7 --seed 3`.
SAMPLE_GOLDEN = {
    "bures": "9450a7658263e47c1c69adba3f59cd5f25f87de336c5730f82ce3a8fbb623be7",
    "induced-1": "4a1b5296a2f689f4a9f913a67246678f3c94e9c70199f26ae48c059049874d34",
    "induced-2": "1bde02c13b407231a0da49858bcfd614579ccfb9509184b3487bc070f1440e2e",
    "induced-3": "4aae2612afee9f731e1212a08c024c07f0506ded3bc0dd98e670f74cefb6246f",
    "induced-4": "6cd21cd8cf590b41162edc1c6230c69a00f8a7c658ee3622061a99c96b23ef7e",
    "pure": "27b68b666083975ecb6c903f8cd6c5a5e342e3a82f971d9e65f540ab47eea2da",
    "bell-diagonal": "0208fcef4edb3efe96f2cbf141d784853e9bda10c58146ffd52807f191ccc926",
    "x": "715ca03d82482f579e0227cab9915fccb8a29d7e53b9f1be58073d46b56726b5",
}

# haar-stats writes header-only records; its phase sums are accumulated in
# sample order, so its summary is the same on any worker count.
HAAR_RECORDS = "d385aea90d72c4220184d1350b92753f8b3b50c1012d6e93bb5f872890df9fad"
HAAR_SUMMARY = "e60b915a4a1d827eb8ff5084b4340a1023a54270b7d9f255f1057a8cdf17c825"


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


@pytest.mark.parametrize("case", sorted(GOLDEN),
                         ids=lambda c: "-".join(map(str, (c[0], c[2], c[4], *c[3]))))
def test_small_engine_blocks_keep_golden_hashes(tmp_path, monkeypatch, case):
    # 7-sample blocks split each run into several stacked engine calls
    monkeypatch.setattr(experiments, "BLOCK_SAMPLES", 7)
    rc = EXIT_CODES.get(case, cli.EXIT_OK)
    assert _run_hashes(tmp_path, *case, 1, rc) == GOLDEN[case]


@pytest.mark.parametrize("workers", [1, 2])
def test_haar_stats_matches_golden_hashes(tmp_path, workers):
    records, summary = _run_hashes(tmp_path, "haar-stats", 500, 5, (), "csv",
                                   workers)
    assert (records, summary) == (HAAR_RECORDS, HAAR_SUMMARY)


@pytest.mark.parametrize("ensemble", sorted(SAMPLE_GOLDEN))
def test_sample_output_matches_golden_hashes(capsys, ensemble):
    assert cli.main(["sample", ensemble, "--samples", "7", "--seed", "3"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_GOLDEN[ensemble]
