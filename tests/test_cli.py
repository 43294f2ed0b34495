import json
import re

import numpy as np
import pytest

import entswap as es
from entswap.cli import EXIT_VIOLATION, main
from entswap.ensembles import STATE_ENSEMBLES


def _write_state(path, rho):
    path.write_text(json.dumps(es.matrix_to_json_dict(rho)))
    return str(path)


@pytest.fixture
def phi_plus_file(tmp_path):
    return _write_state(tmp_path / "phi_plus.json", es.bell_density(es.BellLabel.PHI_PLUS))


def test_swap_command_bell_pair(phi_plus_file, capsys):
    rc = main(["swap", phi_plus_file, phi_plus_file, "--outcome", "psi-"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probability"] == pytest.approx(0.25, abs=1e-12)
    assert payload["concurrence"] == pytest.approx(1.0, abs=1e-12)
    assert payload["rank"] == 1
    state = es.matrix_from_json_dict(payload["state"])
    assert es.trace_distance(state, es.bell_density(es.BellLabel.PSI_MINUS)) < 1e-12


def test_swap_command_writes_output_file(phi_plus_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    rc = main(["swap", phi_plus_file, phi_plus_file, "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["outcome"] == "psi-"


def test_swap_command_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["swap", str(bad), str(bad)])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


def test_swap_command_names_violated_invariant(tmp_path, capsys):
    payload = es.matrix_to_json_dict(es.DensityMatrix.maximally_mixed())
    payload["matrix"][0][0] = [0.75, 0.0]
    payload["matrix"][1][1] = [-0.25, 0.0]
    bad = tmp_path / "nonpsd.json"
    bad.write_text(json.dumps(payload))
    rc = main(["swap", str(bad), str(bad)])
    assert rc == 2
    assert "eigenvalue" in capsys.readouterr().err


def test_swap_command_impossible_outcome(tmp_path, capsys):
    hh = tmp_path / "hh.json"
    _write_state(hh, es.DensityMatrix.from_pure([1, 0, 0, 0]))
    rc = main(["swap", str(hh), str(hh), "--outcome", "psi+"])
    assert rc == 1
    assert "normalization" in capsys.readouterr().err


def test_experiment_conserve_exit_zero(tmp_path, capsys):
    out = tmp_path / "conserve.csv"
    rc = main(["experiment", "conserve", "--samples", "40", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    assert out.exists()
    summary = json.loads((tmp_path / "conserve.summary.json").read_text())
    assert summary["hard_violations"] == 0
    assert summary["seed"] == 7
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["experiment"] == "conserve"


def test_experiment_csv_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["experiment", "belldiag", "--samples", "60", "--seed", "3"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_csv_independent_of_workers(tmp_path):
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    argv = ["experiment", "conserve", "--samples", "30", "--seed", "3"]
    assert main(argv + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_json_format(tmp_path):
    out = tmp_path / "pure.json"
    rc = main(["experiment", "pure", "--samples", "10", "--seed", "3",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    assert isinstance(json.loads(out.read_text()), list)


def test_experiment_rejects_unknown_name(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "warp-drive"])
    assert err.value.code == 2


def test_experiment_unwritable_output(tmp_path, capsys):
    rc = main(["experiment", "rank2-selfswap", "--samples", "9",
               "--out", str(tmp_path / "missing_dir" / "x.csv")])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err


def test_oracle_check_command(capsys):
    rc = main(["oracle-check", "--samples", "5", "--seed", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["extras"]["max_trace_distance"] < 1e-10


def test_oracle_check_rejects_bad_reflectivity(capsys):
    rc = main(["oracle-check", "--samples", "2", "--eta", "1.5"])
    assert rc == 2
    assert "reflectivity" in capsys.readouterr().err


def test_sample_command_emits_valid_states(tmp_path):
    out = tmp_path / "states.jsonl"
    rc = main(["sample", "bures", "--samples", "3", "--seed", "11",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        es.matrix_from_json_dict(json.loads(line)).validate()


@pytest.mark.parametrize("ensemble", ["induced-2", "pure", "bell-diagonal", "x"])
def test_sample_command_all_ensembles(ensemble, capsys):
    rc = main(["sample", ensemble, "--samples", "2", "--seed", "4"])
    assert rc == 0
    for line in capsys.readouterr().out.splitlines():
        rho = es.matrix_from_json_dict(json.loads(line))
        if ensemble == "induced-2":
            assert es.numerical_rank(rho) == 2
        if ensemble in ("bell-diagonal", "x"):
            es.as_x_state(rho)


def test_sample_command_names_the_failing_sample(monkeypatch, tmp_path, capsys):
    real = STATE_ENSEMBLES["bures"]

    def broken(rng, n):
        mats = real(rng, n)
        mats[2] *= 2.0
        return mats

    monkeypatch.setitem(STATE_ENSEMBLES, "bures", broken)
    rc = main(["sample", "bures", "--samples", "4", "--seed", "1"])
    assert rc == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"entswap: trace invariant violated: .*\(sample 2\)\n", captured.err)
    # an experiment's draw fails the same way, not as a usage error
    rc = main(["experiment", "conserve", "--samples", "4", "--out", str(tmp_path / "c.csv")])
    assert rc == EXIT_VIOLATION
    assert re.fullmatch(r"entswap: trace invariant violated: .*\(input of sample 2\)\n",
                        capsys.readouterr().err)


def test_impossible_psi_minus_in_an_oracle_run_exits_one(monkeypatch, tmp_path, capsys):
    # every drawn pair is |HH><HH| x |HH><HH|, whose psi- outcome is impossible
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0]).mat

    def bunched(rng, size):
        return np.broadcast_to(hh, (size, 4, 4)).copy()

    monkeypatch.setattr("entswap.experiments.random_bures", bunched)
    message = (r"entswap: outcome psi- has normalization 0\.000e\+00 <= 1e-12; "
               r"the conditional state is undefined\n")
    for argv in (["experiment", "oracle-equiv", "--out", str(tmp_path / "o.csv")],
                 ["oracle-check"]):
        assert main([*argv, "--samples", "3", "--seed", "1"]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(message, captured.err)


def test_swap_command_reports_a_derived_state_failure(tmp_path, capsys):
    # A carries an eigenvalue of -9e-11, inside EIGENVALUE_FLOOR; conditioning
    # on psi- scales the roundoff past the floor (ROADMAP item 3)
    rng = np.random.default_rng(8)
    u = es.haar_unitary(rng, 4)
    rho_a = es.DensityMatrix(u @ np.diag([0.5, 0.3, 0.2 + 9e-11, -9e-11]) @ u.conj().T)
    rho_b = es.DensityMatrix.from_pure(es.random_pure(rng))
    argv = ["swap", _write_state(tmp_path / "a.json", rho_a),
            _write_state(tmp_path / "b.json", rho_b)]
    assert main(argv) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"entswap: eigenvalue invariant violated: min eigenvalue = -1\.\d+e-10\n",
                        captured.err)


def test_seed_env_var_is_overridden_by_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ENTSWAP_SEED", "123")
    out = tmp_path / "env.csv"
    rc = main(["experiment", "rank2-selfswap", "--samples", "9", "--out", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123
    rc = main(["experiment", "rank2-selfswap", "--samples", "9", "--seed", "9",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


def test_strict_flag_accepted(tmp_path):
    out = tmp_path / "strict.csv"
    rc = main(["experiment", "belldiag", "--samples", "50", "--seed", "3",
               "--strict", "--out", str(out)])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["experiment", "conserve", "--samples", "0"],
    ["sample", "bures", "--samples", "-2"],
    ["experiment", "conserve", "--samples", "5", "--seed", "-1"],
])
def test_degenerate_numeric_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "entswap:" in capsys.readouterr().err


def test_invalid_seed_env_var_aborts(monkeypatch):
    monkeypatch.setenv("ENTSWAP_SEED", "forty-two")
    with pytest.raises(SystemExit, match="ENTSWAP_SEED"):
        main(["oracle-check", "--samples", "1"])
