import json
import re

import numpy as np
import pytest

import entswap as es
from entswap import experiments as ex
from entswap.cli import EXIT_VIOLATION, main
from entswap.ensembles import STATE_ENSEMBLES
from entswap.qstate import EIGENVALUE_FLOOR
from entswap.swap import swap_x_params
from tests.test_qstate import x_params


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


def test_swap_command_unwritable_output(phi_plus_file, tmp_path, capsys):
    rc = main(["swap", phi_plus_file, phi_plus_file, "--out", str(tmp_path / "missing_dir" / "x.json")])
    assert rc == 2
    assert re.fullmatch(r"entswap: cannot write output: .*missing_dir.*\n", capsys.readouterr().err)


def test_swap_command_rejects_malformed_json(tmp_path, capsys):
    # bytes that are not UTF-8 and nesting past the recursion limit used to
    # escape as UnicodeDecodeError and RecursionError tracebacks
    bad = tmp_path / "bad.json"
    for content in (b"{not json", b"\xff\xfe{", b"[" * 200_000 + b"]" * 200_000):
        bad.write_bytes(content)
        rc = main(["swap", str(bad), str(bad)])
        assert rc == 2
        assert re.fullmatch(r"entswap: parse error in .*\n", capsys.readouterr().err)


def test_swap_command_refuses_a_malformed_entry(tmp_path, capsys):
    # an object entry used to escape as a KeyError traceback, and a false
    # part loaded as 0 into a valid state
    bool_part = es.matrix_to_json_dict(es.DensityMatrix.maximally_mixed())
    bool_part["matrix"][3][3] = [0.25, False]
    # an integer too large for a float used to escape as an OverflowError
    huge_part = es.matrix_to_json_dict(es.DensityMatrix.maximally_mixed())
    huge_part["matrix"][0][1] = [10 ** 400, 0]
    for payload in ({"basis": ",".join(es.BASIS_LABELS), "matrix": [[{}]]}, bool_part,
                    huge_part):
        bad = tmp_path / "entry.json"
        bad.write_text(json.dumps(payload))
        assert main(["swap", str(bad), str(bad)]) == 2
        assert re.fullmatch(r"entswap: invalid state in .*: malformed matrix entries: .*\n",
                            capsys.readouterr().err)


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


@pytest.mark.parametrize("eta", ["0.3", "1.5", "nan"])
def test_oracle_equiv_refuses_an_unbalanced_reflectivity(eta, tmp_path, capsys):
    # only a balanced splitter heralds psi- alone; argparse refuses the rest
    out = tmp_path / "oracle-equiv.csv"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "oracle-equiv", "--samples", "2", "--eta", eta, "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_sample_command_emits_valid_states(tmp_path):
    out = tmp_path / "states.jsonl"
    rc = main(["sample", "bures", "--samples", "3", "--seed", "11",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        es.matrix_from_json_dict(json.loads(line)).validate()


def test_sample_command_output_independent_of_workers(capsys):
    # 600 samples are 3 draw chunks: at workers 3 each process runs one
    for ensemble in STATE_ENSEMBLES:
        outputs = []
        for workers in ("1", "2", "3"):
            argv = ["sample", ensemble, "--samples", "600", "--seed", "8", "--workers", workers]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1:] == outputs[:1] * 2, ensemble
        assert len(outputs[0].splitlines()) == 600, ensemble


@pytest.mark.parametrize("ensemble", ["induced-2", "pure", "bell-diagonal", "x"])
def test_sample_command_all_ensembles(ensemble, capsys):
    rc = main(["sample", ensemble, "--samples", "2", "--seed", "4"])
    assert rc == 0
    for line in capsys.readouterr().out.splitlines():
        rho = es.matrix_from_json_dict(json.loads(line))
        if ensemble == "induced-2":
            assert es.numerical_rank(rho) == 2
        if ensemble in ("bell-diagonal", "x"):
            x_params(rho.mat)


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
               r"the conditional state is undefined \(output of sample 0, outcome psi-\)\n")
    argv = ["experiment", "oracle-equiv", "--out", str(tmp_path / "o.csv")]
    assert main([*argv, "--samples", "3", "--seed", "1"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(message, captured.err)


def test_every_route_refuses_an_impossible_outcome_in_the_same_words(tmp_path, capsys):
    # psi- of |HH><HH| x |HH><HH| has probability 0 on every route: the
    # kernel, the 16x16 oracle, the beamsplitter, the X route, the harness's
    # stacked oracle run (on a stack that holds the pair, which it names)
    # and the CLI
    message = ("outcome psi- has normalization 0.000e+00 <= 1e-12; "
               "the conditional state is undefined")
    psi = es.BellLabel.PSI_MINUS
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0])
    x_hh = x_params(hh.mat)
    rng = np.random.default_rng(3)
    a, b = es.random_bures(rng, size=4), es.random_bures(rng, size=4)
    a[2], b[2] = hh.mat, hh.mat
    routes = (lambda: es.swap_general(hh, hh, psi),
              lambda: es.swap_oracle_16(hh, hh, psi),
              lambda: es.swap_via_beamsplitter(hh, hh),
              lambda: swap_x_params(x_hh, x_hh, psi),
              lambda: ex._oracle_outcomes(a, b, lambda n, k: f"sample {n}"))
    for route, where in zip(routes, ["", "", "", "", " (sample 2)"]):
        with pytest.raises(es.ImpossibleOutcome) as info:
            route()
        assert str(info.value) == message + where
    path = _write_state(tmp_path / "hh.json", hh)
    assert main(["swap", path, path, "--outcome", "psi-"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"entswap: {message}\n"


def _floor_pair(tmp_path):
    # A carries an eigenvalue of -9e-11, inside EIGENVALUE_FLOOR; conditioning
    # on psi- scales the roundoff past the floor, and the tolerance with it
    rng = np.random.default_rng(8)
    u = es.haar_unitary(rng, 4)
    rho_a = es.DensityMatrix(u @ np.diag([0.5, 0.3, 0.2 + 9e-11, -9e-11]) @ u.conj().T)
    rho_b = es.DensityMatrix.from_pure(es.random_pure(rng))
    return ["swap", _write_state(tmp_path / "a.json", rho_a),
            _write_state(tmp_path / "b.json", rho_b)]


def test_swap_command_accepts_a_pair_at_the_eigenvalue_floor(tmp_path, capsys):
    assert main(_floor_pair(tmp_path)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    mat = np.array([[complex(*z) for z in row] for row in payload["state"]["matrix"]])
    low = np.linalg.eigvalsh(mat)[0]
    # past the plain floor, within it once weighed by the probability
    assert low < EIGENVALUE_FLOOR <= low * payload["probability"]


def test_swap_command_reads_its_own_output(tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = _floor_pair(tmp_path)
    assert main([*argv, "--out", str(out)]) == 0
    # the state is checked at the tolerances its probability carried
    assert main(["swap", str(out), argv[2]]) == 0
    payload = json.loads(out.read_text())
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(payload["state"]))
    capsys.readouterr()
    assert main(["swap", str(bare), argv[2]]) == 2  # a bare state keeps the plain floor
    assert "min eigenvalue = -1.041e-10" in capsys.readouterr().err
    for prob in (0, 2, None, "0.5"):
        out.write_text(json.dumps({**payload, "probability": prob}))
        assert main(["swap", str(out), argv[2]]) == 2
        assert f"probability {prob!r} is not a number in (0, 1]" in capsys.readouterr().err


def _swap_output_file(path, diag, prob):
    state = es.matrix_to_json_dict(es.DensityMatrix.maximally_mixed())
    state["matrix"] = [[[diag[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    path.write_text(json.dumps({"state": state, "probability": prob}))
    return str(path)


@pytest.mark.parametrize("prob", [1e-300, 5e-13])
def test_swap_command_refuses_a_probability_at_the_floor(prob, phi_plus_file, tmp_path, capsys):
    # tolerances divided by such a p would let eigenvalue -0.25 through
    path = _swap_output_file(tmp_path / "floor.json", (0.75, -0.25, 0.25, 0.25), prob)
    assert main(["swap", path, phi_plus_file]) == 2
    err = capsys.readouterr().err
    assert f"probability {prob!r} is at or below the floor" in err
    assert f"NORMALIZATION_FLOOR = {es.qstate.NORMALIZATION_FLOOR}" in err


def test_swap_command_loads_a_probability_just_above_the_floor(phi_plus_file, tmp_path, capsys):
    prob = float(np.nextafter(es.qstate.NORMALIZATION_FLOOR / 2, 1.0))
    path = _swap_output_file(tmp_path / "above.json", (0.25, 0.25, 0.25, 0.25), prob)
    assert main(["swap", path, phi_plus_file]) == 0
    assert json.loads(capsys.readouterr().out)["probability"] == pytest.approx(0.25)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_experiment_stdout_is_the_summary_file(fmt, tmp_path, capsys):
    out = tmp_path / f"pure.{fmt}"
    assert main(["experiment", "pure", "--samples", "30", "--seed", "3",
                 "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (tmp_path / "pure.summary.json").read_text()


def test_experiment_exits_one_when_a_floor_is_crossed(tmp_path, monkeypatch, capsys):
    # a kernel whose every output has C_F = 0 crosses the Bell-diagonal
    # floor on each row where the floor is positive
    spec = ex.EXPERIMENTS["belldiag"]

    def unentangled(*args):
        kept, possible, prob, c_f, eigs, extra = spec.outcomes(*args)
        return kept, possible, prob, np.zeros_like(c_f), eigs, extra

    monkeypatch.setitem(ex.EXPERIMENTS, "belldiag", spec._replace(outcomes=unentangled))
    argv = ["experiment", "belldiag", "--samples", "200", "--seed", "5",
            "--out", str(tmp_path / "b.csv")]
    assert main(argv) == EXIT_VIOLATION
    report = json.loads(capsys.readouterr().out)
    records, _ = ex.run_experiment("belldiag", 200, 5)
    floor = 0.5 * (records["c_a"] + records["c_b"] + records["c_a"] * records["c_b"] - 1.0)
    crossed = int(np.count_nonzero(floor > ex.LOWER_BOUND_TOL))
    assert crossed > 0
    assert report["checks"]["belldiag_floor"]["violations"] == report["hard_violations"] == crossed


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


@pytest.mark.parametrize("argv", [
    ["experiment", "conserve", "--samples", "0"],
    ["sample", "bures", "--samples", "-2"],
    ["experiment", "conserve", "--samples", "5", "--seed", "-1"],
    ["experiment", "conserve", "--samples", "5", "--workers", "0"],
    ["sample", "bures", "--samples", "5", "--workers", "-1"],
])
def test_degenerate_numeric_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "entswap:" in capsys.readouterr().err


def test_invalid_seed_env_var_aborts(monkeypatch, capsys):
    for raw in ("forty", "-3"):
        monkeypatch.setenv("ENTSWAP_SEED", raw)
        assert main(["sample", "bures", "--samples", "1"]) == 2
        assert capsys.readouterr().err == f"entswap: invalid ENTSWAP_SEED value {raw!r}\n"


@pytest.mark.parametrize("value", ["0", "1e-10", "nan", "inf", "-1", "1"])
def test_rank_tol_is_not_an_option(value, phi_plus_file, capsys):
    # every rank is counted at DEFAULT_RANK_TOL; argparse refuses the flag
    for argv in (["swap", phi_plus_file, phi_plus_file],
                 ["experiment", "rank", "--samples", "2", "--seed", "3"],
                 ["sample", "bures", "--samples", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--rank-tol={value}"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rank-tol" in capsys.readouterr().err
