import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entswap as es
from entswap.ensembles import _check_weights, bell_diagonal_x
from entswap.qstate import (
    DEFAULT_RANK_TOL,
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    TRACE_TOL,
    _hermitize,
    concurrence_batch,
    pure_batch,
    rank_batch,
    validate_batch,
    validate_x_batch,
    wootters_batch,
    x_eigenvalues_batch,
    x_matrices,
)
from entswap.swap import conditional_states, swap_x_params


def x_params(mat: np.ndarray, tol: float = 1e-10):
    """The X state (diag, coh) of a 4x4 matrix; ValueError naming the first
    entry, in row-major order, off the X pattern with modulus tol or more."""
    x_pattern = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]  # diagonal, anti-diagonal
    off_x = np.argwhere(~x_pattern & (np.abs(mat) >= tol))
    if off_x.size:
        i, j = off_x[0]
        raise ValueError(f"entry ({i + 1},{j + 1}) has modulus {abs(mat[i, j]):.3e} >= {tol}")
    return mat.diagonal().real.copy(), mat[[0, 1], [3, 2]]


def test_impossible_outcome_survives_pickling():
    for where in (None, "output of sample 600, outcome psi-"):
        error = es.ImpossibleOutcome(es.BellLabel.PSI_MINUS, 3e-13, where)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is es.ImpossibleOutcome and str(copy) == str(error)
        assert copy.outcome is es.BellLabel.PSI_MINUS and copy.normalization == 3e-13
        assert copy.where == where
    assert str(error).endswith("the conditional state is undefined (output of sample 600, "
                               "outcome psi-)")


# ----------------------------------------------------------- Bell states


@pytest.mark.parametrize(
    "label,expected",
    [
        (es.BellLabel.PHI_PLUS, [1, 0, 0, 1]),
        (es.BellLabel.PHI_MINUS, [1, 0, 0, -1]),
        (es.BellLabel.PSI_PLUS, [0, 1, 1, 0]),
        (es.BellLabel.PSI_MINUS, [0, 1, -1, 0]),
    ],
)
def test_bell_vector_definitions(label, expected):
    assert np.allclose(es.bell_vector(label), np.array(expected) / np.sqrt(2), atol=1e-15)


def test_bell_orthonormality():
    for x in es.BellLabel:
        for y in es.BellLabel:
            overlap = np.vdot(es.bell_vector(x), es.bell_vector(y))
            assert overlap == pytest.approx(1.0 if x is y else 0.0, abs=1e-15)


def test_bell_label_round_trip():
    for label in es.BellLabel:
        assert es.BellLabel.from_string(label.value) is label
    with pytest.raises(ValueError, match="unknown Bell label"):
        es.BellLabel.from_string("sigma+")


# ------------------------------------------------------------ validation


def test_density_matrix_accepts_valid():
    es.DensityMatrix(np.eye(4) / 4.0).validate()


def test_density_matrix_is_immutable():
    rho = es.DensityMatrix.maximally_mixed()
    with pytest.raises((ValueError, AttributeError)):
        rho.mat[0, 0] = 9.0


@pytest.mark.parametrize(
    "mat,fragment",
    [
        (np.eye(4) / 2.0, "trace"),
        (np.diag([0.5, 0.75, -0.25, 0.0]), "eigenvalue"),
        (np.diag([1.0, 0.0, 0.0, np.nan]), "finiteness"),
        (np.eye(4) / 4.0 + 0.01 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3), "hermiticity"),
    ],
)
def test_density_matrix_rejections_name_invariant(mat, fragment):
    with pytest.raises(es.ValidationError, match=fragment):
        es.DensityMatrix(np.array(mat, dtype=complex))


def test_from_pure_requires_normalization():
    with pytest.raises(es.ValidationError, match="norm"):
        es.DensityMatrix.from_pure([1.0, 1.0, 0.0, 0.0])


# ----------------------------------------------------------- concurrence


def test_concurrence_maximally_entangled():
    assert es.concurrence(es.bell_density(es.BellLabel.PHI_PLUS)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_maximally_mixed():
    assert es.concurrence(es.DensityMatrix.maximally_mixed()) == 0.0


def test_concurrence_werner_half():
    # closed form for this family: max(0, (3p - 1) / 2)
    assert es.concurrence(es.werner(0.5)) == pytest.approx(0.25, abs=1e-12)


@given(p=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_concurrence_werner_family(p):
    expected = max(0.0, (3.0 * p - 1.0) / 2.0)
    assert es.concurrence(es.werner(p)) == pytest.approx(expected, abs=1e-10)


def test_concurrence_matches_x_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        x = es.random_x_state(rng)
        general = es.concurrence(es.DensityMatrix(x_matrices(*x)))
        assert general == pytest.approx(es.concurrence_x(*x), abs=1e-9)


def test_concurrence_rejects_non_psd_input():
    with pytest.raises(es.ValidationError, match="eigenvalue"):
        es.DensityMatrix(np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex))


def test_pure_concurrence_matches_general():
    rng = np.random.default_rng(22)
    for _ in range(200):
        v = es.random_pure(rng)
        dm = es.DensityMatrix.from_pure(v)
        assert es.pure_concurrence(v) == pytest.approx(es.concurrence(dm), abs=1e-10)


# ------------------------------------------------------------------ rank


def test_rank_trivial_cases():
    assert es.numerical_rank(es.bell_density(es.BellLabel.PHI_PLUS)) == 1
    assert es.numerical_rank(es.DensityMatrix.maximally_mixed()) == 4
    mix = es.rank2_bell_mixture(0.7)
    assert es.numerical_rank(mix) == 2


def test_rank_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        rho = es.random_induced(rng, int(rng.integers(1, 5)))
        u = es.haar_unitary(rng, 4)
        rotated = es.DensityMatrix(u @ rho.mat @ u.conj().T)
        assert es.numerical_rank(rotated) == es.numerical_rank(rho)


def test_rank_respects_relative_tolerance():
    rho = es.DensityMatrix(np.diag([0.9, 0.1 - 1e-12, 1e-12, 0.0]).astype(complex))
    assert es.numerical_rank(rho) == 2


@pytest.mark.parametrize("top", [1.0, 0.25])  # 1/4: the least top eigenvalue of a state
@pytest.mark.parametrize("factor, counted", [(1.001, True), (0.999, False)])
def test_rank_cutoff_is_relative_to_the_largest_eigenvalue(top, factor, counted):
    eigs = np.array([top, top / 2, factor * DEFAULT_RANK_TOL * top, 0.0])
    assert rank_batch(eigs) == 2 + counted
    # the state with these eigenvalues' ratios, at unit trace
    rho = es.DensityMatrix(np.diag(eigs / eigs.sum()).astype(complex))
    assert es.numerical_rank(rho) == 2 + counted


# --------------------------------------------------------------- X-states


def test_as_x_state_werner():
    diag, coh = x_params(es.werner(0.6).mat)
    assert coh[0] == pytest.approx(0.3, abs=1e-12)
    assert diag[0] == pytest.approx(0.4, abs=1e-12)


def test_as_x_state_accepts_bell():
    _, coh = x_params(es.bell_density(es.BellLabel.PHI_PLUS).mat)
    assert coh[0] == pytest.approx(0.5, abs=1e-12)


def test_as_x_state_rejects_off_pattern_entry():
    # valid state with a deliberate 0.1 coherence at entry (1,2)
    plus = np.zeros(4, complex)
    plus[0] = plus[1] = 1.0 / np.sqrt(2.0)
    rho = es.DensityMatrix(0.8 * es.werner(0.5).mat + 0.2 * np.outer(plus, plus.conj()))
    assert abs(rho.mat[0, 1]) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        x_params(rho.mat)


def test_as_x_state_tolerance_boundary():
    def perturbed(entry):
        # Hermitian entries at (1,2) and (3,1), and their mirrors
        mat = es.werner(0.5).mat.copy()
        mat[0, 1] = mat[1, 0] = mat[2, 0] = mat[0, 2] = entry
        return es.DensityMatrix(mat)

    _, coh = x_params(perturbed(0.999e-10).mat)
    assert coh[0] == pytest.approx(0.25, abs=1e-12)
    # the first entry in row-major order is named
    with pytest.raises(ValueError, match=r"^entry \(1,2\) has modulus 1\.000e-10 >= 1e-10$"):
        x_params(perturbed(1e-10).mat)


@pytest.mark.parametrize("delta", [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
def test_concurrence_continuous_near_zero_on_werner_states(delta):
    p = 1.0 / 3.0 + delta
    expected = max(0.0, (3.0 * p - 1.0) / 2.0)
    rho = es.werner(p)
    assert es.concurrence(rho) == pytest.approx(expected, rel=0, abs=1e-12)
    assert es.concurrence_x(*x_params(rho.mat)) == pytest.approx(expected, rel=0, abs=1e-12)


def test_x_state_invariants_enforced():
    with pytest.raises(es.ValidationError, match="trace"):
        validate_x_batch(np.full(4, 0.5), np.zeros(2))
    # c14 = 0.4 is outside its coherence disk of radius sqrt(c11 c44) = 0.25
    outside = np.full(4, 0.25), np.array([0.4, 0.0])
    with pytest.raises(es.ValidationError, match="eigenvalue"):
        validate_x_batch(*outside)
    inside = np.full(4, 0.25), np.zeros(2)
    message = r"^eigenvalue invariant violated: min eigenvalue = -1\.500e-01$"
    for pair in ((outside, inside), (inside, outside)):
        for outcome in es.BellLabel:
            with pytest.raises(es.ValidationError, match=message):
                swap_x_params(*pair, outcome)


def test_x_state_eigenvalues_match_dense():
    rng = np.random.default_rng(24)
    for _ in range(200):
        x = es.random_x_state(rng)
        dense = np.linalg.eigvalsh(_hermitize(x_matrices(*x)))[::-1]
        assert np.abs(x_eigenvalues_batch(*x) - dense).max() < 1e-12


@pytest.mark.parametrize("kind", ["x", "bell-diagonal"])
def test_stacked_x_measures_match_scalar_and_dense(kind):
    rng = np.random.default_rng(27)
    draw = (es.random_x_state if kind == "x"
            else lambda g: bell_diagonal_x(es.random_bell_diagonal(g)))
    states = [draw(rng) for _ in range(100)]
    diag, coh = map(np.stack, zip(*states))
    eigs = validate_x_batch(diag, coh)
    assert np.array_equal(eigs, x_eigenvalues_batch(diag, coh))
    dense = validate_batch(x_matrices(diag, coh))
    assert np.abs(eigs - dense).max() < 1e-12
    conc = es.concurrence_x(diag, coh)
    for n, (d, c) in enumerate(states):
        assert np.abs(validate_x_batch(d, c) - eigs[n]).max() < 1e-12
        # one state gives a float, bit-equal to its value in any stack
        one = es.concurrence_x(d, c)
        assert type(one) is float and one == conc[n]
        assert np.array_equal(es.concurrence_x(d[None], c[None]), [one])
        assert rank_batch(validate_x_batch(d, c)) == rank_batch(eigs[n])
    assert np.array_equal(rank_batch(eigs), rank_batch(dense))


@pytest.mark.parametrize(
    "row,message",
    [
        ((-0.1, 0.4, 0.4, 0.3, 0.0, 0.0), "eigenvalue invariant violated: min eigenvalue = -1.000e-01"),
        ((0.5, 0.5, 0.25, 0.25, 0.0, 0.0), "trace invariant violated: |tr - 1| = 5.000e-01"),
        ((0.25, 0.25, 0.25, 0.25, 0.4, 0.0), "eigenvalue invariant violated: min eigenvalue = -1.500e-01"),
        ((0.25, 0.25, 0.25, 0.25, 0.0, 0.4j), "eigenvalue invariant violated: min eigenvalue = -1.500e-01"),
        # NaN fails every comparison, so finiteness is checked first
        ((float("nan"), 0.25, 0.25, 0.25, 0.0, 0.0), "finiteness invariant violated: NaN or Inf entry"),
        ((0.25, 0.25, 0.25, 0.25, complex(0.0, float("nan")), 0.0),
         "finiteness invariant violated: NaN or Inf entry"),
        # past its disk by less than TRACE_TOL, but its block's least
        # eigenvalue is below EIGENVALUE_FLOOR, as DensityMatrix finds it
        ((0.25, 0.25, 0.25, 0.25, 0.25 + 1.5e-10, 0.0),
         "eigenvalue invariant violated: min eigenvalue = -1.500e-10"),
    ],
)
def test_validate_x_batch_names_invariant_value_and_sample(row, message):
    good = (0.25, 0.25, 0.25, 0.25, 0.1, -0.1j)
    rows = [good, good, row, good]
    diag = np.array([r[:4] for r in rows])
    coh = np.array([r[4:] for r in rows])
    with pytest.raises(es.ValidationError) as excinfo:
        validate_x_batch(diag, coh, where=lambda n: f"input a of sample {n}")
    assert str(excinfo.value) == f"{message} (input a of sample 2)"
    # one unstacked state and the matrix route give the same message
    for build in (lambda: validate_x_batch(diag[2], coh[2]),
                  lambda: es.DensityMatrix(x_matrices(diag[2], coh[2]))):
        with pytest.raises(es.ValidationError) as excinfo:
            build()
        assert str(excinfo.value) == message


def _tied_x_stack(rng, n):
    """An X stack whose entries come from a few values, zeros of both signs
    among them, so that eigenvalues tie within and across parity blocks."""
    values = np.array([0.0, -0.0, 0.1, 0.25, 0.5, rng.random()])
    diag = rng.choice(values, size=(n, 4))
    coh = rng.choice(values, size=(n, 2)) * rng.choice([1, -1, 1j, -1j], size=(n, 2))
    return diag, coh


def test_x_route_networks_match_the_last_axis_reductions():
    rng = np.random.default_rng(11)
    diag, coh = _tied_x_stack(rng, 4000)
    p, q = diag[:, :2], diag[:, 3:1:-1]
    half_sum, radius = 0.5 * (p + q), np.hypot(0.5 * (p - q), np.abs(coh))
    eigs = x_eigenvalues_batch(diag, coh)
    assert np.array_equal(
        eigs, np.sort(np.concatenate([half_sum + radius, half_sum - radius], axis=-1))[:, ::-1])
    gap = np.abs(coh) - np.sqrt(np.maximum(p * q, 0.0))[:, ::-1]
    assert np.array_equal(es.concurrence_x(diag, coh), np.clip(2.0 * gap.max(axis=-1), 0.0, 1.0))
    rank = rank_batch(eigs)
    assert rank.dtype == np.intp
    assert np.array_equal(rank, np.count_nonzero(eigs > DEFAULT_RANK_TOL * eigs[:, :1], axis=-1))
    weights = rng.choice([0.0, -0.0, 0.25, 1.0, -1e-12, -2e-12, np.nan], size=(500, 4))
    for w in weights:
        try:
            _check_weights(w)
            negative = False
        except ValueError as exc:
            negative = str(exc).startswith("weights must be nonnegative")
        assert negative == (not w.min() >= -1e-12), w


def test_non_finite_rows_of_a_stack_name_the_first_one():
    diag, coh = np.full((5, 4), 0.25), np.zeros((5, 2), dtype=complex)
    diag[3, 1], coh[1, 0] = np.nan, complex(np.inf, 0.0)
    with pytest.raises(es.ValidationError) as excinfo:
        validate_x_batch(diag, coh, where=lambda n: f"input a of sample {n}")
    assert str(excinfo.value) == ("finiteness invariant violated: NaN or Inf entry "
                                  "(input a of sample 1)")
    weights = np.full((5, 4), 0.25)
    weights[2, :2], weights[4, 3] = (np.nan, 0.5), np.nan
    with pytest.raises(ValueError) as excinfo:
        _check_weights(weights)
    assert str(excinfo.value) == "weights must be nonnegative, got (nan, 0.5, 0.25, 0.25)"


def _accepted(build) -> bool:
    try:
        build()
    except es.ValidationError:
        return False
    return True


@pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("pops", [(0.3, 0.2), (2e-6, 1e-6)])
@pytest.mark.parametrize("block", [0, 1])
def test_x_states_and_matrices_agree_at_the_eigenvalue_floor(block, pops, factor):
    # one parity block (p, q, c) with least eigenvalue factor * EIGENVALUE_FLOOR
    # and the other block inside its disk, holding the rest of the trace
    p, q = pops
    low = factor * EIGENVALUE_FLOOR
    radius = 0.5 * (p + q) - low
    c = np.sqrt(radius ** 2 - (0.5 * (p - q)) ** 2) * np.exp(0.7j)
    rest = 0.5 * (1.0 - p - q)
    blocks = [((p, q), c), ((rest, rest), 0.3 * rest)]
    (p0, q0), c0 = blocks[block]
    (p1, q1), c1 = blocks[1 - block]
    # diag (c11, c22, c33, c44): block 0 is (c11, c44), block 1 is (c22, c33)
    diag = np.array([[p0, p1, q1, q0]])
    coh = np.array([[c0, c1]])
    assert x_eigenvalues_batch(diag, coh)[0, -1] == pytest.approx(low, rel=1e-5)
    x_ok = _accepted(lambda: validate_x_batch(diag, coh))
    assert x_ok == _accepted(lambda: es.DensityMatrix(x_matrices(diag, coh)[0]))
    assert x_ok == (factor < 1.0)


def test_x_state_round_trip():
    rng = np.random.default_rng(25)
    for _ in range(50):
        diag, coh = es.random_x_state(rng)
        back = x_params(es.DensityMatrix(x_matrices(diag, coh)).mat)
        assert np.array_equal(back[0], diag)
        assert np.abs(back[1] - coh).max() <= 1e-14


# --------------------------------------------------------- trace distance


def test_trace_distance_extremes():
    psi_m = es.bell_density(es.BellLabel.PSI_MINUS)
    phi_p = es.bell_density(es.BellLabel.PHI_PLUS)
    assert es.trace_distance(psi_m, psi_m) == pytest.approx(0.0, abs=1e-15)
    assert es.trace_distance(psi_m, phi_p) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ JSON


def test_json_round_trip():
    rng = np.random.default_rng(26)
    rho = es.random_bures(rng)
    again = es.matrix_from_json_dict(es.matrix_to_json_dict(rho))
    assert np.abs(again.mat - rho.mat).max() < 1e-15


def test_json_requires_expected_basis():
    payload = es.matrix_to_json_dict(es.DensityMatrix.maximally_mixed())
    payload["basis"] = "VV,VH,HV,HH"
    with pytest.raises(ValueError, match="basis"):
        es.matrix_from_json_dict(payload)


def test_json_rejects_malformed_entries():
    # bare numbers, an object entry and an entry of three numbers
    for matrix in ([[1, 2], [3, 4]], [[{}]], [[[0.25, 0.0, 99]]]):
        payload = {"basis": ",".join(es.BASIS_LABELS), "matrix": matrix}
        with pytest.raises(ValueError, match="malformed matrix entries"):
            es.matrix_from_json_dict(payload)
    # a part that is not an int or a float, a bool included: [0.25, false]
    # and [false, 0] would load as numbers into a valid state, [true, 0] as 1
    for (i, j), entry in (((3, 3), [0.25, False]), ((1, 2), [False, 0]), ((0, 0), [True, 0]),
                          ((2, 2), ["0.25", 0]), ((0, 1), [0, None])):
        payload = es.matrix_to_json_dict(es.DensityMatrix.maximally_mixed())
        payload["matrix"][i][j] = entry
        with pytest.raises(ValueError, match=r"malformed matrix entries: entry part .* is not a "
                                             r"number"):
            es.matrix_from_json_dict(payload)


# ------------------------------------------------------ stacked validation


def _broken_stack():
    # three valid Bures states with the trace of the middle one broken
    mats = es.random_bures(np.random.default_rng(0), size=3)
    mats[1] *= 1.5
    return mats


def test_validate_batch_matches_scalar_eigenvalues():
    rng = np.random.default_rng(60)
    states = [es.random_bures(rng) for _ in range(20)]
    eigs = validate_batch(np.stack([rho.mat for rho in states]))
    for rho, row in zip(states, eigs):
        assert np.array_equal(rho.eigenvalues(), row)


def test_validate_batch_error_names_invariant_value_and_input():
    mats = _broken_stack()
    scalar = "trace invariant violated: |tr - 1| = 5.000e-01"
    with pytest.raises(es.ValidationError) as excinfo:
        validate_batch(mats, where=lambda n: f"input of sample {10 + n}")
    assert str(excinfo.value) == scalar + " (input of sample 11)"
    # the scalar path keeps its message text, without an input name
    with pytest.raises(es.ValidationError) as excinfo:
        es.DensityMatrix(mats[1])
    assert str(excinfo.value) == scalar


def test_validate_batch_names_swap_outputs_by_sample_and_outcome():
    mats = _broken_stack()
    raw = np.repeat(mats[:, None], 4, axis=1)  # (3, 4, 4, 4)
    prob = np.full((3, 4), 1.0)
    with pytest.raises(es.ValidationError, match=r"sample 1, outcome psi\+\)$"):
        conditional_states(raw, prob, lambda n, k: f"sample {n}, outcome {list(es.BellLabel)[k]}")


@pytest.mark.parametrize(
    "mat,fragment",
    [
        (np.diag([0.5, 0.75, -0.25, 0.0]), "eigenvalue invariant violated: min eigenvalue = -2.500e-01"),
        (np.diag([1.0, 0.0, 0.0, np.nan]), "finiteness invariant violated: NaN or Inf entry"),
        (np.eye(4) / 4.0 + 0.01 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3),
         "hermiticity invariant violated: max |m_ij - conj(m_ji)| = 1.000e-02"),
    ],
)
def test_validate_batch_reports_first_failing_sample(mat, fragment):
    good = np.eye(4, dtype=complex) / 4.0
    mats = np.stack([good, good, np.array(mat, dtype=complex), good])
    with pytest.raises(es.ValidationError) as excinfo:
        validate_batch(mats, where=lambda n: f"sample {n}")
    assert str(excinfo.value) == f"{fragment} (sample 2)"


def test_validate_batch_accepts_an_empty_stack():
    assert validate_batch(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4)


def test_pure_batch_projectors_at_the_norm_bound_pass_validate_batch():
    # pure_batch checks the closed-form spectrum (||psi||^2, 0, 0, 0) in place
    # of an eigendecomposition; at |1 - ||psi||| = 1e-12 (less 1e-15 for
    # roundoff) validate_batch accepts its projectors and finds that spectrum
    u = es.random_pure(np.random.default_rng(12), 400)
    v = u * (1.0 + np.resize([1.0, -1.0], 400) * (1e-12 - 1e-15))[:, None]
    rho = pure_batch(v)
    square = np.linalg.norm(v, axis=-1) ** 2
    eigs = validate_batch(rho)
    assert np.abs(eigs[:, 0] - square).max() < 1e-15
    assert np.abs(eigs[:, 1:]).max() < 1e-15
    assert np.abs(rho.trace(axis1=-2, axis2=-1) - square).max() < 1e-15
    assert np.abs(rho - rho.conj().swapaxes(-1, -2)).max() < 1e-15
    with pytest.raises(es.ValidationError, match="norm invariant violated"):
        pure_batch(u[:1] * (1.0 + 1.01e-12))


def test_pure_batch_names_unnormalized_vector():
    vecs = np.eye(4, dtype=complex)
    vecs[3] *= 2.0
    with pytest.raises(es.ValidationError, match=r"norm invariant violated.*\(vector 3\)$"):
        pure_batch(vecs, where=lambda n: f"vector {n}")


@pytest.mark.parametrize("amplitudes,shown", [
    ((np.nan, 0, 0, 0), "nan"), ((np.inf, 0, 0, 0), "inf"), ((1, 0, 0, complex(0, np.nan)), "nan"),
])
def test_pure_batch_rejects_non_finite_amplitudes(amplitudes, shown):
    # NaN fails every comparison, so the norm must be flagged by failing its bound
    vecs = np.eye(4, dtype=complex)
    vecs[2] = amplitudes
    with pytest.raises(es.ValidationError) as excinfo:
        pure_batch(vecs, where=lambda n: f"vector {n}")
    assert str(excinfo.value) == f"norm invariant violated: ||psi|| = {shown} (vector 2)"
    with pytest.raises(es.ValidationError, match=r"^norm invariant violated: \|\|psi\|\| = "):
        es.DensityMatrix.from_pure(vecs[2])


_SY = np.array([[0.0, -1j], [1j, 0.0]])


def _reference_concurrence(mats):
    """Wootters' concurrence as the singular values of sqrt(rho) sqrt(rho~),
    rho~ = (sy x sy) rho* (sy x sy), with the spin flip as an explicit
    matrix product: a route independent of wootters_batch."""
    w, v = np.linalg.eigh(_hermitize(mats))
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    yy = np.kron(_SY, _SY)
    lam = np.linalg.svd(root @ (yy @ root.conj() @ yy), compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1:].sum(axis=-1), 0.0, 1.0)


def _fused_concurrence(mats):
    return wootters_batch(*validate_batch(mats, vectors=True))


@pytest.mark.parametrize("stack", [
    lambda rng: es.random_bures(rng, size=300),
    *(lambda rng, k=k: es.random_induced(rng, k, size=300) for k in (1, 2, 3, 4)),
    lambda rng: pure_batch(es.random_pure(rng, 300)),
    lambda rng: np.stack([es.werner(p).mat for p in (1 / 3 - 1e-9, 1 / 3, 1 / 3 + 1e-9)]),
], ids=["bures", "induced-1", "induced-2", "induced-3", "induced-4", "pure", "werner-1/3"])
def test_fused_concurrence_matches_the_square_root_reference(stack):
    mats = stack(np.random.default_rng(62))
    reference = _reference_concurrence(mats)
    assert np.abs(_fused_concurrence(mats) - reference).max() < 1e-12
    assert np.abs(concurrence_batch(mats) - reference).max() < 1e-12


def test_fused_concurrence_reads_rank_deficient_states_by_rank():
    # induced-k states have rank k; the clipped roundoff eigenvalues of the
    # missing directions must not feed the concurrence
    rng = np.random.default_rng(63)
    for k in (1, 2, 3):
        mats = es.random_induced(rng, k, size=200)
        eigs, vecs = validate_batch(mats, vectors=True)
        assert (rank_batch(eigs) == k).all()
        assert np.abs(wootters_batch(eigs, vecs) - _reference_concurrence(mats)).max() < 1e-12


@pytest.mark.parametrize("kind", ["x", "bell-diagonal"])
def test_fused_concurrence_matches_the_x_closed_form(kind):
    rng = np.random.default_rng(64)
    x = es.random_x_state(rng, 300) if kind == "x" else bell_diagonal_x(
        es.random_bell_diagonal(rng, 300))
    assert np.abs(_fused_concurrence(x_matrices(*x)) - es.concurrence_x(*x)).max() < 1e-12


def test_fused_concurrence_matches_the_pure_closed_form():
    v = es.random_pure(np.random.default_rng(65), 300)
    assert np.abs(_fused_concurrence(pure_batch(v)) - es.pure_concurrence(v)).max() < 1e-12


def _boundary_stacks():
    """Matrices a hair inside and outside each tolerance validate_batch
    checks on the spectrum or before it, with the probability to weigh
    each by (None for a bare state)."""
    rng = np.random.default_rng(66)
    cases = []
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        for prob in (None, 1e-6, 0.3):
            # each deviation is carried through conditioning by 1 / prob
            scale = prob or 1.0
            # least eigenvalue at factor * EIGENVALUE_FLOOR
            low = factor * EIGENVALUE_FLOOR / scale
            for _ in range(4):
                u = es.haar_unitary(rng, 4)
                cases.append((u @ np.diag([0.5, 0.3, 0.2 - low, low]) @ u.conj().T, prob))
            # an X parity block (p, q, c) with that least eigenvalue
            p, q = 2e-6, 1e-6
            c = np.sqrt((0.5 * (p + q) - low) ** 2 - (0.5 * (p - q)) ** 2) * np.exp(0.7j)
            rest = 0.5 * (1.0 - p - q)
            cases.append((x_matrices(np.array([p, rest, rest, q]), np.array([c, 0.3 * rest])),
                          prob))
            # trace and Hermiticity deviations at factor times their tolerance
            cases.append((np.eye(4) / 4.0 * (1.0 + factor * TRACE_TOL / scale), prob))
            skew = np.eye(4, dtype=complex) / 4.0
            skew[0, 1] = factor * HERMITICITY_TOL / scale
            cases.append((skew, prob))
    return cases


def _outcome(call):
    try:
        call()
    except es.ValidationError as exc:
        return str(exc)
    return None


def test_eigh_validation_rejects_exactly_what_eigvalsh_rejects():
    cases = _boundary_stacks()
    outcomes = []
    for mat, prob in cases:
        mat = np.asarray(mat, dtype=complex)
        plain = _outcome(lambda: validate_batch(mat, prob=prob))
        assert _outcome(lambda: validate_batch(mat, prob=prob, vectors=True)) == plain
        outcomes.append(plain)
        if plain is None:
            eigs, vecs = validate_batch(mat, prob=prob, vectors=True)
            assert np.abs(eigs - validate_batch(mat, prob=prob)).max() < 1e-15
            # eigh reads the lower triangle, as eigvalsh does
            lower = np.tril(mat) + np.tril(mat, -1).conj().T
            assert np.abs((vecs * eigs) @ vecs.conj().T - lower).max() < 1e-14
    # each tolerance is met from inside and failed from outside
    assert outcomes.count(None) == len(cases) // 2
    # a whole stack names the same first culprit either way
    mats, where = np.stack([m for m, _ in cases]), lambda n: f"case {n}"
    stacked = _outcome(lambda: validate_batch(mats, where))
    assert stacked is not None
    assert _outcome(lambda: validate_batch(mats, where, vectors=True)) == stacked


def test_batched_measures_match_scalar_ones():
    rng = np.random.default_rng(61)
    states = [es.random_induced(rng, k) for k in (1, 2, 3, 4) for _ in range(5)]
    mats = np.stack([rho.mat for rho in states])
    eigs = validate_batch(mats)
    conc = concurrence_batch(mats)
    ranks = rank_batch(eigs)
    for i, rho in enumerate(states):
        assert conc[i] == es.concurrence(rho)
        assert ranks[i] == es.numerical_rank(rho)
