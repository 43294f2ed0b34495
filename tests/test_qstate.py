import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entswap as es
from entswap.qstate import (
    _hermitize,
    concurrence_batch,
    concurrence_x_batch,
    pure_batch,
    rank_batch,
    validate_batch,
    validate_x_batch,
    x_eigenvalues_batch,
)
from entswap.swap import conditional_states


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_psd(rng, n):
    g = _random_complex(rng, n, n)
    return g @ g.conj().T


# ---------------------------------------------------------------- tensor


def test_tensor_identity():
    out = es.tensor(np.eye(2), np.eye(2))
    assert np.array_equal(out, np.eye(4))


def test_tensor_trace_multiplicative():
    phi = es.bell_density(es.BellLabel.PHI_PLUS).mat
    out = es.tensor(phi, phi)
    assert out.shape == (16, 16)
    assert abs(out.trace() - 1.0) < 1e-14


def test_tensor_index_formula():
    # independent elementwise oracle: out[4i+k, 4j+l] == a[i,j] * b[k,l]
    rng = np.random.default_rng(101)
    a = _random_complex(rng, 4, 4)
    b = _random_complex(rng, 4, 4)
    out = es.tensor(a, b)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    assert out[4 * i + k, 4 * j + l] == pytest.approx(a[i, j] * b[k, l])


# ------------------------------------------------------- partial trace


def test_partial_trace_23_product_state():
    # tracing (2,3) out of rho_a (x) rho_b leaves tr_2(rho_a) (x) tr_3(rho_b)
    rng = np.random.default_rng(7)
    rho_a = _random_psd(rng, 4)
    rho_b = _random_psd(rng, 4)
    out = es.partial_trace_23(es.tensor(rho_a, rho_b))

    def marginal(rho, keep_first):
        r = rho.reshape(2, 2, 2, 2)
        # sum the diagonal of the traced qubit by explicit loops
        m = np.zeros((2, 2), complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    m[i, j] += r[i, k, j, k] if keep_first else r[k, i, k, j]
        return m

    expected = np.kron(marginal(rho_a, True), marginal(rho_b, False))
    assert np.abs(out - expected).max() < 1e-12


def test_partial_trace_23_identity():
    out = es.partial_trace_23(np.eye(16) / 16.0)
    assert np.abs(out - np.eye(4) / 4.0).max() < 1e-15


def test_partial_trace_23_preserves_trace():
    rng = np.random.default_rng(8)
    for _ in range(100):
        rho = _random_psd(rng, 16)
        assert es.partial_trace_23(rho).trace() == pytest.approx(rho.trace(), abs=1e-10)


def test_partial_trace_23_rejects_wrong_shape():
    with pytest.raises(ValueError, match="16x16"):
        es.partial_trace_23(np.eye(4))


def test_tensor_then_partial_trace_reproduces_marginals():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho_a = es.random_bures(rng)
        rho_b = es.random_bures(rng)
        out = es.partial_trace_23(es.tensor(rho_a.mat, rho_b.mat))
        r_a = rho_a.mat.reshape(2, 2, 2, 2)
        r_b = rho_b.mat.reshape(2, 2, 2, 2)
        expected = np.kron(np.einsum("ikjk->ij", r_a), np.einsum("kikj->ij", r_b))
        assert np.abs(out - expected).max() < 1e-12


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
        general = es.concurrence(x.to_density_matrix())
        assert general == pytest.approx(es.concurrence_x(x), abs=1e-9)


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
        rho = es.random_induced(rng, 4, int(rng.integers(1, 5)))
        u = es.haar_unitary(rng, 4)
        rotated = es.DensityMatrix(u @ rho.mat @ u.conj().T)
        assert es.numerical_rank(rotated) == es.numerical_rank(rho)


def test_rank_respects_relative_tolerance():
    rho = es.DensityMatrix(np.diag([0.9, 0.1 - 1e-12, 1e-12, 0.0]).astype(complex))
    assert es.numerical_rank(rho, tol=1e-10) == 2
    assert es.numerical_rank(rho, tol=1e-13) == 3


# --------------------------------------------------------------- X-states


def test_as_x_state_werner():
    x = es.as_x_state(es.werner(0.6))
    assert x.c14 == pytest.approx(0.3, abs=1e-12)
    assert x.c11 == pytest.approx(0.4, abs=1e-12)


def test_as_x_state_accepts_bell():
    x = es.as_x_state(es.bell_density(es.BellLabel.PHI_PLUS))
    assert x.c14 == pytest.approx(0.5, abs=1e-12)


def test_as_x_state_rejects_off_pattern_entry():
    # valid state with a deliberate 0.1 coherence at entry (1,2)
    plus = np.zeros(4, complex)
    plus[0] = plus[1] = 1.0 / np.sqrt(2.0)
    rho = es.DensityMatrix(0.8 * es.werner(0.5).mat + 0.2 * np.outer(plus, plus.conj()))
    assert abs(rho.mat[0, 1]) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(es.NotAnXState, match=r"\(1,2\)"):
        es.as_x_state(rho)


def test_x_state_invariants_enforced():
    with pytest.raises(es.ValidationError, match="trace"):
        es.XState(c11=0.5, c22=0.5, c33=0.5, c44=0.5)
    with pytest.raises(es.ValidationError, match="eigenvalue"):
        es.XState(c11=0.25, c22=0.25, c33=0.25, c44=0.25, c14=0.4)


def test_x_state_eigenvalues_match_dense():
    rng = np.random.default_rng(24)
    for _ in range(200):
        x = es.random_x_state(rng)
        dense = np.linalg.eigvalsh(_hermitize(x.to_matrix()))[::-1]
        assert np.abs(x.eigenvalues() - dense).max() < 1e-12


@pytest.mark.parametrize("kind", ["x", "bell-diagonal"])
def test_stacked_x_measures_match_scalar_and_dense(kind):
    rng = np.random.default_rng(27)
    draw = (es.random_x_state if kind == "x"
            else lambda g: es.random_bell_diagonal(g).to_x_state())
    states = [draw(rng) for _ in range(100)]
    diag = np.concatenate([x.to_stack()[0] for x in states])
    coh = np.concatenate([x.to_stack()[1] for x in states])
    validate_x_batch(diag, coh)
    eigs = x_eigenvalues_batch(diag, coh)
    dense = validate_batch(np.stack([x.to_matrix() for x in states]))
    assert np.abs(eigs - dense).max() < 1e-12
    conc = concurrence_x_batch(diag, coh)
    for n, x in enumerate(states):
        assert np.abs(x.eigenvalues() - eigs[n]).max() < 1e-12
        assert es.concurrence_x(x) == conc[n]
        assert es.numerical_rank(x) == rank_batch(eigs[n])
    assert np.array_equal(rank_batch(eigs), rank_batch(dense))


@pytest.mark.parametrize(
    "row,scalar,excess",
    [
        ((-0.1, 0.4, 0.4, 0.3, 0.0, 0.0), "diagonal invariant violated: negative population -1.000e-01", ""),
        ((0.5, 0.5, 0.25, 0.25, 0.0, 0.0), "trace invariant violated: sum = 1.5", ""),
        ((0.25, 0.25, 0.25, 0.25, 0.4, 0.0), "eigenvalue invariant violated: |c14|^2 > c11*c44",
         " by 9.750e-02"),
        ((0.25, 0.25, 0.25, 0.25, 0.0, 0.4j), "eigenvalue invariant violated: |c23|^2 > c22*c33",
         " by 9.750e-02"),
    ],
)
def test_validate_x_batch_names_invariant_value_and_sample(row, scalar, excess):
    good = (0.25, 0.25, 0.25, 0.25, 0.1, -0.1j)
    rows = [good, good, row, good]
    diag = np.array([r[:4] for r in rows])
    coh = np.array([r[4:] for r in rows])
    with pytest.raises(es.ValidationError) as excinfo:
        validate_x_batch(diag, coh, where=lambda n: f"input a of sample {n}")
    assert str(excinfo.value) == f"{scalar}{excess} (input a of sample 2)"
    # the scalar path keeps its message text, without an input name
    with pytest.raises(es.ValidationError) as excinfo:
        es.XState(*row)
    assert str(excinfo.value) == scalar


def test_x_state_round_trip():
    rng = np.random.default_rng(25)
    for _ in range(50):
        x = es.random_x_state(rng)
        back = es.as_x_state(x.to_density_matrix())
        assert back.c14 == pytest.approx(x.c14, abs=1e-14)
        assert back.c23 == pytest.approx(x.c23, abs=1e-14)


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
    payload = {"basis": ",".join(es.BASIS_LABELS), "matrix": [[1, 2], [3, 4]]}
    with pytest.raises(ValueError):
        es.matrix_from_json_dict(payload)


# ------------------------------------------------------ stacked validation


def _broken_stack():
    # three valid Bures states with the trace of the middle one broken
    mats = es.random_bures([np.random.default_rng(i) for i in range(3)]).copy()
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


def test_pure_batch_names_unnormalized_vector():
    vecs = np.eye(4, dtype=complex)
    vecs[3] *= 2.0
    with pytest.raises(es.ValidationError, match=r"norm invariant violated.*\(vector 3\)$"):
        pure_batch(vecs, where=lambda n: f"vector {n}")


def test_batched_measures_match_scalar_ones():
    rng = np.random.default_rng(61)
    states = [es.random_induced(rng, 4, k) for k in (1, 2, 3, 4) for _ in range(5)]
    mats = np.stack([rho.mat for rho in states])
    eigs = validate_batch(mats)
    conc = concurrence_batch(mats)
    ranks = rank_batch(eigs, 1e-10)
    for i, rho in enumerate(states):
        assert conc[i] == es.concurrence(rho)
        assert ranks[i] == es.numerical_rank(rho)
