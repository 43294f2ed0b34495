import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entswap as es
from entswap.ensembles import bell_diagonal_x
from entswap.qstate import EIGENVALUE_FLOOR, concurrence_batch, x_eigenvalues_batch, x_matrices
from entswap.swap import (
    conditional_states,
    conditional_x_states,
    swap_batch,
    swap_oracle_batch,
    swap_x_batch,
    swap_x_params,
)
from tests.test_qstate import x_params

B = es.BellLabel

# Output Bell state on modes (1,4) for each (modes-12 input, modes-34 input)
# pair when the measurement on modes (2,3) yields psi-.
PSI_MINUS_LOOKUP = {
    (B.PSI_PLUS, B.PSI_PLUS): B.PSI_MINUS,
    (B.PSI_PLUS, B.PSI_MINUS): B.PSI_PLUS,
    (B.PSI_PLUS, B.PHI_PLUS): B.PHI_MINUS,
    (B.PSI_PLUS, B.PHI_MINUS): B.PHI_PLUS,
    (B.PSI_MINUS, B.PSI_PLUS): B.PSI_PLUS,
    (B.PSI_MINUS, B.PSI_MINUS): B.PSI_MINUS,
    (B.PSI_MINUS, B.PHI_PLUS): B.PHI_PLUS,
    (B.PSI_MINUS, B.PHI_MINUS): B.PHI_MINUS,
    (B.PHI_PLUS, B.PSI_PLUS): B.PHI_MINUS,
    (B.PHI_PLUS, B.PSI_MINUS): B.PHI_PLUS,
    (B.PHI_PLUS, B.PHI_PLUS): B.PSI_MINUS,
    (B.PHI_PLUS, B.PHI_MINUS): B.PSI_PLUS,
    (B.PHI_MINUS, B.PSI_PLUS): B.PHI_PLUS,
    (B.PHI_MINUS, B.PSI_MINUS): B.PHI_MINUS,
    (B.PHI_MINUS, B.PHI_PLUS): B.PSI_PLUS,
    (B.PHI_MINUS, B.PHI_MINUS): B.PSI_MINUS,
}


def _rand_dm(rng):
    return es.random_bures(rng)


def _projected(a, b, outcome):
    """One outcome's unnormalized output of the batched kernel."""
    raw, _ = swap_batch(a[None], b[None])
    return raw[0, list(B).index(outcome)]


# -------------------------------------------------- Bell-pair golden table


def test_bell_pair_lookup_table():
    for (la, lb), lout in PSI_MINUS_LOOKUP.items():
        result = es.swap_general(es.bell_density(la), es.bell_density(lb), B.PSI_MINUS)
        assert result.probability == pytest.approx(0.25, abs=1e-12)
        assert es.trace_distance(result.state, es.bell_density(lout)) < 1e-12


def test_bell_pair_all_outcomes_equiprobable():
    phi = es.bell_density(B.PHI_PLUS)
    results = es.swap_all_outcomes(phi, phi)
    for res in results:
        assert res.probability == pytest.approx(0.25, abs=1e-12)
        # the swapped pair lands on whichever Bell state was measured
        assert es.trace_distance(res.state, es.bell_density(res.outcome)) < 1e-12


# ----------------------------------------- literal entrywise output forms

# Frozen four-term expansions of selected unnormalized output entries in
# terms of 1-based input entries a_ij, b_ij; the middle two terms carry
# the outcome sign. Layout: (row, col) -> ((a, b), (a, b), (a, b), (a, b)).
PSI_ENTRY_TERMS = {
    (1, 1): (((2, 2), (1, 1)), ((2, 1), (1, 3)), ((1, 2), (3, 1)), ((1, 1), (3, 3))),
    (2, 2): (((2, 2), (2, 2)), ((2, 1), (2, 4)), ((1, 2), (4, 2)), ((1, 1), (4, 4))),
    (3, 3): (((4, 4), (1, 1)), ((4, 3), (1, 3)), ((3, 4), (3, 1)), ((3, 3), (3, 3))),
    (4, 4): (((4, 4), (2, 2)), ((4, 3), (2, 4)), ((3, 4), (4, 2)), ((3, 3), (4, 4))),
    (1, 4): (((2, 4), (1, 2)), ((2, 3), (1, 4)), ((1, 4), (3, 2)), ((1, 3), (3, 4))),
    (2, 3): (((2, 4), (2, 1)), ((2, 3), (2, 3)), ((1, 4), (4, 1)), ((1, 3), (4, 3))),
    (3, 1): (((4, 2), (1, 1)), ((4, 1), (1, 3)), ((3, 2), (3, 1)), ((3, 1), (3, 3))),
}
PHI_ENTRY_TERMS = {
    (1, 1): (((1, 1), (1, 1)), ((1, 2), (1, 3)), ((2, 1), (3, 1)), ((2, 2), (3, 3))),
    (2, 2): (((1, 1), (2, 2)), ((1, 2), (2, 4)), ((2, 1), (4, 2)), ((2, 2), (4, 4))),
    (3, 3): (((3, 3), (1, 1)), ((3, 4), (1, 3)), ((4, 3), (3, 1)), ((4, 4), (3, 3))),
    (4, 4): (((3, 3), (2, 2)), ((3, 4), (2, 4)), ((4, 3), (4, 2)), ((4, 4), (4, 4))),
    (1, 4): (((1, 3), (1, 2)), ((1, 4), (1, 4)), ((2, 3), (3, 2)), ((2, 4), (3, 4))),
    (2, 3): (((1, 3), (2, 1)), ((1, 4), (2, 3)), ((2, 3), (4, 1)), ((2, 4), (4, 3))),
    (4, 1): (((3, 1), (2, 1)), ((3, 2), (2, 3)), ((4, 1), (4, 1)), ((4, 2), (4, 3))),
}


def _eval_terms(terms, a, b, sign):
    total = 0.0 + 0.0j
    for idx, ((ai, aj), (bi, bj)) in enumerate(terms):
        factor = sign if idx in (1, 2) else 1.0
        total += factor * a[ai - 1, aj - 1] * b[bi - 1, bj - 1]
    return total


@pytest.mark.parametrize(
    "outcome,terms_table",
    [
        (B.PSI_PLUS, PSI_ENTRY_TERMS),
        (B.PSI_MINUS, PSI_ENTRY_TERMS),
        (B.PHI_PLUS, PHI_ENTRY_TERMS),
        (B.PHI_MINUS, PHI_ENTRY_TERMS),
    ],
)
def test_unnormalized_entries_match_literal_forms(outcome, terms_table):
    rng = np.random.default_rng(31)
    sign = 1.0 if outcome in (B.PSI_PLUS, B.PHI_PLUS) else -1.0
    for _ in range(25):
        a, b = _rand_dm(rng).mat, _rand_dm(rng).mat
        # the projected block is half the literal entry table
        raw = 2.0 * _projected(a, b, outcome)
        for (row, col), terms in terms_table.items():
            expected = _eval_terms(terms, a, b, sign)
            assert raw[row - 1, col - 1] == pytest.approx(expected, abs=1e-12)


def _literal_normalization(a, b, outcome):
    sign = 1.0 if outcome in (B.PSI_PLUS, B.PHI_PLUS) else -1.0
    if outcome in (B.PSI_PLUS, B.PSI_MINUS):
        return (
            a[1, 1] * b[0, 0] + a[3, 3] * b[0, 0]
            + sign * a[1, 0] * b[0, 2] + sign * a[3, 2] * b[0, 2]
            + a[1, 1] * b[1, 1] + a[3, 3] * b[1, 1]
            + sign * a[1, 0] * b[1, 3] + sign * a[3, 2] * b[1, 3]
            + sign * a[0, 1] * b[2, 0] + sign * a[2, 3] * b[2, 0]
            + a[0, 0] * b[2, 2] + a[2, 2] * b[2, 2]
            + sign * a[0, 1] * b[3, 1] + sign * a[2, 3] * b[3, 1]
            + a[0, 0] * b[3, 3] + a[2, 2] * b[3, 3]
        )
    return (
        a[0, 0] * b[0, 0] + a[2, 2] * b[0, 0]
        + sign * a[0, 1] * b[0, 2] + sign * a[2, 3] * b[0, 2]
        + a[0, 0] * b[1, 1] + a[2, 2] * b[1, 1]
        + sign * a[0, 1] * b[1, 3] + sign * a[2, 3] * b[1, 3]
        + sign * a[1, 0] * b[2, 0] + sign * a[3, 2] * b[2, 0]
        + a[1, 1] * b[2, 2] + a[3, 3] * b[2, 2]
        + sign * a[1, 0] * b[3, 1] + sign * a[3, 2] * b[3, 1]
        + a[1, 1] * b[3, 3] + a[3, 3] * b[3, 3]
    )


def test_probability_is_half_the_normalization():
    rng = np.random.default_rng(32)
    for _ in range(50):
        rho_a, rho_b = _rand_dm(rng), _rand_dm(rng)
        for outcome in B:
            res = es.swap_general(rho_a, rho_b, outcome)
            norm = _literal_normalization(rho_a.mat, rho_b.mat, outcome)
            assert res.probability == pytest.approx(norm.real / 2.0, abs=1e-12)


# --------------------------------------------------------- oracle checks


def test_swap_general_matches_oracle_16():
    rng = np.random.default_rng(33)
    pairs = [(_rand_dm(rng), _rand_dm(rng)) for _ in range(1000)]
    a, b = (np.stack([rho.mat for rho in side]) for side in zip(*pairs))
    fast, slow = swap_batch(a, b), swap_oracle_batch(a, b)
    # the unnormalized outputs and probabilities agree to roundoff
    assert np.abs(fast[0] - slow[0]).max() <= 1e-15
    assert np.abs(fast[1] - slow[1]).max() <= 1e-15
    ok_fast, states_fast, _ = conditional_states(*fast)
    ok_slow, states_slow, _ = conditional_states(*slow)
    assert ok_fast.all() and ok_slow.all()
    assert es.qstate.trace_distance_batch(states_fast, states_slow).max() < 1e-12
    # the scalar oracle is the stack's batch of one
    for rho_a, rho_b in pairs[:3]:
        for outcome in B:
            fast = es.swap_general(rho_a, rho_b, outcome)
            slow = es.swap_oracle_16(rho_a, rho_b, outcome)
            assert es.trace_distance(fast.state, slow.state) < 1e-12
            assert fast.probability == pytest.approx(slow.probability, abs=1e-12)


def test_oracle_16_probability_is_projection_weight():
    # the weight of the explicit 16x16 Bell projector of modes (2, 3) in the
    # joint state, index 8*m1 + 4*m2 + 2*m3 + m4
    rng = np.random.default_rng(34)
    rho_a, rho_b = _rand_dm(rng), _rand_dm(rng)
    joint = np.kron(rho_a.mat, rho_b.mat)
    for outcome in B:
        bell = es.bell_vector(outcome)
        proj = np.kron(np.kron(np.eye(2), np.outer(bell, bell.conj())), np.eye(2))
        expected = np.trace(proj @ joint @ proj).real
        assert es.swap_oracle_16(rho_a, rho_b, outcome).probability == pytest.approx(
            expected, abs=1e-13
        )


def test_projection_oracle_stays_independent_of_the_swap_kernel():
    # everything the oracle reaches in swap.py, followed through the module's
    # own functions and constants, names none of the kernel or its tables
    tree = ast.parse(Path(es.swap.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defs.update({name.id: node for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets for name in ast.walk(target)
                 if isinstance(name, ast.Name)})
    reached, todo = set(), ["swap_oracle_batch", "swap_oracle_16"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defs[name])
                     if isinstance(node, ast.Name) and node.id in defs]
    assert {"swap_oracle_batch", "swap_oracle_16", "_V"} <= reached
    kernel = {"_GATHER_A", "_GATHER_B", "_WEIGHTS", "_kernel_tables", "swap_batch"}
    assert not reached & kernel
    assert not any(name.startswith("_X_") for name in reached)


def test_oracle_outcomes_sum_to_the_product_of_marginals():
    # the four Bell projections of modes (2, 3) together trace them out:
    # the outputs of rho_a, rho_b sum to tr_2(rho_a) (x) tr_3(rho_b)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    rho_a, rho_b = g @ g.conj().swapaxes(-1, -2)

    def marginal(rho, keep_first):
        r = rho.reshape(2, 2, 2, 2)
        # sum the diagonal of the traced qubit by explicit loops
        m = np.zeros((2, 2), complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    m[i, j] += r[i, k, j, k] if keep_first else r[k, i, k, j]
        return m

    raw, prob = swap_oracle_batch(rho_a[None], rho_b[None])
    expected = np.kron(marginal(rho_a, True), marginal(rho_b, False))
    assert np.abs(raw[0].sum(axis=0) - expected).max() < 1e-12
    assert prob.sum() == pytest.approx(np.trace(rho_a).real * np.trace(rho_b).real, abs=1e-12)


def test_oracle_16_bell_case():
    phi = es.bell_density(B.PHI_PLUS)
    res = es.swap_oracle_16(phi, phi, B.PHI_PLUS)
    assert es.trace_distance(res.state, phi) < 1e-12
    assert res.probability == pytest.approx(0.25, abs=1e-12)


# --------------------------------------------------------- Werner family


@pytest.mark.parametrize("p1,p2", [(0.9, 0.7), (0.5, 0.5), (1.0, 0.6), (0.2, 0.8)])
def test_werner_pair_concurrence(p1, p2):
    # brute-force oracle and closed form agree: max(0, (3 p1 p2 - 1) / 2)
    expected = max(0.0, (3.0 * p1 * p2 - 1.0) / 2.0)
    w1, w2 = es.werner(p1), es.werner(p2)
    for outcome in B:
        fast = es.swap_general(w1, w2, outcome)
        slow = es.swap_oracle_16(w1, w2, outcome)
        assert es.concurrence(fast.state) == pytest.approx(expected, abs=1e-12)
        assert es.concurrence(slow.state) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------- X-state fast path


def test_swap_x_matches_general():
    rng = np.random.default_rng(35)
    for _ in range(1000):
        xa, xb = es.random_x_state(rng), es.random_x_state(rng)
        dm_a, dm_b = es.DensityMatrix(x_matrices(*xa)), es.DensityMatrix(x_matrices(*xb))
        for outcome in B:
            fast, probability = swap_x_params(xa, xb, outcome)
            general = es.swap_general(dm_a, dm_b, outcome)
            assert np.abs(x_matrices(*fast) - general.state.mat).max() < 1e-12
            assert probability == pytest.approx(general.probability, abs=1e-12)


def test_swap_of_x_states_stays_x():
    rng = np.random.default_rng(36)
    for _ in range(300):
        xa, xb = es.random_x_state(rng), es.random_x_state(rng)
        for outcome in B:
            out = es.swap_general(es.DensityMatrix(x_matrices(*xa)),
                                  es.DensityMatrix(x_matrices(*xb)), outcome)
            x_params(out.state.mat, tol=1e-12)  # raises if any stray entry


def test_rank2_self_swap_values():
    # alpha = 0.9 mixture of psi+ and psi-: the psi- outcome leaves the
    # populations untouched and squares the coherence
    sigma = es.rank2_bell_mixture(0.9)
    res = es.swap_general(sigma, sigma, B.PSI_MINUS)
    assert res.state.mat[1, 2].real == pytest.approx(-0.32, abs=1e-12)
    assert es.concurrence(res.state) == pytest.approx(0.64, abs=1e-12)
    assert res.probability == pytest.approx(0.25, abs=1e-12)
    x = x_params(sigma.mat)
    fast, _ = swap_x_params(x, x, B.PSI_MINUS)
    assert fast[1][1].real == pytest.approx(-0.32, abs=1e-12)
    assert es.concurrence_x(*fast) == pytest.approx(0.64, abs=1e-12)


def test_swap_x_bell_lookup():
    for (la, lb), lout in PSI_MINUS_LOOKUP.items():
        xa = x_params(es.bell_density(la).mat)
        xb = x_params(es.bell_density(lb).mat)
        out, _ = swap_x_params(xa, xb, B.PSI_MINUS)
        assert es.trace_distance(es.DensityMatrix(x_matrices(*out)), es.bell_density(lout)) < 1e-12


# ------------------------------------------------ stacked X-state kernel


def _x_stack(states):
    return tuple(map(np.stack, zip(*states)))


def _x_pairs(kind, seed, n=40):
    # complex coherences (random X-states) or real ones (Bell-diagonal)
    rng = np.random.default_rng(seed)
    draw = (es.random_x_state if kind == "x"
            else lambda g: bell_diagonal_x(es.random_bell_diagonal(g)))
    return [(draw(rng), draw(rng)) for _ in range(n)]


@pytest.mark.parametrize("kind", ["x", "bell-diagonal"])
def test_stacked_x_kernel_is_bit_equal_to_batch_of_one(kind):
    pairs = _x_pairs(kind, 43)
    out, prob = swap_x_batch(_x_stack([a for a, _ in pairs]), _x_stack([b for _, b in pairs]))
    possible, (diag, coh), eigs = conditional_x_states(out, prob)
    assert possible.all()
    assert coh.dtype == (complex if kind == "x" else float)
    diag, coh, eigs = diag.reshape(-1, 4, 4), coh.reshape(-1, 4, 2), eigs.reshape(-1, 4, 4)
    conc = es.concurrence_x(diag, coh)
    for n, (xa, xb) in enumerate(pairs):
        for k, outcome in enumerate(B):
            x, p = swap_x_params(xa, xb, outcome)
            assert p == prob[n, k]
            assert np.array_equal(x[0], diag[n, k])
            assert np.array_equal(x[1], coh[n, k])
            assert es.concurrence_x(*x) == conc[n, k]
            assert np.array_equal(x_eigenvalues_batch(*x), eigs[n, k])


@pytest.mark.parametrize("kind", ["x", "bell-diagonal"])
def test_stacked_x_kernel_agrees_with_the_general_engine(kind):
    pairs = _x_pairs(kind, 44)
    out, prob_x = swap_x_batch(_x_stack([a for a, _ in pairs]), _x_stack([b for _, b in pairs]))
    _, (diag, coh), eigs_x = conditional_x_states(out, prob_x)
    raw, prob = swap_batch(x_matrices(*_x_stack([a for a, _ in pairs])),
                           x_matrices(*_x_stack([b for _, b in pairs])))
    _, states, eigs = conditional_states(raw, prob)
    assert np.abs(x_matrices(diag, coh) - states).max() < 1e-12
    assert np.abs(prob_x - prob).max() < 1e-12
    assert np.abs(eigs_x - eigs).max() < 1e-12
    assert np.abs(es.concurrence_x(diag, coh) - concurrence_batch(states)).max() < 1e-12


def test_stacked_x_kernel_skips_impossible_outcomes_like_the_scalar_path():
    # the X-state |HH><HH| paired with itself kills both psi outcomes
    hh = np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(2)
    pairs = [*_x_pairs("x", 45, n=2), (hh, hh), *_x_pairs("bell-diagonal", 46, n=2)]
    out, prob = swap_x_batch(_x_stack([a for a, _ in pairs]), _x_stack([b for _, b in pairs]))
    possible, (diag, _), eigs = conditional_x_states(out, prob)
    assert possible.size - possible.sum() == 2
    assert len(diag) == len(eigs) == possible.sum()
    for n, (xa, xb) in enumerate(pairs):
        for k, outcome in enumerate(B):
            if possible[n, k]:
                assert swap_x_params(xa, xb, outcome)[1] == prob[n, k]
                continue
            with pytest.raises(es.ImpossibleOutcome, match=str(outcome)) as excinfo:
                swap_x_params(xa, xb, outcome)
            assert excinfo.value.normalization == 2.0 * prob[n, k]


def test_stacked_x_outputs_name_sample_and_outcome():
    diag = np.full((3, 4, 4), 0.25)
    diag[1, 2] = (0.5, 0.5, 0.5, -0.5)
    coh = np.zeros((3, 4, 2))
    with pytest.raises(es.ValidationError) as excinfo:
        conditional_x_states((diag, coh), np.full((3, 4), 0.5),
                             lambda n, k: f"output of sample {n}, outcome {list(B)[k]}")
    assert str(excinfo.value) == ("eigenvalue invariant violated: min eigenvalue = "
                                  "-5.000e-01 (output of sample 1, outcome phi+)")


# -------------------------------------------------------- all outcomes


def test_projection_is_bilinear_in_the_inputs():
    # the unnormalized projected block is linear in each input separately
    rng = np.random.default_rng(40)
    for outcome in B:
        a1, a2, b = _rand_dm(rng).mat, _rand_dm(rng).mat, _rand_dm(rng).mat
        lam = 0.37
        mixed = _projected(lam * a1 + (1 - lam) * a2, b, outcome)
        parts = lam * _projected(a1, b, outcome) + (1 - lam) * _projected(
            a2, b, outcome
        )
        assert np.abs(mixed - parts).max() < 1e-14


def test_all_outcomes_probabilities_sum_to_one():
    rng = np.random.default_rng(37)
    for _ in range(200):
        results = es.swap_all_outcomes(_rand_dm(rng), _rand_dm(rng))
        assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-10)


@given(
    weights_a=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    weights_b=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_all_outcomes_complete_for_bell_diagonal(weights_a, weights_b):
    wa = np.array(weights_a) / sum(weights_a)
    wb = np.array(weights_b) / sum(weights_b)
    rho_a = es.DensityMatrix(x_matrices(*bell_diagonal_x(wa)))
    rho_b = es.DensityMatrix(x_matrices(*bell_diagonal_x(wb)))
    results = es.swap_all_outcomes(rho_a, rho_b)
    assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-10)


def test_product_state_inputs_stay_separable():
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0])
    results = es.swap_all_outcomes(hh, hh)
    total = 0.0
    for res in results:
        total += res.probability
        if res.state is not None:
            assert es.concurrence(res.state) == pytest.approx(0.0, abs=1e-12)
        else:
            assert res.probability == 0.0
    assert total == pytest.approx(1.0, abs=1e-12)
    # identical photons never produce the antisymmetric outcome
    assert results[1].outcome is B.PSI_MINUS and results[1].state is None


def test_impossible_outcome_raises():
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0])
    with pytest.raises(es.ImpossibleOutcome, match="psi-"):
        es.swap_general(hh, hh, B.PSI_MINUS)


# ------------------------------------------------- conservation property


def test_bell_swap_conserves_concurrence():
    rng = np.random.default_rng(38)
    bell = es.bell_density(B.PHI_PLUS)
    for _ in range(200):
        rho = _rand_dm(rng)
        c_in = es.concurrence(rho)
        for outcome in B:
            res = es.swap_general(rho, bell, outcome)
            assert es.concurrence(res.state) == pytest.approx(c_in, abs=1e-9)


def test_bell_swap_of_separable_state_stays_separable():
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0])
    bell = es.bell_density(B.PHI_PLUS)
    for outcome in B:
        res = es.swap_general(hh, bell, outcome)
        assert es.concurrence(res.state) == pytest.approx(0.0, abs=1e-12)


def test_bell_swap_of_x_states_conserves_exactly():
    # for X inputs the closed-form concurrence makes conservation exact:
    # the swap only permutes populations and re-phases the coherences
    rng = np.random.default_rng(39)
    bell_x = x_params(es.bell_density(B.PHI_PLUS).mat)
    for _ in range(300):
        x = es.random_x_state(rng)
        for outcome in B:
            out, _ = swap_x_params(x, bell_x, outcome)
            assert es.concurrence_x(*out) == pytest.approx(es.concurrence_x(*x), abs=1e-12)


# ----------------------------------------------- pure-state swap identity


@given(
    re_a=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    im_a=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    re_b=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    im_b=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_pure_swap_concurrence_probability_identity(re_a, im_a, re_b, im_b):
    # For pure inputs, since the projected amplitude matrix is a product,
    # determinant multiplicativity fixes C_F * prob = C_A * C_B / 4 for
    # every outcome.
    va = np.array(re_a) + 1j * np.array(im_a)
    vb = np.array(re_b) + 1j * np.array(im_b)
    if np.linalg.norm(va) < 0.1 or np.linalg.norm(vb) < 0.1:
        return
    va /= np.linalg.norm(va)
    vb /= np.linalg.norm(vb)
    product = es.pure_concurrence(va) * es.pure_concurrence(vb)
    results = es.swap_all_outcomes(
        es.DensityMatrix.from_pure(va), es.DensityMatrix.from_pure(vb)
    )
    for res in results:
        if res.state is None:
            continue
        lhs = es.concurrence(res.state) * res.probability
        assert lhs == pytest.approx(product / 4.0, abs=1e-9)


# ------------------------------------------------------- batched engine


def test_batched_engine_agrees_with_scalar_and_both_oracles():
    rng = np.random.default_rng(41)
    pairs = [(_rand_dm(rng), _rand_dm(rng)) for _ in range(50)]
    raw, prob = swap_batch(np.stack([a.mat for a, _ in pairs]),
                           np.stack([b.mat for _, b in pairs]))
    possible, states, _ = conditional_states(raw, prob)
    assert possible.all()
    states = states.reshape(len(pairs), 4, 4, 4)
    for n, (rho_a, rho_b) in enumerate(pairs):
        scalar = es.swap_all_outcomes(rho_a, rho_b)
        for k, outcome in enumerate(B):
            # batch of one: the same code, so the same bits
            assert np.array_equal(scalar[k].state.mat, states[n, k])
            assert scalar[k].probability == prob[n, k]
            oracle = es.swap_oracle_16(rho_a, rho_b, outcome)
            assert np.abs(oracle.state.mat - states[n, k]).max() < 1e-12
            assert oracle.probability == pytest.approx(prob[n, k], abs=1e-12)
        physical = es.swap_via_beamsplitter(rho_a, rho_b, eta=0.5)
        psi = list(B).index(B.PSI_MINUS)
        assert np.abs(physical.state.mat - states[n, psi]).max() < 1e-12
        assert physical.probability == pytest.approx(prob[n, psi], abs=1e-12)


def test_batched_engine_skips_impossible_outcomes_like_the_scalar_path():
    # |HH><HH| (x) |HH><HH| kills both psi outcomes; Bures pairs kill none
    rng = np.random.default_rng(42)
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0])
    pairs = [(_rand_dm(rng), _rand_dm(rng)), (hh, hh), (_rand_dm(rng), hh)]
    raw, prob = swap_batch(np.stack([a.mat for a, _ in pairs]),
                           np.stack([b.mat for _, b in pairs]))
    possible, states, eigs = conditional_states(raw, prob)
    assert possible.size - possible.sum() == 2
    assert len(states) == len(eigs) == possible.sum()
    rows = iter(zip(states, eigs))
    for n, (rho_a, rho_b) in enumerate(pairs):
        for k, (outcome, res) in enumerate(zip(B, es.swap_all_outcomes(rho_a, rho_b))):
            assert possible[n, k] == (res.state is not None)
            if res.state is None:
                assert res.probability == 0.0
                with pytest.raises(es.ImpossibleOutcome, match=str(outcome)) as info:
                    es.swap_general(rho_a, rho_b, outcome)
                assert info.value.normalization == 2.0 * prob[n, k]
                continue
            state, eig = next(rows)
            general = es.swap_general(rho_a, rho_b, outcome)
            for rho in (res.state, general.state):
                assert np.array_equal(rho.mat, state)
                assert np.array_equal(rho.eigenvalues(), eig)
            assert general.probability == prob[n, k]


# ------------------------------------------ inputs at the eigenvalue floor


def _rotated(rng, spectrum):
    """A state with the given eigenvalues in a Haar-random eigenbasis."""
    u = es.haar_unitary(rng, 4)
    return es.DensityMatrix(u @ np.diag(spectrum) @ u.conj().T)


def test_swap_routes_agree_on_inputs_at_the_eigenvalue_floor():
    # conditioning divides the inputs' roundoff by the outcome probability;
    # the tolerances are carried with it, so no route may reject an output
    # A's least eigenvalue is just inside EIGENVALUE_FLOOR; B is Haar-pure
    rng = np.random.default_rng(8)
    pairs = [(_rotated(rng, [0.5, 0.3, 0.2 + 9e-11, -9e-11]),
              es.DensityMatrix.from_pure(es.random_pure(rng))) for _ in range(300)]
    raw, prob = swap_batch(np.stack([a.mat for a, _ in pairs]),
                           np.stack([b.mat for _, b in pairs]))
    possible, states, eigs = conditional_states(raw, prob)
    assert possible.all()
    # some outputs sit past the plain floor, so the boundary is exercised
    assert (eigs[:, -1] < EIGENVALUE_FLOOR).any()
    assert (eigs[:, -1] * prob.ravel() >= EIGENVALUE_FLOOR).all()
    states = states.reshape(len(pairs), 4, 4, 4)
    psi = list(B).index(B.PSI_MINUS)
    for n, (rho_a, rho_b) in enumerate(pairs):
        routes = [es.swap_all_outcomes(rho_a, rho_b)]
        routes += [[swap(rho_a, rho_b, outcome) for outcome in B]
                   for swap in (es.swap_general, es.swap_oracle_16)]
        for results in routes:
            for k, res in enumerate(results):
                assert np.abs(res.state.mat - states[n, k]).max() < 1e-12
                assert abs(res.probability - prob[n, k]) < 1e-12
        physical = es.swap_via_beamsplitter(rho_a, rho_b)
        assert np.abs(physical.state.mat - states[n, psi]).max() < 1e-12
        assert abs(physical.probability - prob[n, psi]) < 1e-12


def _at_floor(rng, weights):
    # the least eigenvalue just inside the floor, the rest in the ratios weights
    low = 0.999 * EIGENVALUE_FLOOR
    return _rotated(rng, [*np.asarray(weights) / np.sum(weights) * (1.0 - low), low])


@given(
    seed=st.integers(0, 2**32 - 1),
    weights_a=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0.1),
    weights_b=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0.1),
)
@settings(max_examples=40, deadline=None)
def test_swap_routes_accept_inputs_with_the_least_eigenvalue_at_the_floor(seed, weights_a,
                                                                          weights_b):
    # every route returns a valid state or raises its impossible-outcome error
    rng = np.random.default_rng(seed)
    rho_a, rho_b = _at_floor(rng, weights_a), _at_floor(rng, weights_b)
    results = es.swap_all_outcomes(rho_a, rho_b)
    for outcome in B:
        for swap in (es.swap_general, es.swap_oracle_16):
            try:
                results.append(swap(rho_a, rho_b, outcome))
            except es.ImpossibleOutcome:
                pass
    try:
        results.append(es.swap_via_beamsplitter(rho_a, rho_b))
    except es.ImpossibleOutcome:
        pass
    for res in results:
        if res.state is not None:
            assert res.state.eigenvalues()[-1] * res.probability >= EIGENVALUE_FLOOR


# ------------------------------ outcomes just above the normalization floor


def _x_pair_at_normalization(rng, norm, low):
    """X stacks of one pair whose two psi outcomes have normalization
    ``norm``: B is |H> on mode 3, so psi reads A's weight at V on mode 2,
    which is ``norm``. A nonzero ``low`` (a population just inside the
    floor) is the c22 of both inputs; A's c14 is on the edge of its disk."""
    h, b0 = rng.uniform(0.2, 0.8, size=2)
    diag_a = np.array([(1.0 - norm) * h, low, (1.0 - norm) * (1.0 - h), norm - low])
    c14 = np.sqrt(diag_a[0] * diag_a[3]) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    diag_b = np.array([1.0 - low, low, 0.0, 0.0]) if low else np.array([b0, 1.0 - b0, 0.0, 0.0])
    return (diag_a[None], np.array([[c14, 0.0]])), (diag_b[None], np.zeros((1, 2)))


def _swap_x(chi_a, chi_b, outcome):
    # the X state as a matrix with the X route's own eigenvalues
    x, p = swap_x_params(chi_a, chi_b, outcome)
    return es.SwapResult(es.DensityMatrix._checked(x_matrices(*x), x_eigenvalues_batch(*x)),
                         p, outcome)


def _routes_at_normalization(rng, norm, low):
    """Every swap route's results for a pair of _x_pair_at_normalization,
    with a random unitary on modes 1 and 4 for the general routes, and the
    refusals of impossible outcomes."""
    x_a, x_b = _x_pair_at_normalization(rng, norm, low)
    u1, u4 = es.haar_unitary(rng, 2), es.haar_unitary(rng, 2)
    local = (np.kron(u1, np.eye(2)), np.kron(np.eye(2), u4))
    rho_a, rho_b = (es.DensityMatrix(u @ x_matrices(*x)[0] @ u.conj().T)
                    for u, x in zip(local, (x_a, x_b)))
    chi_a, chi_b = ((x[0][0], x[1][0]) for x in (x_a, x_b))
    results, impossible = [], []
    calls = [lambda: es.swap_all_outcomes(rho_a, rho_b),
             lambda: [es.swap_via_beamsplitter(rho_a, rho_b)]]
    calls += [lambda swap=swap, pair=pair, k=k: [swap(*pair, k)]
              for k in B for swap, pair in ((es.swap_general, (rho_a, rho_b)),
                                            (es.swap_oracle_16, (rho_a, rho_b)),
                                            (_swap_x, (chi_a, chi_b)))]
    for call in calls:
        try:
            results += call()
        except es.ImpossibleOutcome as exc:
            impossible.append(exc)
    raw, prob = swap_batch(rho_a.mat[None], rho_b.mat[None])
    stacked = [conditional_states(raw, prob), conditional_x_states(*swap_x_batch(x_a, x_b))]
    return results, impossible, prob, stacked


@pytest.mark.parametrize("low", [0.0, 0.999 * EIGENVALUE_FLOOR])
@pytest.mark.parametrize("seed", range(5))
def test_swap_routes_just_above_the_normalization_floor(seed, low):
    # at 2p = (1 + 1e-6) NORMALIZATION_FLOOR every route conditions on psi; its
    # outputs divide the inputs' roundoff, and their least eigenvalue or
    # population, by about 1e-12, so each tolerance must be carried with them
    rng = np.random.default_rng(seed)
    norm = (1.0 + 1e-6) * es.swap.NORMALIZATION_FLOOR
    results, impossible, prob, stacked = _routes_at_normalization(rng, norm, low)
    psi = [list(B).index(B.PSI_PLUS), list(B).index(B.PSI_MINUS)]
    assert 2.0 * prob[0, psi] == pytest.approx(norm, rel=1e-9)
    # the beamsplitter's coincidence, p = norm / 2, is tested against the
    # same floor as every other route, so no route refuses
    assert impossible == []
    assert len(results) == 4 + 1 + 3 * 4
    for res in results:
        assert res.state.eigenvalues()[-1] * min(res.probability, 1.0) >= EIGENVALUE_FLOOR
    for possible, *_ in stacked:
        assert possible.all()


@pytest.mark.parametrize("low", [0.0, 0.999 * EIGENVALUE_FLOOR])
def test_swap_routes_just_below_the_normalization_floor(low):
    rng = np.random.default_rng(11)
    norm = (1.0 - 1e-6) * es.swap.NORMALIZATION_FLOOR
    results, impossible, prob, stacked = _routes_at_normalization(rng, norm, low)
    # psi+ and psi- are impossible on every route that takes them one by one,
    # the beamsplitter's psi- included, and swap_all_outcomes carries them
    # without a state
    assert [res.outcome for res in results if res.state is None] == [B.PSI_PLUS, B.PSI_MINUS]
    assert len(results) == 4 + 3 * 2
    assert len(impossible) == 3 * 2 + 1
    assert all(type(exc) is es.ImpossibleOutcome for exc in impossible)
    assert [exc.outcome for exc in impossible] == [B.PSI_MINUS, *[B.PSI_PLUS] * 3, *[B.PSI_MINUS] * 3]
    for exc in impossible:
        assert exc.normalization == pytest.approx(norm, rel=1e-9)
    for possible, *_ in stacked:
        assert possible.sum() == 2


@pytest.mark.parametrize("e, possible", [(1.4e-12, True), (8e-13, False)])
def test_swap_routes_share_one_floor(e, possible):
    # psi- of A = (1 - e)|HH><HH| + e|HV><HV| and B = |HH><HH| reads A's
    # weight at V on mode 2: p = e / 2, just above or below the floor's 5e-13
    rho_a = es.DensityMatrix(np.diag([1.0 - e, e, 0.0, 0.0]))
    rho_b = es.DensityMatrix.from_pure([1, 0, 0, 0])
    routes = (lambda: es.swap_general(rho_a, rho_b, B.PSI_MINUS),
              lambda: es.swap_oracle_16(rho_a, rho_b, B.PSI_MINUS),
              lambda: es.swap_via_beamsplitter(rho_a, rho_b, 0.5))
    if not possible:
        message = (r"^outcome psi- has normalization 8\.000e-13 <= 1e-12; "
                   r"the conditional state is undefined$")
        for route in routes:
            with pytest.raises(es.ImpossibleOutcome, match=message):
                route()
        return
    results = [route() for route in routes]
    hh = es.DensityMatrix.from_pure([1, 0, 0, 0]).mat
    for res in results:
        assert res.outcome is B.PSI_MINUS
        assert abs(res.probability - e / 2) < 1e-12
        assert np.abs(res.state.mat - hh).max() < 1e-12
        assert np.abs(res.state.mat - results[0].state.mat).max() < 1e-12


def test_x_routes_reject_the_same_improbable_outcome_past_its_disk(monkeypatch):
    # every outcome of the pair has p = 1e-2 and, once conditioned, the block
    # (c11, c44, c14) = (0.5, 0.5, sqrt(0.25 + 9e-7)): past its disk by 9e-7,
    # least eigenvalue about -9e-7, which times p is past EIGENVALUE_FLOOR
    p = 1e-2
    diag = np.array([0.5, 0.0, 0.0, 0.5])
    coh = np.array([np.sqrt(0.25 + 9e-7), 0.0])
    prob = np.full((1, 4), p)
    out = (np.tile(diag * 2.0 * p, (1, 4, 1)), np.tile(coh * 2.0 * p, (1, 4, 1)))
    assert x_eigenvalues_batch(diag, coh)[-1] * p < EIGENVALUE_FLOOR
    message = r"^eigenvalue invariant violated: min eigenvalue = -9\.000e-07$"
    with pytest.raises(es.ValidationError, match=message):
        conditional_x_states(out, prob)
    monkeypatch.setattr(es.swap, "swap_x_batch", lambda a, b: (out, prob))
    chi = np.full(4, 0.25), np.zeros(2)
    for outcome in B:
        with pytest.raises(es.ValidationError, match=message):
            swap_x_params(chi, chi, outcome)
