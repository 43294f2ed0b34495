import hashlib

import numpy as np
import pytest

import entswap as es
from entswap.ensembles import STATE_ENSEMBLES, _check_weights, bell_diagonal_x
from entswap.experiments import run_passes
from entswap.qstate import concurrence_batch, x_matrices
from tests.test_qstate import x_params

N_MOMENT = 100_000


def _rng(seed=1):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- ginibre


def test_ginibre_moments():
    g = es.ginibre(_rng(), 100, 1000).ravel()
    bound = 3.0 / np.sqrt(g.size)
    assert abs(g.real.mean()) < bound
    assert abs(g.imag.mean()) < bound
    # E|z|^2 = 2 under the unit-variance-per-quadrature convention
    second = np.mean(np.abs(g) ** 2)
    assert second == pytest.approx(2.0, abs=6.0 / np.sqrt(g.size))


def test_ginibre_shape_and_errors():
    assert es.ginibre(_rng(), 3, 5).shape == (3, 5)
    with pytest.raises(ValueError):
        es.ginibre(_rng(), 0, 2)


def test_ginibre_deterministic():
    a = es.ginibre(_rng(123), 8, 8)
    b = es.ginibre(_rng(123), 8, 8)
    assert np.array_equal(a, b)


def test_rng_stream_reproducible_and_distinct():
    s = es.RngStream(seed=11, stream_id=3)
    assert np.array_equal(
        s.generator().standard_normal(16), s.generator().standard_normal(16)
    )
    assert np.array_equal(
        s.substream(5).standard_normal(4), s.substream(5).standard_normal(4)
    )
    other = es.RngStream(seed=11, stream_id=4)
    assert not np.array_equal(
        s.generator().standard_normal(4), other.generator().standard_normal(4)
    )
    assert not np.array_equal(
        s.substream(0).standard_normal(4), s.substream(1).standard_normal(4)
    )


# ----------------------------------------------------------- haar unitary


def test_haar_unitary_is_unitary():
    rng = _rng(2)
    for n in (2, 4, 7):
        u = es.haar_unitary(rng, n)
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12


def test_haar_phase_statistics_coarse():
    # uniform phases have mean 0 and standard deviation pi/sqrt(3)
    rng = _rng(3)
    phases = np.concatenate(
        [np.angle(np.linalg.eigvals(es.haar_unitary(rng, 4))) for _ in range(5000)]
    )
    assert abs(phases.mean()) < 0.05
    assert phases.std() == pytest.approx(np.pi / np.sqrt(3.0), abs=0.05)


# --------------------------------------------------------- state ensembles


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_induced_measure_rank(k):
    rng = _rng(4)
    for _ in range(300):
        rho = es.random_induced(rng, k)
        rho.validate()
        assert es.numerical_rank(rho) == k


def test_induced_measure_argument_checks():
    for k in (0, 5):
        with pytest.raises(ValueError, match="ancilla size k must lie in 1..4"):
            es.random_induced(_rng(), k)
    # size is keyword-only: a positional stack size is refused, not drawn
    with pytest.raises(TypeError):
        es.random_induced(_rng(), 4, 2)
    with pytest.raises(TypeError):
        es.random_bures(_rng(), 3)


def test_bures_states_validate():
    rng = _rng(5)
    for _ in range(500):
        es.random_bures(rng).validate()


def test_bures_purity_differs_from_hilbert_schmidt():
    # the two measures concentrate at clearly different mean purities
    rng = _rng(6)
    bures = np.array([es.random_bures(rng).purity() for _ in range(2000)])
    hs = np.array([es.random_induced(rng, 4).purity() for _ in range(2000)])
    gap = abs(bures.mean() - hs.mean())
    stderr = np.sqrt(bures.var() / bures.size + hs.var() / hs.size)
    assert gap > 5.0 * stderr


def test_random_pure_properties():
    rng = _rng(7)
    concs = []
    for _ in range(500):
        v = es.random_pure(rng)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        concs.append(es.pure_concurrence(v))
    rho = es.DensityMatrix.from_pure(es.random_pure(rng))
    assert es.numerical_rank(rho) == 1
    # the concurrence distribution spans the full interval
    assert min(concs) < 0.1 and max(concs) > 0.9


def test_bell_diagonal_simplex():
    rng = _rng(8)
    draws = np.array([es.random_bell_diagonal(rng) for _ in range(N_MOMENT)])
    assert np.abs(draws.sum(axis=1) - 1.0).max() < 1e-12
    # Dirichlet(1,1,1,1) marginals: mean 1/4, var 3/80
    bound = 3.0 * np.sqrt(3.0 / 80.0 / N_MOMENT)
    assert np.abs(draws.mean(axis=0) - 0.25).max() < bound


def test_bell_diagonal_is_x_state():
    rng = _rng(9)
    for _ in range(50):
        weights = es.random_bell_diagonal(rng)
        x = x_params(es.DensityMatrix(x_matrices(*bell_diagonal_x(weights))).mat)
        # concurrence of a Bell mixture: max(0, 2 max weight - 1)
        expected = max(0.0, 2.0 * weights.max() - 1.0)
        assert es.concurrence_x(*x) == pytest.approx(expected, abs=1e-12)


def test_bell_diagonal_rejects_bad_weights():
    with pytest.raises(ValueError):
        _check_weights(np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        _check_weights(np.array([0.5, 0.4, 0.2, 0.2]))


def test_bell_diagonal_rejects_nan_weights():
    with pytest.raises(ValueError, match=r"^weights must be nonnegative, got \(nan, "):
        _check_weights(np.array([np.nan, 0.5, 0.25, 0.25]))


def test_bell_diagonal_stack_matches_scalar_draws():
    stack = es.random_bell_diagonal(_rng(20), size=10)
    rng = _rng(20)
    scalar = [es.random_bell_diagonal(rng) for _ in range(10)]
    assert np.array_equal(stack, scalar)
    diag, coh = bell_diagonal_x(stack)
    for n, weights in enumerate(scalar):
        d, c = bell_diagonal_x(weights)
        assert np.array_equal(d, diag[n]) and np.array_equal(c, coh[n])


def test_bell_diagonal_stack_is_checked_as_a_whole():
    class Skewed:
        def dirichlet(self, alpha, size):
            w = _rng(2).dirichlet(alpha, size)
            w[1] *= 1.5
            return w

    with pytest.raises(ValueError, match=r"^weights must sum to 1, got \("):
        es.random_bell_diagonal(Skewed(), size=3)


def test_random_x_states_are_valid():
    rng = _rng(10)
    for _ in range(500):
        es.DensityMatrix(x_matrices(*es.random_x_state(rng))).validate()


def test_rank2_bell_mixture():
    sigma = es.rank2_bell_mixture(0.9)
    assert es.numerical_rank(sigma) == 2
    assert es.concurrence(sigma) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValueError):
        es.rank2_bell_mixture(1.2)


def _purity(mats):
    return np.einsum("nij,nji->n", mats, mats).real


# Analytic means that no change of generator or draw order can move:
# Bures purity (Osipov, Sommers, Zyczkowski 2010), induced-k purity
# (4 + k) / (4k + 1), Bell-diagonal sum of squared Dirichlet weights, and
# the Haar-pure concurrence 3 pi / 16.
ANALYTIC_MEANS = {
    "bures": (_purity, 81.0 / 144.0),
    **{f"induced-{k}": (_purity, (4.0 + k) / (4.0 * k + 1.0)) for k in range(1, 5)},
    "bell-diagonal": (_purity, 2.0 / 5.0),
    "pure": (concurrence_batch, 3.0 * np.pi / 16.0),
}


@pytest.mark.parametrize("ensemble", sorted(ANALYTIC_MEANS))
def test_chunked_ensemble_draws_match_analytic_means(ensemble):
    draw = STATE_ENSEMBLES[ensemble]
    mats = np.concatenate(run_passes(
        lambda chunks: np.concatenate([draw(rng, hi - lo) for rng, lo, hi in chunks]),
        es.RngStream(seed=31, stream_id=0), 20_000, workers=1))
    assert mats.shape == (20_000, 4, 4)
    measure, mean = ANALYTIC_MEANS[ensemble]
    values = measure(mats)
    stderr = values.std() / np.sqrt(values.size)
    # induced-1 states are pure: purity 1 up to roundoff
    assert abs(values.mean() - mean) <= max(5.0 * stderr, 1e-12)


def test_bures_and_induced_draws_are_pinned():
    # scalar draws, then stacks, in one order from one generator; the hash
    # was taken before the dimension argument n (always 4) was dropped
    rng = _rng(2016)
    parts = [es.random_bures(rng).mat, es.random_bures(rng, size=3)]
    parts += [es.random_induced(rng, k).mat for k in range(1, 5)]
    parts += [es.random_induced(rng, k, size=3) for k in range(1, 5)]
    digest = hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()
    assert digest == "3f0691a3a80d0152d9ecb0fc02727fbf0e950583c916f0ca35c3784082a30373"


def test_ensemble_determinism_across_generators():
    a = es.random_bures(_rng(99)).mat
    b = es.random_bures(_rng(99)).mat
    assert np.array_equal(a, b)
