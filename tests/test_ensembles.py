import numpy as np
import pytest

import entswap as es
from entswap.ensembles import bell_diagonal_x

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
        rho = es.random_induced(rng, 4, k)
        rho.validate()
        assert es.numerical_rank(rho) == k


def test_induced_measure_argument_checks():
    with pytest.raises(ValueError):
        es.random_induced(_rng(), 3, 2)
    with pytest.raises(ValueError):
        es.random_induced(_rng(), 4, 5)


def test_bures_states_validate():
    rng = _rng(5)
    for _ in range(500):
        es.random_bures(rng).validate()


def test_bures_purity_differs_from_hilbert_schmidt():
    # the two measures concentrate at clearly different mean purities
    rng = _rng(6)
    bures = np.array([es.random_bures(rng).purity() for _ in range(2000)])
    hs = np.array([es.random_induced(rng, 4, 4).purity() for _ in range(2000)])
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
    draws = np.array(
        [
            [b.alpha, b.beta, b.gamma, b.delta]
            for b in (es.random_bell_diagonal(rng) for _ in range(N_MOMENT))
        ]
    )
    assert np.abs(draws.sum(axis=1) - 1.0).max() < 1e-12
    # Dirichlet(1,1,1,1) marginals: mean 1/4, var 3/80
    bound = 3.0 * np.sqrt(3.0 / 80.0 / N_MOMENT)
    assert np.abs(draws.mean(axis=0) - 0.25).max() < bound


def test_bell_diagonal_is_x_state():
    rng = _rng(9)
    for _ in range(50):
        params = es.random_bell_diagonal(rng)
        x = es.as_x_state(params.to_density_matrix())
        # concurrence of a Bell mixture: max(0, 2 max weight - 1)
        expected = max(
            0.0, 2.0 * max(params.alpha, params.beta, params.gamma, params.delta) - 1.0
        )
        assert es.concurrence_x(x) == pytest.approx(expected, abs=1e-12)


def test_bell_diagonal_rejects_bad_weights():
    with pytest.raises(ValueError):
        es.BellDiagonalParams(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        es.BellDiagonalParams(0.5, 0.4, 0.2, 0.2)


def test_bell_diagonal_stack_matches_scalar_draws():
    stack = es.random_bell_diagonal([_rng(s) for s in range(20, 30)])
    scalar = [es.random_bell_diagonal(_rng(s)) for s in range(20, 30)]
    assert np.array_equal(stack, [[p.alpha, p.beta, p.gamma, p.delta] for p in scalar])
    diag, coh = bell_diagonal_x(stack)
    for n, params in enumerate(scalar):
        d, c = params.to_x_state().to_stack()
        assert np.array_equal(d[0], diag[n]) and np.array_equal(c[0], coh[n])


def test_bell_diagonal_stack_is_checked_as_a_whole():
    class Skewed:
        def __init__(self, seed):
            self.g = _rng(seed)

        def dirichlet(self, alpha):
            return self.g.dirichlet(alpha) * 1.5

    with pytest.raises(ValueError, match=r"^weights must sum to 1, got \("):
        es.random_bell_diagonal([_rng(1), Skewed(2)])


def test_random_x_states_are_valid():
    rng = _rng(10)
    for _ in range(500):
        x = es.random_x_state(rng)
        x.to_density_matrix().validate()


def test_rank2_bell_mixture():
    sigma = es.rank2_bell_mixture(0.9)
    assert es.numerical_rank(sigma) == 2
    assert es.concurrence(sigma) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValueError):
        es.rank2_bell_mixture(1.2)


def test_ensemble_determinism_across_generators():
    a = es.random_bures(_rng(99)).mat
    b = es.random_bures(_rng(99)).mat
    assert np.array_equal(a, b)
