"""Random states, matrices and parameter sets with deterministic seeding.

All generators draw from an explicit numpy Generator so that a fixed
(seed, stream id) pair reproduces identical samples on every run and on
any worker layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import BellLabel, DensityMatrix, XState, bell_vector


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    ``generator()`` yields the stream's own generator; ``substream(i)``
    derives an independent generator keyed by (seed, stream_id, i),
    which keeps per-sample draws reproducible no matter how samples are
    partitioned across workers.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream_id))

    def substream(self, index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream_id, index))


def ginibre(rng, n: int, k: int) -> np.ndarray:
    """n x k matrix with i.i.d. entries N(0,1) + i N(0,1).

    Each complex entry has E[z] = 0 and E[|z|^2] = 2 under this
    convention (both quadratures carry unit variance). ``rng`` is a
    Generator, or a sequence of them for an (N, n, k) stack with one
    matrix drawn from each.
    """
    if n < 1 or k < 1:
        raise ValueError("matrix dimensions must be positive")
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return np.stack([ginibre(g, n, k) for g in rng])


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a Ginibre matrix.

    The raw QR factor is not Haar; multiplying each column by the phase
    of the matching diagonal entry of R removes the convention
    dependence and restores the invariant distribution. A sequence of
    generators gives an (N, n, n) stack, factored in one stacked call.
    """
    q, r = np.linalg.qr(ginibre(rng, n, n))
    diag = r.diagonal(axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _normalized(rng, m: np.ndarray):
    # unit trace; a validated state for one generator, else the raw stack
    m = m / m.trace(axis1=-2, axis2=-1).real[..., None, None]
    return DensityMatrix(m) if isinstance(rng, np.random.Generator) else m


def random_induced(rng, n: int = 4, k: int = 4):
    """Random density matrix from the induced measure with ancilla size k.

    Computed as G G^dag / tr(G G^dag) for an n x k Ginibre G; the result
    has rank exactly min(n, k), and k = n gives the Hilbert-Schmidt
    ensemble. A sequence of generators gives the unvalidated stack.
    """
    if n != 4:
        raise ValueError("only two-qubit (n=4) states are supported")
    if not 1 <= k <= 4:
        raise ValueError(f"ancilla size k must lie in 1..4, got {k}")
    g = ginibre(rng, n, k)
    return _normalized(rng, g @ g.conj().swapaxes(-1, -2))


def random_bures(rng, n: int = 4):
    """Random density matrix from the Bures measure:
    (1+U) G G^dag (1+U^dag) normalized, with U Haar and G Ginibre.
    A sequence of generators gives the unvalidated stack."""
    if n != 4:
        raise ValueError("only two-qubit (n=4) states are supported")
    g = ginibre(rng, n, n)
    u = haar_unitary(rng, n)
    a = (np.eye(n) + u) @ g
    return _normalized(rng, a @ a.conj().swapaxes(-1, -2))


def random_pure(rng) -> np.ndarray:
    """Haar-random pure two-qubit state: first column of a Haar unitary
    (an (N, 4) stack for a sequence of generators)."""
    return haar_unitary(rng, 4)[..., 0]


def _check_weights(w: np.ndarray) -> None:
    # BellDiagonalParams' invariants on weights (..., 4); names the first bad row
    total = w[..., 0] + w[..., 1] + w[..., 2] + w[..., 3]
    for bad, rule in ((w.min(axis=-1) < -1e-12, "be nonnegative"),
                      (np.abs(total - 1.0) > 1e-12, "sum to 1")):
        if bad.any():
            row = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"weights must {rule}, got {tuple(w[row].tolist())}")


@dataclass(frozen=True)
class BellDiagonalParams:
    """Mixing weights (alpha, beta, gamma, delta) of psi+, psi-, phi+, phi-."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        _check_weights(np.array([self.alpha, self.beta, self.gamma, self.delta]))

    def to_x_state(self) -> XState:
        diag, coh = bell_diagonal_x(np.array([self.alpha, self.beta, self.gamma, self.delta]))
        return XState(*diag, *coh)

    def to_density_matrix(self) -> DensityMatrix:
        return self.to_x_state().to_density_matrix()


def bell_diagonal_x(weights: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """X stack (diag, coh) of Bell mixtures with weights (..., 4) of psi+,
    psi-, phi+, phi-: psi+/- populate the inner parity block, phi+/- the
    outer one."""
    w = np.asarray(weights, dtype=float)
    return (0.5 * (w[..., [2, 0, 0, 2]] + w[..., [3, 1, 1, 3]]),
            0.5 * (w[..., [2, 0]] - w[..., [3, 1]]))


def random_bell_diagonal(rng):
    """Uniform sample from the 3-simplex of Bell mixing weights. A sequence
    of generators gives the (N, 4) weight stack, one draw from each,
    checked once as a whole."""
    if isinstance(rng, np.random.Generator):
        return BellDiagonalParams(*rng.dirichlet(np.ones(4)))
    w = np.array([g.dirichlet(np.ones(4)) for g in rng]).reshape(-1, 4)
    _check_weights(w)
    return w


def random_x_state(rng: np.random.Generator) -> XState:
    """Random X-state: Dirichlet diagonal, coherences uniform within the
    positivity disks of the two parity blocks, phases uniform."""
    d = rng.dirichlet(np.ones(4))
    r14, r23 = rng.uniform(size=2)
    ph14, ph23 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return XState(
        c11=d[0],
        c22=d[1],
        c33=d[2],
        c44=d[3],
        c14=r14 * np.sqrt(d[0] * d[3]) * np.exp(1j * ph14),
        c23=r23 * np.sqrt(d[1] * d[2]) * np.exp(1j * ph23),
    )


def rank2_bell_mixture(alpha: float, first: BellLabel = BellLabel.PSI_PLUS,
                       second: BellLabel = BellLabel.PSI_MINUS) -> DensityMatrix:
    """alpha |first><first| + (1-alpha) |second><second|, a rank-2 state
    with concurrence |2 alpha - 1|."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {alpha}")
    va, vb = bell_vector(first), bell_vector(second)
    mat = alpha * np.outer(va, va.conj()) + (1.0 - alpha) * np.outer(vb, vb.conj())
    return DensityMatrix(mat)
