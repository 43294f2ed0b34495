"""Random states, matrices and parameter sets with deterministic seeding.

All generators draw from an explicit numpy Generator so that a fixed
(seed, stream id) pair reproduces identical samples on every run and on
any worker layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import (BellLabel, DensityMatrix, bell_vector, pure_batch, validate_x_batch,
                     x_matrices)


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    ``generator()`` yields the stream's own generator; ``substream(i)``
    derives an independent generator keyed by (seed, stream_id, i). The
    experiments key one per draw chunk by its first sample index, so
    draws are reproducible no matter how the chunks are spread across
    workers.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream_id))

    def substream(self, index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream_id, index))


def ginibre(rng: np.random.Generator, n: int, k: int, size: "int | None" = None) -> np.ndarray:
    """n x k matrix with i.i.d. entries N(0,1) + i N(0,1).

    Each complex entry has E[z] = 0 and E[|z|^2] = 2 under this
    convention (both quadratures carry unit variance). An int ``size``
    gives a (size, n, k) stack.
    """
    if n < 1 or k < 1:
        raise ValueError("matrix dimensions must be positive")
    shape = (n, k) if size is None else (size, n, k)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng: np.random.Generator, n: int, size: "int | None" = None) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a Ginibre matrix.

    The raw QR factor is not Haar; multiplying each column by the phase
    of the matching diagonal entry of R removes the convention
    dependence and restores the invariant distribution. An int ``size``
    gives a (size, n, n) stack, factored in one stacked call.
    """
    q, r = np.linalg.qr(ginibre(rng, n, n, size))
    diag = r.diagonal(axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _normalized(m: np.ndarray, size: "int | None"):
    # unit trace; a validated state, or for an int size the raw stack
    m = m / m.trace(axis1=-2, axis2=-1).real[..., None, None]
    return DensityMatrix(m) if size is None else m


def random_induced(rng: np.random.Generator, k: int = 4, *, size: "int | None" = None):
    """Random two-qubit density matrix from the induced measure with
    ancilla size k.

    Computed as G G^dag / tr(G G^dag) for a 4 x k Ginibre G; the result
    has rank exactly k, and k = 4 gives the Hilbert-Schmidt ensemble. An
    int ``size`` gives the unvalidated (size, 4, 4) stack.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"ancilla size k must lie in 1..4, got {k}")
    g = ginibre(rng, 4, k, size)
    return _normalized(g @ g.conj().swapaxes(-1, -2), size)


def random_bures(rng: np.random.Generator, *, size: "int | None" = None):
    """Random two-qubit density matrix from the Bures measure:
    (1+U) G G^dag (1+U^dag) normalized, with U Haar and G Ginibre.
    An int ``size`` gives the unvalidated (size, 4, 4) stack."""
    g = ginibre(rng, 4, 4, size)
    u = haar_unitary(rng, 4, size)
    a = (np.eye(4) + u) @ g
    return _normalized(a @ a.conj().swapaxes(-1, -2), size)


def random_pure(rng: np.random.Generator, size: "int | None" = None) -> np.ndarray:
    """Haar-random pure two-qubit state: a normalized complex Gaussian
    vector, whose distribution is unitarily invariant (a (size, 4) stack
    for an int ``size``)."""
    v = ginibre(rng, 4, 1, size)[..., 0]
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _check_weights(w: np.ndarray) -> None:
    # Bell mixing weights (..., 4) are nonnegative and sum to 1; names the first bad row
    total = w[..., 0] + w[..., 1] + w[..., 2] + w[..., 3]
    # negated bounds, so that NaN fails them
    low = np.minimum(np.minimum(w[..., 0], w[..., 1]), np.minimum(w[..., 2], w[..., 3]))
    for bad, rule in ((~(low >= -1e-12), "be nonnegative"),
                      (~(np.abs(total - 1.0) <= 1e-12), "sum to 1")):
        if bad.any():
            row = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"weights must {rule}, got {tuple(w[row].tolist())}")


def bell_diagonal_x(weights: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """X stack (diag, coh) of Bell mixtures with weights (..., 4) of psi+,
    psi-, phi+, phi-: psi+/- populate the inner parity block, phi+/- the
    outer one."""
    w = np.asarray(weights, dtype=float)
    return (0.5 * (w[..., [2, 0, 0, 2]] + w[..., [3, 1, 1, 3]]),
            0.5 * (w[..., [2, 0]] - w[..., [3, 1]]))


def random_bell_diagonal(rng: np.random.Generator, size: "int | None" = None) -> np.ndarray:
    """Uniform sample from the 3-simplex of Bell mixing weights (see
    bell_diagonal_x): checked (4,) weights, or for an int ``size`` the
    (size, 4) stack, checked once as a whole."""
    w = rng.dirichlet(np.ones(4), size)
    _check_weights(w)
    return w


def random_x_state(rng: np.random.Generator, size: "int | None" = None):
    """Random X-state: Dirichlet diagonal, coherences uniform within the
    positivity disks of the two parity blocks, phases uniform: the checked
    X state (diag (4,), coh (2,)), or for an int ``size`` the X stack
    (diag, coh), checked once as a whole."""
    diag = rng.dirichlet(np.ones(4), size)
    radii = rng.uniform(size=diag.shape[:-1] + (2,))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=radii.shape)
    # the disks of (c14, c23) have radii sqrt(c11 c44), sqrt(c22 c33)
    coh = radii * np.sqrt(diag[..., :2] * diag[..., 3:1:-1]) * np.exp(1j * phases)
    validate_x_batch(diag, coh)
    return diag, coh


def rank2_bell_mixtures(alphas: np.ndarray) -> np.ndarray:
    """The unvalidated (N, 4, 4) stack alpha |psi+><psi+| +
    (1-alpha) |psi-><psi-| over mixing weights ``alphas`` (N,)."""
    va, vb = bell_vector(BellLabel.PSI_PLUS), bell_vector(BellLabel.PSI_MINUS)
    return (alphas[:, None, None] * np.outer(va, va.conj())
            + (1.0 - alphas)[:, None, None] * np.outer(vb, vb.conj()))


def rank2_bell_mixture(alpha: float) -> DensityMatrix:
    """alpha |psi+><psi+| + (1-alpha) |psi-><psi-|, a rank-2 state with
    concurrence |2 alpha - 1|."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {alpha}")
    return DensityMatrix(rank2_bell_mixtures(np.array([alpha]))[0])


# Each state ensemble by name: (generator, n) to the unvalidated (n, 4, 4)
# stack of n states drawn from it.
STATE_ENSEMBLES = {
    "bures": lambda rng, n: random_bures(rng, size=n),
    **{f"induced-{k}": lambda rng, n, k=k: random_induced(rng, k, size=n) for k in range(1, 5)},
    "pure": lambda rng, n: pure_batch(random_pure(rng, n)),
    "bell-diagonal": lambda rng, n: x_matrices(*bell_diagonal_x(random_bell_diagonal(rng, n))),
    "x": lambda rng, n: x_matrices(*random_x_state(rng, n)),
}
