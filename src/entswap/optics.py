"""Beamsplitter model of the Bell-state measurement.

An independent physical route to the psi- swap outcome: the photons in
modes 2 and 3 enter the two ports of a beamsplitter and a coincidence
measurement post-selects on one photon per output port. Only the singlet
anti-bunches, so a coincidence heralds the psi- projection.

The two-photon mode space is 10-dimensional, ordered as six bunched
states followed by four coincidence states:

    aHaH, aVaV, aHaV, bHbH, bVbV, bHbV, aHbH, aHbV, aVbH, aVbV

where a and b are the output ports and H/V the polarization. Doubly
occupied states carry the bosonic 1/sqrt(2) normalization so the
beamsplitter action is exactly unitary on this space.
"""

from __future__ import annotations

import functools

import numpy as np

from .qstate import BellLabel, DensityMatrix, validate_batch
from .swap import SwapResult

MODE_LABELS = (
    "aHaH", "aVaV", "aHaV", "bHbH", "bVbV", "bHbV",
    "aHbH", "aHbV", "aVbH", "aVbV",
)
N_BUNCHED = 6
N_COINCIDENCE = 4

# Single-photon modes aH, aV, bH, bV = 0..3; two-photon basis as
# unordered pairs, in the MODE_LABELS order.
_PAIRS = ((0, 0), (1, 1), (0, 1), (2, 2), (3, 3), (2, 3),
          (0, 2), (0, 3), (1, 2), (1, 3))
_PAIR_INDEX = {pair: i for i, pair in enumerate(_PAIRS)}


# A coincidence probability at or below this is treated as no coincidence:
# the post-selected state 0/0 carries no information.
COINCIDENCE_FLOOR = 1e-12


class NoCoincidence(Exception):
    """The coincidence probability vanishes: both photons always bunch."""

    def __init__(self, probability: float):
        self.probability = probability
        super().__init__(
            f"coincidence probability {probability:.3e} <= {COINCIDENCE_FLOOR}; "
            "no post-selected state exists"
        )


def _single_photon_map(eta: float) -> np.ndarray:
    """Creation-operator map of a beamsplitter with reflectivity eta.

    a_i -> i sqrt(eta) a_i + sqrt(1-eta) b_i and
    b_j -> sqrt(1-eta) a_j + i sqrt(eta) b_j, polarization preserved.
    """
    r = 1j * np.sqrt(eta)
    t = np.sqrt(1.0 - eta)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = r; m[2, 0] = t   # aH
    m[1, 1] = r; m[3, 1] = t   # aV
    m[0, 2] = t; m[2, 2] = r   # bH
    m[1, 3] = t; m[3, 3] = r   # bV
    return m


@functools.lru_cache(maxsize=16)
def beamsplitter_unitary(eta: float) -> np.ndarray:
    """10x10 unitary action of the beamsplitter on the two-photon space,
    cached per reflectivity and read-only."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"reflectivity must lie strictly in (0, 1), got {eta}")
    single = _single_photon_map(eta)
    u = np.zeros((10, 10), dtype=complex)
    sqrt2 = np.sqrt(2.0)
    for col, (c, d) in enumerate(_PAIRS):
        # |c,c> = (c^dag)^2 |0> / sqrt(2); |c,d> = c^dag d^dag |0> for c != d
        prefactor = (1.0 / sqrt2) if c == d else 1.0
        for e in range(4):
            for f in range(4):
                amp = prefactor * single[e, c] * single[f, d]
                if e == f:
                    u[_PAIR_INDEX[(e, e)], col] += amp * sqrt2
                else:
                    key = (e, f) if e < f else (f, e)
                    u[_PAIR_INDEX[key], col] += amp
    u.setflags(write=False)
    return u


def coincidence_isometry() -> np.ndarray:
    """10x4 isometry K embedding the (mode 2, mode 3) qubit pair into the
    coincidence block: |ij> -> |i_a j_b>. Satisfies K^dag K = I_4 and
    K K^dag = coincidence projector."""
    k = np.zeros((10, 4), dtype=complex)
    for i in range(4):
        k[N_BUNCHED + i, i] = 1.0
    return k


def coincidence_projector() -> np.ndarray:
    """10x10 projector onto the coincidence subspace (zero on bunched states)."""
    k = coincidence_isometry()
    return k @ k.conj().T


def bsm_operator(eta: float) -> np.ndarray:
    """The 4x4 compression K^dag U_BS K of the beamsplitter onto the qubit pair.

    At eta = 1/2 it equals -|psi-><psi-|: the three symmetric Bell states
    bunch and only the singlet survives post-selection.
    """
    k = coincidence_isometry()
    return k.conj().T @ beamsplitter_unitary(eta) @ k


def swap_via_beamsplitter_batch(
    a: np.ndarray, b: np.ndarray, eta: float, where=None
) -> "tuple[np.ndarray, np.ndarray]":
    """The beamsplitter + coincidence swap of each input pair of the
    stacks a (modes 1, 2) and b (modes 3, 4), shape (N, 4, 4).

    With the 10x4 factor F = P U_BS K that embeds modes (2, 3) into the
    mode space, applies the beamsplitter and post-selects a coincidence,
    the post-selected joint state is F G F^dag for the joint state G of
    each pair. Its trace over the mode space contracts G's (mode 2,
    mode 3) factor with the Gram matrix F^dag F, so the mode-space array
    is never formed. Returns the output states on modes (1, 4), checked
    with validate_batch (``where(n)`` names a failing sample), and the
    coincidence probabilities (N,).

    At eta = 1/2 the result equals swap_general(rho_a, rho_b, psi-) in
    both state and probability. Raises NoCoincidence for the first pair
    whose coincidence probability is at or below COINCIDENCE_FLOOR.
    """
    f = coincidence_projector() @ beamsplitter_unitary(eta) @ coincidence_isometry()
    gram = (f.conj().T @ f).reshape(2, 2, 2, 2)  # [m2', m3', m2, m3]
    # a[n, m1, m2, m1', m2'] and b[n, m3, m4, m3', m4'] -> out[n, m1, m4, m1', m4']
    out = np.einsum("fgbc,nabef,ncdgh->nadeh", gram, np.reshape(a, (-1, 2, 2, 2, 2)),
                    np.reshape(b, (-1, 2, 2, 2, 2)), optimize=True)
    out = out.reshape(-1, 4, 4)
    probability = out.trace(axis1=-2, axis2=-1).real
    low = probability <= COINCIDENCE_FLOOR  # NaN stays, for validation
    if low.any():
        raise NoCoincidence(float(probability[np.argmax(low)]))
    states = out / probability[:, None, None]
    validate_batch(states, where)
    return states, probability


def swap_via_beamsplitter(
    rho_a: DensityMatrix, rho_b: DensityMatrix, eta: float = 0.5
) -> SwapResult:
    """Entanglement swap of one pair via the beamsplitter + coincidence
    model; swap_via_beamsplitter_batch with a batch of 1."""
    states, probability = swap_via_beamsplitter_batch(rho_a.mat[None], rho_b.mat[None], eta)
    # validated as a stack
    return SwapResult(
        state=DensityMatrix(states[0], validate=False),
        probability=float(probability[0]),
        outcome=BellLabel.PSI_MINUS,
    )
