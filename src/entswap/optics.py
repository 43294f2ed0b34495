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

from .qstate import BellLabel, DensityMatrix
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


class NoCoincidence(Exception):
    """The coincidence probability vanishes: both photons always bunch."""

    def __init__(self, probability: float):
        self.probability = probability
        super().__init__(
            f"coincidence probability {probability:.3e} <= 1e-12; "
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


@functools.lru_cache(maxsize=16)
def _lifted_operators(eta: float) -> tuple:
    """W = K (x) I_14 with W^dag, U_BS (x) I_14 with its adjoint, and the
    coincidence projector (x) I_14, cached per reflectivity and read-only."""
    w, u, proj = (np.kron(op, np.eye(4)) for op in (
        coincidence_isometry(), beamsplitter_unitary(eta), coincidence_projector()))
    ops = (w, w.conj().T, u, u.conj().T, proj)
    for op in ops:
        op.setflags(write=False)
    return ops


def _reorder_1234_to_2314(rho16: np.ndarray) -> np.ndarray:
    # (m1,m2,m3,m4) -> (m2,m3,m1,m4) on both bra and ket indices
    r8 = rho16.reshape([2] * 8)
    return r8.transpose(1, 2, 0, 3, 5, 6, 4, 7).reshape(16, 16)


def swap_via_beamsplitter(
    rho_a: DensityMatrix, rho_b: DensityMatrix, eta: float = 0.5
) -> SwapResult:
    """Entanglement swap via the physical beamsplitter + coincidence model.

    Steps: embed modes (2, 3) into the 10-dim mode space with
    W = K (x) I_14, apply the beamsplitter unitary, project onto the
    coincidence subspace, map back with W^dag, trace out modes (2, 3)
    and normalize by the coincidence probability.

    At eta = 1/2 the result equals swap_general(rho_a, rho_b, psi-) in
    both state and probability. Raises NoCoincidence when the
    coincidence probability is at or below 1e-12.
    """
    w, w_dag, u, u_dag, proj = _lifted_operators(eta)
    joint = np.kron(rho_a.mat, rho_b.mat)          # modes (1,2,3,4)
    grouped = _reorder_1234_to_2314(joint)         # (H2 x H3) x (H1 x H4)
    in_mode_space = w @ grouped @ w_dag
    after_bs = u @ in_mode_space @ u_dag
    post_selected = proj @ after_bs @ proj
    probability = float(post_selected.trace().real)
    if probability <= 1e-12:
        raise NoCoincidence(probability)
    back = w_dag @ post_selected @ w / probability
    # trace out the (mode 2, mode 3) factor
    reduced = np.einsum("iaib->ab", back.reshape(4, 4, 4, 4))
    return SwapResult(
        state=DensityMatrix(reduced),
        probability=probability,
        outcome=BellLabel.PSI_MINUS,
    )
