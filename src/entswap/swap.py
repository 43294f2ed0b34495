"""Closed-form entanglement swapping of two-qubit states.

Mode convention: the first input state occupies modes (1, 2), the second
modes (3, 4); the Bell-state measurement acts on modes (2, 3) and the
output state lives on modes (1, 4).

Each measurement outcome carries a normalization constant; the
conditional output state is the projected operator divided by it, and
the outcome probability is half the constant. The four constants of any
unit-trace input pair sum to 2, so the probabilities sum to 1.

The stacked routes return only unnormalized outputs and probabilities;
every route, scalar ones as batches of one, conditions through
qstate.conditional_states (conditional_x_states for X stacks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ImpossibleOutcome and NORMALIZATION_FLOOR stay importable from here
from .qstate import (  # noqa: F401
    NORMALIZATION_FLOOR,
    BellLabel,
    DensityMatrix,
    ImpossibleOutcome,
    _trace,
    bell_vector,
    conditional_states,
    conditional_x_states,
    refuse_impossible,
    validate_x_batch,
)

_OUTCOMES = tuple(BellLabel)


def _kernel_tables():
    # Outcome k projects modes (2, 3) onto the two nonzero amplitudes
    # amps[k, t] of its Bell vector, at polarizations (p, q) = divmod(terms,
    # 2), H=0 / V=1. Term pair (ket t, bra u) reads a[2 m1 + p_t, 2 m1' + p_u]
    # and b[2 q_t + m4, 2 q_u + m4']; tables are laid out [t, u, k, m, m'].
    vecs = np.array([bell_vector(label) for label in _OUTCOMES]).real
    terms = np.array([np.flatnonzero(v) for v in vecs])
    (p, q), amps = np.divmod(terms, 2), np.take_along_axis(vecs, terms, axis=1)
    t, u, k, m, mp = np.ix_(range(2), range(2), range(4), range(2), range(2))
    return ((2 * m + p[k, t]) * 4 + 2 * mp + p[k, u],
            (2 * q[k, t] + m) * 4 + 2 * q[k, u] + mp,
            (amps.T[:, None] * amps.T[None, :])[..., None, None, None, None])


_GATHER_A, _GATHER_B, _WEIGHTS = _kernel_tables()

# X-state kernel, per outcome: the order in which it reads A's populations
# and coherences (the psi outcomes exchange the parity partners c11 <-> c22,
# c33 <-> c44 and c14 <-> c23) and the sign of the output coherences.
_X_TABLE = {
    BellLabel.PSI_PLUS: ((1, 0, 3, 2), (1, 0), 1.0),
    BellLabel.PSI_MINUS: ((1, 0, 3, 2), (1, 0), -1.0),
    BellLabel.PHI_PLUS: ((0, 1, 2, 3), (0, 1), 1.0),
    BellLabel.PHI_MINUS: ((0, 1, 2, 3), (0, 1), -1.0),
}
_X_DIAG, _X_COH, _X_SIGN = map(np.array, zip(*(_X_TABLE[k] for k in _OUTCOMES)))


@dataclass(frozen=True)
class SwapResult:
    """Output state on modes (1, 4) together with its outcome probability.

    ``state`` is None only for zero-probability outcomes reported by
    swap_all_outcomes.
    """

    state: "DensityMatrix | None"
    probability: float
    outcome: BellLabel


def swap_batch(a, b, outcomes: slice = slice(None)) -> "tuple[np.ndarray, np.ndarray]":
    """The K outcomes that the slice ``outcomes`` selects (default all four)
    for a stack of input pairs a, b of shape (N, 4, 4).

    Returns the unnormalized operators on modes (1, 4) left by projecting
    modes (2, 3) of a (x) b onto each Bell state, shape (N, K, 4, 4)
    indexed [sample, outcome (BellLabel order), row, col], and their
    traces, the outcome probabilities (N, K). Each entry is the four-term
    bilinear combination of input entries given by the two Bell
    amplitudes, summed in a fixed order so it is reproducible bit for bit.
    """
    slab_a = np.asarray(a).reshape(-1, 16)[:, _GATHER_A[:, :, outcomes]]  # [n, t, u, k, m1, m1']
    slab_b = np.asarray(b).reshape(-1, 16)[:, _GATHER_B[:, :, outcomes]]  # [n, t, u, k, m4, m4']
    out = np.zeros((len(slab_a), slab_a.shape[3], 2, 2, 2, 2), dtype=complex)
    # out[n, k, m1, m4, m1', m4'], one term pair (t, u) at a time: no temporary outgrows it
    for t in range(2):
        for u in range(2):
            term = slab_a[:, t, u, :, :, None, :, None] * slab_b[:, t, u, :, None, :, None, :]
            term *= _WEIGHTS[t, u, outcomes]
            out += term
    raw = out.reshape(out.shape[:2] + (4, 4))
    return raw, _trace(raw).real


def swap_x_batch(a, b):
    """swap_batch for X stacks a, b (see qstate.validate_x_batch) of N input
    pairs; swapping X-states closes within the X family.

    Returns the unnormalized output X stack (diag (N, 4, 4), coh (N, 4, 2))
    indexed [sample, outcome (BellLabel order), entry], whose traces are
    twice the outcome probabilities, and those probabilities (N, 4); real
    coherences stay real.
    """
    (diag_a, coh_a), (diag_b, coh_b) = a, b
    pa = diag_a[:, _X_DIAG].reshape(-1, 4, 2, 2)  # [n, k, i, p]: A[2i + p], outcome k's order
    pb = diag_b.reshape(-1, 1, 2, 2)  # [n, -, p, j]: B[2p + j]
    # output population 2i + j is A[2i] B[j] + A[2i + 1] B[2 + j]; every sum
    # keeps the closed form's operand order, so results are reproducible
    diag = pa[..., 0, None] * pb[..., None, 0, :] + pa[..., 1, None] * pb[..., None, 1, :]
    sum_a, sum_b = pa[..., 0, :] + pa[..., 1, :], pb[..., 0] + pb[..., 1]
    norm = sum_a[..., 0] * sum_b[..., 0] + sum_a[..., 1] * sum_b[..., 1]
    pc, cb = coh_a[:, _X_COH], coh_b[:, None]
    coh = _X_SIGN[:, None] * (pc[..., :1] * cb + pc[..., 1:] * cb[..., ::-1].conj())
    return (diag.reshape(-1, 4, 4), coh), norm / 2.0


def _conditioned(condition, out, prob: np.ndarray, outcome: BellLabel):
    """condition (conditional_states or conditional_x_states) of one output
    of probability prob (1,): the stack of one, its eigenvalues and the
    probability; raises ImpossibleOutcome when the outcome is impossible."""
    possible, state, eigs = condition(out, prob)
    refuse_impossible(possible, prob, outcome)
    return state, eigs, float(prob[0])


def _swap_one(route, rho_a: DensityMatrix, rho_b: DensityMatrix, outcome: BellLabel) -> SwapResult:
    """One outcome of a stacked route on the pair as a batch of one."""
    k = _OUTCOMES.index(outcome)
    raw, prob = route(rho_a.mat[None], rho_b.mat[None])
    states, eigs, probability = _conditioned(conditional_states, raw[:, k], prob[:, k], outcome)
    return SwapResult(DensityMatrix._checked(states[0], eigs[0]), probability, outcome)


def swap_general(
    rho_a: DensityMatrix, rho_b: DensityMatrix, outcome: BellLabel
) -> SwapResult:
    """Swap two arbitrary two-qubit states for one measurement outcome.

    Raises ImpossibleOutcome when the outcome's normalization is at or
    below NORMALIZATION_FLOOR.
    """
    return _swap_one(swap_batch, rho_a, rho_b, outcome)


def swap_x_params(x_a, x_b, outcome: BellLabel):
    """swap_general for one pair of X states x = (diag (4,), coh (2,)) (see
    qstate.validate_x_batch), each validated, as swap_x_batch's batch of
    one. Returns the output X state (diag, coh) and its probability.

    Raises ImpossibleOutcome on a vanishing normalization.
    """
    k = _OUTCOMES.index(outcome)
    a, b = ((np.asarray(d, dtype=float)[None], np.asarray(c)[None]) for d, c in (x_a, x_b))
    validate_x_batch(*a)
    validate_x_batch(*b)
    (diag, coh), prob = swap_x_batch(a, b)
    (diag, coh), _, probability = _conditioned(conditional_x_states, (diag[:, k], coh[:, k]),
                                               prob[:, k], outcome)
    return (diag[0], coh[0]), probability


def swap_all_outcomes(rho_a: DensityMatrix, rho_b: DensityMatrix) -> "list[SwapResult]":
    """Evaluate all four measurement outcomes.

    Zero-probability outcomes are carried with probability 0.0 and no
    state instead of raising, so the four probabilities always sum to 1
    (within roundoff).
    """
    raw, prob = swap_batch(rho_a.mat[None], rho_b.mat[None])
    possible, states, eigs = conditional_states(raw, prob)
    checked = map(DensityMatrix._checked, states, eigs)
    return [
        SwapResult(state=next(checked), probability=float(p), outcome=outcome)
        if ok else SwapResult(state=None, probability=0.0, outcome=outcome)
        for outcome, ok, p in zip(_OUTCOMES, possible[0], prob[0])
    ]


# The oracle's compressions V_k = I2 (x) <B_k| (x) I2 (4, 4, 16) [outcome, row,
# col], from four-qubit index 8*m1 + 4*m2 + 2*m3 + m4 (mode 1 most significant)
# to output index 2*m1 + m4, built from the Bell vectors alone.
_V = np.array([np.kron(np.kron(np.eye(2), bell_vector(label).conj()[None]), np.eye(2))
               for label in _OUTCOMES])


def swap_oracle_batch(a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Brute-force reference with swap_batch's contract: form each pair's
    16x16 joint state a (x) b on modes (1, 2, 3, 4) and compress it to
    modes (1, 4) as V_k (a (x) b) V_k^dag for each outcome k, the Bell
    projection of modes (2, 3) and their partial trace in one step.

    Returns the unnormalized outputs (N, 4, 4, 4) and their traces, the
    outcome probabilities (N, 4). Kept deliberately independent of
    swap_batch's gather tables so the two can cross-check each other.
    """
    a, b = np.asarray(a), np.asarray(b)
    joint = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, 16, 16)
    raw = _V @ joint[:, None] @ _V.conj().swapaxes(-1, -2)
    return raw, _trace(raw).real


def swap_oracle_16(
    rho_a: DensityMatrix, rho_b: DensityMatrix, outcome: BellLabel
) -> SwapResult:
    """swap_general through swap_oracle_batch, whose batch of one it is."""
    return _swap_one(swap_oracle_batch, rho_a, rho_b, outcome)
