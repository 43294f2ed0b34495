"""Closed-form entanglement swapping of two-qubit states.

Mode convention: the first input state occupies modes (1, 2), the second
modes (3, 4); the Bell-state measurement acts on modes (2, 3) and the
output state lives on modes (1, 4).

Each measurement outcome carries a normalization constant; the
conditional output state is the projected operator divided by it, and
the outcome probability is half the constant. The four constants of any
unit-trace input pair sum to 2, so the probabilities sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import (
    BellLabel,
    DensityMatrix,
    XState,
    bell_vector,
    partial_trace_23,
    tensor,
    validate_batch,
    validate_x_batch,
)

# A normalization at or below this is treated as an impossible outcome:
# the conditional state 0/0 carries no information.
NORMALIZATION_FLOOR = 1e-12

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


class ImpossibleOutcome(Exception):
    """The requested measurement outcome has (numerically) zero probability."""

    def __init__(self, outcome: BellLabel, normalization: float):
        self.outcome = outcome
        self.normalization = normalization
        super().__init__(
            f"outcome {outcome} has normalization {normalization:.3e} "
            f"<= {NORMALIZATION_FLOOR}; the conditional state is undefined"
        )


@dataclass(frozen=True)
class SwapResult:
    """Output state on modes (1, 4) together with its outcome probability.

    ``state`` is None only for zero-probability outcomes reported by
    swap_all_outcomes.
    """

    state: "DensityMatrix | None"
    probability: float
    outcome: BellLabel


def swap_batch(a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """All four outcomes for a stack of input pairs a, b of shape (N, 4, 4).

    Returns the unnormalized operators on modes (1, 4) left by projecting
    modes (2, 3) of a (x) b onto each Bell state, shape (N, 4, 4, 4)
    indexed [sample, outcome (BellLabel order), row, col], and their
    traces, the outcome probabilities (N, 4). Each entry is the four-term
    bilinear combination of input entries given by the two Bell
    amplitudes, summed in a fixed order so it is reproducible bit for bit.
    """
    slab_a = np.asarray(a).reshape(-1, 16)[:, _GATHER_A]  # [n, t, u, k, m1, m1']
    slab_b = np.asarray(b).reshape(-1, 16)[:, _GATHER_B]  # [n, t, u, k, m4, m4']
    terms = slab_a[..., :, None, :, None] * slab_b[..., None, :, None, :]
    terms *= _WEIGHTS
    out = np.zeros((len(terms), 4, 2, 2, 2, 2), dtype=complex)  # [n, k, m1, m4, m1', m4']
    for t in range(2):
        for u in range(2):
            out += terms[:, t, u]
    raw = out.reshape(-1, 4, 4, 4)
    return raw, raw.trace(axis1=-2, axis2=-1).real


def _flat_where(possible: np.ndarray, where):
    # names the j-th selected state, in row-major mask order, as where(n, k)
    if where is None:
        return None
    rows = np.argwhere(possible)
    return lambda j: where(*rows[j])


def conditional_states(raw: np.ndarray, prob: np.ndarray, where=None):
    """Normalize and validate, as one stack, the outcomes of swap_batch
    (or of a selection of its K outcome columns) whose normalization, twice
    the probability, exceeds NORMALIZATION_FLOOR.

    Returns their (N, K) mask, their states (M, 4, 4) in row-major mask
    order and the states' descending eigenvalues (M, 4); ``where(n, k)``
    names a state that fails validation, at tolerances divided by its
    probability.
    """
    possible = ~(2.0 * prob <= NORMALIZATION_FLOOR)  # NaN stays, for validation
    kept = prob[possible]
    states = raw[possible] / kept[:, None, None]
    return possible, states, validate_batch(states, _flat_where(possible, where), kept)


def swap_x_batch(a, b):
    """All four outcomes for X stacks a, b (see qstate.validate_x_batch) of
    N input pairs; swapping X-states closes within the X family.

    Returns the normalizations (N, 4), twice the outcome probabilities, and
    the unnormalized output X stack (diag (N, 4, 4), coh (N, 4, 2)) indexed
    [sample, outcome (BellLabel order), entry]; real coherences stay real.
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
    return norm, (diag.reshape(-1, 4, 4), coh)


def conditional_x_states(norm: np.ndarray, out, where=None):
    """conditional_states for swap_x_batch: the (N, 4) mask of outcomes whose
    normalization exceeds NORMALIZATION_FLOOR and their validated X stack
    (M, 4), (M, 2) in row-major mask order, at tolerances carried by the
    outcome probabilities."""
    possible = ~(norm <= NORMALIZATION_FLOOR)
    kept = norm[possible]
    x = out[0][possible] / kept[:, None], out[1][possible] / kept[:, None]
    validate_x_batch(*x, _flat_where(possible, where), kept / 2.0)
    return possible, x


def swap_general(
    rho_a: DensityMatrix, rho_b: DensityMatrix, outcome: BellLabel
) -> SwapResult:
    """Swap two arbitrary two-qubit states for one measurement outcome.

    Raises ImpossibleOutcome when the outcome's normalization is at or
    below NORMALIZATION_FLOOR.
    """
    k = _OUTCOMES.index(outcome)
    raw, prob = swap_batch(rho_a.mat[None], rho_b.mat[None])
    probability = float(prob[0, k])
    if 2.0 * probability <= NORMALIZATION_FLOOR:
        raise ImpossibleOutcome(outcome, 2.0 * probability)
    state = raw[0, k] / probability
    eigs = validate_batch(state, prob=probability)
    return SwapResult(DensityMatrix._checked(state, eigs), probability, outcome)


def swap_x_params(
    chi_a: XState, chi_b: XState, outcome: BellLabel
) -> "tuple[XState, float]":
    """X-state fast path; returns the output X parameters and probability.

    Raises ImpossibleOutcome on a vanishing normalization.
    """
    norm, (diag, coh) = swap_x_batch(chi_a.to_stack(), chi_b.to_stack())
    k = _OUTCOMES.index(outcome)
    n = norm[0, k]
    if n <= NORMALIZATION_FLOOR:
        raise ImpossibleOutcome(outcome, n)
    diag, coh = diag[0, k] / n, coh[0, k] / n
    validate_x_batch(diag[None], coh[None], prob=n / 2.0)
    return XState._checked(diag, coh), n / 2.0


def swap_x(chi_a: XState, chi_b: XState, outcome: BellLabel) -> SwapResult:
    """Swap two X-states; identical to swap_general on the embedded matrices."""
    out, probability = swap_x_params(chi_a, chi_b, outcome)
    mat = out.to_matrix()
    eigs = validate_batch(mat, prob=probability)
    return SwapResult(DensityMatrix._checked(mat, eigs), probability, outcome)


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


def bell_projector_16(outcome: BellLabel) -> np.ndarray:
    """16x16 projector onto a Bell state of modes (2, 3), identity on (1, 4)."""
    bell23 = np.outer(bell_vector(outcome), bell_vector(outcome).conj()).reshape(
        2, 2, 2, 2
    )
    eye2 = np.eye(2)
    # index order (m1, m2, m3, m4, m1', m2', m3', m4')
    proj = np.einsum("ae,bcfg,dh->abcdefgh", eye2, bell23, eye2)
    return proj.reshape(16, 16)


def swap_oracle_16(
    rho_a: DensityMatrix, rho_b: DensityMatrix, outcome: BellLabel
) -> SwapResult:
    """Brute-force reference: project the full 16x16 joint state and trace.

    Builds rho_a (x) rho_b on modes (1, 2, 3, 4), applies the explicit
    Bell projector on modes (2, 3), traces those modes out and
    normalizes. Kept deliberately independent of swap_general's
    entrywise formulas so the two can cross-check each other.
    """
    joint = tensor(rho_a.mat, rho_b.mat)
    proj = bell_projector_16(outcome)
    projected = proj @ joint @ proj
    probability = float(projected.trace().real)
    if 2.0 * probability <= NORMALIZATION_FLOOR:
        raise ImpossibleOutcome(outcome, 2.0 * probability)
    reduced = partial_trace_23(projected) / probability
    eigs = validate_batch(reduced, prob=probability)
    return SwapResult(DensityMatrix._checked(reduced, eigs), probability, outcome)
