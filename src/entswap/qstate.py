"""Two-qubit state types, fixed-dimension complex linear algebra, and
entanglement/rank measures.

Basis convention used everywhere in this package: a two-qubit space is
ordered |HH>, |HV>, |VH>, |VV> with H=0, V=1, so the flat index of
|ij> is 2*i + j.
"""

from __future__ import annotations

import enum

import numpy as np

BASIS_LABELS = ("HH", "HV", "VH", "VV")

# Tolerances for structural invariants of a physical state.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
# Relative eigenvalue cutoff for the numerical rank (fraction of the
# largest eigenvalue).
DEFAULT_RANK_TOL = 1e-10
# An outcome whose normalization, twice its probability, is at or below
# this is impossible: its conditional state 0/0 carries no information.
NORMALIZATION_FLOOR = 1e-12

# Multiplication by sigma_y (x) sigma_y, the spin flip of the concurrence,
# is a signed row flip: row i of (YY m) is s_i times row 3 - i of m, with
# signs s = (-1, 1, 1, -1).
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


class ValidationError(ValueError):
    """A matrix failed one of the density-matrix invariants."""


class ImpossibleOutcome(Exception):
    """The requested measurement outcome has (numerically) zero probability;
    ``where``, if given, names the state, as in a ValidationError."""

    def __init__(self, outcome: "BellLabel", normalization: float, where: "str | None" = None):
        self.outcome = outcome
        self.normalization = normalization
        self.where = where
        super().__init__(
            f"outcome {outcome} has normalization {normalization:.3e} "
            f"<= {NORMALIZATION_FLOOR}; the conditional state is undefined"
            + ("" if where is None else f" ({where})")
        )

    def __reduce__(self):
        # args hold only the message, which __init__ does not take
        return type(self), (self.outcome, self.normalization, self.where)


class BellLabel(enum.Enum):
    """The four maximally entangled two-qubit states."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    @classmethod
    def from_string(cls, text: str) -> "BellLabel":
        for label in cls:
            if label.value == text:
                return label
        raise ValueError(
            f"unknown Bell label {text!r}; expected one of "
            f"{[label.value for label in cls]}"
        )

    def __str__(self) -> str:
        return self.value


def bell_vector(label: BellLabel) -> np.ndarray:
    """Amplitude vector of a Bell state in the |HH>,|HV>,|VH>,|VV> basis.

    phi+/- = (|HH> +/- |VV>)/sqrt(2), psi+/- = (|HV> +/- |VH>)/sqrt(2).
    """
    s = 1.0 / np.sqrt(2.0)
    if label is BellLabel.PHI_PLUS:
        return np.array([s, 0, 0, s], dtype=complex)
    if label is BellLabel.PHI_MINUS:
        return np.array([s, 0, 0, -s], dtype=complex)
    if label is BellLabel.PSI_PLUS:
        return np.array([0, s, s, 0], dtype=complex)
    return np.array([0, s, -s, 0], dtype=complex)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


def _raise_first(values: np.ndarray, bad: np.ndarray, message, where) -> None:
    # ValidationError for the first flagged matrix of a stack, if any
    if not bad.any():
        return
    index = np.unravel_index(np.argmax(bad), bad.shape)
    text = message.format(values[index].item())
    if where is not None:
        text += f" ({where(*(int(i) for i in index))})"
    raise ValidationError(text)


def _check_spectrum(traces: np.ndarray, eigs: np.ndarray, weight, where) -> np.ndarray:
    """The trace and eigenvalue checks of validate_batch on the traces (...)
    and ascending eigenvalues (..., 4) of a stack, each deviation weighed by
    ``weight``; returns the eigenvalues in descending order."""
    trace_err = np.abs(traces - 1.0)
    if trace_err.max(initial=0.0) > TRACE_TOL:
        _raise_first(trace_err, trace_err * weight > TRACE_TOL,
                     "trace invariant violated: |tr - 1| = {:.3e}", where)
    if eigs[..., 0].min(initial=np.inf) < EIGENVALUE_FLOOR:
        _raise_first(eigs[..., 0], eigs[..., 0] * weight < EIGENVALUE_FLOOR,
                     "eigenvalue invariant violated: min eigenvalue = {:.3e}", where)
    return eigs[..., ::-1]


def validate_batch(mats: np.ndarray, where=None, prob=None, vectors=False):
    """Check the density-matrix invariants on a stack (..., 4, 4).

    Runs DensityMatrix's finiteness, Hermiticity, trace and eigenvalue
    checks in that order over the whole stack; the first flagged matrix
    raises ValidationError naming the invariant, the offending value and,
    through ``where(*batch_index)`` if given, the input. Returns the
    eigenvalues in descending order, shape (..., 4); with ``vectors``, the
    pair (eigenvalues, eigenvectors) of one eigh, the vectors (..., 4, 4)
    in columns in the same order, which wootters_batch takes. Given the
    outcome probabilities ``prob`` (...) of conditioned states, each
    tolerance is divided by the state's, as conditioning divided its
    roundoff (one above 1 does not tighten it).
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-2:] != (4, 4):
        raise ValidationError(f"shape invariant violated: {mats.shape[-2:]} != (4, 4)")
    # each check first reduces the whole stack against the tightest
    # tolerance (initial= admits an empty one) and locates the culprit only
    # on failure, weighing each deviation by the state's probability
    weight = 1.0 if prob is None else np.minimum(prob, 1.0)
    finite = np.isfinite(mats)
    if not finite.all():
        finite = finite.all(axis=(-2, -1))
        _raise_first(finite, ~finite, "finiteness invariant violated: NaN or Inf entry", where)
    herm_err = np.abs(mats - mats.conj().swapaxes(-1, -2))
    if herm_err.max(initial=0.0) > HERMITICITY_TOL:
        herm_err = herm_err.max(axis=(-2, -1))
        _raise_first(herm_err, herm_err * weight > HERMITICITY_TOL,
                     "hermiticity invariant violated: max |m_ij - conj(m_ji)| = {:.3e}", where)
    # eigvalsh and eigh read one triangle, which Hermiticity (checked
    # above) makes equivalent to the Hermitized matrix to within tolerance
    traces = mats.trace(axis1=-2, axis2=-1)
    if not vectors:
        return _check_spectrum(traces, np.linalg.eigvalsh(mats), weight, where)
    eigs, vecs = np.linalg.eigh(mats)
    return _check_spectrum(traces, eigs, weight, where), vecs[..., ::-1]


def pure_batch(amplitudes: np.ndarray, where=None) -> np.ndarray:
    """Projectors |psi><psi| onto amplitude vectors (..., 4), whose norms
    must be 1 within 1e-12 (else ValidationError, named as in validate_batch).
    The trace and eigenvalue checks of validate_batch then run on the
    closed-form trace ||psi||^2 and spectrum (||psi||^2, 0, 0, 0), with the
    same messages and ``where``. The projector of a unit vector is finite,
    and Hermitian to within a few ulps of its entries, far inside
    HERMITICITY_TOL."""
    v = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(np.abs(v), axis=-1)  # of moduli: Inf gives no NaN warning
    # NaN compares False, so it is flagged by failing the bound
    _raise_first(norm, ~(np.abs(norm - 1.0) <= 1e-12), "norm invariant violated: ||psi|| = {!r}",
                 where)
    square = norm * norm
    zero = np.zeros_like(square)
    _check_spectrum(square, np.stack((zero, zero, zero, square), axis=-1), 1.0, where)
    return v[..., :, None] * v.conj()[..., None, :]


class DensityMatrix:
    """A validated 4x4 two-qubit density matrix.

    Construction checks Hermiticity, unit trace and positive
    semidefiniteness (to the module tolerances) and freezes the backing
    array, so instances can be shared across threads or processes. The
    only other way to build one is ``_checked``, from a stack validation
    that already ran.
    """

    __slots__ = ("mat", "_eigs")

    def __init__(self, mat: np.ndarray):
        object.__setattr__(self, "mat", _frozen(np.asarray(mat, dtype=complex)))
        self.validate()

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("DensityMatrix is immutable")

    def validate(self) -> None:
        """Re-check all invariants, raising ValidationError on failure."""
        object.__setattr__(self, "_eigs", _frozen(validate_batch(self.mat)))

    @classmethod
    def _checked(cls, mat: np.ndarray, eigs: np.ndarray) -> "DensityMatrix":
        """Wrap a matrix that validate_batch accepted, with its eigenvalues."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "mat", _frozen(mat))
        object.__setattr__(rho, "_eigs", _frozen(eigs))
        return rho

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        """Projector |psi><psi| onto a four-component amplitude vector."""
        return cls(pure_batch(np.asarray(amplitudes, dtype=complex).reshape(4)))

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix":
        return cls(np.eye(4, dtype=complex) / 4.0)

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in descending order, as validation found them."""
        return self._eigs

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def __repr__(self) -> str:
        return f"DensityMatrix({np.array2string(self.mat, precision=4)})"


def bell_density(label: BellLabel) -> DensityMatrix:
    return DensityMatrix.from_pure(bell_vector(label))


def werner(p: float) -> DensityMatrix:
    """p |phi+><phi+| + (1-p) I/4 for p in [-1/3, 1]."""
    mat = p * np.outer(bell_vector(BellLabel.PHI_PLUS), bell_vector(BellLabel.PHI_PLUS).conj())
    return DensityMatrix(mat + (1.0 - p) * np.eye(4) / 4.0)


def validate_x_batch(diag: np.ndarray, coh: np.ndarray, where=None, prob=None) -> np.ndarray:
    """validate_batch for an X stack: real populations diag (..., 4) =
    (c11, c22, c33, c44) and real or complex coherences coh (..., 2) =
    (c14, c23).

    After the finiteness check, the trace and eigenvalue checks of
    validate_batch run on the population sum and on the closed-form
    spectrum of the parity blocks, with the same tolerances, messages and
    ``where`` and ``prob``. Returns the eigenvalues in descending order,
    as x_eigenvalues_batch gives them.
    """
    if not (np.isfinite(diag).all() and np.isfinite(coh).all()):
        finite = np.isfinite(diag).all(axis=-1) & np.isfinite(coh).all(axis=-1)
        _raise_first(finite, ~finite, "finiteness invariant violated: NaN or Inf entry", where)
    weight = 1.0 if prob is None else np.minimum(prob, 1.0)
    total = diag[..., 0] + diag[..., 1] + diag[..., 2] + diag[..., 3]
    return _check_spectrum(total, x_eigenvalues_batch(diag, coh)[..., ::-1], weight, where)


def _possible(prob: np.ndarray, where):
    """The one floor test: the mask of the outcomes of probabilities prob
    (...) that can be conditioned on, their probabilities, and ``where``
    naming the j-th of them, in row-major mask order, by its index."""
    possible = ~(2.0 * prob <= NORMALIZATION_FLOOR)  # NaN stays, for validation
    named = None if where is None else (lambda j: where(*np.argwhere(possible)[j]))
    return possible, prob[possible], named


def refuse_impossible(possible: np.ndarray, prob: np.ndarray, outcome: BellLabel,
                      where=None) -> None:
    """The one refusal of every route that swaps for a single outcome: raise
    ImpossibleOutcome for the first of the probabilities prob (...), in
    row-major order, that the floor test's mask ``possible`` refused, named
    by ``where(*index)`` if given."""
    if not possible.all():
        index = np.unravel_index(np.argmin(possible), possible.shape)
        raise ImpossibleOutcome(outcome, 2.0 * float(prob[index]),
                                None if where is None else where(*(int(i) for i in index)))


def conditional_states(raw: np.ndarray, prob: np.ndarray, where=None, vectors=False):
    """Condition unnormalized outputs raw (..., 4, 4) of probabilities prob
    (...), the one step of every swap route: normalize and validate, as one
    stack, those whose normalization 2p exceeds NORMALIZATION_FLOOR.

    Returns their mask (...), their states (M, 4, 4) in row-major mask
    order and the states' descending eigenvalues (M, 4), or with
    ``vectors`` validate_batch's (eigenvalues, eigenvectors) pair in their
    place; ``where(*index)`` names a state that fails validation, at
    tolerances divided by its probability.
    """
    possible, kept, named = _possible(prob, where)
    states = raw[possible] / kept[:, None, None]
    return possible, states, validate_batch(states, named, kept, vectors)


def conditional_x_states(out, prob: np.ndarray, where=None):
    """conditional_states for unnormalized X stacks out = (diag (..., 4),
    coh (..., 2)), whose traces are twice the probabilities prob (...): the
    mask, the validated X stack (M, 4), (M, 2) in row-major mask order and
    its descending eigenvalues (M, 4)."""
    possible, kept, named = _possible(prob, where)
    norm = 2.0 * kept[:, None]
    x = out[0][possible] / norm, out[1][possible] / norm
    return possible, x, validate_x_batch(*x, named, kept)


def x_matrices(diag: np.ndarray, coh: np.ndarray) -> np.ndarray:
    """The (..., 4, 4) density matrices of an X stack."""
    m = np.zeros(diag.shape[:-1] + (4, 4), dtype=complex)
    m[..., range(4), range(4)] = diag
    m[..., [0, 1], [3, 2]] = coh
    m[..., [3, 2], [0, 1]] = np.conj(coh)
    return m


def x_eigenvalues_batch(diag: np.ndarray, coh: np.ndarray) -> np.ndarray:
    """Descending eigenvalues (..., 4) of an X stack: those of its parity
    blocks (c11, c44, c14) and (c22, c33, c23), half their trace plus or
    minus the radius."""
    p, q = diag[..., :2], diag[..., 3:1:-1]
    half_sum, radius = 0.5 * (p + q), np.hypot(0.5 * (p - q), np.abs(coh))
    top, bottom = half_sum + radius, half_sum - radius
    a, c, b, d = top[..., 0], top[..., 1], bottom[..., 0], bottom[..., 1]
    # a >= b and c >= d: max(a, c) is the largest of the four, min(b, d)
    # the smallest, and min(a, c) and max(b, d) are the middle two
    middle = np.minimum(a, c), np.maximum(b, d)
    return np.stack([np.maximum(a, c), np.maximum(*middle), np.minimum(*middle),
                     np.minimum(b, d)], axis=-1)


def concurrence(state: DensityMatrix) -> float:
    """Concurrence of a two-qubit state, in [0, 1].

    For a general density matrix this is the spin-flip construction:
    with rho~ = (sy x sy) rho* (sy x sy), the concurrence is
    max(0, l1 - l2 - l3 - l4) where the l's are the descending square
    roots of the eigenvalues of rho rho~. They are computed here from
    one eigendecomposition rho = V L V^dagger (see wootters_batch), as the
    singular values of W^T (sy x sy) W with W = V sqrt(L), which stays
    accurate when eigenvalues underflow toward zero.
    """
    return float(concurrence_batch(state.mat))


def concurrence_batch(mats: np.ndarray) -> np.ndarray:
    """``concurrence`` of each density matrix of a stack (N, 4, 4), or of
    a single (4, 4) one."""
    return wootters_batch(*np.linalg.eigh(_hermitize(mats)))


def wootters_batch(eigs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``concurrence`` of each state of a stack from its eigenvalues (..., 4)
    and eigenvectors (..., 4, 4) in matching columns, as eigh or
    validate_batch(..., vectors=True) gives them.

    With W = V sqrt(L), negative eigenvalues clipped to 0, rho = W W^dagger
    and rho rho~ has the eigenvalues of M^dagger M, M = W^T (sy x sy) W, so
    the l's are the singular values of M.
    """
    w = vecs * np.sqrt(np.clip(eigs, 0.0, None))[..., None, :]
    flipped = _YY_SIGNS * w[..., ::-1, :]
    lam0, lam1, lam2, lam3 = np.linalg.svd(w.swapaxes(-1, -2) @ flipped, compute_uv=False).T
    return np.clip(lam0 - lam1 - lam2 - lam3, 0.0, 1.0)


def concurrence_x(diag: np.ndarray, coh: np.ndarray) -> "float | np.ndarray":
    """Closed-form concurrence 2 max[0, |c14| - sqrt(c22 c33), |c23| -
    sqrt(c11 c44)] of an X state (diag (4,), coh (2,)), or of each state of
    an X stack (..., 4), (..., 2)."""
    gap = np.abs(coh) - np.sqrt(np.maximum(diag[..., :2] * diag[..., 3:1:-1], 0.0))[..., ::-1]
    c = np.clip(2.0 * np.maximum(gap[..., 0], gap[..., 1]), 0.0, 1.0)
    return float(c) if c.ndim == 0 else c


def pure_concurrence(amplitudes: np.ndarray) -> "float | np.ndarray":
    """Concurrence 2|a0 a3 - a1 a2| of a normalized pure state, or of each
    state of a stack (..., 4)."""
    v = np.moveaxis(np.asarray(amplitudes, dtype=complex), -1, 0)
    (r0, r1, r2, r3), (i0, i1, i2, i3) = v.real, v.imag
    # the complex products written out on real and imaginary parts, as
    # Python's complex * rounds them (numpy's complex * and abs can differ)
    re = (r0 * r3 - i0 * i3) - (r1 * r2 - i1 * i2)
    im = (r0 * i3 + i0 * r3) - (r1 * i2 + i1 * r2)
    c = np.clip(2.0 * np.hypot(re, im), 0.0, 1.0)
    return float(c) if c.ndim == 0 else c


def numerical_rank(state: DensityMatrix) -> int:
    """Number of eigenvalues above DEFAULT_RANK_TOL times the largest one."""
    return int(rank_batch(state.eigenvalues()))


def rank_batch(eigs: np.ndarray) -> np.ndarray:
    """numerical_rank of each state from descending eigenvalues (..., 4)."""
    above = eigs > DEFAULT_RANK_TOL * eigs[..., :1]
    return above[..., 0].astype(np.intp) + above[..., 1] + above[..., 2] + above[..., 3]


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b."""
    return float(trace_distance_batch(a.mat, b.mat))


def trace_distance_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``trace_distance`` of each pair of matrices of two stacks (..., 4, 4)."""
    return 0.5 * np.abs(np.linalg.eigvalsh(_hermitize(a - b))).sum(axis=-1)


def matrix_to_json_dict(rho: DensityMatrix) -> dict:
    """Serialize to the interchange format {"basis": ..., "matrix": [[[re, im], ...]]}."""
    return {
        "basis": ",".join(BASIS_LABELS),
        "matrix": [[[z.real, z.imag] for z in row] for row in rho.mat],
    }


def _json_number(part):
    """A part of a matrix entry, which must be a number: an int or a float,
    not a bool, which complex() would read as 0 or 1."""
    if not isinstance(part, (int, float)) or isinstance(part, bool):
        raise TypeError(f"entry part {part!r} is not a number")
    return part


def matrix_from_json_dict(obj: dict) -> DensityMatrix:
    """Parse the interchange format back into a validated DensityMatrix. A
    swap output {"state": ..., "probability": p, ...} gives its state,
    checked at the tolerances divided by p, as the swap that wrote it was;
    a p at or below the floor, which no swap writes, is refused."""
    prob = None
    if isinstance(obj, dict) and "state" in obj:
        prob = obj.get("probability")
        if type(prob) not in (int, float) or not 0.0 < prob <= 1.0:
            raise ValueError(f"swap output probability {prob!r} is not a number in (0, 1]")
        if not _possible(np.float64(prob), None)[0]:
            raise ValueError(f"swap output probability {prob!r} is at or below the floor: "
                             f"2p <= NORMALIZATION_FLOOR = {NORMALIZATION_FLOOR}")
        obj = obj["state"]
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object with 'basis' and 'matrix' keys")
    basis = obj.get("basis")
    if basis != ",".join(BASIS_LABELS):
        raise ValueError(f"unsupported basis {basis!r}; expected {','.join(BASIS_LABELS)!r}")
    rows = obj.get("matrix")
    try:
        mat = np.array([[complex(_json_number(re), _json_number(im)) for re, im in row]
                        for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    return DensityMatrix._checked(mat, validate_batch(mat, prob=prob))
