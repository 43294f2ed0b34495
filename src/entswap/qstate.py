"""Two-qubit state types, fixed-dimension complex linear algebra, and
entanglement/rank measures.

Basis convention used everywhere in this package: a two-qubit space is
ordered |HH>, |HV>, |VH>, |VV> with H=0, V=1, so the flat index of
|ij> is 2*i + j. Four-qubit matrices are ordered with mode 1 as the
most significant qubit, i.e. index = 8*m1 + 4*m2 + 2*m3 + m4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

BASIS_LABELS = ("HH", "HV", "VH", "VV")

# Tolerances for structural invariants of a physical state.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
# Relative eigenvalue cutoff for the numerical rank (fraction of the
# largest eigenvalue). Overridable per call.
DEFAULT_RANK_TOL = 1e-10
# Modulus bound on the eight entries that must vanish in an X-state.
X_ENTRY_TOL = 1e-10

# Conjugation by sigma_y (x) sigma_y, the spin flip of the concurrence, is
# a signed anti-transpose: (YY m YY)[i, j] equals s_i s_j m[3-i, 3-j] with
# signs s = (-1, 1, 1, -1).
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_YY_SIGNS = np.outer(_YY_SIGNS, _YY_SIGNS)


class ValidationError(ValueError):
    """A matrix failed one of the density-matrix invariants."""


class NotAnXState(ValueError):
    """A density matrix carries weight outside the X pattern."""


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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two complex matrices.

    The entry at (rows(b)*i + k, cols(b)*j + l) is a[i, j] * b[k, l], so
    tensoring two trace-one matrices preserves unit trace.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_23(rho1234: np.ndarray) -> np.ndarray:
    """Trace qubits 2 and 3 out of a four-qubit operator, keeping (1, 4).

    The input must be 16x16 and ordered with qubit 1 most significant
    (index = 8*m1 + 4*m2 + 2*m3 + m4). No renormalization is applied;
    the trace of the output equals the trace of the input.
    """
    rho1234 = np.asarray(rho1234, dtype=complex)
    if rho1234.shape != (16, 16):
        raise ValueError(f"expected a 16x16 matrix, got shape {rho1234.shape}")
    r8 = rho1234.reshape([2] * 8)
    return np.einsum("aijbcijd->abcd", r8).reshape(4, 4)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def _psd_sqrt(hermitian: np.ndarray) -> np.ndarray:
    # Hermitian-specialized square root of each matrix of a stack; tiny
    # negative eigenvalues from roundoff are clipped to zero.
    w, v = np.linalg.eigh(hermitian)
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


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


def validate_batch(mats: np.ndarray, where=None, prob=None) -> np.ndarray:
    """Check the density-matrix invariants on a stack (..., 4, 4).

    Runs DensityMatrix's finiteness, Hermiticity, trace and eigenvalue
    checks in that order over the whole stack; the first flagged matrix
    raises ValidationError naming the invariant, the offending value and,
    through ``where(*batch_index)`` if given, the input. Returns the
    eigenvalues in descending order, shape (..., 4). Given the outcome
    probabilities ``prob`` (...) of conditioned states, each tolerance is
    divided by the state's, as conditioning divided its roundoff (one above
    1 does not tighten it).
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
    trace_err = np.abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
    if trace_err.max(initial=0.0) > TRACE_TOL:
        _raise_first(trace_err, trace_err * weight > TRACE_TOL,
                     "trace invariant violated: |tr - 1| = {:.3e}", where)
    # eigvalsh reads one triangle, which Hermiticity (checked above)
    # makes equivalent to the Hermitized matrix to within tolerance
    eigs = np.linalg.eigvalsh(mats)
    if eigs[..., 0].min(initial=np.inf) < EIGENVALUE_FLOOR:
        _raise_first(eigs[..., 0], eigs[..., 0] * weight < EIGENVALUE_FLOOR,
                     "eigenvalue invariant violated: min eigenvalue = {:.3e}", where)
    return eigs[..., ::-1]


def pure_batch(amplitudes: np.ndarray, where=None) -> np.ndarray:
    """Projectors |psi><psi| onto amplitude vectors (..., 4), whose norms
    must be 1 within 1e-12 (else ValidationError, named as in validate_batch)."""
    v = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(v, axis=-1)
    _raise_first(norm, np.abs(norm - 1.0) > 1e-12, "norm invariant violated: ||psi|| = {!r}", where)
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


@dataclass(frozen=True)
class XState:
    """Density matrix with decoupled parity sectors: nonzero entries only on
    the main diagonal and the anti-diagonal.

    Parameters are the four diagonal populations and the two independent
    coherences; the remaining anti-diagonal entries are fixed by
    Hermiticity (c41 = conj(c14), c32 = conj(c23)).
    """

    c11: float
    c22: float
    c33: float
    c44: float
    c14: complex = 0.0
    c23: complex = 0.0

    def __post_init__(self):
        validate_x_batch(*self.to_stack())

    @classmethod
    def _checked(cls, diag, coh) -> "XState":
        """Wrap the populations and coherences of an X stack of one that
        validate_x_batch accepted."""
        x = cls.__new__(cls)
        for f, value in zip(fields(cls), (*diag, *coh)):
            object.__setattr__(x, f.name, value)
        return x

    def to_stack(self) -> "tuple[np.ndarray, np.ndarray]":
        """This state as an X stack of one (see validate_x_batch)."""
        return (np.array([[self.c11, self.c22, self.c33, self.c44]], dtype=float),
                np.array([[self.c14, self.c23]]))

    def to_matrix(self) -> np.ndarray:
        return x_matrices(*self.to_stack())[0]

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.to_matrix())

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, from the two 2x2 parity blocks."""
        return x_eigenvalues_batch(*self.to_stack())[0]


def validate_x_batch(diag: np.ndarray, coh: np.ndarray, where=None, prob=None) -> None:
    """Check XState's invariants on an X stack: real populations diag
    (..., 4) = (c11, c22, c33, c44) and real or complex coherences coh
    (..., 2) = (c14, c23).

    Populations must be nonnegative and sum to 1, and |c14|^2 <= c11 c44,
    |c23|^2 <= c22 c33, all to TRACE_TOL. The first flagged state raises
    ValidationError as in validate_batch (a disk's excess is named too);
    a NaN or Inf entry fails first. Given the outcome probabilities
    ``prob`` (...) of conditioned states, the tolerances are carried as in
    validate_batch: divided by the probability, and each disk is checked
    as validate_batch checks the matrix, by its parity block's least
    eigenvalue against EIGENVALUE_FLOOR.
    """
    finite = np.isfinite(diag).all(axis=-1) & np.isfinite(coh).all(axis=-1)
    if not finite.all():
        _raise_first(finite, ~finite, "finiteness invariant violated: NaN or Inf entry", where)
    weight = 1.0 if prob is None else np.minimum(prob, 1.0)
    low = diag.min(axis=-1)
    total = diag[..., 0] + diag[..., 1] + diag[..., 2] + diag[..., 3]
    # the disks of (c14, c23) are (c11 c44, c22 c33)
    excess = np.abs(coh) ** 2 - diag[..., :2] * diag[..., 3:1:-1]
    if prob is None:
        disk = excess > TRACE_TOL
    else:
        half_sum, radius = _parity_blocks(diag, coh)
        disk = (half_sum - radius) * weight[..., None] < EIGENVALUE_FLOOR
    by = "" if where is None else " by {:.3e}"  # scalar messages give no excess
    for values, bad, message in (
            (low, low * weight < -TRACE_TOL,
             "diagonal invariant violated: negative population {:.3e}"),
            (total, np.abs(total - 1.0) * weight > TRACE_TOL,
             "trace invariant violated: sum = {!r}"),
            (excess[..., 0], disk[..., 0], "eigenvalue invariant violated: |c14|^2 > c11*c44" + by),
            (excess[..., 1], disk[..., 1], "eigenvalue invariant violated: |c23|^2 > c22*c33" + by)):
        _raise_first(values, bad, message, where)


def x_matrices(diag: np.ndarray, coh: np.ndarray) -> np.ndarray:
    """The (..., 4, 4) density matrices of an X stack."""
    m = np.zeros(diag.shape[:-1] + (4, 4), dtype=complex)
    m[..., range(4), range(4)] = diag
    m[..., [0, 1], [3, 2]] = coh
    m[..., [3, 2], [0, 1]] = np.conj(coh)
    return m


def _parity_blocks(diag: np.ndarray, coh: np.ndarray):
    """Half the trace and the eigenvalue radius (..., 2) of an X stack's
    parity blocks (c11, c44, c14) and (c22, c33, c23): their eigenvalues
    are half_sum +- radius."""
    p, q = diag[..., :2], diag[..., 3:1:-1]
    return 0.5 * (p + q), np.hypot(0.5 * (p - q), np.abs(coh))


def x_eigenvalues_batch(diag: np.ndarray, coh: np.ndarray) -> np.ndarray:
    """Descending eigenvalues (..., 4) of an X stack, from its parity blocks."""
    half_sum, radius = _parity_blocks(diag, coh)
    return np.sort(np.concatenate([half_sum + radius, half_sum - radius], axis=-1))[..., ::-1]


def as_x_state(rho: DensityMatrix, tol: float = X_ENTRY_TOL) -> XState:
    """Extract the X-state parameters of ``rho``.

    Raises NotAnXState if any of the eight entries outside the diagonal
    and anti-diagonal has modulus above ``tol``.
    """
    mat = rho.mat
    x_pattern = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]  # diagonal, anti-diagonal
    off_x = np.argwhere(~x_pattern & (np.abs(mat) >= tol))  # in row-major order
    if off_x.size:
        i, j = off_x[0]
        raise NotAnXState(f"entry ({i + 1},{j + 1}) has modulus {abs(mat[i, j]):.3e} >= {tol}")
    return XState(*mat.diagonal().real, complex(mat[0, 3]), complex(mat[1, 2]))


def concurrence(state: "DensityMatrix | XState") -> float:
    """Concurrence of a two-qubit state, in [0, 1].

    For a general density matrix this is the spin-flip construction:
    with rho~ = (sy x sy) rho* (sy x sy), the concurrence is
    max(0, l1 - l2 - l3 - l4) where the l's are the descending square
    roots of the eigenvalues of rho rho~. They are computed here as the
    singular values of sqrt(rho) sqrt(rho~), which stays accurate when
    eigenvalues underflow toward zero.

    X-states take the exact algebraic branch
    2 max[0, |c14| - sqrt(c22 c33), |c23| - sqrt(c11 c44)].
    """
    if isinstance(state, XState):
        return concurrence_x(state)
    return float(concurrence_batch(state.mat))


def concurrence_batch(mats: np.ndarray) -> np.ndarray:
    """``concurrence`` of each density matrix of a stack (N, 4, 4), or of
    a single (4, 4) one."""
    root = _psd_sqrt(_hermitize(mats))
    # sqrt commutes with the (sy x sy) conjugation, so sqrt(rho~) is the
    # signed anti-transpose of the conjugated sqrt(rho)
    root_tilde = _YY_SIGNS * root[..., ::-1, ::-1].conj()
    lam0, lam1, lam2, lam3 = np.linalg.svd(root @ root_tilde, compute_uv=False).T
    return np.clip(lam0 - lam1 - lam2 - lam3, 0.0, 1.0)


def concurrence_x(x: XState) -> float:
    """Closed-form concurrence of an X-state."""
    return float(concurrence_x_batch(*x.to_stack())[0])


def concurrence_x_batch(diag: np.ndarray, coh: np.ndarray) -> np.ndarray:
    """Closed-form concurrence of each state of an X stack."""
    # |c14| - sqrt(c22 c33) and |c23| - sqrt(c11 c44)
    gap = np.abs(coh) - np.sqrt(np.maximum(diag[..., :2] * diag[..., 3:1:-1], 0.0))[..., ::-1]
    return np.clip(2.0 * gap.max(axis=-1), 0.0, 1.0)


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


def numerical_rank(state: "DensityMatrix | XState", tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of eigenvalues above ``tol`` times the largest eigenvalue."""
    return int(rank_batch(state.eigenvalues(), tol))


def rank_batch(eigs: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Numerical ranks from descending eigenvalues of shape (..., 4)."""
    if eigs.ndim == 1:  # one spectrum: count_nonzero's fast path
        return np.count_nonzero(eigs > tol * eigs[0])
    return np.count_nonzero(eigs > tol * eigs[..., :1], axis=-1)


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


def matrix_from_json_dict(obj: dict) -> DensityMatrix:
    """Parse the interchange format back into a validated DensityMatrix."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object with 'basis' and 'matrix' keys")
    basis = obj.get("basis")
    if basis != ",".join(BASIS_LABELS):
        raise ValueError(f"unsupported basis {basis!r}; expected {','.join(BASIS_LABELS)!r}")
    rows = obj.get("matrix")
    try:
        mat = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    return DensityMatrix(mat)
