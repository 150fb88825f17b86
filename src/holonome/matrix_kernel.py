"""Dense complex linear-algebra kernel.

Everything downstream works with small (<= 16 x 16) dense complex matrices:
Hamiltonians, deformation generators and the unitaries they produce.  Matrix
exponentials of anti-Hermitian arguments are computed through a Hermitian
eigendecomposition rather than Pade scaling-and-squaring, which keeps the
results unitary to machine precision at these dimensions.
"""

from __future__ import annotations

import math

import numpy as np

from holonome.errors import DomainError

# Unit roundoff of float64.
_U = 2.0**-53

# Relative defect at which a matrix stops counting as unitary or anti-Hermitian.
_STRUCTURE_TOL = 1e-10


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it: for arrays built once and shared."""
    a.flags.writeable = False
    return a


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def is_unitary(u) -> bool:
    u = _as_square(u)
    # A unitary's entries lie in the unit disc: a part beyond 2, inf or nan fails before U^dag U.
    if not (np.abs(u.ravel().view(float)) <= 2.0).all():
        return False
    return frobenius(u.conj().T @ u - np.eye(u.shape[0])) < _STRUCTURE_TOL * u.shape[0]


def _slice_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix over the last two axes."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=(-2, -1)))


def expm_skew(m) -> np.ndarray:
    """Exponential of an anti-Hermitian matrix, or of each slice of a stack.

    Diagonalizes the Hermitian matrix iM and exponentiates the (real)
    eigenvalues, so the result satisfies U U^dag = I to machine precision.
    A stack ``(..., n, n)`` goes through one batched eigendecomposition; each
    slice must pass the same anti-Hermitian check as a single matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    # Every slice is checked at once; the first bad slice names the error.  An inf or nan entry,
    # or squares that overflow (quietly, here), make its norm not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _slice_norms(m)
        defect = _slice_norms(m + m.conj().swapaxes(-1, -2))
    bad = ~np.isfinite(norm) | (defect > _STRUCTURE_TOL * np.maximum(1.0, norm))
    if bad.any():
        first = np.argmax(bad)
        if not np.isfinite(m.reshape(-1, *m.shape[-2:])[first]).all():
            raise DomainError("expm_skew requires a finite argument")
        if not math.isfinite(np.ravel(norm)[first]):
            raise DomainError("expm_skew argument's norm is beyond the float range")
        raise DomainError("expm_skew requires an anti-Hermitian argument")
    herm = 1j * m  # Hermitian
    return exp_minus_i(0.5 * (herm + herm.conj().swapaxes(-1, -2)))


def exp_minus_i(h: np.ndarray) -> np.ndarray:
    """exp(-i h) of a Hermitian matrix, or of each slice of a stack ``(..., n, n)``.

    One stacked eigendecomposition h = V diag(lam) V^dag gives the unitary
    V diag(e^{-i lam}) V^dag (for a real symmetric h, V is real).  Unlike
    ``expm_skew`` it checks and symmetrises nothing: the caller builds ``h``
    Hermitian and finite (the eigensolver reads one triangle only).
    """
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


def phase_invariant_distance(u, v) -> float:
    """Gate distance insensitive to a global phase.

    d(U, V) = sqrt(1 - |tr(U^dag V)| / dim), zero iff U = e^{i phi} V.
    Evaluated as min over phi of ||U - e^{i phi} V||_F / sqrt(2 dim), which
    is the same quantity but stays accurate down to machine precision when
    the gates nearly coincide.
    """
    u = _as_square(u)
    v = _as_square(v)
    if u.shape != v.shape:
        raise DomainError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (is_unitary(u) and is_unitary(v)):
        raise DomainError("phase_invariant_distance requires unitary inputs")
    return _distance(u.ravel().tolist(), v.ravel().tolist())


def _distance(u, v) -> float:
    """``phase_invariant_distance`` of two n x n unitaries from their n^2 row-major entries
    (Python complex scalars), unchecked: ||U - e^{i phi} V||_F / sqrt(2 n) with
    e^{i phi} = conj(tr(U^dag V)) / |tr(U^dag V)|."""
    overlap = sum(x.conjugate() * y for x, y in zip(u, v))
    phase = overlap.conjugate() / abs(overlap) if overlap else 1.0
    root = math.sqrt(2.0 * math.isqrt(len(u)))
    return math.hypot(*(abs(x - phase * y) for x, y in zip(u, v))) / root
