"""Ising dimers at omega = J: Hamiltonians, the triplet/singlet basis, ground and coding bases.

Conventions, fixed once and asserted by the basis tests:
  * spin 1 is the slow (leftmost) tensor factor;
  * |+> is the sigma_z = +1 eigenvector, index 0;
  * energies are in units of J1 with hbar = 1.

One dimer:  H = -omega sz_1 - omega sz_2 + J1 sz_1 sz_2 at omega = J1  (4 x 4, diagonal).
Two dimers: the sum of two such Hamiltonians on spins (1, 2) and (3, 4), at J1
and J2 respectively (16 x 16, diagonal).

A model holds only each dimer's J, and sits at its degenerate working point
omega = J by construction.  Both Hamiltonians are diagonal in the product
z-basis, so H's fields are derived from the diagonal, read-only on first read,
with no eigensolver; the ground energy is the least diagonal entry.  The ground
level is not searched for: it is the fixed label table ``_GROUND_LABELS``, the
same at every coupling.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
from dataclasses import dataclass

import numpy as np

from holonome.errors import DomainError, _isfinite
from holonome.matrix_kernel import _read_only, tensor_product

SIGMA_X = _read_only(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _read_only(np.array([[1, 0], [0, -1]], dtype=complex))
ID2 = _read_only(np.eye(2, dtype=complex))

PAULI = types.MappingProxyType({"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z})


def site_operator(op, site: int, n_spins: int) -> np.ndarray:
    """Embed a single-spin operator at ``site`` (0-based, leftmost slow)."""
    factors = [ID2] * n_spins
    factors[site] = np.asarray(op, dtype=complex)
    out = factors[0]
    for f in factors[1:]:
        out = tensor_product(out, f)
    return out


@functools.cache
def pauli_site(axis: str, site: int, n_spins: int) -> np.ndarray:
    """``site_operator(PAULI[axis], site, n_spins)``, built once per process (read-only)."""
    return _read_only(site_operator(PAULI[axis], site, n_spins))


# Largest coupling a model accepts.  The two-dimer diagonal is at most
# 6 max(J1, J2) in magnitude, so ||H||_F^2 <= 576 max(J1, J2)^2 stays far
# below the largest double (1.8e308) and every norm of H is finite.
MAX_COUPLING = 1e150


@dataclass(frozen=True)
class SpinModel:
    """One dimer or a dimer pair at omega = J, fixed by its couplings.

    ``couplings`` holds each dimer's J, slow dimer first: ``(j1,)`` or ``(j1, j2)``.
    """

    couplings: tuple

    def __post_init__(self):
        couplings = self.couplings
        if not (isinstance(couplings, tuple) and len(couplings) in (1, 2)
                and all(isinstance(j, numbers.Real) for j in couplings)):
            raise DomainError("couplings must be one or two J values")
        for d, j in enumerate(couplings, 1):
            _check_couplings(**{f"dimer {d} J": j})

    @property
    def n_spins(self) -> int:
        return 2 * len(self.couplings)

    @property
    def dim(self) -> int:
        return 4 ** len(self.couplings)

    @functools.cached_property
    def diagonal(self) -> np.ndarray:
        """H's real diagonal, the Kronecker sum of the dimers' diagonals (read-only)."""
        dimers = [_one_dimer_diagonal(j) for j in self.couplings]
        return _read_only(dimers[0] if len(dimers) == 1 else np.add.outer(*dimers).ravel())

    @functools.cached_property
    def hamiltonian_norm(self) -> float:
        """||H||_F = ||diagonal||_2 by math.hypot, which neither overflows nor underflows."""
        return math.hypot(*self.diagonal.tolist())

    @functools.cached_property
    def ground_energy(self) -> float:
        return float(self.diagonal.min())


_RT2 = 1.0 / np.sqrt(2.0)

# Triplet/singlet eigenbasis of a single dimer: T+, T0, T-, S0 in the product
# z-basis (|++>, |+->, |-+>, |-->), as read-only 4-vectors.
DIMER_BASIS = types.MappingProxyType({
    label: _read_only(np.array(vec, dtype=complex))
    for label, vec in (
        ("T+", [1, 0, 0, 0]),
        ("T0", [0, _RT2, _RT2, 0]),
        ("T-", [0, 0, 0, 1]),
        ("S0", [0, _RT2, -_RT2, 0]),
    )
})


def _one_dimer_diagonal(j: float) -> np.ndarray:
    """Diagonal of H at omega = j over |++>, |+->, |-+>, |-->: bit for bit that of the
    dense operator sum."""
    return np.array([-2.0 * j + j, -j, -j, 2.0 * j + j])


def _check_couplings(**couplings) -> None:
    for name, value in couplings.items():
        if not (_isfinite(name, value) and 0 < value <= MAX_COUPLING):
            raise DomainError(
                f"{name} must be finite, > 0 and at most {MAX_COUPLING:g}, got {value!r}"
            )


def build_one_dimer(omega: float, j1: float) -> SpinModel:
    """Single Ising dimer at its degenerate point: omega must equal j1 exactly."""
    _check_couplings(j1=j1, omega=omega)
    if omega != j1:
        raise DomainError("one-dimer model is not at its degenerate point")
    return SpinModel((j1,))


def build_two_dimer(j1: float, j2: float) -> SpinModel:
    """Two decoupled dimers at their degenerate points; 9-fold ground level."""
    _check_couplings(j1=j1, j2=j2)
    return SpinModel((j1, j2))


# Ground-space labels, coding vectors first: at omega = J each dimer's ground level is
# T+, T0 and S0 (energy -J, with T- 4 J above), at every coupling.
_GROUND_LABELS = {
    2: ("T+", "T0", "S0"),
    4: ("T+T+", "T+T0", "T0T+", "T0T0", "T+S0", "T0S0", "S0T+", "S0T0", "S0S0"),
}


@functools.cache
def _ground_columns(n_spins: int) -> np.ndarray:
    # A label names one dimer state per two characters, slow dimer first.
    cols = []
    for label in _GROUND_LABELS[n_spins]:
        dimers = [DIMER_BASIS[label[i : i + 2]] for i in range(0, len(label), 2)]
        cols.append(functools.reduce(tensor_product, dimers))
    return _read_only(np.column_stack(cols))


def ground_basis(model: SpinModel) -> np.ndarray:
    """Ordered ground-space basis (``_GROUND_LABELS``): coding vectors first, then S0 products.

    Read-only columns of a full-dimension matrix, built once per spin count.
    """
    return _ground_columns(model.n_spins)


def coding_space(model: SpinModel) -> np.ndarray:
    """Coding space C1 (one dimer, rank 2) or C2 (two dimers, rank 4) as read-only columns.

    The first 2^(n_spins / 2) ground-basis columns: |0>_L = T+, |1>_L = T0 per
    dimer, two-dimer order T+T+, T+T0, T0T+, T0T0.
    """
    return _ground_columns(model.n_spins)[:, : 2 ** (model.n_spins // 2)]
