"""Ising dimer Hamiltonians, the triplet/singlet dimer basis, ground and coding bases.

Conventions, fixed once and asserted by the basis tests:
  * spin 1 is the slow (leftmost) tensor factor;
  * |+> is the sigma_z = +1 eigenvector, index 0;
  * energies are in units of J1 with hbar = 1.

One dimer:  H = -omega sz_1 - omega sz_2 + J1 sz_1 sz_2  (4 x 4, diagonal).
Two dimers: the sum of two such Hamiltonians at omega = J on spins (1, 2)
and (3, 4) respectively (16 x 16, diagonal).

A model holds only its couplings.  Both Hamiltonians are diagonal in the
product z-basis, so all else is derived from the diagonal, read-only on first
read, with no eigensolver: the ground energy is the least diagonal entry,
and the ground level is the product of each dimer's: the basis states whose
entries lie within DEGENERACY_RTOL ||H_d||_F of that dimer's least entry,
H_d the dimer's own Hamiltonian.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from holonome.errors import DomainError
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


# A dimer's diagonal entries less than DEGENERACY_RTOL ||H_d||_F above its
# least one form its ground level (H_d the dimer's own Hamiltonian).  The
# threshold scales with the dimer, so the working point is found at any
# coupling scale and any ratio of the couplings: at omega = J the dimer's next
# level lies 4 J above its ground, and ||H_d||_F = sqrt(12) J.
DEGENERACY_RTOL = 1e-9

# Largest coupling a model accepts.  The two-dimer diagonal is at most
# 6 max(J1, J2) in magnitude, so ||H||_F^2 <= 576 max(J1, J2)^2 stays far
# below the largest double (1.8e308) and every norm of H is finite.
MAX_COUPLING = 1e150


def _least_coupling() -> float:
    """The least J whose dimer at omega = J has DEGENERACY_RTOL ||H_d||_F > 0: a subnormal
    k 2^-1074 with k < 2^52, found by bisection on k (the diagonal is (-J, -J, -J, 3 J))."""
    lo, hi = 0, 2**52
    while hi - lo > 1:
        j = (mid := (lo + hi) // 2) * 2.0**-1074
        lo, hi = (lo, mid) if DEGENERACY_RTOL * math.hypot(-j, -j, -j, 3.0 * j) > 0 else (mid, hi)
    return hi * 2.0**-1074


# Least coupling a model accepts: below it a dimer's ground-level threshold
# rounds to zero and no level is found.
MIN_COUPLING = _least_coupling()


@dataclass(frozen=True)
class SpinModel:
    """A dimer (or dimer-pair) Hamiltonian, fixed by its couplings.

    ``couplings`` holds each dimer's (omega, J), slow dimer first:
    ``((omega, j1),)`` for one dimer, ``((j1, j1), (j2, j2))`` for two.
    """

    couplings: tuple

    def __post_init__(self):
        couplings = self.couplings
        if not (isinstance(couplings, tuple) and len(couplings) in (1, 2)
                and all(isinstance(c, tuple) and len(c) == 2 for c in couplings)):
            raise DomainError("couplings must be one or two (omega, J) pairs")
        for d, (omega, j) in enumerate(couplings, 1):
            _check_couplings(**{f"dimer {d} omega": omega, f"dimer {d} J": j})

    @property
    def n_spins(self) -> int:
        return 2 * len(self.couplings)

    @property
    def dim(self) -> int:
        return 4 ** len(self.couplings)

    @functools.cached_property
    def diagonal(self) -> np.ndarray:
        """H's real diagonal, the Kronecker sum of the dimers' diagonals (read-only)."""
        dimers = [_one_dimer_diagonal(*c) for c in self.couplings]
        return _read_only(dimers[0] if len(dimers) == 1 else np.add.outer(*dimers).ravel())

    @functools.cached_property
    def hamiltonian_norm(self) -> float:
        """||H||_F = ||diagonal||_2 by math.hypot, which neither overflows nor underflows."""
        return math.hypot(*self.diagonal.tolist())

    @functools.cached_property
    def ground_energy(self) -> float:
        return float(self.diagonal.min())

    @functools.cached_property
    def _ground(self) -> np.ndarray:
        """The ground level as a 0/1 mask over the product basis: the product of the
        dimers' ground levels, each judged on its own scale ||H_d||_F."""
        # Four entries per dimer: Python floats beat numpy calls here, with the same rounding.
        levels = [_ground_level(_one_dimer_diagonal(*c).tolist()) for c in self.couplings]
        return np.ravel(functools.reduce(np.logical_and.outer, levels))

    @functools.cached_property
    def ground_multiplicity(self) -> int:
        return int(self._ground.sum())


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


def _one_dimer_diagonal(omega: float, j1: float) -> np.ndarray:
    """Diagonal of H over |++>, |+->, |-+>, |-->: bit for bit that of the dense operator sum."""
    return np.array([-2.0 * omega + j1, -j1, -j1, 2.0 * omega + j1])


def _check_couplings(**couplings) -> None:
    for name, value in couplings.items():
        if not (math.isfinite(value) and 0 < value <= MAX_COUPLING):
            raise DomainError(
                f"{name} must be finite, > 0 and at most {MAX_COUPLING:g}, got {value!r}"
            )
        if value < MIN_COUPLING:
            raise DomainError(f"{name} must be at least {MIN_COUPLING!r} for a ground level "
                              f"to be resolved, got {value!r}")


def _ground_level(diagonal: list) -> list:
    """One dimer's ground level: is each entry less than DEGENERACY_RTOL ||H_d||_F above the
    least?  ||H_d||_F = ||d||_2 by math.hypot, which neither overflows nor underflows."""
    least, threshold = min(diagonal), DEGENERACY_RTOL * math.hypot(*diagonal)
    return [entry - least < threshold for entry in diagonal]


def build_one_dimer(omega: float, j1: float) -> SpinModel:
    """Single Ising dimer; at omega = j1 the ground level is 3-fold degenerate."""
    _check_couplings(j1=j1, omega=omega)
    return SpinModel(((omega, j1),))


def build_two_dimer(j1: float, j2: float) -> SpinModel:
    """Two decoupled dimers at their degenerate points; 9-fold ground level."""
    _check_couplings(j1=j1, j2=j2)
    return SpinModel(((j1, j1), (j2, j2)))


# Ground-space labels at the degenerate working point, coding vectors first;
# their number is the ground multiplicity there.
_GROUND_LABELS = {
    2: ("T+", "T0", "S0"),
    4: ("T+T+", "T+T0", "T0T+", "T0T0", "T+S0", "T0S0", "S0T+", "S0T0", "S0S0"),
}


def _check_working_point(model: SpinModel) -> int:
    """Spin count of a model at its degenerate working point, else DomainError."""
    if model.ground_multiplicity != len(_GROUND_LABELS[model.n_spins]):
        dimers = "one" if model.n_spins == 2 else "two"
        raise DomainError(f"{dimers}-dimer model is not at its degenerate point")
    return model.n_spins


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
    Requires the model to sit at its degenerate working point.
    """
    return _ground_columns(_check_working_point(model))


def coding_space(model: SpinModel) -> np.ndarray:
    """Coding space C1 (one dimer, rank 2) or C2 (two dimers, rank 4) as read-only columns.

    The first 2^(n_spins / 2) ground-basis columns: |0>_L = T+, |1>_L = T0 per
    dimer, two-dimer order T+T+, T+T0, T0T+, T0T0.
    """
    n_spins = _check_working_point(model)
    return _ground_columns(n_spins)[:, : 2 ** (n_spins // 2)]
