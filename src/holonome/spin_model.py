"""Ising dimer Hamiltonians, the triplet/singlet dimer basis and coding spaces.

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
from holonome.matrix_kernel import _read_only, frobenius, tensor_product

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


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


@dataclass(frozen=True)
class SpinModel:
    """A dimer (or dimer-pair) Hamiltonian, fixed by its couplings.

    ``couplings`` holds each dimer's (omega, J), slow dimer first:
    ``((omega, j1),)`` for one dimer, ``((j1, j1), (j2, j2))`` for two.
    """

    couplings: tuple

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
    def hamiltonian(self) -> np.ndarray:
        """H = diag(``diagonal``) as a dense complex matrix (read-only)."""
        h = np.zeros((self.dim, self.dim), dtype=complex)
        h.flat[:: self.dim + 1] = self.diagonal
        return _read_only(h)

    @functools.cached_property
    def hamiltonian_norm(self) -> float:
        return frobenius(self.hamiltonian)

    @functools.cached_property
    def ground_energy(self) -> float:
        return float(self.diagonal.min())

    @functools.cached_property
    def _ground(self) -> np.ndarray:
        """The ground level as a 0/1 mask over the product basis: the product of the
        dimers' ground levels, each judged on its own scale ||H_d||_F."""
        # Four entries per dimer: Python floats beat numpy calls here, with the same rounding.
        entries = [_one_dimer_diagonal(*c).tolist() for c in self.couplings]
        # One dimer is its own H_d; otherwise ||H_d||_F = ||d||_2.
        norms = [self.hamiltonian_norm] if len(entries) == 1 else [math.hypot(*e) for e in entries]
        levels = [_ground_level(e, n) for e, n in zip(entries, norms)]
        return np.ravel(functools.reduce(np.logical_and.outer, levels))

    @functools.cached_property
    def ground_multiplicity(self) -> int:
        return int(self._ground.sum())

    @functools.cached_property
    def ground_projector(self) -> np.ndarray:
        """The diagonal 0/1 projector onto the ground level (read-only)."""
        return _read_only(np.diag(self._ground.astype(complex)))


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
        if not (np.isfinite(value) and 0 < value <= MAX_COUPLING):
            raise DomainError(
                f"{name} must be finite, > 0 and at most {MAX_COUPLING:g}, got {value!r}"
            )


def _ground_level(diagonal: list, norm: float) -> list:
    """One dimer's ground level: is each entry less than DEGENERACY_RTOL ``norm`` above the least?"""
    least, threshold = min(diagonal), DEGENERACY_RTOL * norm
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
    labels = _GROUND_LABELS.get(model.n_spins)
    if labels is None:
        raise DomainError(f"unsupported spin count {model.n_spins}")
    if model.ground_multiplicity != len(labels):
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


def ground_basis(model: SpinModel):
    """Ordered ground-space basis: coding vectors first, then S0 products.

    Returns (labels, vectors) with vectors as read-only columns of a
    full-dimension matrix, built once per spin count.  Requires the model to
    sit at its degenerate working point.
    """
    n_spins = _check_working_point(model)
    return _GROUND_LABELS[n_spins], _ground_columns(n_spins)


@dataclass(frozen=True)
class CodingSpace:
    """Logical subspace of the degenerate ground space.

    ``vectors`` holds the ordered logical basis as full-space columns
    (|0>_L = T+, |1>_L = T0 per dimer; two-dimer order T+T+, T+T0, T0T+,
    T0T0).  Logical operators act within the coding space only: the logical
    identity is the coding projector, not the full identity.
    """

    labels: tuple
    vectors: np.ndarray
    projector: np.ndarray
    n_logical: int

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def logical(self, axis: str, qubit: int = 0) -> np.ndarray:
        """Logical Pauli (axis in 'x', 'y', 'z', 'i') on the given qubit."""
        small = ID2 if axis == "i" else PAULI[axis]
        op = np.eye(1, dtype=complex)
        for q in range(self.n_logical):
            op = tensor_product(op, small if q == qubit else ID2)
        return self.vectors @ op @ self.vectors.conj().T


@functools.cache
def _coding_space(n_spins: int) -> CodingSpace:
    n_logical = n_spins // 2  # one logical qubit per dimer
    dim_c = 2**n_logical
    coding_vecs = _ground_columns(n_spins)[:, :dim_c]
    return CodingSpace(
        labels=_GROUND_LABELS[n_spins][:dim_c],
        vectors=coding_vecs,
        projector=_read_only(coding_vecs @ coding_vecs.conj().T),
        n_logical=n_logical,
    )


def coding_space(model: SpinModel) -> CodingSpace:
    """Coding space C1 (one dimer, rank 2) or C2 (two dimers, rank 4).

    Built once per spin count; its arrays are read-only.
    """
    return _coding_space(_check_working_point(model))
