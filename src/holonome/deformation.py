"""Anti-Hermitian loop generators, their closure and their leakage checks.

A loop is a one-parameter isospectral deformation exp(X tau) H exp(-X tau)
with constant anti-Hermitian X.  The loop closes, exp(X) = 1, exactly for
the integer windings the loop classes accept: n . (sigma_1 + sigma_2) has
eigenvalues 2, 0, 0, -2, and in dimer 1's sigma_z sector s in {2, 0, -2}
the two-dimer X is e^{i kappa' pi s} times a rotation of dimer 2 by kappa_+ pi
(s = 2, 0) or kappa_- pi (s = -2).  So exp(X) is taken only for a raw X.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from holonome.errors import DomainError
from holonome.matrix_kernel import _block_diagonal, _read_only, expm_skew, frobenius
from holonome.spin_model import SpinModel, coding_space, ground_basis, pauli_site

# Winding numbers above this would need angle reduction beyond double precision.
MAX_WINDING = 10**6

# Documented bounds on the reports' float residual ||exp(X) - 1||_F (read by the
# benchmark's checks); it grows as ||X||_F u past them near MAX_WINDING.
ONE_QUBIT_CLOSURE_TOL = 1e-10
TWO_QUBIT_CLOSURE_TOL = 1e-8

LEAKAGE_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class OneQubitLoop:
    """Loop parameters for a single-dimer deformation.

    The generator is i kappa pi n . (sigma_1 + sigma_2).  The induced logical
    rotation axis m and angle theta_kappa are derived fields.
    """

    n: tuple
    kappa: int
    omega: float
    theta_kappa: float
    m: tuple

    @classmethod
    def create(cls, n, kappa: int) -> "OneQubitLoop":
        kappa = _checked_int("kappa", kappa)
        n = np.asarray(n, dtype=float)
        if n.shape != (3,):
            raise DomainError("axis must be a real 3-vector")
        if not abs(np.linalg.norm(n) - 1.0) <= 1e-12:  # NaN fails too
            raise DomainError("axis must be a unit vector")
        if not (1 <= kappa <= MAX_WINDING):
            raise DomainError(f"winding number must be in [1, {MAX_WINDING}]")
        if abs(abs(n[2]) - 1.0) < 1e-12:
            raise DomainError("|n_z| = 1 gives [H, X] = 0: the loop is trivial")
        omega = kappa * np.pi
        root = np.sqrt(2.0 - n[2] ** 2)
        m = np.array([np.sqrt(2.0) * n[0], np.sqrt(2.0) * n[1], n[2]]) / root
        return cls(
            n=tuple(float(x) for x in n),
            kappa=kappa,
            omega=float(omega),
            theta_kappa=float(omega * root),
            m=tuple(float(x) for x in m),
        )


def _checked_int(name: str, value) -> int:
    """``value`` as an int if it is an int or numpy integer (not a bool), else DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an int, got {value!r}")
    return int(value)


def _checked_windings(**windings) -> tuple:
    """The windings as ints, each in [1, MAX_WINDING], else DomainError naming it."""
    windings = {name: _checked_int(name, k) for name, k in windings.items()}
    for name, k in windings.items():
        if not (1 <= k <= MAX_WINDING):
            raise DomainError(f"{name} must be in [1, {MAX_WINDING}]")
    return tuple(windings.values())


def coupling_strength(kappa_plus, kappa_minus):
    """Closed-form inter-dimer coupling J for a closed two-qubit loop (scalars or arrays)."""
    return (np.pi / (2.0 * np.sqrt(2.0))) * np.sqrt(kappa_minus**2 - kappa_plus**2)


@dataclass(frozen=True)
class TwoQubitLoop:
    """Loop parameters for a two-dimer deformation.

    Closure fixes Omega_2 = kappa_+ pi, Omega_1 = kappa' pi and
    J = (pi / (2 sqrt 2)) sqrt(kappa_-^2 - kappa_+^2); the admissibility
    window is kappa_+ < kappa_- < 3 kappa_+ (equivalently Omega_2 > J > 0).
    """

    kappa_plus: int
    kappa_minus: int
    kappa_prime: int
    omega1: float
    omega2: float
    coupling_j: float
    n2z: float
    n2x: float
    a: float  # sqrt 2 * Omega_2 * n_2x, the logical x-drive on the target

    @classmethod
    def create(cls, kappa_plus: int, kappa_minus: int, kappa_prime: int) -> "TwoQubitLoop":
        kp, km, kpr = _checked_windings(
            kappa_plus=kappa_plus, kappa_minus=kappa_minus, kappa_prime=kappa_prime
        )
        if not kp < km:
            raise DomainError(f"kappa_plus < kappa_minus violated: {kp} >= {km}")
        if not km < 3 * kp:
            raise DomainError(f"kappa_minus < 3 kappa_plus violated: {km} >= {3 * kp}")
        return cls._from_windings(kp, km, kpr)

    @classmethod
    def with_forced_zero_coupling(cls, kappa_plus: int, kappa_prime: int) -> "TwoQubitLoop":
        """Commuting-limit loop with the inter-dimer coupling forced to zero.

        Not reachable with integer windings (it needs kappa_- = kappa_+); used
        to exercise the factorization audit in its trivially consistent limit.
        """
        kp, kpr = _checked_windings(kappa_plus=kappa_plus, kappa_prime=kappa_prime)
        return cls._from_windings(kp, kp, kpr)

    @classmethod
    def _from_windings(cls, kp: int, km: int, kpr: int) -> "TwoQubitLoop":
        omega2 = kp * np.pi
        coupling_j = float(coupling_strength(kp, km))
        n2z = -coupling_j / omega2 if coupling_j else 0.0  # +0.0 in the forced limit
        n2x = np.sqrt(1.0 - n2z**2)
        return cls(
            kappa_plus=kp,
            kappa_minus=km,
            kappa_prime=kpr,
            omega1=float(kpr * np.pi),
            omega2=float(omega2),
            coupling_j=coupling_j,
            n2z=float(n2z),
            n2x=float(n2x),
            a=float(np.sqrt(2.0) * omega2 * n2x),
        )


@dataclass(frozen=True)
class DeformationGenerator:
    """The anti-Hermitian generator X together with its loop parameters.

    ``loop`` is None for a raw X, whose path may be open.  The split and the
    residual are computed from ``x`` once, on first use; ``x`` is read-only
    so they cannot go stale.
    """

    x: np.ndarray
    loop: object  # OneQubitLoop | TwoQubitLoop
    n_spins: int
    parts: dict = field(default_factory=dict)

    @functools.cached_property
    def closure(self) -> np.ndarray:
        """exp(X), read-only: the shared exact identity for a loop, expm_skew(X) for a raw X."""
        if self.loop is not None:
            return _identity(self.x.shape[0])
        return _read_only(expm_skew(self.x))

    @functools.cached_property
    def triplet_split(self):
        """-iX_s over dimer 2's triplet/singlet basis in each of dimer 1's sectors s, or None.

        On four spins X^1 and X^{1-2} are diagonal in dimer 1's sigma_z basis
        (spins 1 and 2 slow), so X is zero between its four sectors |++>,
        |+->, |-+>, |-->, and every term commutes with swapping dimer 2's
        spins.  With n_2 in the x-z plane X is purely imaginary, so each -iX_s
        is real symmetric, and over dimer 2's T+, T0, T-, S0
        (``spin_model.DIMER_BASIS``) it is a 3 x 3 triplet block and a singlet
        value, uncoupled.  Returns these four 4 x 4 matrices, real and
        read-only, shape (4, 4, 4), when X's entries show it exactly: zero
        between the sectors, purely imaginary and finite in them, and -iX_s
        symmetric and equal under the swap, entry by entry.  Otherwise (one
        dimer, or any X that breaks the symmetry) None.
        """
        if self.n_spins != 4:
            return None
        blocks = self.x.take(_block_diagonal(4, 4))
        if np.count_nonzero(blocks) != np.count_nonzero(self.x) or blocks.real.any():
            return None
        split = []
        # m = -iX_s over |++>, |+->, |-+>, |-->, flat: m[4 i + j] = M_ij.  Python floats beat
        # numpy calls on 16 entries, with the same rounding.
        for m in blocks.imag.reshape(4, 16).tolist():
            if not (
                m[1] == m[2] == m[4] == m[8]
                and m[3] == m[12]
                and m[5] == m[10]
                and m[6] == m[9]
                and m[7] == m[11] == m[13] == m[14]
            ):
                return None
            # <T+|M|T0> = sqrt2 M01, <T0|M|T0> = M11 + M12, <T0|M|T-> = sqrt2 M13,
            # <S0|M|S0> = M11 - M12.
            t01, t0, t12 = _SQRT2 * m[1], m[5] + m[6], _SQRT2 * m[7]
            split += [m[0], t01, m[3], 0.0,
                      t01, t0, t12, 0.0,
                      m[3], t12, m[15], 0.0,
                      0.0, 0.0, 0.0, m[5] - m[6]]
        # Every entry of -iX_s is equal to one that the split reads, so this rejects inf and nan.
        if not math.isfinite(sum(split)):
            return None
        return _read_only(np.array(split).reshape(4, 4, 4))

    @functools.cached_property
    def closure_residual(self) -> float:
        """Frobenius distance of the float exp(X) from the identity: a loop's rounding."""
        return frobenius(expm_skew(self.x) - np.eye(self.x.shape[0]))


@functools.cache
def _identity(dim: int) -> np.ndarray:
    """exp(X) of every loop on ``dim`` states, built once per dimension (read-only)."""
    return _read_only(np.eye(dim, dtype=complex))


def _check_size(gen: DeformationGenerator, model: SpinModel) -> None:
    """DomainError unless the generator acts on the model's space."""
    if gen.x.shape != model.hamiltonian.shape:
        raise DomainError("generator dimension does not match the model")


def collective_spin(n, spins, n_spins: int) -> np.ndarray:
    """n . (sigma_a + sigma_b + ...) over the listed spins on the full space."""
    dim = 2**n_spins
    out = np.zeros((dim, dim), dtype=complex)
    for axis, comp in zip("xyz", n):
        if comp == 0.0:
            continue
        for s in spins:
            out += comp * pauli_site(axis, s, n_spins)
    return out


@functools.cache
def _cross_zz() -> np.ndarray:
    """sz_1 sz_3 + sz_1 sz_4 + sz_2 sz_3 + sz_2 sz_4 on four spins, built once per process (read-only)."""
    sz = [pauli_site("z", s, 4) for s in range(4)]
    return _read_only(sz[0] @ sz[2] + sz[0] @ sz[3] + sz[1] @ sz[2] + sz[1] @ sz[3])


def one_qubit_generator(n, kappa: int) -> DeformationGenerator:
    """X = i kappa pi n . (sigma_1 + sigma_2) on the single-dimer space."""
    loop = OneQubitLoop.create(n, kappa)
    x = _read_only(1j * loop.omega * collective_spin(loop.n, (0, 1), 2))
    return DeformationGenerator(x=x, loop=loop, n_spins=2)


def two_qubit_generator(kappa_plus: int, kappa_minus: int, kappa_prime: int) -> DeformationGenerator:
    """Two-dimer generator X^1 + X^2 + X^{1-2} with closure built in."""
    loop = TwoQubitLoop.create(kappa_plus, kappa_minus, kappa_prime)
    x1 = 1j * loop.omega1 * collective_spin((0.0, 0.0, 1.0), (0, 1), 4)
    x2 = 1j * loop.omega2 * collective_spin((loop.n2x, 0.0, loop.n2z), (2, 3), 4)
    cross = 1j * loop.coupling_j * _cross_zz()
    x = _read_only(x1 + x2 + cross)
    parts = {"dimer1": x1, "dimer2": x2, "cross": cross}
    return DeformationGenerator(x=x, loop=loop, n_spins=4, parts=parts)


@dataclass(frozen=True)
class LeakageAudit:
    """Matrix elements of X between coding and non-coding ground vectors.

    ``block`` holds them, non-coding rows by coding columns; the audit passes
    iff all of them vanish.
    """

    block: np.ndarray
    max_abs: float
    passed: bool


def leakage_audit(gen: DeformationGenerator, model: SpinModel) -> LeakageAudit:
    """Check that X never connects the coding space to the rest of the ground space."""
    _check_size(gen, model)
    _, vecs = ground_basis(model)
    dim_c = coding_space(model).dim
    block = vecs[:, dim_c:].conj().T @ gen.x @ vecs[:, :dim_c]
    max_abs = float(np.max(np.abs(block))) if block.size else 0.0
    return LeakageAudit(block=block, max_abs=max_abs, passed=max_abs < LEAKAGE_TOL)
