"""Closed loops: their anti-Hermitian generators and closure checks.

A loop is a one-parameter isospectral deformation exp(X tau) H exp(-X tau)
with constant anti-Hermitian X.  The loop closes, exp(X) = 1, exactly for
the integer windings the loop classes accept: n . (sigma_1 + sigma_2) has
eigenvalues 2, 0, 0, -2, and in dimer 1's sigma_z sector s in {2, 0, -2}
the two-dimer X is e^{i kappa' pi s} times a rotation of dimer 2 by kappa_+ pi
(s = 2, 0) or kappa_- pi (s = -2).  So a loop is its own generator: it holds
its windings, derives its other fields from them, and carries X, built from
the loop on first read.  exp(X) is taken only for the float residual a report
states, and the propagator's split of X over the last dimer's triplet and
singlet in each sector (one for one dimer, dimer 1's for two) is written from
the loop, not read off X.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from holonome.errors import DomainError
from holonome.matrix_kernel import _read_only, expm_skew, frobenius
from holonome.spin_model import SpinModel, pauli_site

# Winding numbers above this would need angle reduction beyond double precision.
MAX_WINDING = 10**6

# Documented bounds on the reports' float residual ||exp(X) - 1||_F (read by the
# benchmark's checks); it grows as ||X||_F u past them near MAX_WINDING.
ONE_QUBIT_CLOSURE_TOL = 1e-10
TWO_QUBIT_CLOSURE_TOL = 1e-8

_SQRT2 = math.sqrt(2.0)


class _Loop:
    """A closed loop, fixed by its windings, and what it derives from them.

    The windings (and one dimer's axis) are a loop's only constructor arguments; its other
    fields are derived from them, so ``dataclasses.replace`` derives them afresh.  Every
    construction (the generated constructor, ``replace``) checks them first and
    raises one ``DomainError`` for a loop that would not close or would be trivial.  ``dim``
    is the size of the space X acts on, so a size check builds no X.  Read-only, built on
    first read: ``x``, the anti-Hermitian generator X; ``closure_residual``; ``triplet_split``,
    (triplets, singlets, phases): -iX over the last dimer's T+, T0, T-
    (``spin_model.DIMER_BASIS``) and S0 in each sigma_z sector of the dimers before it, as
    real symmetric 3 x 3 blocks and singlet values, shapes (k, 3, 3) and (k,), each block
    times ``phases`` entry by entry unless that is None.  Every entry of the split is built
    from the loop and rounds as the same entry of X does.
    """

    @functools.cached_property
    def x(self) -> np.ndarray:
        return _read_only(self._x())

    @functools.cached_property
    def closure_residual(self) -> float:
        """Frobenius distance of the float exp(X) from the identity: a loop's rounding."""
        return frobenius(expm_skew(self.x) - np.eye(self.dim))


@dataclass(frozen=True)
class OneQubitLoop(_Loop):
    """Loop parameters for a single-dimer deformation.

    The generator is i kappa pi n . (sigma_1 + sigma_2).  The induced logical
    rotation axis m and angle theta_kappa are derived fields.
    """

    n: tuple
    kappa: int
    omega: float = field(init=False)
    theta_kappa: float = field(init=False)
    m: tuple = field(init=False)

    dim = 4

    def __post_init__(self):
        kappa = _checked_int("kappa", self.kappa)
        (nx, ny, nz), root = _checked_axis(self.n, kappa)
        omega = kappa * math.pi
        vars(self).update(n=(nx, ny, nz), kappa=kappa,  # frozen: no setattr
                          omega=omega, theta_kappa=omega * root,
                          m=(_SQRT2 * nx / root, _SQRT2 * ny / root, nz / root))

    def _x(self) -> np.ndarray:
        """X = i kappa pi n . (sigma_1 + sigma_2)."""
        return 1j * self.omega * collective_spin(self.n, (0, 1), 2)

    @functools.cached_property
    def triplet_split(self):
        """One sector: -iX = Omega n . S, S = sigma_1 + sigma_2, is 0 on S0, and on the triplet
        Omega diag(2 n_z, 0, -2 n_z) with <T+|.|T0> = <T0|.|T-> = sqrt2 Omega (n_x - i n_y).
        For n_y != 0 that is D R D^dag, R real with r = hypot(n_x, n_y) for n_x,
        D = diag(e^{-i phi}, 1, e^{i phi}), phi = atan2(n_y, n_x), and ``phases`` holds
        e^{-i phi (m_j - m_k)}, m = (1, 0, -1).  D is diagonal over the product basis too, so
        it commutes with H: exp(-i(-iX + HT)) = D exp(-i(R + HT)) D^dag.
        """
        nx, ny, nz = self.n
        tilt = self.omega * (2.0 * nz)
        d = _SQRT2 * (self.omega * (math.hypot(nx, ny) if ny else nx))
        triplets = _read_only(np.array([[[tilt, d, 0.0], [d, 0.0, d], [0.0, d, -tilt]]]))
        phases = None
        if ny:
            m = np.array([1.0, 0.0, -1.0])
            phases = _read_only(np.exp(-1j * math.atan2(ny, nx) * np.subtract.outer(m, m)))
        return triplets, _read_only(np.array([0.0])), phases


def _checked_axis(n, kappa: int) -> tuple:
    """(n as floats, sqrt(2 - n_z^2)) of ``OneQubitLoop(n, kappa)``, kappa an int, checked in
    its order: n a real unit 3-vector, kappa in [1, MAX_WINDING], |n_z| < 1; pi root is theta_1."""
    try:
        n = np.asarray(n, dtype=float)
    except OverflowError:  # an int component beyond the float range
        raise DomainError("axis is beyond the float range") from None
    if n.shape != (3,):
        raise DomainError("axis must be a real 3-vector")
    nx, ny, nz = n.tolist()
    if not abs(math.hypot(nx, ny, nz) - 1.0) <= 1e-12:  # NaN fails too; no overflow
        raise DomainError("axis must be a unit vector")
    if not (1 <= kappa <= MAX_WINDING):
        raise DomainError(f"winding number must be in [1, {MAX_WINDING}]")
    if abs(abs(nz) - 1.0) < 1e-12:
        raise DomainError("|n_z| = 1 gives [H, X] = 0: the loop is trivial")
    # nz ** 2 is libm's pow, as numpy's scalar power is; it can differ from nz * nz.
    return (nx, ny, nz), math.sqrt(2.0 - nz**2)


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
class TwoQubitLoop(_Loop):
    """Loop parameters for a two-dimer deformation.

    Closure fixes Omega_2 = kappa_+ pi, Omega_1 = kappa' pi and
    J = (pi / (2 sqrt 2)) sqrt(kappa_-^2 - kappa_+^2); the admissibility
    window is kappa_+ < kappa_- < 3 kappa_+ (equivalently Omega_2 > J > 0).
    The constructor also admits kappa_- = kappa_+, the commuting limit J = 0
    that ``with_forced_zero_coupling`` builds and ``two_qubit_generator`` rejects.
    """

    kappa_plus: int
    kappa_minus: int
    kappa_prime: int
    omega1: float = field(init=False)
    omega2: float = field(init=False)
    coupling_j: float = field(init=False)
    n2z: float = field(init=False)
    n2x: float = field(init=False)
    a: float = field(init=False)  # sqrt 2 * Omega_2 * n_2x, the logical x-drive on the target

    dim = 16

    def __post_init__(self):
        kp, km, kpr = _checked_windings(kappa_plus=self.kappa_plus,
                                        kappa_minus=self.kappa_minus,
                                        kappa_prime=self.kappa_prime)
        if not kp <= km:  # kappa_- = kappa_+ is the commuting limit
            raise DomainError(f"kappa_plus < kappa_minus violated: {kp} >= {km}")
        if not km < 3 * kp:
            raise DomainError(f"kappa_minus < 3 kappa_plus violated: {km} >= {3 * kp}")
        omega2 = kp * np.pi
        coupling_j = float(coupling_strength(kp, km))
        n2z = -coupling_j / omega2 if coupling_j else 0.0  # +0.0 in the forced limit
        n2x = np.sqrt(1.0 - n2z**2)
        vars(self).update(kappa_plus=kp, kappa_minus=km, kappa_prime=kpr,
                          omega1=float(kpr * np.pi), omega2=float(omega2),
                          coupling_j=coupling_j, n2z=float(n2z), n2x=float(n2x),
                          a=float(np.sqrt(2.0) * omega2 * n2x))

    @classmethod
    def with_forced_zero_coupling(cls, kappa_plus: int, kappa_prime: int) -> "TwoQubitLoop":
        """Commuting-limit loop with the inter-dimer coupling forced to zero.

        Not reachable with integer windings (it needs kappa_- = kappa_+); used
        to exercise the factorization audit in its trivially consistent limit.
        """
        return cls(kappa_plus, kappa_plus, kappa_prime)

    def _x(self) -> np.ndarray:
        """X^1 + X^2 + X^{1-2}."""
        x1 = 1j * self.omega1 * collective_spin((0.0, 0.0, 1.0), (0, 1), 4)
        x2 = 1j * self.omega2 * collective_spin((self.n2x, 0.0, self.n2z), (2, 3), 4)
        return x1 + x2 + 1j * self.coupling_j * _cross_zz()

    @functools.cached_property
    def triplet_split(self):
        """Dimer 1's sectors s = 2, 0, -2 and no phases: -iX_s = Omega_1 s + Omega_2 n_2 . S
        + J s S_z, S = sigma_3 + sigma_4, S_z = diag(2, 0, -2), <T+|S_x|T0> = <T0|S_x|T-> = sqrt2.
        """
        tilt, d = self.omega2 * (2.0 * self.n2z), _SQRT2 * (self.omega2 * self.n2x)
        triplets, singlets = [], []
        for s in (2.0, 0.0, -2.0):
            e, c = self.omega1 * s, self.coupling_j * (2.0 * s)
            triplets.append([[(e + tilt) + c, d, 0.0], [d, e, d], [0.0, d, (e - tilt) - c]])
            singlets.append(e)
        return _read_only(np.array(triplets)), _read_only(np.array(singlets)), None


def _check_size(loop, model: SpinModel) -> None:
    """DomainError unless the loop's X acts on the model's space."""
    if loop.dim != model.dim:
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


def one_qubit_generator(n, kappa: int) -> OneQubitLoop:
    """The loop of X = i kappa pi n . (sigma_1 + sigma_2) on the single-dimer space."""
    return OneQubitLoop(n, kappa)


def two_qubit_generator(kappa_plus: int, kappa_minus: int, kappa_prime: int) -> TwoQubitLoop:
    """The loop of the two-dimer generator X^1 + X^2 + X^{1-2}, with closure built in: the
    constructor's checks, and kappa_+ < kappa_- (the coupled loop, J > 0)."""
    loop = TwoQubitLoop(kappa_plus, kappa_minus, kappa_prime)
    if loop.kappa_minus == loop.kappa_plus:
        raise DomainError(f"kappa_plus < kappa_minus violated: {loop.kappa_plus} >= "
                          f"{loop.kappa_minus}")
    return loop
