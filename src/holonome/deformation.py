"""Anti-Hermitian loop generators and their closure/leakage checks.

A loop is a one-parameter isospectral deformation exp(X tau) H exp(-X tau)
with constant anti-Hermitian X.  Closure of the loop means exp(X) = 1; the
parameter choices below guarantee it analytically, and the residual is
checked numerically after construction as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from holonome.errors import DomainError
from holonome.matrix_kernel import _read_only, expm_skew, frobenius
from holonome.spin_model import SpinModel, coding_space, ground_basis, pauli_site

# Winding numbers above this would need angle reduction beyond double precision.
MAX_WINDING = 10**6

ONE_QUBIT_CLOSURE_TOL = 1e-10
# Looser for two qubits: J is irrational and cancels against kappa_minus pi.
TWO_QUBIT_CLOSURE_TOL = 1e-8

LEAKAGE_TOL = 1e-12


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
        n = np.asarray(n, dtype=float)
        if n.shape != (3,):
            raise DomainError("axis must be a real 3-vector")
        if not abs(np.linalg.norm(n) - 1.0) <= 1e-12:  # NaN fails too
            raise DomainError("axis must be a unit vector")
        if not (1 <= int(kappa) <= MAX_WINDING):
            raise DomainError(f"winding number must be in [1, {MAX_WINDING}]")
        if abs(abs(n[2]) - 1.0) < 1e-12:
            raise DomainError("|n_z| = 1 gives [H, X] = 0: the loop is trivial")
        kappa = int(kappa)
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


def _checked_windings(**windings) -> tuple:
    """The windings as ints, each in [1, MAX_WINDING], else DomainError naming it."""
    windings = {name: int(k) for name, k in windings.items()}
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

    exp(X) is computed once, on first use; ``x`` is read-only so it cannot go stale.
    """

    x: np.ndarray
    loop: object  # OneQubitLoop | TwoQubitLoop
    n_spins: int
    parts: dict = field(default_factory=dict)

    @functools.cached_property
    def closure(self) -> np.ndarray:
        """exp(X), read-only; the identity for a closed loop."""
        return _read_only(expm_skew(self.x))

    @functools.cached_property
    def closure_residual(self) -> float:
        """Frobenius distance of exp(X) from the identity."""
        return frobenius(self.closure - np.eye(self.x.shape[0]))


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


def closure_residual(x) -> float:
    """Frobenius distance of exp(X) from the identity."""
    x = np.asarray(x, dtype=complex)
    return frobenius(expm_skew(x) - np.eye(x.shape[0]))


def _checked(gen: DeformationGenerator, tol: float) -> DeformationGenerator:
    """``gen`` if exp(X) is within ``tol`` of the identity, else DomainError."""
    if gen.closure_residual > tol:
        raise DomainError(f"loop failed to close: residual {gen.closure_residual:.3e}")
    return gen


def one_qubit_generator(n, kappa: int) -> DeformationGenerator:
    """X = i kappa pi n . (sigma_1 + sigma_2) on the single-dimer space."""
    loop = OneQubitLoop.create(n, kappa)
    x = _read_only(1j * loop.omega * collective_spin(loop.n, (0, 1), 2))
    return _checked(DeformationGenerator(x=x, loop=loop, n_spins=2), ONE_QUBIT_CLOSURE_TOL)


def two_qubit_generator(kappa_plus: int, kappa_minus: int, kappa_prime: int) -> DeformationGenerator:
    """Two-dimer generator X^1 + X^2 + X^{1-2} with closure built in."""
    loop = TwoQubitLoop.create(kappa_plus, kappa_minus, kappa_prime)
    x1 = 1j * loop.omega1 * collective_spin((0.0, 0.0, 1.0), (0, 1), 4)
    x2 = 1j * loop.omega2 * collective_spin((loop.n2x, 0.0, loop.n2z), (2, 3), 4)
    sz = [pauli_site("z", s, 4) for s in range(4)]
    cross = 1j * loop.coupling_j * (
        sz[0] @ sz[2] + sz[0] @ sz[3] + sz[1] @ sz[2] + sz[1] @ sz[3]
    )
    x = _read_only(x1 + x2 + cross)
    parts = {"dimer1": x1, "dimer2": x2, "cross": cross}
    gen = DeformationGenerator(x=x, loop=loop, n_spins=4, parts=parts)
    return _checked(gen, TWO_QUBIT_CLOSURE_TOL)


@dataclass(frozen=True)
class LeakageAudit:
    """Matrix elements of X between coding and non-coding ground vectors.

    ``entries`` lists (non-coding label, coding label, element); the audit
    passes iff all of them vanish.  ``named_elements`` carries the handful of
    cross-coupling elements with known closed-form values (two dimers only).
    """

    entries: tuple
    max_abs: float
    passed: bool
    named_elements: dict


def leakage_audit(gen: DeformationGenerator, model: SpinModel) -> LeakageAudit:
    """Check that X never connects the coding space to the rest of the ground space."""
    labels, vecs = ground_basis(model)
    dim_c = coding_space(model).dim
    coding = vecs[:, :dim_c]
    noncoding = vecs[:, dim_c:]
    block = noncoding.conj().T @ gen.x @ coding
    entries = tuple(
        (labels[dim_c + i], labels[j], complex(block[i, j]))
        for i in range(block.shape[0])
        for j in range(block.shape[1])
    )
    max_abs = float(np.max(np.abs(block))) if block.size else 0.0

    named = {}
    if model.n_spins == 4 and "cross" in gen.parts:
        cross = gen.parts["cross"]
        col = {lab: vecs[:, k] for k, lab in enumerate(labels)}

        def elem(bra, ket):
            return complex(col[bra].conj() @ cross @ col[ket])

        named["<T+T+|Xc|T+T+>"] = elem("T+T+", "T+T+")
        named["<T+S0|Xc|T+T0>"] = elem("T+S0", "T+T0")
        named["<S0T+|Xc|T0T+>"] = elem("S0T+", "T0T+")
        named["<S0S0|Xc|T0S0>"] = elem("S0S0", "T0S0")
        named["<S0T0|Xc|T0S0>"] = elem("S0T0", "T0S0")

    return LeakageAudit(
        entries=entries,
        max_abs=max_abs,
        passed=max_abs < LEAKAGE_TOL,
        named_elements=named,
    )
