"""Ground-space connection, holonomy gates, leakage audit and two-qubit diagnostics.

The connection on the degenerate ground space of a loop reduces to the matrix
of the X that the loop carries in the ordered ground basis, A_ij = <i|X|j>.  A
model sits at omega = J, so that basis is one label table, the same at every
coupling, and the loop alone fixes the connection: its ``dim`` gives the spin
count, and no model is built.  The holonomy is Gamma = exp(-A) restricted to the
coding block; the leakage audit reads A's block between non-coding and coding
vectors.  Closed-form gate expressions exist for both the one- and two-qubit
loops; the two-qubit gate is built from 2 x 2 Rodrigues rotations with no
eigensolver, and its distance to the holonomy of the loop's connection is a
reported number, not an assertion.
The published two-qubit factorization into a local unitary times a
controlled phase is reproduced and *audited* rather than assumed (its
control-1 block differs from the exact one whenever the x-drive and
z-coupling fail to commute).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from holonome.deformation import OneQubitLoop, TwoQubitLoop, _check_size
from holonome.matrix_kernel import expm_skew, frobenius, phase_invariant_distance
from holonome.spin_model import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, SpinModel, _ground_columns


@dataclass(frozen=True, eq=False)
class Connection:
    """Anti-Hermitian connection on the ground space, coding vectors first."""

    matrix: np.ndarray
    coding_dim: int

    @property
    def coding_block(self) -> np.ndarray:
        return self.matrix[: self.coding_dim, : self.coding_dim]


LEAKAGE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LeakageAudit:
    """The largest matrix element of X between coding and non-coding ground vectors; the audit
    passes iff all of them vanish."""

    max_abs: float
    passed: bool


@dataclass(frozen=True, eq=False)
class HolonomyGate:
    """Unitary holonomy on the coding space.

    The dynamical phase exp(-i E0 T) is never folded in here; it is stripped
    separately when comparing against exact propagators.
    """

    gamma: np.ndarray


def connection_on_ground_space(loop, model: SpinModel) -> Connection:
    """The loop's connection (``_connection``), for a loop whose X acts on the model's space."""
    _check_size(loop, model)
    return _connection(loop)


def _connection(loop) -> Connection:
    """A_ij = <i|X|j> over the ordered ground basis (coding vectors first), X the loop's.

    The basis is the label table of the loop's spins (``loop.dim`` = 2^n_spins), whose first
    2^(n_spins / 2) columns span the coding space.
    """
    n_spins = loop.dim.bit_length() - 1
    vecs = _ground_columns(n_spins)
    matrix = vecs.conj().T @ loop.x @ vecs
    return Connection(matrix=matrix, coding_dim=2 ** (n_spins // 2))


def leakage_audit(conn: Connection) -> LeakageAudit:
    """Check that X never connects the coding space to the rest of the ground space."""
    block = conn.matrix[conn.coding_dim :, : conn.coding_dim]
    max_abs = float(np.max(np.abs(block))) if block.size else 0.0
    return LeakageAudit(max_abs=max_abs, passed=max_abs < LEAKAGE_TOL)


def holonomy(conn: Connection) -> HolonomyGate:
    """Gamma = exp(-A) restricted to the coding block."""
    return HolonomyGate(gamma=expm_skew(-conn.coding_block))


# Row-major entries of I, sigma_x, sigma_y and sigma_z, one (i, x, y, z) tuple per entry.
_PAULI_ENTRIES = tuple(zip(*(p.ravel().tolist() for p in (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z))))


def _rotation_entries(theta: float, axis) -> list:
    """Row-major entries of exp(-i theta axis . sigma), a unit 3-vector axis, as Python complex
    scalars: cos theta I - i sin theta axis . sigma with the operations numpy performs on it over
    the arrays I and sigma, so that each entry is that array expression's to the sign of a zero."""
    cos, isin = complex(math.cos(theta)), 1j * math.sin(theta)
    mx, my, mz = complex(axis[0]), complex(axis[1]), complex(axis[2])
    return [cos * i - isin * (mx * x + my * y + mz * z) for i, x, y, z in _PAULI_ENTRIES]


def _rotation(theta: float, axis) -> np.ndarray:
    """exp(-i theta axis . sigma) for a unit 3-vector axis."""
    a, b, c, d = _rotation_entries(theta, axis)
    return np.array([[a, b], [c, d]])


def analytic_one_qubit_gate(loop: OneQubitLoop) -> HolonomyGate:
    """Closed form exp(-i kappa pi n_z) exp(-i theta_kappa m . sigma), from Python scalars."""
    phase = cmath.exp(-1j * loop.kappa * math.pi * loop.n[2])
    a, b, c, d = _rotation_entries(loop.theta_kappa, loop.m)
    return HolonomyGate(gamma=np.array([[phase * a, phase * b], [phase * c, phase * d]]))


@dataclass(frozen=True, eq=False)
class TwoQubitFactorization:
    """Exact two-qubit holonomy and the published factorization.

    ``gamma_exact`` is the block-diagonal closed form u0 (+) u1 of exp(-A),
    u0 (control 0) at [:2, :2] and u1 (control 1) at [2:, 2:].
    ``block_residual`` is its Frobenius distance to the numeric holonomy of
    the loop's connection (``holonomy(_connection(loop))``, the gate a
    ``two-qubit`` report compares against), a reported number (round-off of
    order ||X||_F u), computed on first use.  ``paper_factorization`` is the
    local-unitary x controlled phase product; its distance to the exact gate
    is recorded in ``discrepancy`` and deliberately *not* asserted to vanish.
    The Makhlin invariants are also computed on first use.
    """

    loop: TwoQubitLoop
    gamma_exact: np.ndarray
    paper_factorization: np.ndarray
    controlled_gate: np.ndarray
    discrepancy: float

    @functools.cached_property
    def block_residual(self) -> float:
        """||Gamma - gamma_exact||_F for Gamma the holonomy of the loop's connection."""
        return frobenius(holonomy(_connection(self.loop)).gamma - self.gamma_exact)

    @functools.cached_property
    def invariants_exact(self) -> tuple:
        return _block_invariants(self.gamma_exact)

    @functools.cached_property
    def invariants_controlled(self) -> tuple:
        return _block_invariants(self.controlled_gate)

    @functools.cached_property
    def invariants_distance(self) -> float:
        (g1e, g2e), (g1c, g2c) = self.invariants_exact, self.invariants_controlled
        return float(np.hypot(abs(g1e - g1c), abs(g2e - g2c)))

    @property
    def invariants_match(self) -> bool:
        return self.invariants_distance < 1e-8


def _block_diagonal(u0, u1) -> np.ndarray:
    """|0><0| x u0 + |1><1| x u1: 2 x 2 blocks on the control's sigma_z eigenspaces."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = u0
    out[2:, 2:] = u1
    return out


def controlled_phase_gate(theta: float) -> np.ndarray:
    """|0><0| x I + |1><1| x exp(i theta sigma_z) on the logical pair."""
    return _block_diagonal(ID2, np.diag([np.exp(1j * theta), np.exp(-1j * theta)]))


def analytic_two_qubit_gate(loop: TwoQubitLoop) -> TwoQubitFactorization:
    """Exact gate, control-block split and the published factorization, in closed form.

    On the control (slow) sigma_z eigenspaces, exp(-A) splits into
    u0 = e^{-i (2 Omega_1 + J)} exp(-i (a sigma_x + J sigma_z)) and
    u1 = e^{i J} exp(-i (a sigma_x - J sigma_z)), both Rodrigues rotations by
    r = hypot(a, J).  Omega_1 = kappa' pi, so e^{-2 i Omega_1} = 1 exactly, and
    exp(-i (kappa' pi + J) sigma_z) = (-1)^kappa' diag(e^{-iJ}, e^{iJ}): the
    local factor's sign cancels the published prefactor (-1)^kappa'.
    """
    a, j = loop.a, loop.coupling_j
    r = math.hypot(a, j)  # a > 0 on every loop
    phase = cmath.exp(1j * j)
    drive = _rotation(r, (a / r, 0.0, j / r))
    u0 = phase.conjugate() * drive
    u1 = phase * _rotation(r, (a / r, 0.0, -j / r))
    gamma_exact = _block_diagonal(u0, u1)
    # (diag(e^{-iJ}, e^{iJ}) x drive) times the controlled phase, block by block (columns scaled).
    controlled = controlled_phase_gate(2.0 * j)
    paper = _block_diagonal(u0, (phase * drive) * controlled[2:, 2:].diagonal())
    return TwoQubitFactorization(
        loop=loop,
        gamma_exact=gamma_exact,
        paper_factorization=paper,
        controlled_gate=controlled,
        discrepancy=phase_invariant_distance(gamma_exact, paper),
    )


def _block_invariants(u) -> tuple:
    """Makhlin invariants (G1 complex, G2 real) of a block-diagonal u0 (+) u1 from its blocks'
    Python complex scalars: G1 = |tr(u0^dag u1)|^2 / 4, real, and G2 = 1 + 2 G1 (Makhlin,
    quant-ph/0002045; Zhang, Vala, Sastry and Whaley, quant-ph/0209120)."""
    u0, u1 = u[:2, :2].ravel().tolist(), u[2:, 2:].ravel().tolist()
    g1 = abs(sum([a.conjugate() * b for a, b in zip(u0, u1)])) ** 2 / 4.0
    return complex(g1), 1.0 + 2.0 * g1
