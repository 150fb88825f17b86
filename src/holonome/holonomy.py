"""Ground-space connection, holonomy gates and two-qubit diagnostics.

The connection on the degenerate ground space of a constant-generator loop
reduces to the matrix of X in the ordered ground basis, A_ij = <i|X|j>, and
the holonomy is Gamma = exp(-A) restricted to the coding block.  Closed-form
gate expressions exist for both the one- and two-qubit loops and are checked
against the numeric exponential; the published two-qubit factorization into
a local unitary times a controlled phase is reproduced and *audited* rather
than assumed (its control-1 block differs from the exact one whenever the
x-drive and z-coupling fail to commute).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from holonome.deformation import DeformationGenerator, OneQubitLoop, TwoQubitLoop
from holonome.errors import DomainError
from holonome.matrix_kernel import (
    _read_only,
    expm_skew,
    frobenius,
    is_unitary,
    phase_invariant_distance,
    tensor_product,
)
from holonome.spin_model import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpinModel,
    coding_space,
    ground_basis,
)

# Constant (read-only) products in the closed-form two-qubit coding connection.
II = _read_only(tensor_product(ID2, ID2))
ZI = _read_only(tensor_product(SIGMA_Z, ID2))
IX = _read_only(tensor_product(ID2, SIGMA_X))
ZZ = _read_only(tensor_product(SIGMA_Z, SIGMA_Z))

# Bell ("magic") basis columns for the local-invariant computation.
MAGIC = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class Connection:
    """Anti-Hermitian connection on the ground space, coding vectors first."""

    matrix: np.ndarray
    labels: tuple
    coding_dim: int

    @property
    def coding_block(self) -> np.ndarray:
        return self.matrix[: self.coding_dim, : self.coding_dim]


@dataclass(frozen=True)
class HolonomyGate:
    """Unitary holonomy on the coding space.

    The dynamical phase exp(-i E0 T) is never folded in here; it is stripped
    separately when comparing against exact propagators.
    """

    gamma: np.ndarray


def connection_on_ground_space(gen: DeformationGenerator, model: SpinModel) -> Connection:
    """A_ij = <i|X|j> over the ordered ground basis (coding vectors first)."""
    labels, vecs = ground_basis(model)  # raises DomainError off the working point
    matrix = vecs.conj().T @ gen.x @ vecs
    return Connection(matrix=matrix, labels=labels, coding_dim=coding_space(model).dim)


def holonomy(conn: Connection) -> HolonomyGate:
    """Gamma = exp(-A) restricted to the coding block."""
    return HolonomyGate(gamma=expm_skew(-conn.coding_block))


def one_qubit_coding_connection(loop: OneQubitLoop) -> np.ndarray:
    """Closed-form coding block: i Omega [n_z (I + sz) + sqrt2 (n_x sx + n_y sy)]."""
    nx, ny, nz = loop.n
    return 1j * loop.omega * (
        nz * (ID2 + SIGMA_Z) + np.sqrt(2.0) * (nx * SIGMA_X + ny * SIGMA_Y)
    )


def two_qubit_coding_connection(loop: TwoQubitLoop) -> np.ndarray:
    """Closed-form coding block on C2 (control slow, target fast)."""
    j = loop.coupling_j
    return 1j * (
        loop.omega1 * II
        + (loop.omega1 + j) * ZI
        + loop.a * IX
        + j * ZZ
    )


def _rotation(theta: float, axis) -> np.ndarray:
    """exp(-i theta axis . sigma) for a unit 3-vector axis."""
    ax = np.asarray(axis, dtype=float)
    dotted = ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z
    return np.cos(theta) * ID2 - 1j * np.sin(theta) * dotted


def analytic_one_qubit_gate(loop: OneQubitLoop) -> HolonomyGate:
    """Closed form exp(-i kappa pi n_z) exp(-i theta_kappa m . sigma)."""
    phase = np.exp(-1j * loop.kappa * np.pi * loop.n[2])
    return HolonomyGate(gamma=phase * _rotation(loop.theta_kappa, loop.m))


@dataclass(frozen=True)
class TwoQubitFactorization:
    """Exact two-qubit holonomy, its block form, and the published factorization.

    ``gamma_exact`` and ``block_form`` are an analytic identity (asserted at
    construction).  ``paper_factorization`` is the local-unitary x controlled
    phase product; its distance to the exact gate is recorded in
    ``discrepancy`` and deliberately *not* asserted to vanish.
    """

    loop: TwoQubitLoop
    gamma_exact: np.ndarray
    block_u0: np.ndarray
    block_u1: np.ndarray
    paper_factorization: np.ndarray
    controlled_gate: np.ndarray
    discrepancy: float
    invariants_exact: tuple
    invariants_controlled: tuple
    invariants_distance: float

    @property
    def invariants_match(self) -> bool:
        return self.invariants_distance < 1e-8


def controlled_phase_gate(theta: float) -> np.ndarray:
    """|0><0| x I + |1><1| x exp(i theta sigma_z) on the logical pair."""
    target = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = ID2
    out[2:, 2:] = target
    return out


def analytic_two_qubit_gate(loop: TwoQubitLoop) -> TwoQubitFactorization:
    """Exact gate, control-block split and the published factorization, audited."""
    a, j = loop.a, loop.coupling_j
    gamma_exact = expm_skew(-two_qubit_coding_connection(loop))

    # Split on the control (slow) sigma_z eigenspaces: scalar phases factor out.
    # The control-0 block and the target factor of the local unitary share
    # exp(-i (a sigma_x + j sigma_z)).
    drive = expm_skew(-1j * (a * SIGMA_X + j * SIGMA_Z))
    u0 = np.exp(-1j * (2.0 * loop.omega1 + j)) * drive
    u1 = np.exp(1j * j) * expm_skew(-1j * (a * SIGMA_X - j * SIGMA_Z))
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = u0
    block[2:, 2:] = u1
    if frobenius(gamma_exact - block) > 1e-10:
        raise AssertionError("control-block identity violated: construction bug")

    local = tensor_product(expm_skew(-1j * (loop.kappa_prime * np.pi + j) * SIGMA_Z), drive)
    controlled = controlled_phase_gate(2.0 * j)
    paper = ((-1.0) ** loop.kappa_prime) * local @ controlled

    inv_exact = local_invariants(gamma_exact)
    inv_ctrl = local_invariants(controlled)
    inv_dist = float(
        np.hypot(abs(inv_exact[0] - inv_ctrl[0]), abs(inv_exact[1] - inv_ctrl[1]))
    )
    return TwoQubitFactorization(
        loop=loop,
        gamma_exact=gamma_exact,
        block_u0=u0,
        block_u1=u1,
        paper_factorization=paper,
        controlled_gate=controlled,
        discrepancy=phase_invariant_distance(gamma_exact, paper),
        invariants_exact=inv_exact,
        invariants_controlled=inv_ctrl,
        invariants_distance=inv_dist,
    )


def local_invariants(u) -> tuple:
    """Makhlin invariants (G1 complex, G2 real) of a two-qubit unitary.

    Computed in the magic basis: m = (Q^dag U Q)^T (Q^dag U Q),
    G1 = tr(m)^2 / (16 det U), G2 = (tr(m)^2 - tr(m^2)) / (4 det U).
    Invariant under left/right multiplication by local unitaries.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DomainError("local invariants are defined for 4 x 4 unitaries")
    if not is_unitary(u):
        raise DomainError("local invariants require a unitary input")
    um = MAGIC.conj().T @ u @ MAGIC
    m = um.T @ um
    det = np.linalg.det(u)
    tr2 = np.trace(m) ** 2
    g1 = tr2 / (16.0 * det)
    g2 = (tr2 - np.trace(m @ m)) / (4.0 * det)
    return complex(g1), float(g2.real)
