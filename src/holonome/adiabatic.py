"""Exact and ODE propagators for the deformed Hamiltonian, and fidelity sweeps.

In the co-rotating frame the generator of the dynamics is the *constant*
Hermitian matrix -iX + HT, so the full-loop propagator has the closed form
U(1) = exp(X) exp(-i(-iX + HT)) and is exact at any T.  A loop closes,
exp(X) = 1 exactly, so U(1) = exp(-i(-iX + HT)).  Each function here takes
the loop, which carries X and its triplet split.  H is diagonal, X acts on
the last dimer's triplet T+, T0, T- and singlet S0 in each sigma_z sector of
the dimers before it (one sector for one dimer; dimer 1's four sigma_z
states for two, where X^1 and X^{1-2} are diagonal), and both commute with
swapping that dimer's spins, so in each sector the frame is a 3 x 3 block
over the triplet and a value on the singlet.  The block is real, up to a
fixed diagonal phase conjugation for one dimer whose axis has n_y != 0.  A
sweep over T is one stacked pass: the frames of all T are one broadcast,
the exponentials of the triplet blocks of every sector (dimer 1's |+-> and
|-+> share S1 = 0) one stacked real eigendecomposition of 3 x 3 matrices,
each singlet one phase, and the coding-block restrictions, traces,
ground-space escapes (the ground projector is a 0/1 row mask), their moduli
and norms and the phases e^{+-i E0 T} are stacked matrix products and array
expressions that round as the one-T computation does.  Only the square of
each norm, the divisions and the clamps are taken per T, as scalar steps on
Python floats, so every run is bit-identical to evaluating that T alone.

A classical RK4 integration of the Schrodinger equation with the
tau-dependent Hamiltonian is kept alongside purely as an independent oracle
against construction bugs.  It runs in the eigenbasis W of X, where
e^{X tau} is the diagonal D(tau) = diag(e^{i lam tau}), so the integrated
U~ = W^dag U W obeys dU~/dtau = A(tau) U~ with A(tau) = D(tau) (-iT W^dag H W)
D(tau)^dag.  Each RK4 step is linear in U~, so it is a transfer matrix
P_n = I + dt/6 (A_lo + 2 K2 + 2 K3 + K4) with K2 = A_mid (I + dt/2 A_lo),
K3 = A_mid (I + dt/2 K2) and K4 = A_hi (I + dt K3).  On the uniform grid
tau_n = n dt the deformation is covariant, A(tau_n + s) = D(tau_n) A(s)
D(tau_n)^dag, so every step is the first one conjugated by phases,
P_n = D(tau_n) P_0 D(tau_n)^dag, and the ordered product collapses to
U~ = P_{N-1} ... P_0 = D(1) (D(dt)^dag P_0)^N.  P_0 is built once and raised
to the N-th power by binary squaring: about 2 log2 N products and O(dim^2)
memory whatever the number of steps.  This is the same RK4 on the same step
grid, not a different integrator.  The oracle stays independent of the
closed form: it never uses the rotating-frame generator, the triplet
split or a matrix exponential, only H, the eigenvectors of the dense X and
fourth-order time stepping, so a wrong generator, split, frame or sign
shows up as an O(1) disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from holonome.deformation import _check_size
from holonome.errors import DomainError
from holonome.holonomy import HolonomyGate
from holonome.matrix_kernel import _U, _block_diagonal, _read_only, exp_minus_i, is_unitary
from holonome.spin_model import SpinModel, coding_space


@dataclass(frozen=True, eq=False)
class AdiabaticRun:
    """One point of an adiabatic sweep: exact propagator and its quality."""

    T: float
    propagator: np.ndarray
    fidelity: float
    leakage: float
    dynamical_phase: complex


# Largest phase error, in radians, a propagator may carry.  Evaluating
# e^{-i E0 T} and exp(-i(-iX + HT)) loses about (|E0| T + ||H T||) u of phase
# (u the unit roundoff, ||.|| the Frobenius norm), which bounds T per model.
_PHASE_TOL = 1e-6


def _t_max(model: SpinModel) -> float:
    """Largest |T| whose phase error (|E0| + ||H||) |T| u stays within _PHASE_TOL."""
    scale = abs(model.ground_energy) + model.hamiltonian_norm
    # Rounds as _PHASE_TOL / (scale _U) (_U is a power of two), which underflows to 0 / 0.
    return _PHASE_TOL / _U / scale


def _finite_time(T, t_max: float) -> float:
    T = float(T)
    if not math.isfinite(T):
        raise DomainError(f"T must be finite, got {T!r}")
    if abs(T) > t_max:
        raise DomainError(
            f"|T| must be at most {t_max:.6g} for this model "
            f"(phase error {_PHASE_TOL:g} rad), got {T!r}"
        )
    return T


def _from_triplet_basis() -> np.ndarray:
    """The linear map from a sector's exponential over dimer 2's triplet/singlet basis to its
    block over dimer 2's product basis, as a 10 x 16 matrix.

    Row 3 i + j takes entry (i, j) of the triplet block E over T+, T0, T-, row 9 the singlet
    phase p, and column 4 k + l is entry (k, l) over |++>, |+->, |-+>, |-->.  With B's columns
    T+, T0, T-, S0 (``spin_model.DIMER_BASIS``), B (E + p) B^T has entry (k, l) = w_k w_l
    E[t(k), t(l)], t = (0, 1, 1, 2), w = (1, r, r, 1), r = 1/sqrt2 and w_1 w_2 = 1/2 exactly,
    plus p/2 [[1, -1], [-1, 1]] in the middle 2 x 2.  Each entry is one product by 1, r or
    1/2, or the sum of two halves, so a matrix product rounds it alike in any summation order.
    """
    t, w = (0, 1, 1, 2), (1.0, math.sqrt(0.5), math.sqrt(0.5), 1.0)
    out = np.zeros((10, 16))
    for k in range(4):
        for l in range(4):
            out[3 * t[k] + t[l], 4 * k + l] = 0.5 if t[k] == t[l] == 1 else w[k] * w[l]
    out[9, [5, 6, 9, 10]] = (0.5, -0.5, -0.5, 0.5)
    return out


_FROM_TRIPLET_BASIS = _read_only(_from_triplet_basis())


def _propagators(model: SpinModel, loop, ts: np.ndarray) -> np.ndarray:
    """Stack of exp(-i(-iX + HT)) over the (checked) times ``ts``, in one pass.

    X splits over the last dimer's triplet and singlet in each sigma_z sector
    of the dimers before it (``triplet_split``): one sector for one dimer,
    S1 = 2, 0, -2 of dimer 1 for two.  So does H, the real diagonal
    ``model.diagonal``, whose |+-> and |-+> entries are equal for each dimer,
    so the frame -iX + HT is a 3 x 3 triplet block, real up to one dimer's
    fixed ``phases``, and a singlet value per sector.  The real triplet blocks
    of every T and sector go through one stacked eigendecomposition
    (``exp_minus_i``), each singlet is one phase, and dimer 1's |++>, |+->,
    |-+>, |--> take the blocks of S1 = 2, 0, 0, -2.
    """
    _check_size(loop, model)
    triplets, singlets, phases = loop.triplet_split
    # H over the last dimer in each sector: one dimer's own entries, or those in dimer 1's
    # |++>, |+->, |--> rows (S1 = 2, 0, -2).  H_s over T+, T0, T-, S0 is diag(h_++, h_+-, h_--, h_-+).
    h = model.diagonal.reshape(-1, 4)
    if len(h) == 4:
        h = h[[0, 1, 3]]
    hs = np.zeros(triplets.shape)
    hs[:, range(3), range(3)] = h[:, [0, 1, 3]]
    triplet_exps = exp_minus_i(triplets + hs * ts[:, None, None, None]).reshape(len(ts), -1, 9)
    if phases is not None:
        triplet_exps = triplet_exps * phases.ravel()
    singlet_phases = np.exp(-1j * (singlets + h[:, 2] * ts[:, None]))[..., None]
    blocks = np.concatenate((triplet_exps, singlet_phases), axis=-1) @ _FROM_TRIPLET_BASIS
    if len(singlets) == 1:
        return blocks.reshape(len(ts), 4, 4)
    us = np.zeros((len(ts), 16, 16), dtype=complex)
    us.reshape(-1, 256)[:, _block_diagonal(4, 4)] = blocks.take((0, 1, 1, 2), 1).reshape(-1, 64)
    return us


def exact_propagator(model: SpinModel, loop, T: float) -> np.ndarray:
    """Full-loop propagator exp(-i(-iX + HT)) (exp(X) = 1); exact for any T up to ``_t_max``."""
    return _propagators(model, loop, np.array([_finite_time(T, _t_max(model))]))[0]


def ode_propagator(model: SpinModel, loop, T: float, steps: int) -> np.ndarray:
    """RK4 integration of i dU/dtau = T H(tau) U with H(tau) = e^{X tau} H e^{-X tau}."""
    _check_size(loop, model)
    T = _finite_time(T, _t_max(model))
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise DomainError(f"steps must be an int, got {steps!r}")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    # X = W diag(i lam) W^dag with lam real, so e^{X tau} = W diag(e^{i lam tau}) W^dag.
    lam, w = np.linalg.eigh(1j * loop.x)
    lam = -lam  # X = -i (iX); e^{X tau} has phases e^{-i lam_iX tau}
    # In X's eigenbasis dU~/dtau = A(tau) U~ with A(tau) = D a0 D^dag, D = diag(e^{i lam tau}).
    a0 = -1j * T * (w.conj().T @ model.hamiltonian @ w)
    eye = np.eye(model.dim, dtype=complex)
    dt = 1.0 / steps
    # A at tau = 0, dt/2 and dt: the first step only.
    phases = np.exp(1j * np.array([0.0, 0.5 * dt, dt])[:, None] * lam[None, :])
    a_lo, a_mid, a_hi = phases[:, :, None] * a0 * phases.conj()[:, None, :]
    # The first RK4 step is U~ -> P_0 U~; K2..K4 are k2..k4 with U~ factored out.
    k2 = a_mid @ (eye + (0.5 * dt) * a_lo)
    k3 = a_mid @ (eye + (0.5 * dt) * k2)
    k4 = a_hi @ (eye + dt * k3)
    p0 = eye + (dt / 6.0) * (a_lo + 2.0 * k2 + 2.0 * k3 + k4)
    # P_n = D(n dt) P_0 D(n dt)^dag, so P_{N-1} ... P_0 = D(1) (D(dt)^dag P_0)^N.
    u = np.linalg.matrix_power(phases[2].conj()[:, None] * p0, steps)
    return w @ (np.exp(1j * lam)[:, None] * u) @ w.conj().T


def _coding_vectors(model: SpinModel, gate: HolonomyGate) -> np.ndarray:
    c = coding_space(model)
    dim_c = c.shape[1]
    if gate.gamma.shape != (dim_c, dim_c):
        raise DomainError("gate dimension does not match the model's coding space")
    return c


def _fidelity_leakage(us: np.ndarray, gate, model, c, ts: np.ndarray) -> list:
    """(fidelity, leakage) of each propagator in the stack ``us`` at its time in ``ts``.

    Everything up to the modulus of each trace and the Frobenius norm of
    each escape block is stacked, in forms that round as the one-propagator
    computation does: the modulus is np.hypot of the real and imaginary
    parts (as abs of a complex scalar; a vectorized np.abs rounds
    differently), the escape block is U c with the rows outside the ground
    level zeroed (the ground projector is a diagonal 0/1 mask), and the
    squared norm is one BLAS dot each over the strided real and imaginary
    views of the block (as np.linalg.norm).  The square, the division and
    the clamps stay scalar steps per slice, on Python floats: squaring the
    norms as an array rounds differently.
    """
    dim_c = c.shape[1]
    v = (c.conj().T @ us @ c) * np.exp(1j * model.ground_energy * ts)[:, None, None]
    overlaps = (gate.gamma.conj().T @ v).trace(axis1=-2, axis2=-1)
    moduli = np.hypot(overlaps.real, overlaps.imag).tolist()
    ground = model.ground_projector.diagonal().real[:, None]
    escaped = ((us @ c) * ground).reshape(len(us), -1)
    re, im = escaped.real, escaped.imag
    sqnorms = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    norms = np.sqrt(sqnorms.ravel()).tolist()
    pairs = []
    for modulus, norm in zip(moduli, norms):
        fidelity = modulus / dim_c
        leakage = 1.0 - norm**2 / dim_c
        pairs.append((min(fidelity, 1.0), min(max(leakage, 0.0), 1.0)))
    return pairs


def holonomy_fidelity(u, gate: HolonomyGate, model: SpinModel, T: float):
    """(fidelity, leakage) of a propagator against the predicted holonomy.

    The coding-block restriction of U is phase-corrected by exp(+i E0 T)
    before comparison; fidelity is |tr(Gamma^dag V)| / dim_C.  Leakage
    measures escape from the *ground space* under evolution started in the
    coding space.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (model.dim, model.dim):
        raise DomainError("propagator dimension does not match the model")
    if not np.isfinite(u).all():
        raise DomainError("propagator must be finite")
    if not is_unitary(u):  # a scaled U would otherwise be clamped to a perfect score
        raise DomainError("propagator must be unitary")
    T = _finite_time(T, _t_max(model))
    return _fidelity_leakage(u[None], gate, model, _coding_vectors(model, gate), np.array([T]))[0]


def adiabatic_sweep(model, loop, gate, t_list) -> list:
    """One exact-propagator run per total time T, ordered by T.

    The coding space is looked up once; propagators, fidelities, leakages
    and dynamical phases of all T come from one stacked pass.
    """
    t_max = _t_max(model)
    t_list = sorted(_finite_time(t, t_max) for t in t_list)
    if not t_list or not t_list[0] > 0:
        raise DomainError("T_list must be non-empty and positive")
    ts = np.array(t_list)
    us = _propagators(model, loop, ts)
    pairs = _fidelity_leakage(us, gate, model, _coding_vectors(model, gate), ts)
    phases = np.exp(-1j * model.ground_energy * ts).tolist()
    return [
        AdiabaticRun(T=T, propagator=u, fidelity=fidelity, leakage=leakage, dynamical_phase=phase)
        for T, u, (fidelity, leakage), phase in zip(t_list, us, pairs, phases)
    ]
