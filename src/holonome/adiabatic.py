"""Exact and ODE propagators for the deformed Hamiltonian, and fidelity sweeps.

In the co-rotating frame the generator of the dynamics is the *constant*
Hermitian matrix -iX + HT, so the full-loop propagator has the closed form
U(1) = exp(X) exp(-i(-iX + HT)) and is exact at any T.  A sweep over T
is one stacked pass: the frames -iX + HT of all T are one broadcast, their
exponentials one stacked eigendecomposition, and the coding-block
restrictions, traces, ground-space escapes and phases e^{+-i E0 T} are
stacked matrix products and array expressions.  Only the modulus of each
trace, the Frobenius norm of each escape and the clamps are taken per T,
as scalar steps, so every run is bit-identical to evaluating that T alone.

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
closed form: it never uses the rotating-frame generator or a matrix
exponential, only H, the eigenvectors of X and fourth-order time stepping,
so a wrong generator, frame or sign shows up as an O(1) disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from holonome.deformation import DeformationGenerator
from holonome.errors import DomainError
from holonome.holonomy import HolonomyGate
from holonome.matrix_kernel import _U, expm_skew
from holonome.spin_model import SpinModel, coding_space


@dataclass(frozen=True)
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
    scale = abs(model.ground_energy) + float(np.linalg.norm(model.hamiltonian))
    return _PHASE_TOL / (scale * _U)


def _finite_time(T, t_max: float) -> float:
    T = float(T)
    if not np.isfinite(T):
        raise DomainError(f"T must be finite, got {T!r}")
    if abs(T) > t_max:
        raise DomainError(
            f"|T| must be at most {t_max:.6g} for this model "
            f"(phase error {_PHASE_TOL:g} rad), got {T!r}"
        )
    return T


def _propagators(model: SpinModel, gen: DeformationGenerator, ts: np.ndarray) -> np.ndarray:
    """Stack of exp(X) exp(-i(-iX + HT)) over the (checked) times ``ts``, in one pass."""
    frames = -1j * gen.x + model.hamiltonian * ts[:, None, None]  # Hermitian
    return gen.closure @ expm_skew(-1j * frames)


def exact_propagator(model: SpinModel, gen: DeformationGenerator, T: float) -> np.ndarray:
    """Full-loop propagator exp(X) exp(-i(-iX + HT)); exact for any T up to ``_t_max``."""
    return _propagators(model, gen, np.array([_finite_time(T, _t_max(model))]))[0]


def ode_propagator(model: SpinModel, gen: DeformationGenerator, T: float, steps: int) -> np.ndarray:
    """RK4 integration of i dU/dtau = T H(tau) U with H(tau) = e^{X tau} H e^{-X tau}."""
    T = _finite_time(T, _t_max(model))
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise DomainError(f"steps must be an int, got {steps!r}")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    # X = W diag(i lam) W^dag with lam real, so e^{X tau} = W diag(e^{i lam tau}) W^dag.
    lam, w = np.linalg.eigh(1j * gen.x)
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
    c = coding_space(model).vectors
    dim_c = c.shape[1]
    if gate.gamma.shape != (dim_c, dim_c):
        raise DomainError("gate dimension does not match the model's coding space")
    return c


def _fidelity_leakage(us: np.ndarray, gate, model, c, ts: np.ndarray) -> list:
    """(fidelity, leakage) of each propagator in the stack ``us`` at its time in ``ts``.

    The products, traces and phases are stacked; the modulus, the Frobenius
    norm and the clamps are scalar steps per slice, which keep every value
    bit-equal to the one-propagator computation (a vectorized np.abs or
    norm rounds differently).
    """
    dim_c = c.shape[1]
    v = (c.conj().T @ us @ c) * np.exp(1j * model.ground_energy * ts)[:, None, None]
    overlaps = np.trace(gate.gamma.conj().T @ v, axis1=-2, axis2=-1)
    escaped = model.ground_projector @ us @ c
    pairs = []
    for overlap, block in zip(overlaps, escaped):
        fidelity = float(abs(overlap) / dim_c)
        leakage = float(1.0 - np.linalg.norm(block) ** 2 / dim_c)
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
    T = _finite_time(T, _t_max(model))
    return _fidelity_leakage(u[None], gate, model, _coding_vectors(model, gate), np.array([T]))[0]


def adiabatic_sweep(model, gen, gate, t_list) -> list:
    """One exact-propagator run per total time T, ordered by T.

    The coding space is looked up once; propagators, fidelities, leakages
    and dynamical phases of all T come from one stacked pass.
    """
    t_max = _t_max(model)
    t_list = sorted(_finite_time(t, t_max) for t in t_list)
    if not t_list or not t_list[0] > 0:
        raise DomainError("T_list must be non-empty and positive")
    ts = np.array(t_list)
    us = _propagators(model, gen, ts)
    pairs = _fidelity_leakage(us, gate, model, _coding_vectors(model, gate), ts)
    phases = np.exp(-1j * model.ground_energy * ts).tolist()
    return [
        AdiabaticRun(T=T, propagator=u, fidelity=fidelity, leakage=leakage, dynamical_phase=phase)
        for T, u, (fidelity, leakage), phase in zip(t_list, us, pairs, phases)
    ]
