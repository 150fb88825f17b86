"""Exact and ODE propagators for the deformed Hamiltonian, and fidelity sweeps.

In the co-rotating frame the generator of the dynamics is the *constant*
Hermitian matrix -iX + HT, so the full-loop propagator has the closed form
U(1) = exp(X) exp(-i(-iX + HT)) and is exact at any T.  A loop closes,
exp(X) = 1 exactly, so U(1) = exp(-i(-iX + HT)).  Each function here takes
the loop, which carries X and its triplet split (``_propagators``).  A sweep
over T is one stacked pass (``adiabatic_sweep``) whose fidelity and leakage
are read off the triplet exponentials (``_scores``).  A classical RK4
integration (``ode_propagator``) is kept alongside purely as an independent
oracle against construction bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from holonome.deformation import _check_size, _checked_int
from holonome.errors import DomainError, _isfinite
from holonome.holonomy import HolonomyGate
from holonome.matrix_kernel import _U, _read_only, exp_minus_i, is_unitary
from holonome.spin_model import SpinModel, coding_space, ground_basis


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
    if not _isfinite("T", T):
        raise DomainError(f"T must be finite, got {T!r}")
    T = float(T)
    if abs(T) > t_max:
        raise DomainError(
            f"|T| must be at most {t_max:.6g} for this model "
            f"(phase error {_PHASE_TOL:g} rad), got {T!r}"
        )
    return T


def _from_triplet_basis() -> np.ndarray:
    """The linear map from a sector's exponential over dimer 2's triplet/singlet basis to its
    block over dimer 2's product basis, as a complex 10 x 16 matrix (real entries).

    Row 3 i + j takes entry (i, j) of the triplet block E over T+, T0, T-, row 9 the singlet
    phase p, and column 4 k + l is entry (k, l) over |++>, |+->, |-+>, |-->.  With B's columns
    T+, T0, T-, S0 (``spin_model.DIMER_BASIS``), B (E + p) B^T has entry (k, l) = w_k w_l
    E[t(k), t(l)], t = (0, 1, 1, 2), w = (1, r, r, 1), r = 1/sqrt2 and w_1 w_2 = 1/2 exactly,
    plus p/2 [[1, -1], [-1, 1]] in the middle 2 x 2.  Each entry is one product by 1, r or
    1/2, or the sum of two halves, so a matrix product rounds it alike in any summation order.
    """
    t, w = (0, 1, 1, 2), (1.0, math.sqrt(0.5), math.sqrt(0.5), 1.0)
    out = np.zeros((10, 16), dtype=complex)
    for k in range(4):
        for l in range(4):
            out[3 * t[k] + t[l], 4 * k + l] = 0.5 if t[k] == t[l] == 1 else w[k] * w[l]
    out[9, [5, 6, 9, 10]] = (0.5, -0.5, -0.5, 0.5)
    return out


_FROM_TRIPLET_BASIS = _read_only(_from_triplet_basis())
_EYE3 = _read_only(np.eye(3))

# H over the last dimer in each sector, as flat indices into ``model.diagonal`` by model size:
# one dimer's own entries, or those in dimer 1's |++>, |+->, |--> rows (S1 = 2, 0, -2).
# H_s over T+, T0, T-, S0 is diag(h_++, h_+-, h_--, h_-+): the triplet entries, then the singlet.
_SECTOR_H = {
    4: (_read_only(np.array([[0, 1, 3]])), _read_only(np.array([2]))),
    16: (_read_only(np.array([[0, 1, 3], [4, 5, 7], [12, 13, 15]])),
         _read_only(np.array([2, 6, 14]))),
}


def _score_indices(exp_entries, gamma_entries) -> tuple:
    """What ``_scores`` reads for one coding dimension: rows of the float view of the flat
    triplet exponentials, the real parts of the coding restriction's entries and then their
    imaginary parts, and for each row the entries of Gamma's float view it multiplies, with
    their signs, for Re and for Im of conj(Gamma) V."""
    e, g = np.array(exp_entries), np.array(gamma_entries)
    rows = np.concatenate((2 * e, 2 * e + 1))
    # Re: Re V Re G and Im V Im G; Im: -Re V Im G and Im V Re G.
    cols = np.stack((np.concatenate((2 * g, 2 * g + 1)), np.concatenate((2 * g + 1, 2 * g))), 1)
    signs = np.ones(cols.shape)
    signs[: len(e), 1] = -1.0
    return _read_only(rows), _read_only(cols), _read_only(signs)


# By coding dimension: the coding restriction's entries among the (k, 9) flat triplet
# exponentials, and the entries of Gamma they meet: the top-left 2 x 2 (T+, T0) of sector 0
# for one dimer; for two, those of S1 = 2 (control T+) and S1 = 0 (control T0), which meet
# Gamma's diagonal 2 x 2 blocks.
_SCORE_INDICES = {
    2: _score_indices([0, 1, 3, 4], [0, 1, 2, 3]),
    4: _score_indices([0, 1, 3, 4, 9, 10, 12, 13], [0, 1, 4, 5, 10, 11, 14, 15]),
}


def _propagators(model: SpinModel, loop, ts: np.ndarray) -> tuple:
    """Stack of exp(-i(-iX + HT)) over the (checked) times ``ts``, in one pass, and the
    triplet exponentials it is built from, shape (len(ts), k, 9), entries (i, j) flat.

    X splits over the last dimer's triplet and singlet in each sigma_z sector
    of the dimers before it (``triplet_split``): one sector for one dimer,
    S1 = 2, 0, -2 of dimer 1 for two.  So does H, the real diagonal
    ``model.diagonal``, whose |+-> and |-+> entries are equal for each dimer,
    so the frame -iX + HT is a 3 x 3 triplet block, real up to one dimer's
    fixed ``phases``, and a singlet value per sector.  The real triplet blocks
    of every T and sector go through one stacked eigendecomposition
    (``exp_minus_i``) and are then multiplied by ``phases`` entry by entry
    (these are the returned exponentials), each singlet is one phase, and
    dimer 1's |++>, |+->, |-+>, |--> take the blocks of S1 = 2, 0, 0, -2.
    """
    _check_size(loop, model)
    triplets, singlets, phases = loop.triplet_split
    triplet_h, singlet_h = (model.diagonal.take(i) for i in _SECTOR_H[model.dim])
    hs = triplet_h[..., None] * _EYE3
    triplet_exps = exp_minus_i(triplets + hs * ts[:, None, None, None]).reshape(len(ts), -1, 9)
    if phases is not None:
        triplet_exps = triplet_exps * phases.ravel()
    singlet_phases = np.exp(-1j * (singlets + singlet_h * ts[:, None]))[..., None]
    blocks = np.concatenate((triplet_exps, singlet_phases), axis=-1) @ _FROM_TRIPLET_BASIS
    blocks = blocks.reshape(len(ts), -1, 4, 4)
    if len(singlets) == 1:
        return blocks[:, 0], triplet_exps
    us = np.zeros((len(ts), 16, 16), dtype=complex)
    for i, sector in enumerate((0, 1, 1, 2)):
        us[:, 4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = blocks[:, sector]
    return us, triplet_exps


def exact_propagator(model: SpinModel, loop, T: float) -> np.ndarray:
    """Full-loop propagator exp(-i(-iX + HT)) (exp(X) = 1); exact for any T up to ``_t_max``."""
    return _propagators(model, loop, np.array([_finite_time(T, _t_max(model))]))[0][0]


def ode_propagator(model: SpinModel, loop, T: float, steps: int) -> np.ndarray:
    """RK4 integration of i dU/dtau = T H(tau) U with H(tau) = e^{X tau} H e^{-X tau}.

    It runs in the eigenbasis W of the loop's dense X, where e^{X tau} is the diagonal
    D(tau) = diag(e^{i lam tau}), so the integrated U~ = W^dag U W obeys dU~/dtau = A(tau) U~
    with A(tau) = D(tau) (-iT W^dag H W) D(tau)^dag.  Each RK4 step is linear in U~, so it is a
    transfer matrix P_n = I + dt/6 (A_lo + 2 K2 + 2 K3 + K4) with K2 = A_mid (I + dt/2 A_lo),
    K3 = A_mid (I + dt/2 K2) and K4 = A_hi (I + dt K3).  On the uniform grid tau_n = n dt the
    deformation is covariant, A(tau_n + s) = D(tau_n) A(s) D(tau_n)^dag, so every step is the
    first one conjugated by phases, P_n = D(tau_n) P_0 D(tau_n)^dag, and the ordered product
    collapses to U~ = P_{N-1} ... P_0 = D(1) (D(dt)^dag P_0)^N.  P_0 is built once and raised
    to the N-th power by binary squaring: about 2 log2 N products and O(dim^2) memory whatever
    the number of steps.  This is the same RK4 on the same step grid, not a different
    integrator.  The oracle stays independent of the closed form: it never uses the
    rotating-frame generator, the triplet split or a matrix exponential, only H, the
    eigenvectors of the dense X and fourth-order time stepping, so a wrong generator, split,
    frame or sign shows up as an O(1) disagreement.

    iX is Hermitian, and real for every two-dimer loop and for one dimer with n_y = 0; W is
    then taken real, from the real ``eigh``.  W^dag H W is one product (W^dag * diag(H)) W of
    H's real ``model.diagonal``.  Against the same RK4 in a complex eigenbasis
    (``tests/conftest.py``) it moves by rounding only, within
    16 (N + ||X||_F + |T| ||H||_F) u max(1, ||U||_F) (at most 4.6 of that unit measured).
    """
    _check_size(loop, model)
    T = _finite_time(T, _t_max(model))
    if _checked_int("steps", steps) < 1:
        raise DomainError("steps must be >= 1")
    # X = W diag(i lam) W^dag with lam real, so e^{X tau} = W diag(e^{i lam tau}) W^dag.
    # iX = -Im X + i Re X is real exactly when Re X = 0.
    x = loop.x
    lam, w = np.linalg.eigh(1j * x if x.real.any() else -x.imag)
    lam = -lam  # X = -i (iX); e^{X tau} has phases e^{-i lam_iX tau}
    # In X's eigenbasis dU~/dtau = A(tau) U~ with A(tau) = D a0 D^dag, D = diag(e^{i lam tau}).
    # The stages carry the step, b = dt A, at tau = 0, dt/2 and dt: the first step only.
    dt = 1.0 / steps
    b_lo = (-1j * T * dt) * ((w.conj().T * model.diagonal) @ w)
    phases = np.exp(1j * np.array([0.5 * dt, dt])[:, None] * lam[None, :])
    b_mid, b_hi = phases[:, :, None] * b_lo * phases.conj()[:, None, :]
    # The first RK4 step is U~ -> P_0 U~, P_0 = I + (b_lo + 2 k2 + 2 k3 + k4) / 6 with U~
    # factored out of dt K2..K4: k2 = b_mid (I + b_lo / 2), k3 = b_mid (I + k2 / 2) and
    # k4 = b_hi (I + k3).
    half_mid = 0.5 * b_mid
    k2 = b_mid + half_mid @ b_lo
    k3 = b_mid + half_mid @ k2
    k4 = b_hi + b_hi @ k3
    p0 = (b_lo + k4 + 2.0 * (k2 + k3)) / 6.0
    p0.reshape(-1)[:: model.dim + 1] += 1.0
    # P_n = D(n dt) P_0 D(n dt)^dag, so P_{N-1} ... P_0 = D(1) (D(dt)^dag P_0)^N.
    u = np.linalg.matrix_power(phases[1].conj()[:, None] * p0, steps)
    return w @ (np.exp(1j * lam)[:, None] * u) @ w.conj().T


def _coding_vectors(model: SpinModel, gate: HolonomyGate) -> np.ndarray:
    c = coding_space(model)
    dim_c = c.shape[1]
    if gate.gamma.shape != (dim_c, dim_c):
        raise DomainError("gate dimension does not match the model's coding space")
    return c


def holonomy_fidelity(u, gate: HolonomyGate, model: SpinModel, T: float):
    """(fidelity, leakage) of a propagator against the predicted holonomy.

    The coding-block restriction V = C^dag U C is phase-corrected by
    exp(+i E0 T) before comparison; fidelity is |tr(Gamma^dag V)| / dim_C.
    Leakage 1 - ||P U C||_F^2 / dim_C measures escape from the *ground space*
    under evolution started in the coding space (P the ground projector, the
    0/1 mask of the rows that the ground basis spans).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (model.dim, model.dim):
        raise DomainError("propagator dimension does not match the model")
    if not np.isfinite(u).all():
        raise DomainError("propagator must be finite")
    if not is_unitary(u):  # a scaled U would otherwise be clamped to a perfect score
        raise DomainError("propagator must be unitary")
    T = _finite_time(T, _t_max(model))
    c = _coding_vectors(model, gate)
    dim_c = c.shape[1]
    v = (c.conj().T @ u @ c) * np.exp(1j * model.ground_energy * T)
    fidelity = float(abs(np.trace(gate.gamma.conj().T @ v))) / dim_c
    ground = ground_basis(model).any(axis=1)[:, None]
    leakage = 1.0 - float(np.linalg.norm((u @ c) * ground)) ** 2 / dim_c
    return min(fidelity, 1.0), min(max(leakage, 0.0), 1.0)


def _scores(triplet_exps: np.ndarray, gamma: np.ndarray) -> tuple:
    """(fidelities, leakages), as lists, of the loop propagators whose triplet exponentials
    (``_propagators``) are stacked in ``triplet_exps``.

    The coding space is T+, T0 of the last dimer, for two dimers in dimer 1's T+ and T0, and
    a loop propagator U keeps dimer 1's sigma_z sector and the last dimer's triplet, so its
    coding restriction V = C^dag U C is block diagonal: the top-left 2 x 2 of sector 0 for one
    dimer, and of S1 = 2 (control T+) and S1 = 0 (control T0, whose |+-> and |-+> share one
    block) for two.  The fidelity |tr(Gamma^dag V)| / dim_C sums conj(Gamma) V over those
    entries (the phase e^{i E0 T} has modulus 1).  The leakage 1 - ||P U C||_F^2 / dim_C needs
    no projector: U maps the coding space into the last dimer's triplet in the same sector of
    dimer 1, whose T+ and T0 lie in the ground level and whose T- does not, and into no
    singlet, so the escape from the ground space equals the escape from the coding block,
    ||P U C||_F = ||V||_F.

    Every product is real and entrywise, and the sums run by halves over the rows: the first
    halving adds the real-part and imaginary-part products of each entry, the next ones add
    entries.  The clamps are entrywise too, so every score is bit-identical to that of its T
    alone.  The scores round differently from ``holonomy_fidelity``, which computes the dense
    C^dag U C and P U C of one propagator; on the same propagator the two agree within 8 u (at
    most 4 u in fidelity and 6 u in leakage measured over 9000 points up to MAX_WINDING, u the
    unit roundoff).
    """
    rows, cols, signs = _SCORE_INDICES[len(gamma)]
    x = triplet_exps.reshape(len(triplet_exps), -1).view(float).T.take(rows, axis=0)[:, None]
    coef = np.asarray(gamma, dtype=complex).ravel().view(float).take(cols) * signs
    # Shape (rows, 3, len(ts)): the row's terms of Re and Im of conj(Gamma) V and of ||V||_F^2.
    terms = np.concatenate((x * coef[..., None], x * x), axis=1)
    while len(terms) > 1:
        half = len(terms) // 2
        terms = terms[:half] + terms[half:]
    overlap_re, overlap_im, sqnorm = terms[0]
    dim_c = float(len(gamma))
    fidelities = np.minimum(np.hypot(overlap_re, overlap_im) / dim_c, 1.0)
    leakages = np.minimum(np.maximum(1.0 - sqnorm / dim_c, 0.0), 1.0)
    return fidelities.tolist(), leakages.tolist()


def adiabatic_sweep(model, loop, gate, t_list) -> list:
    """One exact-propagator run per total time T, ordered by T.

    Propagators, fidelities, leakages and dynamical phases of all T come
    from one stacked pass; the scores are read off the triplet exponentials
    (``_scores``), not off the dense propagators.
    """
    t_max = _t_max(model)
    t_list = sorted(_finite_time(t, t_max) for t in t_list)
    if not t_list or not t_list[0] > 0:
        raise DomainError("T_list must be non-empty and positive")
    ts = np.array(t_list)
    us, triplet_exps = _propagators(model, loop, ts)
    _coding_vectors(model, gate)  # the gate must match the model's coding space
    fidelities, leakages = _scores(triplet_exps, gate.gamma)
    phases = np.exp(-1j * model.ground_energy * ts).tolist()
    # Filled in place: a frozen dataclass's __init__ sets each field through object.__setattr__.
    runs = [object.__new__(AdiabaticRun) for _ in t_list]
    for run, T, u, fidelity, leakage, phase in zip(runs, t_list, us, fidelities, leakages, phases):
        vars(run).update(T=T, propagator=u, fidelity=fidelity, leakage=leakage,
                         dynamical_phase=phase)
    return runs
