"""Session setup and reference computations shared by the test modules."""

import cmath
import functools
import math
import types

import numpy as np
from hypothesis import configuration

from holonome import deformation
from holonome.errors import DomainError
from holonome.matrix_kernel import expm_skew, frobenius, is_unitary
from holonome.synthesis import search_rotation
from holonome.spin_model import (
    _GROUND_LABELS,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    coding_space,
    ground_basis,
)


def pytest_configure(config):
    # Even without an example database, hypothesis caches the constants it
    # mines from local source under its home directory (``.hypothesis/`` by
    # default); keep that cache inside pytest's own cache directory.
    cache = getattr(config, "cache", None)
    if cache is not None:
        configuration.set_hypothesis_home_dir(cache.mkdir("hypothesis"))


def hamiltonian(model) -> np.ndarray:
    """Reference: H = diag(``model.diagonal``) as a dense complex matrix."""
    h = np.zeros((model.dim, model.dim), dtype=complex)
    h.flat[:: model.dim + 1] = model.diagonal
    return h


def ground_projector(model) -> np.ndarray:
    """The diagonal 0/1 projector onto the rows that the model's ground basis spans."""
    return np.diag(ground_basis(model).any(axis=1).astype(complex))


def equidistribution_scan(step: float, k_list) -> dict:
    """Covering radius of {kappa * step mod 2 pi : 0 <= kappa <= K} per K.

    The covering radius is half the largest circular gap between consecutive
    points; it is non-increasing in K and decays to zero iff step / pi is
    irrational.
    """
    out = {}
    for k_max in k_list:
        pts = np.sort(np.arange(0, int(k_max) + 1) * step % (2.0 * np.pi))
        gaps = np.diff(np.concatenate([pts, [pts[0] + 2.0 * np.pi]]))
        out[int(k_max)] = float(np.max(gaps) / 2.0)
    return out


def closure_residual(x) -> float:
    """Reference for a loop's ``closure_residual``: ||exp(X) - 1||_F afresh, for any X."""
    x = np.asarray(x, dtype=complex)
    return frobenius(expm_skew(x) - np.eye(x.shape[0]))


def open_path(x):
    """A stand-in loop for a raw anti-Hermitian X, closed or not: the read-only ``x`` that
    the RK4 oracle, the connection and the leakage audit read, and its size ``dim``."""
    x = np.array(x, dtype=complex)
    x.flags.writeable = False
    return types.SimpleNamespace(x=x, dim=x.shape[0])


def dense_frames(model, x, ts):
    """Reference: exp(-i(-iX + HT)) of every T in ``ts``, stacked, through one dense
    ``expm_skew``; a closed loop's propagators, whose exp(X) is 1."""
    ts = np.asarray(ts, dtype=float)
    return expm_skew(-1j * (-1j * np.asarray(x) + hamiltonian(model) * ts[:, None, None]))


def open_path_propagators(model, x, ts):
    """Reference: exp(X) exp(-i(-iX + HT)) of every T in ``ts``, stacked, for any X."""
    return expm_skew(x) @ dense_frames(model, x, ts)


def reference_ode_propagator(model, loop, T, steps):
    """Reference: the RK4 transfer-matrix oracle in a complex eigenbasis, for any X.

    The complex ``eigh`` of iX and the dense H, W^dag H W as two products and
    K2..K4 through explicit identities: the same RK4 on the same step grid as
    ``adiabatic.ode_propagator``, rounded differently.
    """
    lam, w = np.linalg.eigh(1j * loop.x)
    lam = -lam
    a0 = -1j * T * (w.conj().T @ hamiltonian(model) @ w)
    eye = np.eye(model.dim, dtype=complex)
    dt = 1.0 / steps
    phases = np.exp(1j * np.array([0.0, 0.5 * dt, dt])[:, None] * lam[None, :])
    a_lo, a_mid, a_hi = phases[:, :, None] * a0 * phases.conj()[:, None, :]
    k2 = a_mid @ (eye + (0.5 * dt) * a_lo)
    k3 = a_mid @ (eye + (0.5 * dt) * k2)
    k4 = a_hi @ (eye + dt * k3)
    p0 = eye + (dt / 6.0) * (a_lo + 2.0 * k2 + 2.0 * k3 + k4)
    u = np.linalg.matrix_power(phases[2].conj()[:, None] * p0, steps)
    return w @ (np.exp(1j * lam)[:, None] * u) @ w.conj().T


def one_qubit_coding_connection(loop) -> np.ndarray:
    """Reference closed-form coding block: i Omega [n_z (I + sz) + sqrt2 (n_x sx + n_y sy)]."""
    nx, ny, nz = loop.n
    return 1j * loop.omega * (
        nz * (ID2 + SIGMA_Z) + np.sqrt(2.0) * (nx * SIGMA_X + ny * SIGMA_Y)
    )


def eager_leakage_audit(gen, model):
    """Reference: the leakage block labelled element by element, its verdict, and
    the paper's named cross-coupling elements (two dimers only).

    Returns (entries, max_abs, passed, named) with ``entries`` as
    (non-coding label, coding label, element) triples.
    """
    labels, vecs = _GROUND_LABELS[model.n_spins], ground_basis(model)
    dim_c = coding_space(model).shape[1]
    block = vecs[:, dim_c:].conj().T @ gen.x @ vecs[:, :dim_c]
    entries = tuple(
        (labels[dim_c + i], labels[j], complex(block[i, j]))
        for i in range(block.shape[0])
        for j in range(block.shape[1])
    )
    max_abs = float(np.max(np.abs(block)))
    named = {}
    if model.n_spins == 4:
        cross = 1j * gen.coupling_j * deformation._cross_zz()
        col = {lab: vecs[:, k] for k, lab in enumerate(labels)}
        for bra, ket in (("T+T+", "T+T+"), ("T+S0", "T+T0"), ("S0T+", "T0T+"),
                         ("S0S0", "T0S0"), ("S0T0", "T0S0")):
            named[f"<{bra}|Xc|{ket}>"] = complex(col[bra].conj() @ cross @ col[ket])
    return entries, max_abs, max_abs < 1e-12, named


def reference_model(*couplings):
    """Reference: every derived field of the model of ``couplings`` (J per dimer, slow
    first, each dimer at omega = J), computed eagerly.

    H is the Kronecker sum of diag(d) over the dimers' diagonals d, and ||H||_F the
    2-norm of its diagonal by math.hypot.  Its ground energy is the least diagonal
    entry.  Its ground level is the product of the dimers' ground levels, each the
    entries equal to the dimer's least one (exact at omega = J, where a dimer's three
    lowest entries are -J to the bit), and its projector the diagonal 0/1 mask of
    those basis states.
    """
    dimers = [np.array([-2.0 * j + j, -j, -j, 2.0 * j + j]) for j in couplings]
    diagonal = dimers[0] if len(dimers) == 1 else np.add.outer(*dimers).ravel()
    dim = diagonal.size
    h = np.zeros((dim, dim), dtype=complex)
    h.flat[:: dim + 1] = diagonal
    norm = math.hypot(*diagonal.tolist())  # ||H||_F, whose dense squares would underflow
    ground = np.ravel(functools.reduce(np.logical_and.outer, [d == d.min() for d in dimers]))
    return types.SimpleNamespace(
        hamiltonian=h,
        hamiltonian_norm=norm,
        ground_projector=np.diag(ground.astype(complex)),
        ground_energy=float(diagonal.min()),
        ground_multiplicity=int(ground.sum()),
    )


@functools.cache
def _diagonal_blocks(k: int) -> np.ndarray:
    """Flat indices of the k diagonal 4 x 4 blocks of a 4k x 4k matrix, block by block."""
    a, i, j = np.ogrid[:k, :4, :4]
    return ((a * 4 + i) * (4 * k) + a * 4 + j).ravel()


def reference_triplet_split(x):
    """Reference: -iX_s over the last dimer's T+, T0, T-, S0 in each sigma_z sector s of the
    dimers before it (one for a 4 x 4 X, dimer 1's four for a 16 x 16 X), read off the entries
    of X, or None.

    Returns one 4 x 4 matrix per sector, shape (k, 4, 4), when X's entries show the split
    exactly: zero between the sectors, finite in them, and -iX_s Hermitian and equal under
    swapping the last dimer's spins, entry by entry.  The matrices are real when -iX is; a
    two-dimer -iX_s must be (no two-dimer loop has n_2y != 0), one dimer's may be complex.
    Otherwise (any X that breaks the symmetry) None.
    """
    k = {(4, 4): 1, (16, 16): 4}.get(x.shape)
    if k is None:
        return None
    blocks = x.take(_diagonal_blocks(k))
    real = not blocks.real.any()
    if np.count_nonzero(blocks) != np.count_nonzero(x) or (k == 4 and not real):
        return None
    split = []
    # m = -iX_s over |++>, |+->, |-+>, |-->, flat: m[4 i + j] = M_ij.
    for m in (blocks.imag if real else blocks.imag - 1j * blocks.real).reshape(k, 16).tolist():
        c = [z.conjugate() for z in m]
        if not (
            m[1] == m[2] == c[4] == c[8]
            and m[3] == c[12]
            and m[5] == m[10] == c[5]
            and m[6] == m[9] == c[6]
            and m[7] == m[11] == c[13] == c[14]
            and m[0] == c[0] and m[15] == c[15]
        ):
            return None
        # <T+|M|T0> = sqrt2 M01, <T0|M|T0> = M11 + M12, <T0|M|T-> = sqrt2 M13,
        # <S0|M|S0> = M11 - M12.
        t01, t0, t12 = math.sqrt(2.0) * m[1], m[5] + m[6], math.sqrt(2.0) * m[7]
        split += [m[0], t01, m[3], 0.0,
                  t01.conjugate(), t0, t12, 0.0,
                  c[3], t12.conjugate(), m[15], 0.0,
                  0.0, 0.0, 0.0, m[5] - m[6]]
    # Every entry of -iX_s is equal to one that the split reads, so this rejects inf and nan.
    if not cmath.isfinite(sum(split)):
        return None
    return np.array(split).reshape(k, 4, 4)


def reference_one_qubit_loop(n, kappa):
    """Reference: the fields (n, omega, theta_kappa, m) of ``OneQubitLoop(n, kappa)``
    for a valid unit axis n, evaluated on numpy float64 scalars and arrays."""
    n = np.asarray(n, dtype=float)
    omega = kappa * np.pi
    root = np.sqrt(2.0 - n[2] ** 2)
    m = np.array([np.sqrt(2.0) * n[0], np.sqrt(2.0) * n[1], n[2]]) / root
    return (tuple(float(x) for x in n), float(omega), float(omega * root),
            tuple(float(x) for x in m))


def reference_min_mod(a: int, b: int, m: int, n: int):
    """Reference: (value, x) of the first minimum of (a x + b) mod m over 0 <= x < n.

    Needs 0 <= a, b < m and n >= 1.  Each level hands a problem of at most
    ceil(n / 2) points on a modulus of at most m / 2 to the next, so the
    depth is O(log n):

    - 2a <= m: the values climb by a and drop only when they wrap, so the
      first minimum is x = 0 or the first point after some wrap.  The point
      after wrap j >= 1 has value (b - j m) mod a, a line in j modulo a.
    - 2a > m: the values descend by c = m - a in runs that end below c, so
      the first minimum is the end of some complete run, x_j = (b + j m) // c
      with value (b + j m) mod c, or, with no complete run, x = n - 1.
    """
    if n == 1 or a == 0:
        return b, 0
    if 2 * a <= m:
        wraps = (a * (n - 1) + b) // m
        if wraps == 0:
            return b, 0
        value, j = reference_min_mod(-m % a, (b - m) % a, a, wraps)
        if b <= value:
            return b, 0
        return value, -((b - (j + 1) * m) // a)  # ceil(((j + 1) m - b) / a)
    c = m - a
    runs = (c * n - 1 - b) // m + 1
    if runs <= 0:
        return b - c * (n - 1), n - 1
    value, j = reference_min_mod(m % c, b % c, c, runs)
    return value, (b + j * m) // c


def reference_rotation(theta, axis) -> np.ndarray:
    """Reference: exp(-i theta axis . sigma), cos theta I - i sin theta axis . sigma as numpy
    arrays."""
    ax = np.asarray(axis, dtype=float)
    dotted = ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z
    return np.cos(theta) * ID2 - 1j * np.sin(theta) * dotted


def reference_one_qubit_gate(loop) -> np.ndarray:
    """Reference: exp(-i kappa pi n_z) exp(-i theta_kappa m . sigma) as numpy arrays."""
    phase = np.exp(-1j * loop.kappa * np.pi * loop.n[2])
    return phase * reference_rotation(loop.theta_kappa, loop.m)


def _reference_euler_zyz(su2):
    a, b = su2[0, 0], su2[0, 1]
    beta = 2.0 * np.arctan2(abs(b), abs(a))
    if abs(a) < 1e-12:
        return 2.0 * np.angle(su2[1, 0]), beta, 0.0
    if abs(b) < 1e-12:
        return 2.0 * np.angle(su2[1, 1]), beta, 0.0
    s, d = -np.angle(a), np.angle(su2[1, 0])
    return s + d, beta, s - d


def reference_euler_yxy(u):
    """Reference: y-x-y Euler angles of a 2 x 2 unitary through numpy's det and two matrix
    products with the frame S = exp(i (pi / 3) (1, 1, 1) . sigma / sqrt3)."""
    su2 = u / np.sqrt(np.linalg.det(u))
    frame = reference_rotation(-np.pi / 3.0, np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    return _reference_euler_zyz(frame.conj().T @ su2 @ frame)


def reference_distance(u, v) -> float:
    """Reference: the phase-invariant distance of two unitary arrays of one shape through
    numpy, min over phi of ||U - e^{i phi} V||_F / sqrt(2 n) at phi = -arg tr(U^dag V)."""
    overlap = np.trace(u.conj().T @ v)
    phase = np.exp(-1j * np.angle(overlap)) if abs(overlap) > 0 else 1.0
    return float(frobenius(u - phase * v) / np.sqrt(2.0 * u.shape[0]))


def reference_synthesis(target, eps, kappa_max):
    """Reference for ``synthesize_su2`` as numpy arrays: (steps, composite, total_distance),
    steps as (axis name, ``search_rotation`` result) pairs.  Checks the target with
    ``is_unitary`` and takes the identity shortcut at ``reference_distance`` < 1e-12."""
    u = np.asarray(target, dtype=complex)
    if u.shape != (2, 2) or not is_unitary(u):
        raise DomainError("target must be a 2 x 2 unitary")
    if reference_distance(u, np.eye(2, dtype=complex)) < 1e-12:
        return (), np.eye(2, dtype=complex), 0.0
    steps, composite = [], np.eye(2, dtype=complex)
    for axis_name, angle in zip("yxy", reference_euler_yxy(u)):
        theta = 0.5 * angle
        r = abs(theta) % (2.0 * np.pi)
        if min(r, 2.0 * np.pi - r) < 1e-12:
            continue
        result = search_rotation(axis_name, theta, eps, kappa_max)
        steps.append((axis_name, result))
        composite = composite @ result.gate
    return tuple(steps), composite, reference_distance(composite, u)


def haar_su2_target(rng) -> np.ndarray:
    """A Haar-random 2 x 2 unitary from a ``random.Random``: a uniform point on S^3 (an SU(2)
    element) times a uniform global phase, as perfbench draws its synthesis targets."""
    g = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in g))
    a, b = complex(g[0], g[1]) / norm, complex(g[2], g[3]) / norm
    phi = rng.uniform(0.0, 2.0 * math.pi)
    phase = complex(math.cos(phi), math.sin(phi))
    return np.array([phase * x for x in (a, -b.conjugate(), b, a.conjugate())]).reshape(2, 2)
