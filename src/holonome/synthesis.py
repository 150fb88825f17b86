"""Discrete gate-approximation search over winding numbers and repetitions.

The realizable rotation angles form a lattice theta_kappa = kappa pi
sqrt(2 - n_z^2) that is dense modulo 2 pi whenever the step is an irrational
multiple of pi, so exhaustive scans over small winding bounds approximate any
target angle.  Tie-breaking always prefers the shortest loop (smallest kappa,
then smallest repetition count, then smallest kappa_plus): it is the cheapest
to traverse adiabatically.

Every search minimizes the circular error min(r, period - r) with
r = |delta| mod period, delta = target - lattice angle, evaluated with the
float operations of ``circular_distance``, and keeps the first minimum in
scan order, so the scan order alone sets the tie-break:

- ``search_rotation`` (period 2 pi) and ``search_hadamard`` (period pi,
  because the Hadamard gate is a rotation by pi/2 up to a global phase, and
  the gate distance ignores global phase) search one line, kappa = 1, 2,
  ...  ``_search_line`` finds its first minimum without scanning it: an
  exact integer search over the continued-fraction structure of the step
  finds the best lattice point on each side of the target in
  O(log kappa_max) steps, and the gap between lattice points proves that no
  other point can win after rounding.  Where the gap is too small for that
  proof (a step near a rational multiple of the period), the line is
  scanned.
- ``search_controlled_phase`` (period 2 pi) scans n = 1, 2, ... and, within
  each n, the winding pairs in ``admissible_winding_pairs`` order.

The scan kernel, ``_scan_lattice``, evaluates at most 2^15 lattice points at
a time, so its memory stays a few hundred KiB whatever the search bounds,
and computes the exact error only at the points a cheap rounding estimate
cannot rule out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from holonome.deformation import MAX_WINDING, OneQubitLoop, coupling_strength
from holonome.errors import DomainError
from holonome.holonomy import (
    analytic_one_qubit_gate,
    controlled_phase_gate,
    _rotation,
)
from holonome.matrix_kernel import _U, _read_only, is_unitary, phase_invariant_distance

TWO_PI = 2.0 * np.pi

# Lattice points per kernel step; bounds the kernel's temporary arrays.
_CHUNK = 1 << 15

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

# Axis n = (1/sqrt3, 0, sqrt(2/3)) realizes the logical rotation axis
# m = (1, 0, 1)/sqrt2 with theta_kappa = 2 kappa pi / sqrt 3.
HADAMARD_AXIS = (np.sqrt(1.0 / 3.0), 0.0, np.sqrt(2.0 / 3.0))

NAMED_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}


def circular_distance(delta: float) -> float:
    """Distance on the circle: min(r, 2 pi - r) with r = |delta| mod 2 pi."""
    r = abs(delta) % TWO_PI
    return float(min(r, TWO_PI - r))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a discrete search.

    ``params`` identifies the winning lattice point; ``exhausted`` means the
    bounds were hit without meeting the tolerance (the best candidate is still
    returned: density only guarantees existence as the bounds grow).
    """

    params: dict
    angle_error: float
    gate_distance: float
    gate: np.ndarray
    exhausted: bool


def _circular_error(delta, period: float) -> np.ndarray:
    """min(r, period - r) with r = |delta| mod period, elementwise.

    The float operations of ``circular_distance``; every search reports the
    error this returns at its winner.
    """
    r = np.abs(delta) % period
    return np.minimum(r, period - r)


def _scan_lattice(delta_at, rows: int, cols: int, period: float):
    """(row, col, error) of the first minimum of the circular error over a lattice.

    ``delta_at(r, c)`` returns target - lattice angle on the block of rows
    ``r`` (an int64 column) and columns ``c`` (an int64 row); the scan order
    is row-major and the error is ``_circular_error``.  A block holds whole
    rows, or one row in pieces when a row is longer than ``_CHUNK``, so it
    never exceeds ``_CHUNK`` points.

    Each block is filtered first: e~ = |delta - rint(delta / period) period|
    is within b = 8 u (max |delta| + period) of the error at every point
    (rounding, up to a representative one period off near rint's half-way
    points, gives at most u (5 |delta| + 2 period)).  Only the points with
    e~ within 2 b of the block minimum of e~ get the exact error; every point
    that attains the exact minimum, ties included, is among them, so the
    first minimum is the one a full exact scan finds.
    """
    if cols <= _CHUNK:
        row_step, col_step = _CHUNK // cols, cols
    else:
        row_step, col_step = 1, _CHUNK
    best, best_err = (0, 0), np.inf
    for r0 in range(0, rows, row_step):
        r = np.arange(r0, min(r0 + row_step, rows))[:, None]
        for c0 in range(0, cols, col_step):
            c = np.arange(c0, min(c0 + col_step, cols))
            delta = np.broadcast_to(delta_at(r, c), (len(r), len(c))).ravel()
            approx = delta * (1.0 / period)
            np.rint(approx, out=approx)
            approx *= period
            np.subtract(delta, approx, out=approx)
            np.abs(approx, out=approx)
            slack = 16.0 * _U * (max(delta.max(), -delta.min()) + period)
            keep = np.flatnonzero(approx <= approx.min() + slack)
            err = _circular_error(delta[keep], period)
            i = int(np.argmin(err))
            if err[i] < best_err:
                row, col = divmod(int(keep[i]), len(c))
                best, best_err = (r0 + row, c0 + col), float(err[i])
    return best[0], best[1], best_err


def _min_mod(a: int, b: int, m: int, n: int):
    """(value, x) of the first minimum of (a x + b) mod m over 0 <= x < n.

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
        value, j = _min_mod(-m % a, (b - m) % a, a, wraps)
        if b <= value:
            return b, 0
        return value, -((b - (j + 1) * m) // a)  # ceil(((j + 1) m - b) / a)
    c = m - a
    runs = (c * n - 1 - b) // m + 1
    if runs <= 0:
        return b - c * (n - 1), n - 1
    value, j = _min_mod(m % c, b % c, c, runs)
    return value, (b + j * m) // c


def _search_line(delta_at, theta: float, step_factors, size: int, period: float):
    """(position, error) that ``_scan_lattice`` finds on the line theta - (k + 1) step.

    ``delta_at(_, k)`` evaluates the line in floating point at the int64
    positions ``k``; the step is the exact product of the floats
    ``step_factors``.  Over one power-of-two denominator theta, step and
    period are integers, and ``_min_mod`` gives exactly:

    - k_u, the first minimum of (theta - (k + 1) step) mod period (the best
      lattice point below theta), and k_l, that of
      ((k + 1) step - theta) mod period (the best one above);
    - the gap g, the least circular distance of q step from 0 over
      1 <= q < size.

    Every other k is at least g farther from theta than k_u or k_l.  The
    float error differs from the exact one by at most
    tol = 4 u (|theta| + size |step| + period) (to first order it is
    u (|theta| + 3 size |step| + period)), so when g > 2 tol no other k can
    win after rounding, and the first float minimum over k_u and k_l is the
    scan's.  Otherwise (a step near a rational multiple of the period, where
    rounding decides between exact ties) the line is scanned.
    """
    num, den = 1, 1
    for factor in step_factors:
        p, q = factor.as_integer_ratio()
        num, den = num * p, den * q
    theta_num, theta_den = theta.as_integer_ratio()
    period_num, period_den = period.as_integer_ratio()
    d = max(den, theta_den, period_den)
    m = period_num * (d // period_den)
    s = num * (d // den) % m
    t = theta_num * (d // theta_den) % m
    neg = -s % m
    if size > 1:
        gap = min(_min_mod(s, s, m, size - 1)[0], _min_mod(neg, neg, m, size - 1)[0])
        tol = 4.0 * _U * (abs(theta) + size * abs(num / den) + period)
        if not gap / d > 2.0 * tol:
            return _scan_lattice(delta_at, 1, size, period)[1:]
    k_u = _min_mod(neg, (t - s) % m, m, size)[1]
    k_l = _min_mod(s, (s - t) % m, m, size)[1]
    k = np.array(sorted({k_u, k_l}), dtype=np.int64)
    err = _circular_error(delta_at(0, k), period)
    i = int(np.argmin(err))
    return int(k[i]), float(err[i])


def _check_search_inputs(eps, theta_target=0.0, **bounds):
    """Reject a tolerance, target angle or scan bound no search can honour.

    A ``kappa_max`` is also capped at MAX_WINDING, so that every winding it
    admits is a valid loop; beyond it a line search would scan every point.
    """
    if not eps > 0:
        raise DomainError("tolerance must be positive")
    if not np.isfinite(eps):
        raise DomainError("tolerance must be finite")
    if not np.isfinite(theta_target):
        raise DomainError("target angle must be finite")
    for name, value in bounds.items():
        if not value >= 1:
            raise DomainError(f"{name} must be at least 1")
    if "kappa_max" in bounds and not bounds["kappa_max"] <= MAX_WINDING:
        raise DomainError(f"winding number must be in [1, {MAX_WINDING}]")


def _resolve_axis(axis):
    if isinstance(axis, str):
        try:
            return np.asarray(NAMED_AXES[axis], dtype=float)
        except KeyError:
            raise DomainError(f"unknown axis name {axis!r}") from None
    return np.asarray(axis, dtype=float)


def search_rotation(axis, theta_target: float, eps: float, kappa_max: int) -> SearchResult:
    """Best winding number for a target rotation angle about a fixed axis.

    Minimizes the circular distance |(theta_target - theta_kappa) mod 2 pi|
    over 1 <= kappa <= kappa_max; ties go to the smallest kappa.
    """
    _check_search_inputs(eps, theta_target, kappa_max=kappa_max)
    n = _resolve_axis(axis)
    # Validates unit norm and |n_z| < 1 (|n_z| = 1 would make every gate trivial).
    step = OneQubitLoop.create(n, 1).theta_kappa
    i, best_err = _search_line(
        lambda _, k: theta_target - (k + 1) * step,
        float(theta_target), (step,), int(kappa_max), TWO_PI,
    )
    best_kappa = i + 1
    loop = OneQubitLoop.create(n, best_kappa)
    gate = analytic_one_qubit_gate(loop).gamma
    target = _rotation(theta_target, loop.m)
    return SearchResult(
        params={"kappa": best_kappa},
        angle_error=best_err,
        gate_distance=phase_invariant_distance(gate, target),
        gate=gate,
        exhausted=best_err >= eps,
    )


def search_hadamard(eps: float, kappa_max: int) -> SearchResult:
    """Best winding number on ``HADAMARD_AXIS`` for the Hadamard gate.

    HADAMARD = i exp(-i (pi/2) m . sigma) with m = (1, 0, 1)/sqrt2, so the
    gate distance is monotone in the circular error |(pi/2 - theta_kappa)
    mod pi| minimized over 1 <= kappa <= kappa_max; ties go to the smallest
    kappa.  ``gate_distance`` is the phase-invariant distance of the winning
    gate to HADAMARD, and ``exhausted`` means it is at least ``eps``.
    """
    _check_search_inputs(eps, kappa_max=kappa_max)
    root = np.sqrt(2.0 - HADAMARD_AXIS[2] ** 2)  # as in OneQubitLoop.create
    i, err = _search_line(
        lambda _, k: np.pi / 2.0 - ((k + 1) * np.pi) * root,
        np.pi / 2.0, (np.pi, float(root)), int(kappa_max), np.pi,
    )
    loop = OneQubitLoop.create(HADAMARD_AXIS, i + 1)
    gate = analytic_one_qubit_gate(loop).gamma
    dist = phase_invariant_distance(gate, HADAMARD)
    return SearchResult(
        params={"kappa": loop.kappa},
        angle_error=err,
        gate_distance=dist,
        gate=gate,
        exhausted=dist >= eps,
    )


@functools.cache
def _frame() -> np.ndarray:
    """Change of frame mapping the z-y-z Euler decomposition into y-x-y.

    The conjugation S sigma_z S^dag = sigma_y, S sigma_y S^dag = sigma_x;
    built once per process, read-only.
    """
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    return _read_only(_rotation(-np.pi / 3.0, axis))  # half-angle pi/3, sense -2pi/3


def _euler_zyz(su2: np.ndarray):
    """Angles (alpha, beta, gamma) with U = Rz(alpha) Ry(beta) Rz(gamma).

    Half-angle convention: Rn(t) = exp(-i t n . sigma / 2).
    """
    a, b = su2[0, 0], su2[0, 1]
    beta = 2.0 * np.arctan2(abs(b), abs(a))
    if abs(a) < 1e-12:
        # anti-diagonal: only alpha - gamma is determined
        alpha = 2.0 * np.angle(su2[1, 0])
        gamma = 0.0
    elif abs(b) < 1e-12:
        alpha = 2.0 * np.angle(su2[1, 1])
        gamma = 0.0
    else:
        s = -np.angle(a)  # (alpha + gamma) / 2
        d = np.angle(su2[1, 0])  # (alpha - gamma) / 2
        alpha, gamma = s + d, s - d
    return alpha, beta, gamma


def euler_yxy(target: np.ndarray):
    """Angles (alpha, beta, gamma) with target ~ Ry(alpha) Rx(beta) Ry(gamma).

    The target may carry a global phase; the decomposition is of its SU(2)
    representative.
    """
    u = np.asarray(target, dtype=complex)
    if u.shape != (2, 2) or not is_unitary(u):
        raise DomainError("target must be a 2 x 2 unitary")
    su2 = u / np.sqrt(np.linalg.det(u))
    frame = _frame()
    return _euler_zyz(frame.conj().T @ su2 @ frame)


@dataclass(frozen=True)
class SynthesisProgram:
    """A sequence of axis rotations approximating a one-qubit target."""

    steps: tuple  # of (axis_name, SearchResult)
    composite: np.ndarray
    total_distance: float
    exhausted: bool


def synthesize_su2(target, eps_per_rotation: float, kappa_max: int) -> SynthesisProgram:
    """Approximate an arbitrary 2 x 2 unitary by y-x-y holonomic rotations."""
    _check_search_inputs(eps_per_rotation, kappa_max=kappa_max)
    u = np.asarray(target, dtype=complex)
    if u.shape != (2, 2) or not is_unitary(u):
        raise DomainError("target must be a 2 x 2 unitary")
    if phase_invariant_distance(u, np.eye(2)) < 1e-12:
        return SynthesisProgram(
            steps=(), composite=np.eye(2, dtype=complex), total_distance=0.0,
            exhausted=False,
        )
    alpha, beta, gamma = euler_yxy(u)
    steps = []
    composite = np.eye(2, dtype=complex)
    for axis_name, angle in (("y", alpha), ("x", beta), ("y", gamma)):
        theta = 0.5 * angle  # full-angle exponent convention exp(-i theta sigma)
        if circular_distance(theta) < 1e-12:
            continue
        result = search_rotation(axis_name, theta, eps_per_rotation, kappa_max)
        steps.append((axis_name, result))
        composite = composite @ result.gate
    return SynthesisProgram(
        steps=tuple(steps),
        composite=composite,
        total_distance=phase_invariant_distance(composite, u),
        exhausted=any(r.exhausted for _, r in steps),
    )


def admissible_winding_pairs(kappa_plus_max: int):
    """All (kappa_+, kappa_-) with kappa_+ < kappa_- < 3 kappa_+."""
    return [
        (kp, km)
        for kp in range(1, int(kappa_plus_max) + 1)
        for km in range(kp + 1, 3 * kp)
    ]


def search_controlled_phase(
    theta_target: float, eps: float, kappa_plus_max: int, n_max: int
) -> SearchResult:
    """Best repeated controlled-phase loop for a target z-rotation angle.

    Scans repetitions n and admissible winding pairs for the smallest circular
    error |(2 n J - theta_target) mod 2 pi|; ties go to the smallest n, then
    the smallest kappa_plus.  The returned gate is the repeated controlled
    phase (e^{i 2 J sigma_z} conditioned on the control)^n.
    """
    _check_search_inputs(
        eps, theta_target, kappa_plus_max=kappa_plus_max, n_max=n_max
    )
    pairs = np.array(admissible_winding_pairs(kappa_plus_max))
    pair_j = coupling_strength(pairs[:, 0], pairs[:, 1])
    row, col, err = _scan_lattice(
        lambda r, c: theta_target - (2.0 * (r + 1)) * pair_j[c],
        int(n_max),
        len(pairs),
        TWO_PI,
    )
    n = row + 1
    kp, km = (int(x) for x in pairs[col])
    j = coupling_strength(kp, km)
    gate = np.linalg.matrix_power(controlled_phase_gate(2.0 * j), n)
    target = controlled_phase_gate(theta_target)
    return SearchResult(
        params={"kappa_plus": kp, "kappa_minus": km, "n": n},
        angle_error=err,
        gate_distance=phase_invariant_distance(gate, target),
        gate=gate,
        exhausted=err >= eps,
    )


def equidistribution_scan(step: float, k_list) -> dict:
    """Covering radius of {kappa * step mod 2 pi : 0 <= kappa <= K} per K.

    The covering radius is half the largest circular gap between consecutive
    points; it is non-increasing in K and decays to zero iff step / pi is
    irrational.
    """
    out = {}
    for k_max in k_list:
        pts = np.sort(np.arange(0, int(k_max) + 1) * step % TWO_PI)
        gaps = np.diff(np.concatenate([pts, [pts[0] + TWO_PI]]))
        out[int(k_max)] = float(np.max(gaps) / 2.0)
    return out


def figure_table(which: str, caption_convention: bool = False):
    """Tabular data behind the paper-style figures.

    Returns (header, rows).  ``fig3`` uses the x-rotation angle convention
    theta_kappa = sqrt 2 kappa pi; pass ``caption_convention=True`` for the
    2 kappa pi / sqrt 3 variant.
    """
    if which == "fig2":
        header = ["kappa", "theta", "sin_theta"]
        rows = []
        for kappa in range(21):
            theta = 2.0 * kappa * np.pi / np.sqrt(3.0)
            rows.append((kappa, theta, float(np.sin(theta))))
        return header, rows
    if which == "fig3":
        header = ["kappa", "theta_mod_2pi", "cos_theta", "sin_theta"]
        step = 2.0 * np.pi / np.sqrt(3.0) if caption_convention else np.sqrt(2.0) * np.pi
        rows = []
        for kappa in range(11):
            theta = (kappa * step) % TWO_PI
            rows.append((kappa, theta, float(np.cos(theta)), float(np.sin(theta))))
        return header, rows
    if which == "fig4":
        header = ["kappa_plus", "kappa_minus", "J", "two_J_mod_2pi", "cos_2J", "sin_2J"]
        rows = []
        for kp, km in admissible_winding_pairs(5):
            j = coupling_strength(kp, km)
            rows.append(
                (kp, km, j, (2.0 * j) % TWO_PI, float(np.cos(2 * j)), float(np.sin(2 * j)))
            )
        return header, rows
    raise DomainError(f"unknown figure {which!r}")
