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
  ...  ``_search_line`` finds its first minimum without scanning it: one
  exact integer walk over the continued fraction of step / period
  (``_walk``, O(log kappa_max) steps) gives the step's best one-sided
  approximations, and so the least gap between lattice points (Lagrange),
  and the best lattice point below the target (its Ostrowski digits); the
  best point above the target is the next one on the circle, by the
  three-distance theorem (Sos 1958).  The gap proves that no other point can
  win after rounding.  Where it is too small for that proof (a step near a
  rational multiple of the period), the line is scanned.
- ``search_controlled_phase`` (period 2 pi) scans n = 1, 2, ... and, within
  each n, the winding pairs in ``_winding_pair_array`` order.

The scan kernel, ``_scan_lattice``, evaluates at most 2^14 lattice points at
a time in one 64 KiB workspace, whatever the search bounds.  It filters each
block in 32-bit fixed-point turns (fractions of the period, reduced mod the
period by uint32 wraparound), and computes the exact float error only at the
points that the filter's stated rounding bound cannot rule out.

Each returned gate is a closed form of its lattice point, and so is its
``gate_distance``, from the target angle a and the winner's angle b:
sqrt2 min(|sin(d / 2)|, |cos(d / 2)|) for a rotation and |sin(d / 2)| for a
controlled phase, d = a - b, from the half-angle sines and cosines of a and b.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import types
from dataclasses import dataclass

import numpy as np

from holonome.deformation import (
    MAX_WINDING,
    OneQubitLoop,
    _checked_axis,
    _checked_int,
    coupling_strength,
)
from holonome.errors import DomainError, _isfinite
from holonome.holonomy import analytic_one_qubit_gate, controlled_phase_gate
from holonome.matrix_kernel import _STRUCTURE_TOL, _U, _distance, _read_only

TWO_PI = 2.0 * np.pi

_SQRT2 = math.sqrt(2.0)

# Largest kappa_plus_max of a controlled-phase search: it admits
# kappa_plus_max^2 winding pairs, 10^6 at this bound.
MAX_KAPPA_PLUS = 1000

# Most lattice points a controlled-phase search may scan, kappa_plus_max^2
# n_max.  A 10^8-point search took 0.12-0.19 s at kappa_plus_max = 100 and
# 0.38-0.59 s at kappa_plus_max = 1 (one column, whose filter slack grows with
# n_max), on one thread of a 2-vCPU Xeon VM.
MAX_SCAN_POINTS = 10**8

# Lattice points per kernel step: its uint32 workspace is 64 KiB.
_CHUNK = 1 << 14

# Fixed-point units per period in the kernel's filter.
_UNITS = 2.0**32

HADAMARD = _read_only(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))

# Axis n = (1/sqrt3, 0, sqrt(2/3)) realizes the logical rotation axis
# m = (1, 0, 1)/sqrt2 with theta_kappa = 2 kappa pi / sqrt 3.
HADAMARD_AXIS = (np.sqrt(1.0 / 3.0), 0.0, np.sqrt(2.0 / 3.0))

NAMED_AXES = types.MappingProxyType({"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)})


def circular_distance(delta, period: float):
    """Distance on a circle of length ``period``: min(r, period - r) with r = |delta| mod period,
    of a float, or elementwise of an array.  Every search reports the error this returns at its
    winner."""
    r = abs(delta) % period
    return np.minimum(r, period - r)


def _half_angle_sin_cos(a: float, b: float):
    """(sin(d / 2), cos(d / 2)) for d = a - b, from the half-angle sines and cosines.

    d is never formed: near MAX_WINDING its rounding alone, ulp(b) / 2, would be
    ~1e6 u, while these stay within a few u of the exact values for the floats a, b.
    """
    sa, ca, sb, cb = math.sin(0.5 * a), math.cos(0.5 * a), math.sin(0.5 * b), math.cos(0.5 * b)
    return sa * cb - ca * sb, ca * cb + sa * sb


def _rotation_distance(a: float, b: float) -> float:
    """Phase-invariant distance of rotations by a and b about one axis, sqrt(1 - |cos d|)."""
    s, c = _half_angle_sin_cos(a, b)
    return _SQRT2 * min(abs(s), abs(c))


@dataclass(frozen=True, eq=False)
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


def _delta(theta: float, factors, n):
    """theta - (((n f1) f2) ...): target minus lattice angle, as every search evaluates it."""
    return theta - functools.reduce(operator.mul, factors, n)


def _fixed_turns(x: np.ndarray) -> np.ndarray:
    """x mod 1 in 32-bit fixed point, rint(2^32 frac(x)) mod 2^32 as uint32; overwrites x.

    frac(x) = x - trunc(x), with the sign of x, is exact.  Working in place spares a wide
    lattice fresh column-sized temporaries, which cost page faults.
    """
    np.subtract(x, np.trunc(x), out=x)
    np.multiply(x, _UNITS, out=x)
    np.rint(x, out=x)
    return x.astype(np.int64).astype(np.uint32)


def _scan_lattice(theta: float, factors, rows: int, period: float):
    """(row, col, error) of the first minimum of the circular error over a lattice.

    The point (r, c), 0 <= r < ``rows``, is theta - (r + 1) step_c, where
    step_c is the product of the k ``factors`` at column c (a factor is a
    float, or an array over the columns); it is evaluated in floating point
    as ``_delta(theta, factors at c, r + 1)``.  The scan order is row-major
    and the error is ``circular_distance``.  A block holds whole rows, or one
    row in pieces when a row is longer than ``_CHUNK``, so it never exceeds
    ``_CHUNK`` points, and every block reuses one uint32 workspace.

    Each block is filtered first, in units of 2^-32 periods.  T_c and Theta
    are the fractions of fl(step_c) / period and theta / period rounded to 32
    bits (``_fixed_turns``), so the uint32 n T_c - Theta wraps exactly mod
    2^32, and its absolute value as an int32 is a circular error.  Against
    the exact circular error of theta - n step_c, with the exact products of
    the factors, T_c is off by at most 1/2 + 2^32 k u s units and Theta by
    1/2 + 2^32 u t, where s = max |step_c / period| and t = |theta / period|,
    so the estimate is within (rows + 1) / 2 + 2^32 u (k rows s + t).  The
    float evaluation is within u (|theta| + (k + 2) rows max |step_c| +
    period) of the exact error, 2^32 u (t + (k + 2) rows s + 1) units.  Both
    together are at most b = rows / 2 + 2 + 2^33 (k + 2) u (rows s + t + 1)
    units; the spare unit and a half covers rounding the best error so far
    into units.  Only the points with an estimate within 2 b of the block
    minimum get the exact error, so every point that attains the block's
    exact minimum, ties included, is among them.  A block whose minimum
    estimate is more than b above the best error so far cannot improve it
    and is skipped.  The first minimum is the one a full exact scan finds.
    The slack is clamped to one period, which keeps every point (a huge
    theta leaves no fractional bits to filter on).
    """
    turns = np.append(functools.reduce(operator.mul, factors), theta) / period
    cols = turns.size - 1
    b = rows / 2 + 2 + 2.0 * _UNITS * (len(factors) + 2) * _U * (
        rows * max(turns[:-1].max(), -turns[:-1].min()) + abs(turns[-1]) + 1)
    fixed = _fixed_turns(turns)
    steps, origin = fixed[:-1], fixed[-1]
    slack, scale = int(min(2 * b, _UNITS)), _UNITS / period
    if cols <= _CHUNK:
        row_step, col_step = _CHUNK // cols, cols
    else:
        row_step, col_step = 1, _CHUNK
    work = np.empty(min(row_step, rows) * col_step, dtype=np.uint32)
    best, best_err = (0, 0), np.inf
    for r0 in range(0, rows, row_step):
        n = np.arange(r0 + 1, min(r0 + row_step, rows) + 1, dtype=np.uint32)[:, None]
        for c0 in range(0, cols, col_step):
            t = steps[c0 : c0 + col_step]
            est = work[: n.size * t.size]
            np.multiply(n, t, out=est.reshape(n.size, t.size))
            np.subtract(est, origin, out=est)
            np.abs(est.view(np.int32), out=est.view(np.int32))
            low = int(est.min())
            if low - b > best_err * scale:
                continue
            r, c = np.divmod(np.flatnonzero(est <= min(low + slack, 1 << 31)), t.size)
            c += c0
            at_c = [f[c] if np.ndim(f) else f for f in factors]
            err = circular_distance(_delta(theta, at_c, r + (r0 + 1)), period)
            i = int(np.argmin(err))
            if err[i] < best_err:
                best, best_err = (r0 + int(r[i]), int(c[i])), float(err[i])
    return best[0], best[1], best_err


def _walk(s: int, t: int, m: int, n: int):
    """One continued-fraction walk over the points q s mod m, 0 <= q <= n.

    Needs 0 <= s, t < m and n >= 0.  Returns (d+, x, d-, y, j, v):

    - x = d+ s mod m and y = -d- s mod m, the first minima of q s mod m and of
      -q s mod m over 1 <= q <= n (for n >= 1), so min(x, y) is the least
      circular distance between two points.  By Lagrange's theorem the records
      on either side are the intermediate fractions of s / m: each step takes
      the larger residue down by k times the smaller, k the partial quotient
      cut to the bound n.  A zero residue is the minimum of both sides.
    - j and v = (t - j s) mod m: the point at or below t, the first minimum of
      (t - q s) mod m when x and y are nonzero (otherwise the points repeat).

    While d+ + d- - 1 <= n, the points 0 <= q < d+ + d- cut the circle into d-
    gaps of length x, from each q < d- to q + d+, and d+ gaps of length y, from
    each q >= d- to q - d- (the three-distance theorem, Sos 1958, at a step of
    the walk, where d+ y + d- x = m).  Taking y down by k x inserts in each y
    gap the points q + d+, ..., q + k d+ at x, ..., k x past its start; taking
    x down by k y inserts in each x gap the points q + d+ + d-, ...,
    q + d+ + k d- at x - y, ..., x - k y.  So j, the start of the gap that
    holds t at offset v, follows each step to the last point it inserts at or
    below t with index at most n: the Ostrowski digits of t over the same
    partial quotients.  A step is cut short only where the bound n stops it,
    and the walk then ends, so every step starts from a whole two-distance
    state.  There are O(log n) steps.
    """
    dp, x, dm, y = 1, s, 0, m
    j, v = 0, t
    while x and y:
        if x < y:  # take y down: each y gap gains points x, 2x, ... past its start
            k = y // x
            if (n - dm) // dp < k:
                k = (n - dm) // dp
                if not k:
                    break
            i = v // x  # a y gap holds t at v >= x; an x gap never does
            if i > k:
                i = k
            if j + i * dp > n:
                i = (n - j) // dp
            j, v = j + i * dp, v - i * x
            dm, y = dm + k * dp, y - k * x
        else:  # take x down: each x gap gains points x - y, x - 2y, ... past its start
            k = x // y
            if (n - dp) // dm < k:
                k = (n - dp) // dm
                if not k:
                    break
            if j < dm:  # t is in an x gap: the first point inserted at or below it
                i = (x - v - 1) // y + 1
                if i <= k and j + dp + i * dm <= n:
                    j, v = j + dp + i * dm, v - x + i * y
            dp, x = dp + k * dm, x - k * y
    else:  # q s = 0 mod m at some q <= n, the first minimum on both sides
        d = dm if x else dp
        return d, 0, d, 0, j, v
    return dp, x, dm, y, j, v


def _successor(q: int, dp: int, dm: int, n: int) -> int:
    """Index of the point after point q on the circle, among p s mod m, 0 <= p <= n.

    Needs n >= 1 and d+ = dp, d- = dm from ``_walk`` over the same points with
    x and y nonzero: the gap after q is then x, y or x + y (the three-distance
    theorem, Sos 1958).
    """
    if q + dp <= n:
        return q + dp
    if q >= dm:
        return q - dm
    return q + dp - dm


def _search_line(theta: float, step_factors, size: int, period: float):
    """(position, error) that ``_scan_lattice`` finds on the line theta - (k + 1) step.

    The line is evaluated in floating point as theta - (((k + 1) f1) f2 ...)
    over the floats f of ``step_factors``, at int64 positions ``k`` or at one
    int ``k``; the step is their exact product.  Over one
    power-of-two denominator theta, step and period are integers, and one
    ``_walk`` over the points (k + 1) step, 0 <= k < size, gives exactly:

    - the gap g, the least circular distance of q step from 0 over
      1 <= q < size, from the best one-sided approximations d+ and d-;
    - k_u, the first minimum of (theta - (k + 1) step) mod period (the best
      lattice point below theta), and from it k_l, that of
      ((k + 1) step - theta) mod period (the best one above): k_u itself when
      theta is on that point, and otherwise the point after it on the circle,
      ``_successor``.

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
    dp, x, dm, y, k_u, v = _walk(s, (t - s) % m, m, size - 1)
    if size > 1:
        tol = 4.0 * _U * (abs(theta) + size * abs(num / den) + period)
        if not min(x, y) / d > 2.0 * tol:
            row, _, err = _scan_lattice(theta, step_factors, size, period)
            return row, err
    k_l = _successor(k_u, dp, dm, size - 1) if v and size > 1 else k_u
    err, k = min((circular_distance(_delta(theta, step_factors, k + 1), period), k)
                 for k in {k_u, k_l})
    return k, float(err)


def _check_search_inputs(eps, theta_target=0.0, **bounds):
    """Reject a tolerance, target angle or scan bound no search can honour.

    A ``kappa_max`` is also capped at MAX_WINDING, so that every winding it
    admits is a valid loop; beyond it a line search would scan every point.
    A ``kappa_plus_max`` is capped at MAX_KAPPA_PLUS, which bounds the table
    of winding pairs at 10^6 rows, and with an ``n_max`` the scan is capped
    at MAX_SCAN_POINTS lattice points.  Every bound must be an int (a numpy
    integer, not a bool): a float would be truncated.
    """
    if not eps > 0:
        raise DomainError("tolerance must be positive")
    if not _isfinite("tolerance", eps):
        raise DomainError("tolerance must be finite")
    if not _isfinite("target angle", theta_target):
        raise DomainError("target angle must be finite")
    bounds = {name: _checked_int(name, value) for name, value in bounds.items()}
    for name, value in bounds.items():
        if not value >= 1:
            raise DomainError(f"{name} must be at least 1")
    if "kappa_max" in bounds and not bounds["kappa_max"] <= MAX_WINDING:
        raise DomainError(f"winding number must be in [1, {MAX_WINDING}]")
    if "kappa_plus_max" in bounds and not bounds["kappa_plus_max"] <= MAX_KAPPA_PLUS:
        raise DomainError(f"kappa_plus_max must be in [1, {MAX_KAPPA_PLUS}]")
    if "n_max" in bounds:
        kp, n = bounds["kappa_plus_max"], bounds["n_max"]
        if kp**2 * n > MAX_SCAN_POINTS:
            raise DomainError(
                f"kappa_plus_max**2 * n_max must be at most {MAX_SCAN_POINTS} "
                f"lattice points, got {kp}**2 * {n}"
            )


def _resolve_axis(axis):
    if isinstance(axis, str):
        try:
            return NAMED_AXES[axis]
        except KeyError:
            raise DomainError(f"unknown axis name {axis!r}") from None
    return axis


def _search_one_qubit(axis, theta: float, step_factors, kappa_max, period: float, eps,
                      on_distance: bool) -> SearchResult:
    """``_search_line`` for theta and its winner, the loop of ``axis`` at kappa = k + 1, in
    closed form; ``exhausted`` judges its gate distance if ``on_distance``, else its angle error."""
    i, err = _search_line(theta, step_factors, int(kappa_max), period)
    loop = OneQubitLoop(axis, i + 1)
    dist = _rotation_distance(theta, loop.theta_kappa)
    return SearchResult(
        params={"kappa": loop.kappa},
        angle_error=err,
        gate_distance=dist,
        gate=analytic_one_qubit_gate(loop).gamma,
        exhausted=(dist if on_distance else err) >= eps,
    )


def search_rotation(axis, theta_target: float, eps: float, kappa_max: int) -> SearchResult:
    """Best winding number for a target rotation angle about a fixed axis.

    Minimizes the circular distance |(theta_target - theta_kappa) mod 2 pi|
    over 1 <= kappa <= kappa_max; ties go to the smallest kappa.
    """
    _check_search_inputs(eps, theta_target, kappa_max=kappa_max)
    n = _resolve_axis(axis)
    step = math.pi * _checked_axis(n, 1)[1]  # theta_1, after the loop's axis checks
    return _search_one_qubit(n, float(theta_target), (step,), kappa_max, TWO_PI, eps,
                             on_distance=False)


def search_hadamard(eps: float, kappa_max: int) -> SearchResult:
    """Best winding number on ``HADAMARD_AXIS`` for the Hadamard gate.

    HADAMARD = i exp(-i (pi/2) m . sigma) with m = (1, 0, 1)/sqrt2, so the
    gate distance is monotone in the circular error |(pi/2 - theta_kappa)
    mod pi| minimized over 1 <= kappa <= kappa_max; ties go to the smallest
    kappa.  ``gate_distance`` is the phase-invariant distance of the winning
    gate to HADAMARD, and ``exhausted`` means it is at least ``eps``.
    """
    _check_search_inputs(eps, kappa_max=kappa_max)
    root = _checked_axis(HADAMARD_AXIS, 1)[1]
    return _search_one_qubit(HADAMARD_AXIS, np.pi / 2.0, (np.pi, root), kappa_max, np.pi, eps,
                             on_distance=True)


_IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)


def _unitary_entries(target) -> tuple:
    """Row-major entries (a, b, c, d) of a 2 x 2 unitary target as Python complex scalars.

    DomainError unless the target is 2 x 2 and ||U^dag U - I||_F < _STRUCTURE_TOL * 2, the
    test of ``matrix_kernel.is_unitary``, on the entries of U^dag U; a non-finite entry fails.
    """
    u = np.asarray(target, dtype=complex)
    if u.shape != (2, 2):
        raise DomainError("target must be a 2 x 2 unitary")
    (a, b), (c, d) = u.tolist()
    off = abs(a.conjugate() * b + c.conjugate() * d)
    defect = math.hypot((a.conjugate() * a + c.conjugate() * c).real - 1.0, off, off,
                        (b.conjugate() * b + d.conjugate() * d).real - 1.0)
    if not defect < _STRUCTURE_TOL * 2:
        raise DomainError("target must be a 2 x 2 unitary")
    return a, b, c, d


def euler_yxy(target):
    """Angles (alpha, beta, gamma) with target ~ Ry(alpha) Rx(beta) Ry(gamma).

    The target may carry a global phase; the decomposition is of its SU(2)
    representative.
    """
    return _euler_yxy(*_unitary_entries(target))


def _euler_yxy(a, b, c, d):
    """``euler_yxy`` of the entries of a 2 x 2 unitary [[a, b], [c, d]], unchecked.

    Its SU(2) representative M = U / sqrt(det U) goes to the z-y-z frame as S^dag M S, with
    S = (I + i (sigma_x + sigma_y + sigma_z)) / 2: S sigma_z S^dag = sigma_y and
    S sigma_y S^dag = sigma_x.  S's entries are (+-1 +- i) / 2, so S^dag M S is written out,
    and read as Rz(alpha) Ry(beta) Rz(gamma), Rn(t) = exp(-i t n . sigma / 2).
    """
    r = cmath.sqrt(a * d - b * c)
    a, b, c, d = a / r, b / r, c / r, d / r
    m00, m01 = 0.5 * (a + d + 1j * (b - c)), 0.5 * (a - d - 1j * (b + c))
    m10, m11 = 0.5 * (a - d + 1j * (b + c)), 0.5 * (a + d - 1j * (b - c))
    beta = 2.0 * math.atan2(abs(m01), abs(m00))
    if abs(m00) < 1e-12:  # anti-diagonal: only alpha - gamma is determined
        return 2.0 * cmath.phase(m10), beta, 0.0
    if abs(m01) < 1e-12:
        return 2.0 * cmath.phase(m11), beta, 0.0
    s, h = -cmath.phase(m00), cmath.phase(m10)  # (alpha + gamma) / 2, (alpha - gamma) / 2
    return s + h, beta, s - h


@dataclass(frozen=True, eq=False)
class SynthesisProgram:
    """A sequence of axis rotations approximating a one-qubit target."""

    steps: tuple  # of (axis_name, SearchResult)
    composite: np.ndarray
    total_distance: float
    exhausted: bool


def synthesize_su2(target, eps_per_rotation: float, kappa_max: int) -> SynthesisProgram:
    """Approximate an arbitrary 2 x 2 unitary by y-x-y holonomic rotations, on the target's
    entries as Python scalars: closed forms with no BLAS call from the check to the distance."""
    _check_search_inputs(eps_per_rotation, kappa_max=kappa_max)
    u = _unitary_entries(target)  # the one check: what follows reads u unchecked
    if _distance(u, _IDENTITY) < 1e-12:
        return SynthesisProgram(steps=(), composite=np.eye(2, dtype=complex),
                                total_distance=0.0, exhausted=False)
    alpha, beta, gamma = _euler_yxy(*u)
    steps = []
    composite = _IDENTITY
    for axis_name, angle in (("y", alpha), ("x", beta), ("y", gamma)):
        theta = 0.5 * angle  # full-angle exponent convention exp(-i theta sigma)
        if circular_distance(theta, TWO_PI) < 1e-12:
            continue
        result = search_rotation(axis_name, theta, eps_per_rotation, kappa_max)
        steps.append((axis_name, result))
        p, g = composite, result.gate.ravel().tolist()  # the 2 x 2 product, entry by entry
        composite = [p[i] * g[j] + p[i + 1] * g[j + 2] for i in (0, 2) for j in (0, 1)]
    return SynthesisProgram(
        steps=tuple(steps),
        composite=np.array(composite).reshape(2, 2),
        total_distance=_distance(composite, u),
        exhausted=any(r.exhausted for _, r in steps),
    )


def _winding_pair_array(kappa_plus_max: int) -> np.ndarray:
    """All (kappa_+, kappa_-) with kappa_+ < kappa_- < 3 kappa_+ as int64 rows, kappa_+ major.

    kappa_+ = k owns the 2k - 1 rows kappa_- = k + 1, ..., 3k - 1, which
    start at row (k - 1)^2; kappa_plus_max^2 rows in all.
    """
    k = np.arange(1, int(kappa_plus_max) + 1, dtype=np.int64)
    kp = np.repeat(k, 2 * k - 1)
    km = kp + 1 + np.arange(kp.size, dtype=np.int64) - (kp - 1) ** 2
    return np.stack([kp, km], axis=1)


def search_controlled_phase(
    theta_target: float, eps: float, kappa_plus_max: int, n_max: int
) -> SearchResult:
    """Best repeated controlled-phase loop for a target z-rotation angle.

    Scans repetitions n and admissible winding pairs for the smallest circular
    error |(2 n J - theta_target) mod 2 pi|; ties go to the smallest n, then
    the smallest kappa_plus.  The returned gate is the controlled phase by
    2 n J, the angle the scan scored: n repetitions of the loop's controlled
    phase e^{i 2 J sigma_z}.
    """
    _check_search_inputs(
        eps, theta_target, kappa_plus_max=kappa_plus_max, n_max=n_max
    )
    theta_target = float(theta_target)
    pairs = _winding_pair_array(kappa_plus_max)
    pair_j = coupling_strength(pairs[:, 0], pairs[:, 1])
    row, col, err = _scan_lattice(theta_target, (2.0, pair_j), int(n_max), TWO_PI)
    n = row + 1
    kp, km = (int(x) for x in pairs[col])
    alpha = (2.0 * n) * float(pair_j[col])  # 2 n J as the scan scored it
    return SearchResult(
        params={"kappa_plus": kp, "kappa_minus": km, "n": n},
        angle_error=err,
        gate_distance=abs(_half_angle_sin_cos(theta_target, alpha)[0]),
        gate=controlled_phase_gate(alpha),
        exhausted=err >= eps,
    )


def figure_table(which: str, caption_convention: bool = False):
    """Tabular data behind the paper-style figures.

    Returns (header, rows), every cell a Python int or float.  ``fig3`` uses
    the x-rotation angle convention theta_kappa = sqrt 2 kappa pi; pass
    ``caption_convention=True`` for the 2 kappa pi / sqrt 3 variant.
    """
    if which == "fig2":
        thetas = (2.0 * kappa * math.pi / math.sqrt(3.0) for kappa in range(21))
        return ["kappa", "theta", "sin_theta"], [
            (kappa, t, float(np.sin(t))) for kappa, t in enumerate(thetas)]
    if which == "fig3":
        step = 2.0 * math.pi / math.sqrt(3.0) if caption_convention else math.sqrt(2.0) * math.pi
        thetas = ((kappa * step) % TWO_PI for kappa in range(11))
        return ["kappa", "theta_mod_2pi", "cos_theta", "sin_theta"], [
            (kappa, t, float(np.cos(t)), float(np.sin(t))) for kappa, t in enumerate(thetas)]
    if which == "fig4":
        pairs = _winding_pair_array(5).tolist()
        js = [float(coupling_strength(kp, km)) for kp, km in pairs]
        return ["kappa_plus", "kappa_minus", "J", "two_J_mod_2pi", "cos_2J", "sin_2J"], [
            (kp, km, j, (2.0 * j) % TWO_PI, float(np.cos(2 * j)), float(np.sin(2 * j)))
            for (kp, km), j in zip(pairs, js)]
    raise DomainError(f"unknown figure {which!r}")
