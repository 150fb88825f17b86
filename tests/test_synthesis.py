"""Discrete searches, SU(2) synthesis, equidistribution and figure tables."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holonome import synthesis
from holonome.deformation import MAX_WINDING, OneQubitLoop, TwoQubitLoop
from holonome.errors import DomainError
from holonome.holonomy import (
    analytic_one_qubit_gate,
    analytic_two_qubit_gate,
    controlled_phase_gate,
)
from holonome.matrix_kernel import phase_invariant_distance
from holonome.synthesis import (
    HADAMARD,
    HADAMARD_AXIS,
    admissible_winding_pairs,
    circular_distance,
    coupling_strength,
    equidistribution_scan,
    euler_yxy,
    figure_table,
    search_controlled_phase,
    search_hadamard,
    search_rotation,
    synthesize_su2,
)

# Deterministic hypothesis runs that leave no example database behind.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def repeated_exact_gate(kappa_plus, kappa_minus, n, kappa_prime=1):
    """(exp(-A|C2))^n for the winning loop, for auditing the repetition scheme."""
    loop = TwoQubitLoop.create(kappa_plus, kappa_minus, kappa_prime)
    return np.linalg.matrix_power(analytic_two_qubit_gate(loop).gamma_exact, n)


def reference_scan(delta_at, size, period, chunk=1 << 15):
    """(position, error) of the first minimum: the plain chunked 1-D scan.

    ``delta_at(i)`` returns target - lattice angle at the int64 positions
    ``i``; every position gets the exact circular error.
    """
    best_i, best_err = 0, np.inf
    for start in range(0, size, chunk):
        r = np.abs(delta_at(np.arange(start, min(start + chunk, size)))) % period
        err = np.minimum(r, period - r)
        i = int(np.argmin(err))
        if err[i] < best_err:
            best_i, best_err = start + i, float(err[i])
    return best_i, best_err


def brute_force_rotation_scan(step, theta, kappa_max):
    errs = [(circular_distance(theta - k * step), k) for k in range(1, kappa_max + 1)]
    return min(errs)


def brute_force_controlled_phase_scan(theta, kappa_plus_max, n_max):
    """(err, n, kp, km): first minimum in n-major, pair-minor order."""
    pairs = admissible_winding_pairs(kappa_plus_max)
    best = None
    for n in range(1, n_max + 1):
        for kp, km in pairs:
            err = circular_distance(2.0 * n * coupling_strength(kp, km) - theta)
            if best is None or err < best[0]:
                best = (err, n, kp, km)
    return best


def brute_force_hadamard_scan(kappa_max):
    """(gate distance, kappa, angle error mod pi), one gate matrix per winding."""
    best = None
    for kappa in range(1, kappa_max + 1):
        loop = OneQubitLoop.create(HADAMARD_AXIS, kappa)
        gate = analytic_one_qubit_gate(loop).gamma
        dist = phase_invariant_distance(gate, HADAMARD)
        if best is None or dist < best[0]:
            r = abs(np.pi / 2.0 - loop.theta_kappa) % np.pi
            best = (dist, kappa, min(r, np.pi - r))
    return best


# Seeded corpus for the searches: bounds of 1 and 2, small bounds, and
# bounds just above one kernel chunk.
_CHUNK = synthesis._CHUNK
_RNG = np.random.default_rng(20080909)
ROTATION_CASES = [
    (str(_RNG.choice(["x", "y"])), float(_RNG.uniform(-7.0, 7.0)),
     float(_RNG.choice([1e-6, 1e-2, 0.5])), bound)
    for bound in (1, 1, 2, 2, 3, 17, 500, _CHUNK, _CHUNK + 1, _CHUNK + 7)
] + [
    # exact hit on the last point, alone in the second chunk
    ("x", (_CHUNK + 1) * OneQubitLoop.create((1.0, 0.0, 0.0), 1).theta_kappa, 1e-9, _CHUNK + 1),
]
CPHASE_CASES = [
    (float(_RNG.uniform(-7.0, 7.0)), float(_RNG.choice([1e-6, 1e-2, 0.5])), kp, n)
    for kp, n in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 7), (10, 40),
                  (1, _CHUNK + 1), (2, _CHUNK // 4 + 1))
] + [
    # 2 n J(2, 4) == 4 n J(1, 2) exactly; n = 5000 puts the two exact hits
    # in different chunks, and the earlier one (n = 5000) must win.
    (2.0 * 5000 * coupling_strength(2, 4), 1e-9, 2, 10000),
]
HADAMARD_CASES = [(1, 0.5), (2, 0.5), (3, 1e-3), (16, 0.1), (500, 1e-3), (_CHUNK + 1, 1e-6)]


class TestScanKernelEquivalence:
    """The searches return exactly what the per-point scans return."""

    @pytest.mark.parametrize("axis,theta,eps,kappa_max", ROTATION_CASES)
    def test_rotation(self, axis, theta, eps, kappa_max):
        step = OneQubitLoop.create(synthesis.NAMED_AXES[axis], 1).theta_kappa
        err, kappa = brute_force_rotation_scan(step, theta, kappa_max)
        result = search_rotation(axis, theta, eps, kappa_max)
        assert result.params == {"kappa": kappa}
        assert result.angle_error == err
        assert result.exhausted == (err >= eps)

    @pytest.mark.parametrize("theta,eps,kp_max,n_max", CPHASE_CASES)
    def test_controlled_phase(self, theta, eps, kp_max, n_max):
        err, n, kp, km = brute_force_controlled_phase_scan(theta, kp_max, n_max)
        result = search_controlled_phase(theta, eps, kp_max, n_max)
        assert result.params == {"kappa_plus": kp, "kappa_minus": km, "n": n}
        assert result.angle_error == err
        assert result.exhausted == (err >= eps)

    @pytest.mark.parametrize("kappa_max,eps", HADAMARD_CASES)
    def test_hadamard(self, kappa_max, eps):
        dist, kappa, err = brute_force_hadamard_scan(kappa_max)
        result = search_hadamard(eps, kappa_max)
        assert result.params == {"kappa": kappa}
        assert result.gate_distance == dist
        assert result.angle_error == err
        assert result.exhausted == (dist >= eps)


# Seeded corpus for the exact line search: rotation lines about random axes,
# lines whose step is a product of two floats (the Hadamard form) and
# Hadamard bounds.  Bounds 1 and 2, log-spread bounds up to 6e4, and bounds
# of MAX_WINDING; targets midway between two lattice points adjacent on the
# circle, on either side of the branch cut of ``mod``; steps near a rational
# multiple of the period (1.2 pi, a few ulps off 1.2 pi, 1.25 pi, 1.5 pi or
# 4 pi / 3, and pi (1 + 1e-9) with a target large enough that rounding
# swamps its gap) that must take the scan.
TIE_RNG = np.random.default_rng(20081222)
STEP_1_2PI_AXIS = (np.sqrt(0.44), 0.0, np.sqrt(0.56))  # step 1.2 pi
STEP_PI_AXIS = (np.sqrt(1.0 - (2.0 - (1.0 + 1e-9) ** 2)), 0.0,
                np.sqrt(2.0 - (1.0 + 1e-9) ** 2))  # step pi (1 + 1e-9)


def _bound(rng):
    u = rng.random()
    if u < 0.05:
        return 1
    if u < 0.1:
        return 2
    return int(np.exp(rng.uniform(np.log(3), np.log(6e4))))


def _random_axis(rng):
    choice = rng.random()
    if choice < 0.2:
        return str(rng.choice(["x", "y"]))
    if choice < 0.25:
        return STEP_1_2PI_AXIS
    if choice < 0.3:
        return STEP_PI_AXIS
    nz = rng.uniform(-0.999, 0.999)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    rho = np.sqrt(1.0 - nz * nz)
    return (rho * np.cos(phi), rho * np.sin(phi), nz)


def _near_tie(step, size, period, rng):
    """A target midway between two lattice points adjacent on the circle."""
    angles = (np.arange(1, size + 1) * step) % period
    order = np.argsort(angles, kind="stable")
    j = len(order) - 1 if rng.random() < 0.3 else int(rng.integers(len(order) - 1))
    lo, hi = angles[order[j]], angles[order[(j + 1) % len(order)]]
    if j == len(order) - 1:
        hi += period  # the pair straddles the branch cut at 0
    theta = 0.5 * (lo + hi) + period * int(rng.integers(-2, 3))
    for _ in range(int(rng.integers(0, 3))):
        theta = float(np.nextafter(theta, rng.choice([-np.inf, np.inf])))
    return float(theta)


def _target(step, size, period, rng):
    u = rng.random()
    if u < 0.35 and size > 1:
        return _near_tie(step, size, period, rng)
    if u < 0.4:
        return float(rng.choice([0.0, period, -period, 1e-300, 1e8, -1e8]))
    return float(rng.uniform(-7.0, 7.0))


def _rotation_lines(count, rng):
    cases = []
    for i in range(count):
        axis = _random_axis(rng)
        size = MAX_WINDING if i % 50 == 0 else _bound(rng)
        step = OneQubitLoop.create(synthesis._resolve_axis(axis), 1).theta_kappa
        theta = (float(rng.uniform(-7.0, 7.0)) if size == MAX_WINDING
                 else _target(step, size, synthesis.TWO_PI, rng))
        cases.append((axis, theta, float(rng.choice([1e-6, 1e-3, 0.5])), size))
    return cases


def _product_lines(count, rng):
    cases = []
    for i in range(count):
        if i % 5 == 0:
            # a few ulps off a rational multiple of pi: a gap of ~1e-15
            root = float(rng.choice([1.2, 1.25, 1.5, 4.0 / 3.0]))
            root *= 1.0 + int(rng.integers(-3, 4)) * 2.0**-52
        else:
            root = float(np.sqrt(rng.uniform(1.0, 2.0)))
        period = float(rng.choice([np.pi, synthesis.TWO_PI]))
        size = MAX_WINDING if i % 100 == 0 else _bound(rng)
        theta = (float(rng.uniform(-7.0, 7.0)) if size == MAX_WINDING
                 else _target(np.pi * root, size, period, rng))
        cases.append((theta, root, period, size))
    return cases


ROTATION_LINES = _rotation_lines(1400, TIE_RNG)
PRODUCT_LINES = _product_lines(500, TIE_RNG)
HADAMARD_BOUNDS = sorted({1, 2, MAX_WINDING - 1, MAX_WINDING}
                         | {_bound(TIE_RNG) for _ in range(200)})
GROUPS = 10


def rotation_reference(axis, theta, kappa_max):
    step = OneQubitLoop.create(synthesis._resolve_axis(axis), 1).theta_kappa
    return reference_scan(lambda k: theta - (k + 1) * step, kappa_max, synthesis.TWO_PI)


class TestLineSearch:
    """The exact line search returns what the plain scan of every point returns."""

    def test_corpus_size(self):
        assert len(ROTATION_LINES) + len(PRODUCT_LINES) + len(HADAMARD_BOUNDS) >= 2000
        at_max = [c for c in ROTATION_LINES if c[3] == MAX_WINDING]
        at_max += [c for c in PRODUCT_LINES if c[3] == MAX_WINDING]
        assert len(at_max) + HADAMARD_BOUNDS.count(MAX_WINDING) >= 20

    @pytest.mark.parametrize("group", range(GROUPS))
    def test_rotation_lines(self, group):
        for axis, theta, eps, kappa_max in ROTATION_LINES[group::GROUPS]:
            i, err = rotation_reference(axis, theta, kappa_max)
            result = search_rotation(axis, theta, eps, kappa_max)
            case = (axis, theta, kappa_max)
            assert result.params == {"kappa": i + 1}, case
            assert result.angle_error.hex() == err.hex(), case
            assert result.exhausted == (err >= eps), case

    @pytest.mark.parametrize("group", range(GROUPS))
    def test_product_step_lines(self, group):
        for theta, root, period, size in PRODUCT_LINES[group::GROUPS]:
            def delta_at(_, k):
                return theta - ((k + 1) * np.pi) * root

            expected = reference_scan(lambda k: delta_at(0, k), size, period)
            got = synthesis._search_line(delta_at, theta, (np.pi, root), size, period)
            assert got[0] == expected[0], (theta, root, period, size)
            assert got[1].hex() == expected[1].hex(), (theta, root, period, size)

    def test_hadamard_bounds(self):
        root = np.sqrt(2.0 - HADAMARD_AXIS[2] ** 2)
        for kappa_max in HADAMARD_BOUNDS:
            i, err = reference_scan(
                lambda k: np.pi / 2.0 - ((k + 1) * np.pi) * root, kappa_max, np.pi
            )
            result = search_hadamard(1e-3, kappa_max)
            assert result.params == {"kappa": i + 1}, kappa_max
            assert result.angle_error.hex() == err.hex(), kappa_max
            gate = analytic_one_qubit_gate(OneQubitLoop.create(HADAMARD_AXIS, i + 1)).gamma
            assert result.exhausted == (phase_invariant_distance(gate, HADAMARD) >= 1e-3)

    @pytest.mark.parametrize(
        "axis,theta,kappa_max,scans",
        [
            (STEP_1_2PI_AXIS, 0.3, 1000, 1),
            (STEP_1_2PI_AXIS, -2.0, 60000, 1),
            (STEP_PI_AXIS, 1e8, 60000, 1),
            (STEP_PI_AXIS, 1.0, 60000, 0),  # gap 2 pi 1e-9 is wide enough
            ("x", 1.0, MAX_WINDING, 0),
            ("y", 1e-300, 1, 0),
        ],
    )
    def test_scan_only_where_rounding_can_decide(self, monkeypatch, axis, theta, kappa_max, scans):
        calls = []
        scan = synthesis._scan_lattice
        monkeypatch.setattr(synthesis, "_scan_lattice",
                            lambda *args: calls.append(args) or scan(*args))
        i, err = rotation_reference(axis, theta, kappa_max)
        result = search_rotation(axis, theta, 1e-3, kappa_max)
        assert len(calls) == scans
        assert result.params == {"kappa": i + 1}
        assert result.angle_error.hex() == err.hex()

    def test_descending_runs_stay_logarithmic(self):
        # (a x + b) mod m with a = m - 1 descends by 1 per step: a recursion
        # that only follows wraps would need one level per point.
        m, n = 10**12, 10**6
        assert synthesis._min_mod(m - 1, 5 * 10**5, m, n) == (0, 5 * 10**5)
        assert synthesis._min_mod(m - 1, 10**7, m, n) == (10**7 - n + 1, n - 1)
        assert synthesis._min_mod(m - 3, 10**6 + 1, m, n) == (2, 333333)

    @DETERMINISTIC
    @given(st.data())
    def test_min_mod_matches_brute_force(self, data):
        m = data.draw(st.integers(1, 300))
        a = data.draw(st.integers(0, m - 1))
        b = data.draw(st.integers(0, m - 1))
        n = data.draw(st.integers(1, 400))
        assert synthesis._min_mod(a, b, m, n) == brute_min_mod(a, b, m, n)


def brute_min_mod(a, b, m, n):
    values = [(a * x + b) % m for x in range(n)]
    return min(values), values.index(min(values))


def _cphase_corpus(rng):
    cases = [
        (0.0, 1e-9, 12, 500),  # pair (7, 9) has 2J = 4 pi: exact ties in every n
        (synthesis.TWO_PI, 1e-9, 7, 2000),
        (-4.0 * np.pi, 1e-9, 30, 300),
        (1e-12, 1e-9, 9, 64),
        (np.pi / 2.0, 0.05, 30, 2000),
        (0.7, 1e-3, 190, 3),  # rows of 190^2 pairs, longer than one chunk
    ]
    for _ in range(30):
        kp = int(rng.integers(1, 31))
        n = int(np.exp(rng.uniform(0.0, np.log(2000))))
        theta = float(rng.choice([rng.uniform(-7.0, 7.0), 0.0, np.pi]))
        cases.append((theta, float(rng.choice([1e-6, 1e-3, 0.5])), kp, n))
    return cases


CPHASE_LINES = _cphase_corpus(np.random.default_rng(20081223))


class TestControlledPhaseKernel:
    """The filtered 2-D kernel returns what the plain scan of every point returns."""

    @pytest.mark.parametrize("theta,eps,kp_max,n_max", CPHASE_LINES)
    def test_matches_plain_scan(self, theta, eps, kp_max, n_max):
        pairs = np.array(admissible_winding_pairs(kp_max))
        pair_j = coupling_strength(pairs[:, 0], pairs[:, 1])
        size = len(pairs)
        i, err = reference_scan(
            lambda k: theta - (2.0 * (k // size + 1)) * pair_j[k % size],
            n_max * size, synthesis.TWO_PI,
        )
        kp, km = (int(x) for x in pairs[i % size])
        result = search_controlled_phase(theta, eps, kp_max, n_max)
        assert result.params == {"kappa_plus": kp, "kappa_minus": km, "n": i // size + 1}
        assert result.angle_error.hex() == err.hex()
        assert result.exhausted == (err >= eps)

    def test_exact_ties_decided_by_rounding(self):
        # 2 J = 2 pi j exactly when km^2 - kp^2 = 8 j^2, e.g. (7, 9) and
        # (7, 11): at theta = 0 every n of these pairs ties in exact arithmetic
        assert 2.0 * coupling_strength(7, 9) == pytest.approx(4.0 * np.pi, abs=1e-14)
        result = search_controlled_phase(0.0, 1e-9, 12, 500)
        kp, km = result.params["kappa_plus"], result.params["kappa_minus"]
        assert (km * km - kp * kp) % 8 == 0
        assert np.sqrt((km * km - kp * kp) // 8) % 1 == 0
        assert result.angle_error < 1e-13

    @DETERMINISTIC
    @given(st.data())
    def test_kernel_matches_plain_scan_on_any_deltas(self, data):
        period = data.draw(st.sampled_from([np.pi, synthesis.TWO_PI]))
        value = st.one_of(
            st.floats(-1e7, 1e7, allow_nan=False),
            st.integers(-40, 40).map(lambda j: j * period / 2.0),
            st.tuples(st.integers(-10**6, 10**6), st.floats(-1e-9, 1e-9)).map(
                lambda p: p[0] * period + p[1]),
        )
        rows = data.draw(st.integers(1, 12))
        cols = data.draw(st.integers(1, 12))
        table = np.array(data.draw(st.lists(value, min_size=rows * cols,
                                            max_size=rows * cols))).reshape(rows, cols)
        chunk = data.draw(st.integers(1, 40))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_CHUNK", chunk)
            row, col, err = synthesis._scan_lattice(
                lambda r, c: table[r, c], rows, cols, period)
        i, expected = reference_scan(lambda k: table.ravel()[k], rows * cols, period)
        assert (row, col) == divmod(i, cols)
        assert err.hex() == expected.hex()


class TestSearchRotation:
    def test_on_lattice_hit(self):
        result = search_rotation("x", 5 * np.sqrt(2) * np.pi, 1e-9, 10)
        assert result.params == {"kappa": 5}
        assert result.angle_error < 1e-12
        assert not result.exhausted

    def test_pi_target_within_bounds(self):
        result = search_rotation("x", np.pi, 0.05, 200)
        assert not result.exhausted
        assert result.angle_error < 0.05
        # regression: the brute-force oracle agrees on the winner
        err, kappa = brute_force_rotation_scan(np.sqrt(2) * np.pi, np.pi, 200)
        assert result.params == {"kappa": kappa}
        assert abs(result.angle_error - err) < 1e-15

    def test_exhaustion_flagged_not_raised(self):
        result = search_rotation("y", np.pi, 1e-6, 5)
        assert result.exhausted
        assert result.params["kappa"] >= 1

    def test_rejects_z_axis(self):
        with pytest.raises(DomainError):
            search_rotation((0.0, 0.0, 1.0), np.pi, 0.1, 10)

    @pytest.mark.parametrize("axis", [(np.nan, 0.0, 0.0), (1.0, np.nan, 0.0)])
    def test_rejects_nan_axis(self, axis):
        with pytest.raises(DomainError, match="unit vector"):
            search_rotation(axis, 1.0, 0.1, 10)

    @pytest.mark.parametrize("axis", ["x", "y", (0.6, 0.0, 0.8)])
    def test_winding_bound_is_max_winding(self, axis):
        # Beyond MAX_WINDING the search would fall back to scanning every point.
        for bound in (MAX_WINDING + 1, 10**12):
            with pytest.raises(DomainError, match="winding number"):
                search_rotation(axis, 1.0, 1e-9, bound)
        result = search_rotation(axis, 1.0, 1e-9, MAX_WINDING)
        assert 1 <= result.params["kappa"] <= MAX_WINDING

    def test_hadamard_sine_peaks(self):
        # top three |sin theta_kappa| on the Hadamard axis for kappa <= 16
        sines = {
            kappa: abs(np.sin(OneQubitLoop.create(HADAMARD_AXIS, kappa).theta_kappa))
            for kappa in range(1, 17)
        }
        top3 = sorted(sines, key=sines.get, reverse=True)[:3]
        assert set(top3) == {3, 10, 16}

    def test_angle_error_tracks_gate_distance(self):
        # smaller circular angle error never gives a larger gate distance
        results = [
            search_rotation("x", theta, 10.0, 50)
            for theta in (0.1, 0.5, 1.0, 2.0, 3.0)
        ]
        pairs = sorted((r.angle_error, r.gate_distance) for r in results)
        for (e1, d1), (e2, d2) in zip(pairs, pairs[1:]):
            if e1 < e2:
                assert d1 <= d2 + 1e-12


class TestSynthesizeSu2:
    def test_identity_target(self):
        program = synthesize_su2(np.eye(2), 0.05, 10)
        assert program.steps == ()
        assert program.total_distance == 0.0

    @pytest.mark.parametrize(
        "search",
        [
            lambda bound: search_hadamard(1e-3, bound),
            lambda bound: synthesize_su2(np.eye(2), 1e-3, bound),
            lambda bound: synthesize_su2(HADAMARD, 1e-3, bound),
        ],
        ids=["hadamard", "su2-identity", "su2-hadamard"],
    )
    def test_kappa_max_bound_is_shared(self, search):
        # As search_rotation's (TestSearchRotation).  The identity target
        # returns before any search, but not before the bound.
        for bound in (MAX_WINDING + 1, 10**12):
            with pytest.raises(DomainError, match=re.escape(f"must be in [1, {MAX_WINDING}]")):
                search(bound)
        search(MAX_WINDING)

    def test_pure_x_rotation_collapses(self):
        target = np.cos(np.pi / 3) * np.eye(2) - 1j * np.sin(np.pi / 3) * SX
        program = synthesize_su2(target, 0.05, 500)
        assert len(program.steps) == 1
        assert program.steps[0][0] == "x"

    def test_hadamard_composite(self):
        program = synthesize_su2(HADAMARD, 0.05, 500)
        assert not program.exhausted
        assert program.total_distance < 0.15

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        target = q * (np.diag(r) / np.abs(np.diag(r)))
        program = synthesize_su2(target, 0.05, 500)
        bound = sum(res.gate_distance for _, res in program.steps)
        assert program.total_distance <= bound + 1e-9

    def test_frame_built_once_and_read_only(self):
        frame = synthesis._frame()
        assert synthesis._frame() is frame
        with pytest.raises(ValueError):
            frame[0, 0] = 0.0

    def test_euler_decomposition_reconstructs(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            alpha, beta, gamma = euler_yxy(u)

            def rot(angle, sigma):
                return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sigma

            rebuilt = rot(alpha, SY) @ rot(beta, SX) @ rot(gamma, SY)
            assert phase_invariant_distance(rebuilt, u) < 1e-10


class TestSearchControlledPhase:
    def test_on_lattice_hit(self):
        theta = 2.0 * coupling_strength(2, 3)
        result = search_controlled_phase(theta, 1e-9, 3, 3)
        assert result.params == {"kappa_plus": 2, "kappa_minus": 3, "n": 1}
        assert result.angle_error < 1e-12

    def test_controlled_z_target(self):
        result = search_controlled_phase(np.pi / 2, 0.05, 10, 500)
        assert not result.exhausted
        # re-evaluate the reported error from scratch
        kp, km, n = (
            result.params["kappa_plus"],
            result.params["kappa_minus"],
            result.params["n"],
        )
        err = circular_distance(2 * n * coupling_strength(kp, km) - np.pi / 2)
        assert abs(err - result.angle_error) < 1e-15
        assert err < 0.05

    def test_never_returns_inadmissible_pair(self):
        for theta in (0.7, 2.0, 4.0):
            result = search_controlled_phase(theta, 0.2, 4, 20)
            kp, km = result.params["kappa_plus"], result.params["kappa_minus"]
            assert kp < km < 3 * kp

    def test_pair_enumeration(self):
        pairs = admissible_winding_pairs(5)
        assert [km for kp, km in pairs if kp == 1] == [2]
        assert [km for kp, km in pairs if kp == 2] == [3, 4, 5]
        for kp, km in pairs:
            assert kp < km < 3 * kp

    def test_repeated_exact_gate_matches_controlled_block_angles(self):
        # the repeated controlled gate reproduces the target phase pattern
        result = search_controlled_phase(np.pi / 2, 0.05, 10, 500)
        kp, km, n = (
            result.params["kappa_plus"],
            result.params["kappa_minus"],
            result.params["n"],
        )
        exact = repeated_exact_gate(kp, km, n)
        assert exact.shape == (4, 4)
        gate = result.gate
        target = controlled_phase_gate(np.pi / 2)
        assert phase_invariant_distance(gate, target) < 0.05


class TestEquidistribution:
    def test_fig3_points_distinct(self):
        scan_points = [(k * np.sqrt(2) * np.pi) % (2 * np.pi) for k in range(11)]
        assert len({round(p, 9) for p in scan_points}) == 11

    def test_covering_radius_decreases(self):
        scan = equidistribution_scan(np.sqrt(2) * np.pi, [10, 100])
        assert scan[100] < scan[10]

    def test_rational_step_stalls(self):
        scan = equidistribution_scan(np.pi / 2, [3, 10, 50])
        for k in (3, 10, 50):
            assert abs(scan[k] - np.pi / 4) < 1e-12


class TestFigureTables:
    def test_fig2(self):
        header, rows = figure_table("fig2")
        assert header == ["kappa", "theta", "sin_theta"]
        assert len(rows) == 21
        assert abs(rows[3][2] + 0.9937) < 1e-3  # sin(6 pi / sqrt 3)

    def test_fig3(self):
        header, rows = figure_table("fig3")
        assert header == ["kappa", "theta_mod_2pi", "cos_theta", "sin_theta"]
        assert len(rows) == 11
        assert rows[0][2] == 1.0 and rows[0][3] == 0.0

    def test_fig3_caption_convention(self):
        _, rows = figure_table("fig3", caption_convention=True)
        assert abs(rows[1][1] - 2 * np.pi / np.sqrt(3)) < 1e-12

    def test_fig4(self):
        header, rows = figure_table("fig4")
        assert header == ["kappa_plus", "kappa_minus", "J", "two_J_mod_2pi", "cos_2J", "sin_2J"]
        assert (2, 3) in {(r[0], r[1]) for r in rows}
        row23 = next(r for r in rows if (r[0], r[1]) == (2, 3))
        assert abs(2 * row23[2] - np.pi * np.sqrt(5 / 2)) < 1e-12

    def test_unknown_figure(self):
        with pytest.raises(DomainError):
            figure_table("fig1")
