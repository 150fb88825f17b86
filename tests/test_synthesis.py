"""Discrete searches, SU(2) synthesis, equidistribution and figure tables."""

import numpy as np
import pytest

from holonome import synthesis
from holonome.deformation import OneQubitLoop
from holonome.errors import DomainError
from holonome.holonomy import analytic_one_qubit_gate, controlled_phase_gate
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
    repeated_exact_gate,
    search_controlled_phase,
    search_hadamard,
    search_rotation,
    synthesize_su2,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


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


# Seeded corpus for the chunked scan kernel: bounds of 1 and 2, small bounds,
# and scans just above one kernel chunk.
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
    """The chunked kernel returns exactly what the per-point scans return."""

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
