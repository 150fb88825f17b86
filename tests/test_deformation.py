"""Loop generators: closure, nontriviality, isospectrality and leakage."""

import dataclasses
import io
import json
import re
from unittest import mock

import numpy as np
import pytest

from holonome import adiabatic, cli, deformation, synthesis
from holonome.adiabatic import exact_propagator
from holonome.deformation import (
    MAX_WINDING,
    OneQubitLoop,
    TwoQubitLoop,
    collective_spin,
    coupling_strength,
    one_qubit_generator,
    two_qubit_generator,
)
from holonome.errors import DomainError
from holonome.holonomy import connection_on_ground_space, leakage_audit
from holonome.matrix_kernel import expm_skew, frobenius
from holonome.spin_model import DIMER_BASIS, build_one_dimer, build_two_dimer, pauli_site

from conftest import (
    closure_residual,
    eager_leakage_audit,
    hamiltonian,
    reference_one_qubit_loop,
    reference_triplet_split,
)


def random_axes(count, seed=3):
    rng = np.random.default_rng(seed)
    axes = []
    while len(axes) < count:
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        if abs(n[2]) < 0.95:
            axes.append(n)
    return axes


class TestOneQubitGenerator:
    def test_closes_and_annihilates_singlet(self):
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        assert closure_residual(gen.x) < 1e-10
        assert np.linalg.norm(gen.x @ DIMER_BASIS["S0"]) < 1e-12

    def test_rejects_z_axis(self):
        with pytest.raises(DomainError):
            one_qubit_generator((0.0, 0.0, 1.0), 2)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(DomainError):
            one_qubit_generator((1.0, 1.0, 0.0), 1)

    @pytest.mark.parametrize(
        "n", [(np.nan, 0.0, 0.0), (1.0, np.nan, 0.0), (np.inf, 0.0, 0.0)]
    )
    def test_rejects_non_finite_axis(self, n):
        with pytest.raises(DomainError, match="unit vector"):
            OneQubitLoop(n, 1)

    def test_rejects_oversized_winding(self):
        with pytest.raises(DomainError):
            one_qubit_generator((1.0, 0.0, 0.0), MAX_WINDING + 1)

    @pytest.mark.parametrize("kappa", [2.5, 2.0, np.float64(2.0), True, "2", None])
    def test_rejects_non_int_winding(self, kappa):
        with pytest.raises(DomainError, match=r"^kappa must be an int"):
            OneQubitLoop((1.0, 0.0, 0.0), kappa)

    def test_accepts_numpy_integer_winding(self):
        loop = OneQubitLoop((1.0, 0.0, 0.0), np.int64(2))
        assert loop.kappa == 2 and type(loop.kappa) is int
        assert loop == OneQubitLoop((1.0, 0.0, 0.0), 2)

    def test_bit_equal_to_numpy_reference(self):
        # Python floats and math, with numpy's rounding: 20 000 seeded axes (sphere points,
        # unnormalised within the 1e-12 tolerance, near the poles and on the axes) and
        # windings log-spread up to MAX_WINDING.
        rng = np.random.default_rng(20261020)
        axes = rng.normal(size=(20000, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        axes[::7] *= 1.0 + rng.uniform(-9e-13, 9e-13, size=(len(axes[::7]), 1))
        axes[1::11, 2] = rng.choice([-1.0, 1.0], len(axes[1::11])) * (1.0 - 10.0 ** rng.uniform(
            -11.9, -1.0, len(axes[1::11])))
        axes[1::11, 0] = np.sqrt(1.0 - axes[1::11, 2] ** 2)
        axes[1::11, 1] = 0.0
        axes[2::101] = (1.0, 0.0, 0.0)
        axes[3::101] = (np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3))
        kappas = np.exp(rng.uniform(0.0, np.log(MAX_WINDING), len(axes))).astype(int)
        kappas[::50] = MAX_WINDING
        for n, kappa in zip(axes, kappas.tolist()):
            loop = OneQubitLoop(n if kappa % 2 else tuple(n.tolist()), kappa)
            fields = (loop.n, loop.omega, loop.theta_kappa, loop.m)
            expected = reference_one_qubit_loop(n, kappa)
            assert repr(fields) == repr(expected), (n, kappa)
            assert all(type(x) is float for x in (*loop.n, loop.omega, loop.theta_kappa, *loop.m))

    def test_hadamard_axis_derived_quantities(self):
        loop = OneQubitLoop((np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3)), 3)
        assert abs(loop.theta_kappa - 2 * 3 * np.pi / np.sqrt(3)) < 1e-12
        assert np.allclose(loop.m, (1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)), atol=1e-12)

    def test_closure_over_windings_and_axes(self):
        for n in random_axes(10):
            for kappa in range(1, 6):
                gen = one_qubit_generator(n, kappa)
                assert closure_residual(gen.x) < 1e-10


class TestTwoQubitGenerator:
    def test_example_231(self):
        loop = two_qubit_generator(2, 3, 1)
        assert abs(loop.coupling_j - np.pi * np.sqrt(5) / (2 * np.sqrt(2))) < 1e-12
        assert abs(loop.n2z + loop.coupling_j / (2 * np.pi)) < 1e-12
        assert closure_residual(loop.x) < 1e-8

    def test_nu_minus_is_integer_multiple_of_pi(self):
        loop = two_qubit_generator(1, 2, 1)
        assert abs(loop.coupling_j - np.pi * np.sqrt(3) / (2 * np.sqrt(2))) < 1e-12
        nu_minus = np.sqrt(loop.omega2**2 + 8.0 * loop.coupling_j**2)
        assert abs(nu_minus - 2 * np.pi) < 1e-12

    def test_rejects_violating_constraints(self):
        with pytest.raises(DomainError, match="3 kappa_plus"):
            two_qubit_generator(1, 3, 1)
        with pytest.raises(DomainError, match="kappa_minus"):
            two_qubit_generator(3, 2, 1)
        with pytest.raises(DomainError):
            two_qubit_generator(2, 2, 1)

    @pytest.mark.parametrize(
        "kp,kpr,name",
        [(0, 1, "kappa_plus"), (-3, 1, "kappa_plus"), (MAX_WINDING + 1, 1, "kappa_plus"),
         (2 * MAX_WINDING, 1, "kappa_plus"), (2, 0, "kappa_prime"), (2, -1, "kappa_prime"),
         (2, MAX_WINDING + 1, "kappa_prime")],
    )
    def test_forced_zero_coupling_checks_windings_as_generator_does(self, kp, kpr, name):
        message = f"{name} must be in [1, {MAX_WINDING}]"
        with pytest.raises(DomainError, match=re.escape(message)):
            TwoQubitLoop.with_forced_zero_coupling(kp, kpr)
        with pytest.raises(DomainError, match=re.escape(message)):
            two_qubit_generator(kp, kp + 1, kpr)

    def test_closure_over_admissible_pairs(self):
        for kp in range(1, 5):
            for km in range(kp + 1, 3 * kp):
                for kprime in (1, 2):
                    gen = two_qubit_generator(kp, km, kprime)
                    assert closure_residual(gen.x) < 1e-8

    def test_omega2_exceeds_coupling(self):
        for kp in range(1, 5):
            for km in range(kp + 1, 3 * kp):
                loop = two_qubit_generator(kp, km, 1)
                assert loop.omega2 > loop.coupling_j


class TestClosureResidual:
    def test_zero_generator(self):
        x = np.zeros((4, 4), dtype=complex)
        assert closure_residual(x) == 0.0

    def test_closed_loop_small(self):
        gen = one_qubit_generator((1.0, 0.0, 0.0), 2)
        assert gen.closure_residual < 1e-10

    def test_non_integer_winding_stays_open(self):
        # A half winding is no loop: its X, built as a loop's is, leaves exp(X) far from 1.
        x = 1j * 0.5 * np.pi * collective_spin((1.0, 0.0, 0.0), (0, 1), 2)
        assert closure_residual(x) >= 1.0


class TestIsospectrality:
    @pytest.mark.parametrize("tau", [0.1, 0.3, 0.7])
    def test_spectrum_constant_along_loop(self, tau):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 2)
        frame = expm_skew(tau * gen.x)
        h_tau = frame @ hamiltonian(model) @ frame.conj().T
        assert np.allclose(
            np.linalg.eigvalsh(h_tau),
            np.linalg.eigvalsh(hamiltonian(model)),
            atol=1e-10,
        )

    def test_generator_does_not_commute_with_hamiltonian(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        comm = hamiltonian(model) @ gen.x - gen.x @ hamiltonian(model)
        assert frobenius(comm) > 1e-6
        model2 = build_two_dimer(1.0, 1.0)
        gen2 = two_qubit_generator(2, 3, 1)
        comm2 = hamiltonian(model2) @ gen2.x - gen2.x @ hamiltonian(model2)
        assert frobenius(comm2) > 1e-6


def complex_bits(z):
    return (z.real.hex(), z.imag.hex())


def unsigned_zero_bits(z):
    """complex_bits with -0.0 read as +0.0."""
    return complex_bits(z + 0j)


def leakage_corpus(count, seed=20261020):
    """Seeded (loop, model) pairs, one and two dimers in turn: windings log-spread up to
    MAX_WINDING (both ends included), couplings 0.1 to 10."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        j1, j2 = (float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, size=2))
        if i % 2 == 0:
            axis = rng.normal(size=3)
            if i % 4 == 2:  # in the x-z plane
                axis[1] = 0.0
            kappa = MAX_WINDING if i == 0 else 1 if i == 2 else int(10.0 ** rng.uniform(0.0, 6.0))
            loop = one_qubit_generator(axis / np.linalg.norm(axis), kappa)
            cases.append((loop, build_one_dimer(j1, j1)))
        else:
            kp = MAX_WINDING // 3 + 1 if i == 1 else int(10.0 ** rng.uniform(0.0, 5.5))
            km = MAX_WINDING if i == 1 else kp + 1 + int(rng.random() * (2 * kp - 1))
            kpr = MAX_WINDING if i == 3 else int(10.0 ** rng.uniform(0.0, 6.0))
            cases.append((two_qubit_generator(kp, km, kpr), build_two_dimer(j1, j2)))
    return cases


class TestLeakageAudit:
    @pytest.mark.parametrize("case", [*range(4), "corpus"])
    def test_lazy_fields_equal_eager_reference(self, case):
        # The audit's block is the connection's non-coding-by-coding block, equal to the
        # separate product V[:, dc:]^dag X V[:, :dc] bit for bit except for the sign of a
        # zero entry: an FMA gemm kernel (OpenBLAS SkylakeX) rounds an exactly cancelling
        # entry to -0.0 in one product and +0.0 in the other (one entry of case 1, and 170 of
        # 3000 seeded loops), so zero entries compare by value (adding +0 clears the sign).
        # Every nonzero entry, the maximum and the verdict stay bit-equal.
        if case == "corpus":
            cases = leakage_corpus(500)
        else:
            gen = GENERATORS[case]()
            model = build_one_dimer(1.0, 1.0) if gen.dim == 4 else build_two_dimer(1.0, 2.0)
            cases = [(gen, model)]
        for gen, model in cases:
            audit = leakage_audit(connection_on_ground_space(gen, model))
            entries, max_abs, passed, _ = eager_leakage_audit(gen, model)
            assert (audit.max_abs.hex(), audit.passed) == (max_abs.hex(), passed)
            assert [unsigned_zero_bits(z) for z in audit.block.ravel().tolist()] == [
                unsigned_zero_bits(z) for _, _, z in entries]

    def test_one_dimer_passes(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 3)
        audit = leakage_audit(connection_on_ground_space(gen, model))
        assert audit.passed
        assert audit.max_abs < 1e-12
        labels = {(bra, ket) for bra, ket, _ in eager_leakage_audit(gen, model)[0]}
        assert labels == {("S0", "T+"), ("S0", "T0")}

    def test_two_dimer_named_elements(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
        assert leakage_audit(connection_on_ground_space(gen, model)).passed
        named = eager_leakage_audit(gen, model)[3]
        expected = 1j * 4.0 * gen.coupling_j
        assert abs(named["<T+T+|Xc|T+T+>"] - expected) < 1e-12
        for key in (
            "<T+S0|Xc|T+T0>",
            "<S0T+|Xc|T0T+>",
            "<S0S0|Xc|T0S0>",
            "<S0T0|Xc|T0S0>",
        ):
            assert abs(named[key]) < 1e-12


def float_bits(fields):
    """Field values with floats as hex, so -0.0 and +0.0 differ."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in fields.items()}


def closed_form_loop_fields(kp, km, kpr):
    """``two_qubit_generator``'s loop fields, written out from the closure conditions."""
    omega2 = kp * np.pi
    j = (np.pi / (2.0 * np.sqrt(2.0))) * np.sqrt(km**2 - kp**2)
    n2z = -j / omega2
    n2x = np.sqrt(1.0 - n2z**2)
    return {"kappa_plus": kp, "kappa_minus": km, "kappa_prime": kpr,
            "omega1": float(kpr * np.pi), "omega2": float(omega2), "coupling_j": float(j),
            "n2z": float(n2z), "n2x": float(n2x), "a": float(np.sqrt(2.0) * omega2 * n2x)}


def admissible_pairs(count, seed=11):
    rng = np.random.default_rng(seed)
    kp = rng.integers(1, MAX_WINDING, size=count)
    km = kp + 1 + (rng.random(count) * (np.minimum(3 * kp - 1, MAX_WINDING) - kp)).astype(np.int64)
    km[:3] = (2, MAX_WINDING, MAX_WINDING)
    kp[:3] = (1, MAX_WINDING - 1, MAX_WINDING // 3 + 1)
    assert np.all((kp < km) & (km < 3 * kp) & (km <= MAX_WINDING))
    return kp, km


class TestSectors:
    """X splits over the last dimer's triplet and singlet in each sigma_z sector of the dimers
    before it (two dimers: zero between dimer 1's four sigma_z states); every loop's generator
    writes that split from the loop."""

    def test_two_qubit_generators(self):
        kp, km = admissible_pairs(300, seed=17)
        kpr = np.random.default_rng(17).integers(1, MAX_WINDING + 1, size=300)
        kpr[:2] = (1, MAX_WINDING)
        # Dimer 2's T+, T0, T-, S0 over its product basis, as columns.
        basis = np.column_stack([DIMER_BASIS[k] for k in ("T+", "T0", "T-", "S0")]).real
        for a, b, c in zip(kp.tolist(), km.tolist(), kpr.tolist()):
            gen = two_qubit_generator(a, b, c)
            x = gen.x.reshape(4, 4, 4, 4)
            off = x.copy()
            for s in range(4):
                off[s, :, s, :] = 0.0
            assert not off.any(), (a, b, c)
            # |+-> and |-+>: both have S1 = 0.
            assert x[1, :, 1, :].tobytes() == x[2, :, 2, :].tobytes(), (a, b, c)
            triplets, singlets, phases = gen.triplet_split
            assert (triplets.shape, singlets.shape, phases) == ((3, 3, 3), (3,), None), (a, b, c)
            for part in (triplets, singlets):
                assert part.dtype == np.float64 and not part.flags.writeable, (a, b, c)
            for k, s in enumerate((0, 1, 3)):  # S1 = 2, 0, -2
                m = (-1j * x[s, :, s, :])
                assert not m.imag.any(), (a, b, c)
                expected = basis.T @ m.real @ basis
                tol = 4 * np.finfo(float).eps * np.linalg.norm(m.real)
                assert np.all(np.abs(triplets[k] - expected[:3, :3]) <= tol), (a, b, c)
                assert abs(singlets[k] - expected[3, 3]) <= tol, (a, b, c)
                # The triplet and the singlet are uncoupled; T+ and T- diagonal equal X's.
                assert np.all(np.abs(expected[3, :3]) <= tol), (a, b, c)
                assert (triplets[k, 0, 0], triplets[k, 2, 2]) == (m.real[0, 0], m.real[3, 3])

    def test_split_bit_equal_to_entry_reference(self):
        # The loop-built split is the split an exact reading of X's entries gives, byte for
        # byte (signed zeros too), on seeded log-uniform windings up to MAX_WINDING.
        rng = np.random.default_rng(20261019)
        kp = np.exp(rng.uniform(0.0, np.log(MAX_WINDING // 3), size=20000)).astype(np.int64)
        km = np.minimum(kp + 1 + (rng.random(20000) * (2 * kp - 1)).astype(np.int64),
                        MAX_WINDING)
        kpr = np.exp(rng.uniform(0.0, np.log(MAX_WINDING), size=20000)).astype(np.int64)
        loops = [(1, 2, 1), (2, 3, 1), (MAX_WINDING // 3 + 1, MAX_WINDING, MAX_WINDING)]
        loops += list(zip(kp.tolist(), km.tolist(), kpr.tolist()))
        assert max(max(loop) for loop in loops) == MAX_WINDING
        for loop in loops:
            gen = two_qubit_generator(*loop)
            triplets, singlets, phases = gen.triplet_split
            ref = reference_triplet_split(gen.x)
            assert phases is None and ref.dtype == np.float64, loop
            assert ref[1].tobytes() == ref[2].tobytes(), loop
            assert triplets.tobytes() == ref[[0, 1, 3], :3, :3].tobytes(), loop
            assert singlets.tobytes() == ref[[0, 1, 3], 3, 3].tobytes(), loop

    def test_one_qubit_generators(self):
        # One sector: a real block over T+, T0, T-, times fixed phases off the x-z plane, and
        # a zero singlet, uncoupled, within a few u of -iX in the triplet/singlet basis.
        basis = np.column_stack([DIMER_BASIS[k] for k in ("T+", "T0", "T-", "S0")]).real
        axes = random_axes(48, seed=17) + [(0.6, 0.0, 0.8), (-0.6, 0.0, -0.8)]
        for axis, kappa in zip(axes, [1, MAX_WINDING] + list(range(2, 50))):
            gen = one_qubit_generator(axis, kappa)
            triplets, singlets, phases = gen.triplet_split
            assert (triplets.shape, singlets.shape) == ((1, 3, 3), (1,))
            for part in (triplets, singlets):
                assert part.dtype == np.float64 and not part.flags.writeable
            assert np.array_equal(triplets, triplets.swapaxes(1, 2)) and singlets[0] == 0.0
            assert (phases is None) == (gen.n[1] == 0.0)
            block = triplets[0] if phases is None else triplets[0] * phases
            if phases is not None:
                assert phases.shape == (3, 3) and not phases.flags.writeable
                assert np.allclose(np.abs(phases), 1.0, rtol=0.0, atol=1e-15)
            expected = basis.T @ (-1j * gen.x) @ basis
            tol = 8 * np.finfo(float).eps * np.linalg.norm(gen.x)
            assert np.all(np.abs(block - expected[:3, :3]) <= tol), (axis, kappa)
            assert np.all(np.abs(expected[3]) <= tol), (axis, kappa)

    def test_one_dimer_split_matches_entry_reference(self):
        # Against an exact reading of X's entries: byte for byte (signed zeros too) in the
        # x-z plane, where the block is real, and the diagonal and singlet off it, where the
        # phased off-diagonal entries, sqrt2 Omega r e^{-i phi} against sqrt2 Omega n_x and
        # -sqrt2 Omega n_y, differ in rounding only.  Seeded axes, also near the poles,
        # windings log-spread up to MAX_WINDING.
        rng = np.random.default_rng(20261021)
        axes = rng.normal(size=(3000, 3))
        axes[1::3, 1] = 0.0
        pole = axes[2::5]  # |n_z| = 1 / sqrt(1 + r^2), r from 3e-6 to 0.1
        r = 10.0 ** rng.uniform(-5.5, -1.0, size=len(pole)) / np.hypot(pole[:, 0], pole[:, 1])
        pole[:, :2] *= r[:, None]
        pole[:, 2] = np.sign(pole[:, 2])
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        kappas = np.exp(rng.uniform(0.0, np.log(MAX_WINDING), len(axes))).astype(int)
        kappas[::50] = MAX_WINDING
        planar = 0
        for n, kappa in zip(axes, kappas.tolist()):
            gen = one_qubit_generator(n, kappa)
            triplets, singlets, phases = gen.triplet_split
            ref = reference_triplet_split(gen.x)
            assert ref.shape == (1, 4, 4), (n, kappa)
            assert singlets.tobytes() == ref[:, 3, 3].real.tobytes(), (n, kappa)
            assert not ref[0, 3, :3].any() and not ref[0, :3, 3].any(), (n, kappa)
            if phases is None:
                planar += 1
                assert ref.dtype == np.float64, (n, kappa)
                assert triplets.tobytes() == ref[:, :3, :3].tobytes(), (n, kappa)
                continue
            diagonal = ref[0, range(3), range(3)]
            assert not diagonal.imag.any(), (n, kappa)
            assert triplets[0, range(3), range(3)].tobytes() == diagonal.real.tobytes(), (n, kappa)
            errors = np.abs(triplets[0] * phases - ref[0, :3, :3])
            assert np.all(errors <= 4 * np.finfo(float).eps * np.abs(ref[0, :3, :3])), (n, kappa)
        assert planar == len(axes[1::3])


    @pytest.mark.parametrize("entry", ["inf", "nan", "real", "y-axis"])
    def test_non_splitting_x_is_rejected(self, entry):
        # The entry reference finds no split in an X whose entries do not show one; a
        # two-dimer -iX with an imaginary part (n_2 off the x-z plane) is none either, as no
        # two-qubit loop has one.
        x = two_qubit_generator(2, 3, 1).x.copy()
        if entry in ("inf", "nan"):
            x[0, 0] = complex(0.0, float(entry))
        elif entry == "real":
            x[0, 1], x[1, 0] = x[0, 1] + 0.5, x[1, 0] - 0.5  # still anti-Hermitian
        else:  # n_2 off the x-z plane: i n_y (sigma_y3 + sigma_y4) has real entries
            x = x + 1j * 0.3 * collective_spin((0.0, 1.0, 0.0), (2, 3), 4)
        assert reference_triplet_split(x) is None


class TestLoopAssembly:
    """Both TwoQubitLoop constructors assemble their fields in one place."""

    def test_generator_fields_bit_equal_to_closed_form(self):
        kp, km = admissible_pairs(2000)
        for a, b in zip(kp.tolist(), km.tolist()):
            loop = two_qubit_generator(a, b, a % 7 + 1)
            expected = float_bits(closed_form_loop_fields(a, b, a % 7 + 1))
            assert float_bits(vars(loop)) == expected, (a, b)

    @pytest.mark.parametrize("kp,kpr", [(1, 1), (2, 1), (7, 3), (1000, 77), (MAX_WINDING, 5)])
    def test_forced_zero_coupling_fields(self, kp, kpr):
        loop = TwoQubitLoop.with_forced_zero_coupling(kp, kpr)
        omega2 = kp * np.pi
        expected = {"kappa_plus": kp, "kappa_minus": kp, "kappa_prime": kpr,
                    "omega1": float(kpr * np.pi), "omega2": float(omega2), "coupling_j": 0.0,
                    "n2z": 0.0, "n2x": 1.0, "a": float(np.sqrt(2.0) * omega2)}
        assert float_bits(vars(loop)) == float_bits(expected)
        assert np.copysign(1.0, loop.n2z) == 1.0  # +0.0, as reported by audit --j-zero

    @pytest.mark.parametrize(
        "windings", [(2.9, 3.2, 1.7), (2, 3.0, 1), (2, 3, True), (np.float64(2), 3, 1)]
    )
    def test_rejects_non_int_windings_by_name(self, windings):
        name = ("kappa_plus", "kappa_minus", "kappa_prime")[
            next(i for i, k in enumerate(windings) if type(k) is not int)]
        with pytest.raises(DomainError, match=f"^{name} must be an int"):
            two_qubit_generator(*windings)

    def test_forced_zero_coupling_rejects_non_int_windings(self):
        with pytest.raises(DomainError, match="^kappa_plus must be an int"):
            TwoQubitLoop.with_forced_zero_coupling(2.5, 1)
        with pytest.raises(DomainError, match="^kappa_prime must be an int"):
            TwoQubitLoop.with_forced_zero_coupling(2, False)
        loop = TwoQubitLoop.with_forced_zero_coupling(np.int32(2), np.uint8(1))
        assert loop == TwoQubitLoop.with_forced_zero_coupling(2, 1)

    def test_generator_bit_equal_to_four_product_assembly(self):
        kp, km = admissible_pairs(300, seed=13)
        for a, b in zip(kp.tolist(), km.tolist()):
            kpr = a % MAX_WINDING + 1
            loop = two_qubit_generator(a, b, kpr)
            x1 = 1j * loop.omega1 * collective_spin((0.0, 0.0, 1.0), (0, 1), 4)
            x2 = 1j * loop.omega2 * collective_spin((loop.n2x, 0.0, loop.n2z), (2, 3), 4)
            sz = [pauli_site("z", s, 4) for s in range(4)]
            cross = 1j * loop.coupling_j * (
                sz[0] @ sz[2] + sz[0] @ sz[3] + sz[1] @ sz[2] + sz[1] @ sz[3]
            )
            assert loop.x.tobytes() == (x1 + x2 + cross).tobytes(), (a, b)

    def test_cross_operator_built_once_read_only(self):
        zz = deformation._cross_zz()
        assert deformation._cross_zz() is zz
        with pytest.raises(ValueError):
            zz[0, 0] = 0.0

    def test_coupling_strength_has_one_owner(self):
        assert synthesis.coupling_strength is coupling_strength
        kp, km = admissible_pairs(20000, seed=12)
        closed_form = (np.pi / (2.0 * np.sqrt(2.0))) * np.sqrt(km**2 - kp**2)
        array = coupling_strength(kp, km)
        assert array.dtype == np.float64 and array.tobytes() == closed_form.tobytes()
        scalars = [coupling_strength(a, b) for a, b in zip(kp.tolist(), km.tolist())]
        assert np.array(scalars).tobytes() == closed_form.tobytes()
        for a, b, j in list(zip(kp.tolist(), km.tolist(), scalars))[:500]:
            assert two_qubit_generator(a, b, 1).coupling_j.hex() == float(j).hex()


GENERATORS = [
    lambda: one_qubit_generator((1.0, 0.0, 0.0), 1),
    lambda: one_qubit_generator((0.6, 0.48, 0.64), 999),
    lambda: two_qubit_generator(2, 3, 1),
    lambda: two_qubit_generator(1000, 2500, 77),
]


class TestGeneratorInputs:
    """A loop is its own generator: its windings (and one dimer's axis) are its only inputs,
    and X and every other field are derived from them."""

    @pytest.mark.parametrize("make", GENERATORS)
    def test_loop_and_x_together_are_rejected(self, make):
        # X is no input: 0.3 X with the loop of X would be an open path treated as closed.
        # Nor is any derived field, which could disagree with the windings.
        gen = make()
        names = [f.name for f in dataclasses.fields(gen)]
        inputs = [f.name for f in dataclasses.fields(gen) if f.init]
        assert inputs == (["n", "kappa"] if gen.dim == 4
                          else ["kappa_plus", "kappa_minus", "kappa_prime"])
        given = {name: getattr(gen, name) for name in inputs}
        for name in ["x"] + names[len(inputs):]:
            with pytest.raises(TypeError, match=f"'{name}'"):
                type(gen)(**given, **{name: getattr(gen, name)})
        with pytest.raises(TypeError, match="'x'"):  # no replace argument either
            dataclasses.replace(gen, x=0.3 * gen.x)
        for name in names[len(inputs):]:
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(gen, **{name: getattr(gen, name)})
        with pytest.raises(TypeError, match=f"'{inputs[0]}'"):
            type(gen)()

    @pytest.mark.parametrize("make", GENERATORS)
    @pytest.mark.parametrize("cached", [False, True])
    def test_replace_loop_builds_its_generator(self, make, cached):
        # Derived values cached on first read stay with their loop: one replaced with other
        # windings builds its own.
        gen = make()
        if cached:
            gen.x, gen.triplet_split, gen.closure_residual
        if gen.dim == 4:
            inputs, fresh = {"n": (0.0, 0.6, 0.8), "kappa": 5}, one_qubit_generator((0.0, 0.6, 0.8), 5)
        else:
            inputs = {"kappa_plus": 1000, "kappa_minus": 2500, "kappa_prime": 78}
            fresh = two_qubit_generator(1000, 2500, 78)
        replaced = dataclasses.replace(gen, **inputs)
        assert replaced == fresh and repr(replaced) == repr(fresh)
        assert replaced.x.tobytes() == fresh.x.tobytes()
        assert [a.tobytes() for a in replaced.triplet_split if a is not None] == [
            b.tobytes() for b in fresh.triplet_split if b is not None]
        assert replaced.closure_residual.hex() == fresh.closure_residual.hex()


VALUE_AXES = [(1.0, 0.0, 0.0), (0.6, 0.0, -0.8), (0.6, 0.48, 0.64), (-0.36, -0.48, 0.8)]


class TestLoopsAreValues:
    """A loop derives every field from its inputs, so ``replace`` gives the loop the constructor
    would, and equality and hash read the fields, never a cached array."""

    @pytest.mark.parametrize("n", VALUE_AXES)
    @pytest.mark.parametrize("kappa", [2, 7, MAX_WINDING])
    def test_replace_winding_bit_equal_to_constructor(self, n, kappa):
        replaced = dataclasses.replace(OneQubitLoop(n, 1), kappa=kappa)
        created = OneQubitLoop(n, kappa)
        assert float_bits(vars(replaced)) == float_bits(vars(created))
        assert replaced == created and hash(replaced) == hash(created)
        assert [a.tobytes() for a in replaced.triplet_split if a is not None] == [
            b.tobytes() for b in created.triplet_split if b is not None]
        assert replaced.x.tobytes() == created.x.tobytes()

    @pytest.mark.parametrize("kp,km,kpr", [(2, 4, 1), (2, 5, 3), (1000, 2999, 77)])
    def test_replace_two_qubit_winding_bit_equal_to_generator(self, kp, km, kpr):
        replaced = dataclasses.replace(two_qubit_generator(kp, kp + 1, kpr), kappa_minus=km)
        created = two_qubit_generator(kp, km, kpr)
        assert float_bits(vars(replaced)) == float_bits(closed_form_loop_fields(kp, km, kpr))
        assert float_bits(vars(replaced)) == float_bits(vars(created))
        assert replaced == created and hash(replaced) == hash(created)
        assert replaced.x.tobytes() == created.x.tobytes()

    @pytest.mark.parametrize("make", GENERATORS + [
        lambda: OneQubitLoop((0.6, 0.0, 0.8), 3),
        lambda: TwoQubitLoop.with_forced_zero_coupling(2, 1)])
    def test_equality_and_hash_read_fields_after_caching(self, make):
        # The cached X, split and residual are no fields: == and hash compare the fields,
        # which the inputs fix, and raise no ValueError on an array.
        a, b = make(), make()
        a.x, a.triplet_split, a.closure_residual
        assert {"x", "triplet_split", "closure_residual"} <= set(vars(a))
        assert not {"x", "triplet_split", "closure_residual"} & set(vars(b))
        assert a == b and not (a != b) and hash(a) == hash(b) and len({a, b}) == 1
        other = dataclasses.replace(a, **({"kappa": a.kappa + 1} if a.dim == 4
                                          else {"kappa_prime": a.kappa_prime + 1}))
        assert a != other and other.x.tobytes() != a.x.tobytes()

    @pytest.mark.parametrize("make", GENERATORS)
    def test_derived_arrays_are_read_only(self, make):
        # A frozen loop's cached values cannot be set, deleted or written into.
        loop = make()
        for name in ("x", "triplet_split", "closure_residual", "dim"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(loop, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del loop.x
        for part in (loop.x, *(p for p in loop.triplet_split if p is not None)):
            assert not part.flags.writeable
        assert loop.x.shape == (loop.dim, loop.dim)


class TestEveryConstructionChecks:
    """``replace`` and the generated constructors run the same checks, so no construction
    builds an open, trivial or complex-valued loop."""

    @pytest.mark.parametrize("build,message", [
        (lambda: dataclasses.replace(OneQubitLoop((1, 0, 0), 1), kappa=2.5),
         "kappa must be an int, got 2.5"),
        (lambda: dataclasses.replace(OneQubitLoop((1, 0, 0), 1), kappa=0),
         f"winding number must be in [1, {MAX_WINDING}]"),
        (lambda: OneQubitLoop((2, 0, 0), 1), "axis must be a unit vector"),
        (lambda: OneQubitLoop((0.0, 0.0, 1.0), 1), "|n_z| = 1"),
        (lambda: dataclasses.replace(OneQubitLoop((1, 0, 0), 1), n=(1, 0)),
         "axis must be a real 3-vector"),
        (lambda: dataclasses.replace(two_qubit_generator(2, 3, 1), kappa_minus=7),
         "kappa_minus < 3 kappa_plus violated: 7 >= 6"),
        (lambda: dataclasses.replace(two_qubit_generator(2, 3, 1), kappa_minus=1),
         "kappa_plus < kappa_minus violated: 2 >= 1"),
        (lambda: TwoQubitLoop(2, 3, 0), f"kappa_prime must be in [1, {MAX_WINDING}]"),
        (lambda: TwoQubitLoop(2, 3.0, 1), "kappa_minus must be an int"),
        (lambda: dataclasses.replace(TwoQubitLoop.with_forced_zero_coupling(2, 1),
                                     kappa_plus=MAX_WINDING + 1),
         f"kappa_plus must be in [1, {MAX_WINDING}]"),
    ])
    def test_each_bad_construction_raises_one_domain_error(self, build, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            build()

    def test_constructor_normalises_its_inputs(self):
        loop = OneQubitLoop(np.array([0.6, 0.0, 0.8]), np.int64(3))
        assert loop == OneQubitLoop((0.6, 0.0, 0.8), 3)
        assert type(loop.n) is tuple and type(loop.kappa) is int
        two = TwoQubitLoop(np.int32(2), np.int64(3), np.uint8(1))
        assert repr(two) == repr(two_qubit_generator(2, 3, 1))

    def test_commuting_limit_is_kept_by_replace_and_refused_by_generator(self):
        forced = TwoQubitLoop.with_forced_zero_coupling(2, 1)
        assert forced.coupling_j == 0.0 and forced.kappa_minus == forced.kappa_plus
        assert dataclasses.replace(forced, kappa_prime=3) == (
            TwoQubitLoop.with_forced_zero_coupling(2, 3))
        with pytest.raises(DomainError, match=re.escape("kappa_plus < kappa_minus violated: 2 >= 2")):
            two_qubit_generator(2, 2, 1)

    def test_construction_checks_once(self, monkeypatch):
        calls = []
        checked = deformation._checked_int
        monkeypatch.setattr(deformation, "_checked_int",
                            lambda *args: calls.append(args) or checked(*args))
        OneQubitLoop((1.0, 0.0, 0.0), 2)
        two_qubit_generator(2, 3, 1)
        TwoQubitLoop.with_forced_zero_coupling(2, 1)
        assert len(calls) == 1 + 3 + 3


class TestClosureCache:
    @pytest.mark.parametrize("make", GENERATORS)
    def test_loop_closure_is_shared_exact_identity(self, monkeypatch, make):
        # Closure is decided from the integer windings: exp(X) = 1 is no computed value, so
        # a loop, its X and its split take no exponential, and nothing multiplies by one.
        monkeypatch.setattr(deformation, "expm_skew", mock.Mock(side_effect=AssertionError))
        loop = make()
        loop.x, loop.triplet_split
        assert not hasattr(make(), "closure") and not hasattr(deformation, "_identity")

    @pytest.mark.parametrize("make", GENERATORS)
    def test_bit_equal_to_fresh_and_read_only(self, make):
        # The reported residual is the float exp(X)'s, computed afresh from x.
        gen = make()
        assert gen.closure_residual.hex() == closure_residual(gen.x).hex()
        with pytest.raises(ValueError):
            gen.x[0, 0] = 7.0

    @pytest.mark.parametrize("make", GENERATORS)
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_raw_x_closure_is_its_exponential(self, make, scale):
        # A loop's residual is the reference ||exp(X) - 1||_F of its X; the reference on 0.3 X,
        # an open path that no loop can hold, is O(1).
        loop = make()
        x = scale * loop.x
        if scale == 1.0:
            assert loop.closure_residual.hex() == closure_residual(x).hex()
        assert (closure_residual(x) >= 1e-3) == (scale != 1.0)

    def test_residual_within_rounding_bound_up_to_max_winding(self):
        # A closed loop's float X differs from the exact one by about ||X||_F u, and
        # expm_skew adds O(n u ||X||_F) more, so ||exp(X) - 1||_F <= 16 ||X||_F u; the
        # fixed ONE_QUBIT_CLOSURE_TOL / TWO_QUBIT_CLOSURE_TOL cannot hold near MAX_WINDING.
        gens = [one_qubit_generator(n, kappa)
                for n, kappa in zip(random_axes(20, seed=5), [MAX_WINDING, MAX_WINDING - 1]
                                    + [int(10.0 ** e) for e in np.linspace(0.0, 6.0, 18)])]
        kp, km = admissible_pairs(20, seed=5)
        gens += [two_qubit_generator(a, b, a % 7 + 1) for a, b in zip(kp.tolist(), km.tolist())]
        for gen in gens:
            bound = 16 * frobenius(gen.x) * np.finfo(float).eps / 2
            assert gen.closure_residual <= bound, gen

    def test_exp_x_computed_once_per_request(self, monkeypatch):
        # Only the reported residual takes exp(X): none for sweeps and propagators.
        calls = []  # single matrices only: a sweep's stacked frames are 3-D

        def counting(m, *args):
            if np.ndim(m) == 2:
                calls.append(np.shape(m))
            return expm_skew(m, *args)

        monkeypatch.setattr(deformation, "expm_skew", counting)
        assert not hasattr(adiabatic, "expm_skew")
        for argv, count in ((["one-qubit", "--n", "1,0,0", "--kappa", "3"], 1),
                            (["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1"], 1),
                            (["sweep", "--kp", "2", "--km", "3", "--T", "1,10"], 0),
                            (["sweep", "--n", "1,0,0", "--kappa", "3", "--T", "1,10"], 0)):
            calls.clear()
            assert cli.run(argv, io.StringIO(), io.StringIO()) == 0
            assert len(calls) == count, argv
        calls.clear()
        for model, gen in ((build_two_dimer(1.0, 1.0), two_qubit_generator(2, 3, 1)),
                           (build_one_dimer(1.0, 1.0), one_qubit_generator((1.0, 0.0, 0.0), 3))):
            for T in (0.5, 5.0):
                exact_propagator(model, gen, T)
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["one-qubit", "--n", "1,0,0", "--kappa", str(MAX_WINDING)],
        ["sweep", "--n", "1,0,0", "--kappa", str(MAX_WINDING), "--T", "1,10"],
        ["two-qubit", "--kp", str(MAX_WINDING // 3 + 1), "--km", str(MAX_WINDING), "--kprime", "1"],
    ])
    def test_requests_near_max_winding_build(self, argv):
        # Closure is exact at every admissible winding, so these build; a gate report
        # states its float residual.
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(argv, out, err) == 0, err.getvalue()
        outputs = json.loads(out.getvalue())["outputs"]
        if argv[0] != "sweep":
            assert 0.0 < outputs["closure_residual"] < 1e-7
