"""Loop generators: closure, nontriviality, isospectrality and leakage."""

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
    DeformationGenerator,
    TwoQubitLoop,
    collective_spin,
    coupling_strength,
    leakage_audit,
    one_qubit_generator,
    two_qubit_generator,
)
from holonome.errors import DomainError
from holonome.matrix_kernel import expm_skew, frobenius
from holonome.spin_model import DIMER_BASIS, build_one_dimer, build_two_dimer, pauli_site

from conftest import closure_residual, eager_leakage_audit


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
            OneQubitLoop.create(n, 1)

    def test_rejects_oversized_winding(self):
        with pytest.raises(DomainError):
            one_qubit_generator((1.0, 0.0, 0.0), MAX_WINDING + 1)

    @pytest.mark.parametrize("kappa", [2.5, 2.0, np.float64(2.0), True, "2", None])
    def test_rejects_non_int_winding(self, kappa):
        with pytest.raises(DomainError, match=r"^kappa must be an int"):
            OneQubitLoop.create((1.0, 0.0, 0.0), kappa)

    def test_accepts_numpy_integer_winding(self):
        loop = OneQubitLoop.create((1.0, 0.0, 0.0), np.int64(2))
        assert loop.kappa == 2 and type(loop.kappa) is int
        assert loop == OneQubitLoop.create((1.0, 0.0, 0.0), 2)

    def test_hadamard_axis_derived_quantities(self):
        loop = OneQubitLoop.create((np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3)), 3)
        assert abs(loop.theta_kappa - 2 * 3 * np.pi / np.sqrt(3)) < 1e-12
        assert np.allclose(loop.m, (1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)), atol=1e-12)

    def test_closure_over_windings_and_axes(self):
        for n in random_axes(10):
            for kappa in range(1, 6):
                gen = one_qubit_generator(n, kappa)
                assert closure_residual(gen.x) < 1e-10


class TestTwoQubitGenerator:
    def test_example_231(self):
        gen = two_qubit_generator(2, 3, 1)
        loop = gen.loop
        assert abs(loop.coupling_j - np.pi * np.sqrt(5) / (2 * np.sqrt(2))) < 1e-12
        assert abs(loop.n2z + loop.coupling_j / (2 * np.pi)) < 1e-12
        assert closure_residual(gen.x) < 1e-8

    def test_nu_minus_is_integer_multiple_of_pi(self):
        loop = TwoQubitLoop.create(1, 2, 1)
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
    def test_forced_zero_coupling_checks_windings_as_create_does(self, kp, kpr, name):
        message = f"{name} must be in [1, {MAX_WINDING}]"
        with pytest.raises(DomainError, match=re.escape(message)):
            TwoQubitLoop.with_forced_zero_coupling(kp, kpr)
        with pytest.raises(DomainError, match=re.escape(message)):
            TwoQubitLoop.create(kp, kp + 1, kpr)

    def test_closure_over_admissible_pairs(self):
        for kp in range(1, 5):
            for km in range(kp + 1, 3 * kp):
                for kprime in (1, 2):
                    gen = two_qubit_generator(kp, km, kprime)
                    assert closure_residual(gen.x) < 1e-8

    def test_omega2_exceeds_coupling(self):
        for kp in range(1, 5):
            for km in range(kp + 1, 3 * kp):
                loop = TwoQubitLoop.create(kp, km, 1)
                assert loop.omega2 > loop.coupling_j


def residual_of(x) -> float:
    """``closure_residual`` of a generator holding ``x``, built without the closure check."""
    return DeformationGenerator(x=x, loop=None, n_spins=2).closure_residual


class TestClosureResidual:
    def test_zero_generator(self):
        assert residual_of(np.zeros((4, 4), dtype=complex)) == 0.0

    def test_closed_loop_small(self):
        gen = one_qubit_generator((1.0, 0.0, 0.0), 2)
        assert gen.closure_residual < 1e-10

    def test_non_integer_winding_stays_open(self):
        x = 1j * 0.5 * np.pi * collective_spin((1.0, 0.0, 0.0), (0, 1), 2)
        assert residual_of(x) >= 1.0


class TestIsospectrality:
    @pytest.mark.parametrize("tau", [0.1, 0.3, 0.7])
    def test_spectrum_constant_along_loop(self, tau):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 2)
        frame = expm_skew(tau * gen.x)
        h_tau = frame @ model.hamiltonian @ frame.conj().T
        assert np.allclose(
            np.linalg.eigvalsh(h_tau),
            np.linalg.eigvalsh(model.hamiltonian),
            atol=1e-10,
        )

    def test_generator_does_not_commute_with_hamiltonian(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        comm = model.hamiltonian @ gen.x - gen.x @ model.hamiltonian
        assert frobenius(comm) > 1e-6
        model2 = build_two_dimer(1.0, 1.0)
        gen2 = two_qubit_generator(2, 3, 1)
        comm2 = model2.hamiltonian @ gen2.x - gen2.x @ model2.hamiltonian
        assert frobenius(comm2) > 1e-6


def complex_bits(z):
    return (z.real.hex(), z.imag.hex())


class TestLeakageAudit:
    @pytest.mark.parametrize("case", range(4))
    def test_lazy_fields_equal_eager_reference(self, case):
        gen = GENERATORS[case]()
        model = build_one_dimer(1.0, 1.0) if gen.n_spins == 2 else build_two_dimer(1.0, 2.0)
        audit = leakage_audit(gen, model)
        entries, max_abs, passed, _ = eager_leakage_audit(gen, model)
        assert (audit.max_abs.hex(), audit.passed) == (max_abs.hex(), passed)
        assert [complex_bits(z) for z in audit.block.ravel().tolist()] == [
            complex_bits(z) for _, _, z in entries]

    def test_one_dimer_passes(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 3)
        audit = leakage_audit(gen, model)
        assert audit.passed
        assert audit.max_abs < 1e-12
        labels = {(bra, ket) for bra, ket, _ in eager_leakage_audit(gen, model)[0]}
        assert labels == {("S0", "T+"), ("S0", "T0")}

    def test_two_dimer_named_elements(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
        assert leakage_audit(gen, model).passed
        named = eager_leakage_audit(gen, model)[3]
        expected = 1j * 4.0 * gen.loop.coupling_j
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
    """TwoQubitLoop.create's fields, written out from the closure conditions."""
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
    """X is zero between dimer 1's four sigma_z states and splits over dimer 2's triplet and
    singlet in each; the generator derives that split from X."""

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
            split = gen.triplet_split
            assert split.dtype == np.float64 and not split.flags.writeable, (a, b, c)
            for s in range(4):
                m = (-1j * x[s, :, s, :])
                assert not m.imag.any(), (a, b, c)
                expected = basis.T @ m.real @ basis
                tol = 4 * np.finfo(float).eps * np.linalg.norm(m.real)
                assert np.all(np.abs(split[s] - expected) <= tol), (a, b, c)
                # Exactly zero between triplet and singlet; T+ and T- diagonal read off X.
                assert not split[s, 3, :3].any() and not split[s, :3, 3].any(), (a, b, c)
                assert (split[s, 0, 0], split[s, 2, 2]) == (m.real[0, 0], m.real[3, 3]), (a, b, c)
            # |+-> and |-+>: both have S1 = 0.
            assert split[1].tobytes() == split[2].tobytes(), (a, b, c)

    def test_one_qubit_generators(self):
        for axis, kappa in zip(random_axes(50, seed=17), [1, MAX_WINDING] + list(range(2, 50))):
            assert one_qubit_generator(axis, kappa).triplet_split is None

    @pytest.mark.parametrize("entry", ["inf", "nan", "real", "y-axis"])
    def test_non_splitting_x_is_rejected(self, entry):
        # Any X the split cannot represent exactly leaves the split to the dense path.
        x = two_qubit_generator(2, 3, 1).x.copy()
        if entry in ("inf", "nan"):
            x[0, 0] = complex(0.0, float(entry))
        elif entry == "real":
            x[0, 1], x[1, 0] = x[0, 1] + 0.5, x[1, 0] - 0.5  # still anti-Hermitian
        else:  # n_2 off the x-z plane: i n_y (sigma_y3 + sigma_y4) has real entries
            x = x + 1j * 0.3 * collective_spin((0.0, 1.0, 0.0), (2, 3), 4)
        assert DeformationGenerator(x=x, loop=None, n_spins=4).triplet_split is None


class TestLoopAssembly:
    """Both TwoQubitLoop constructors assemble their fields in one place."""

    def test_create_fields_bit_equal_to_closed_form(self):
        kp, km = admissible_pairs(2000)
        for a, b in zip(kp.tolist(), km.tolist()):
            loop = TwoQubitLoop.create(a, b, a % 7 + 1)
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
            TwoQubitLoop.create(*windings)

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
            gen = two_qubit_generator(a, b, kpr)
            loop = gen.loop
            x1 = 1j * loop.omega1 * collective_spin((0.0, 0.0, 1.0), (0, 1), 4)
            x2 = 1j * loop.omega2 * collective_spin((loop.n2x, 0.0, loop.n2z), (2, 3), 4)
            sz = [pauli_site("z", s, 4) for s in range(4)]
            cross = 1j * loop.coupling_j * (
                sz[0] @ sz[2] + sz[0] @ sz[3] + sz[1] @ sz[2] + sz[1] @ sz[3]
            )
            assert gen.parts["cross"].tobytes() == cross.tobytes(), (a, b)
            assert gen.x.tobytes() == (x1 + x2 + cross).tobytes(), (a, b)

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
            assert TwoQubitLoop.create(a, b, 1).coupling_j.hex() == float(j).hex()


GENERATORS = [
    lambda: one_qubit_generator((1.0, 0.0, 0.0), 1),
    lambda: one_qubit_generator((0.6, 0.48, 0.64), 999),
    lambda: two_qubit_generator(2, 3, 1),
    lambda: two_qubit_generator(1000, 2500, 77),
]


class TestClosureCache:
    @pytest.mark.parametrize("make", GENERATORS)
    def test_loop_closure_is_shared_exact_identity(self, monkeypatch, make):
        # Closure is decided from the integer windings: no exponential is taken.
        monkeypatch.setattr(deformation, "expm_skew", mock.Mock(side_effect=AssertionError))
        gen = make()
        dim = gen.x.shape[0]
        assert gen.closure.tobytes() == np.eye(dim, dtype=complex).tobytes()
        assert gen.closure is make().closure is deformation._identity(dim)

    @pytest.mark.parametrize("make", GENERATORS)
    def test_bit_equal_to_fresh_and_read_only(self, make):
        # The reported residual is the float exp(X)'s, computed afresh from x.
        gen = make()
        assert gen.closure_residual.hex() == closure_residual(gen.x).hex()
        assert gen.closure is gen.closure
        for a in (gen.x, gen.closure):
            with pytest.raises(ValueError):
                a[0, 0] = 7.0

    @pytest.mark.parametrize("make", GENERATORS)
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_raw_x_closure_is_its_exponential(self, make, scale):
        # A generator built from a raw X keeps exp(X): 0.3 X is an open path.
        x = scale * make().x
        gen = DeformationGenerator(x=x, loop=None, n_spins=make().n_spins)
        assert gen.closure.tobytes() == expm_skew(x).tobytes()
        assert gen.closure is gen.closure
        assert gen.closure_residual.hex() == closure_residual(x).hex()
        with pytest.raises(ValueError):
            gen.closure[0, 0] = 7.0

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
            assert gen.closure_residual <= bound, gen.loop

    def test_exp_x_computed_once_per_request(self, monkeypatch):
        # Only the reported residual takes exp(X): none for sweeps and propagators.
        calls = []  # single matrices only: a sweep's stacked frames are 3-D

        def counting(m, *args):
            if np.ndim(m) == 2:
                calls.append(np.shape(m))
            return expm_skew(m, *args)

        monkeypatch.setattr(deformation, "expm_skew", counting)
        monkeypatch.setattr(adiabatic, "expm_skew", counting)
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
