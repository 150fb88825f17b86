"""Loop generators: closure, nontriviality, isospectrality and leakage."""

import numpy as np
import pytest

from holonome.deformation import (
    MAX_WINDING,
    OneQubitLoop,
    TwoQubitLoop,
    closure_residual,
    collective_spin,
    leakage_audit,
    one_qubit_generator,
    two_qubit_generator,
)
from holonome.errors import DomainError
from holonome.matrix_kernel import expm_skew, frobenius
from holonome.spin_model import build_one_dimer, build_two_dimer, dimer_basis


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
        assert np.linalg.norm(gen.x @ dimer_basis().s_zero) < 1e-12

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
        assert abs(loop.nu_minus - 2 * np.pi) < 1e-12

    def test_rejects_violating_constraints(self):
        with pytest.raises(DomainError, match="3 kappa_plus"):
            two_qubit_generator(1, 3, 1)
        with pytest.raises(DomainError, match="kappa_minus"):
            two_qubit_generator(3, 2, 1)
        with pytest.raises(DomainError):
            two_qubit_generator(2, 2, 1)

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


class TestClosureResidual:
    def test_zero_generator(self):
        assert closure_residual(np.zeros((4, 4))) == 0.0

    def test_closed_loop_small(self):
        gen = one_qubit_generator((1.0, 0.0, 0.0), 2)
        assert closure_residual(gen.x) < 1e-10

    def test_non_integer_winding_stays_open(self):
        x = 1j * 0.5 * np.pi * collective_spin((1.0, 0.0, 0.0), (0, 1), 2)
        assert closure_residual(x) >= 1.0


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


class TestLeakageAudit:
    def test_one_dimer_passes(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 3)
        audit = leakage_audit(gen, model)
        assert audit.passed
        assert audit.max_abs < 1e-12
        labels = {(bra, ket) for bra, ket, _ in audit.entries}
        assert labels == {("S0", "T+"), ("S0", "T0")}

    def test_two_dimer_named_elements(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
        audit = leakage_audit(gen, model)
        assert audit.passed
        named = audit.named_elements
        expected = 1j * 4.0 * gen.loop.coupling_j
        assert abs(named["<T+T+|Xc|T+T+>"] - expected) < 1e-12
        for key in (
            "<T+S0|Xc|T+T0>",
            "<S0T+|Xc|T0T+>",
            "<S0S0|Xc|T0S0>",
            "<S0T0|Xc|T0S0>",
        ):
            assert abs(named[key]) < 1e-12
