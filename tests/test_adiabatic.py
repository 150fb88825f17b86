"""Propagators and adiabatic convergence of the realized gates."""

import re
from unittest import mock

import numpy as np
import pytest

from holonome import adiabatic
from holonome.adiabatic import (
    AdiabaticRun,
    adiabatic_sweep,
    exact_propagator,
    holonomy_fidelity,
    ode_propagator,
)
from holonome.deformation import (
    MAX_WINDING,
    DeformationGenerator,
    OneQubitLoop,
    collective_spin,
    one_qubit_generator,
    two_qubit_generator,
)
from holonome.errors import DomainError
from holonome.holonomy import connection_on_ground_space, holonomy
from holonome.matrix_kernel import expm_skew, frobenius, is_unitary
from holonome.spin_model import build_one_dimer, build_two_dimer, coding_space

HADAMARD_AXIS = (np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3))
NON_FINITE = (np.nan, np.inf, -np.inf)


def zero_generator(model):
    return DeformationGenerator(
        x=np.zeros((model.dim, model.dim), dtype=complex), loop=None,
        n_spins=model.n_spins,
    )


def loop_ode_propagator(model, gen, T, steps):
    """Scalar reference: one RK4 step at a time with H(tau) rebuilt in the lab basis."""
    lam, w = np.linalg.eigh(1j * gen.x)
    lam = -lam
    h0 = w.conj().T @ model.hamiltonian @ w

    def h_tau(tau):
        phases = np.exp(1j * lam * tau)
        core = (phases[:, None] * h0) * phases.conj()[None, :]
        return w @ core @ w.conj().T

    u = np.eye(model.dim, dtype=complex)
    dt = 1.0 / steps
    h_lo = h_tau(0.0)
    for n in range(steps):
        tau = n * dt
        h_mid = h_tau(tau + 0.5 * dt)
        h_hi = h_tau(tau + dt)
        k1 = -1j * T * (h_lo @ u)
        k2 = -1j * T * (h_mid @ (u + 0.5 * dt * k1))
        k3 = -1j * T * (h_mid @ (u + 0.5 * dt * k2))
        k4 = -1j * T * (h_hi @ (u + dt * k3))
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        h_lo = h_hi
    return u


def reference_sweep(model, gen, gate, t_list):
    """Per-T reference: each T's propagator, fidelity, leakage and phase on its own."""
    c = coding_space(model).vectors
    dim_c = c.shape[1]
    runs = []
    for T in sorted(float(t) for t in t_list):
        u = gen.closure @ expm_skew(-1j * (-1j * gen.x + model.hamiltonian * T))
        v = (c.conj().T @ u @ c) * np.exp(1j * model.ground_energy * T)
        fidelity = float(abs(np.trace(gate.gamma.conj().T @ v)) / dim_c)
        escaped = model.ground_projector @ u @ c
        leakage = float(1.0 - np.linalg.norm(escaped) ** 2 / dim_c)
        runs.append(AdiabaticRun(
            T=T,
            propagator=u,
            fidelity=min(fidelity, 1.0),
            leakage=min(max(leakage, 0.0), 1.0),
            dynamical_phase=complex(np.exp(-1j * model.ground_energy * T)),
        ))
    return runs


def run_bits(run):
    phase = run.dynamical_phase
    return (run.T.hex(), run.propagator.tobytes(), run.fidelity.hex(), run.leakage.hex(),
            phase.real.hex(), phase.imag.hex())


def unchecked_one_qubit_generator(n, kappa):
    """one_qubit_generator without its closure check, which fails near MAX_WINDING."""
    loop = OneQubitLoop.create(n, kappa)
    x = 1j * loop.omega * collective_spin(loop.n, (0, 1), 2)
    return DeformationGenerator(x=x, loop=loop, n_spins=2)


def oracle_setup(qubits):
    if qubits == 1:
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator(HADAMARD_AXIS, 3)
    else:
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
    return model, gen, holonomy(connection_on_ground_space(gen, model))


class TestExactPropagator:
    def test_zero_time_is_identity(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        assert frobenius(exact_propagator(model, gen, 0.0) - np.eye(4)) < 1e-12

    def test_zero_generator_is_static_evolution(self):
        model = build_one_dimer(1.0, 1.0)
        u = exact_propagator(model, zero_generator(model), 2.5)
        expected = expm_skew(-1j * 2.5 * model.hamiltonian)
        assert frobenius(u - expected) < 1e-12

    def test_closed_loop_prefactor_drops(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 1)
        u = exact_propagator(model, gen, 3.0)
        bare = expm_skew(-1j * (-1j * gen.x + 3.0 * model.hamiltonian))
        assert frobenius(u - bare) < 1e-9  # e^X = 1 for a closed loop

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_bit_equal_to_one_time_closed_form(self, qubits):
        model, gen, _ = oracle_setup(qubits)
        for T in (0.0, 0.5, 57.3, 1e6):
            rotating_frame = -1j * gen.x + model.hamiltonian * T
            expected = expm_skew(gen.x) @ expm_skew(-1j * rotating_frame)
            assert exact_propagator(model, gen, T).tobytes() == expected.tobytes()

    def test_unitary_at_any_time(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
        for T in (0.0, 1.0, 57.3, 1000.0):
            assert is_unitary(exact_propagator(model, gen, T))


class TestOdePropagator:
    def test_static_case_matches_exponential(self):
        model = build_one_dimer(1.0, 1.0)
        gen = zero_generator(model)
        u = ode_propagator(model, gen, 1.0, 1000)
        assert frobenius(u - expm_skew(-1j * model.hamiltonian)) < 1e-8

    def test_matches_exact_propagator(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        exact = exact_propagator(model, gen, 10.0)
        assert frobenius(ode_propagator(model, gen, 10.0, 20000) - exact) < 1e-6

    def test_fourth_order_convergence(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        exact = exact_propagator(model, gen, 10.0)
        err_coarse = frobenius(ode_propagator(model, gen, 10.0, 500) - exact)
        err_fine = frobenius(ode_propagator(model, gen, 10.0, 1000) - exact)
        assert 8.0 < err_coarse / err_fine < 32.0

    def test_rejects_bad_steps(self):
        model = build_one_dimer(1.0, 1.0)
        for steps in (0, True, 2.0, "3"):
            with pytest.raises(DomainError):
                ode_propagator(model, zero_generator(model), 1.0, steps)

    @pytest.mark.parametrize("qubits", [1, 2])
    @pytest.mark.parametrize("T", [1.0, 10.0])
    @pytest.mark.parametrize(
        "steps", [1, 2, 7, 31, 32, 33, 63, 64, 65, 1000, 1023, 1024, 1025]
    )
    def test_matches_scalar_loop(self, qubits, T, steps):
        # Same RK4 steps, different rounding order: the squared power may
        # differ from the loop by accumulated roundoff relative to |U|, which
        # reaches ~5e8 where one or two steps at T = 10 are unstable.  Step
        # counts around powers of two cover the binary-squaring edges.
        model, gen, _ = oracle_setup(qubits)
        ref = loop_ode_propagator(model, gen, T, steps)
        u = ode_propagator(model, gen, T, steps)
        assert frobenius(u - ref) <= 1e-12 * max(1.0, frobenius(ref))

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_open_path_matches_scalar_loop(self, qubits):
        # A closed loop has e^X = 1, so only an open path checks the final
        # phases e^{X} that the propagator applies after the RK4 steps.
        model, gen, _ = oracle_setup(qubits)
        part = DeformationGenerator(x=0.3 * gen.x, loop=None, n_spins=model.n_spins)
        ref = loop_ode_propagator(model, part, 10.0, 1000)
        u = ode_propagator(model, part, 10.0, 1000)
        assert frobenius(u - ref) <= 1e-12 * max(1.0, frobenius(ref))
        assert frobenius(u - exact_propagator(model, part, 10.0)) < 1e-4


class TestHolonomyFidelity:
    def _setup(self, kappa=1):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), kappa)
        gate = holonomy(connection_on_ground_space(gen, model))
        return model, gen, gate

    def test_long_time_converges(self):
        model, gen, gate = self._setup()
        u = exact_propagator(model, gen, 1000.0)
        fidelity, leakage = holonomy_fidelity(u, gate, model, 1000.0)
        assert fidelity > 0.99
        assert leakage < 0.01

    def test_zero_time_is_trace_overlap(self):
        model, gen, gate = self._setup()
        fidelity, _ = holonomy_fidelity(np.eye(4), gate, model, 0.0)
        expected = abs(np.trace(gate.gamma.conj().T)) / 2.0
        assert abs(fidelity - expected) < 1e-12
        assert fidelity < 1.0

    def test_leakage_suppressed_at_long_times(self):
        model, gen, gate = self._setup()
        _, leak_short = holonomy_fidelity(
            exact_propagator(model, gen, 10.0), gate, model, 10.0
        )
        _, leak_long = holonomy_fidelity(
            exact_propagator(model, gen, 1000.0), gate, model, 1000.0
        )
        assert leak_long < leak_short

    def test_dimension_mismatch(self):
        model, _, gate = self._setup()
        with pytest.raises(DomainError):
            holonomy_fidelity(np.eye(16), gate, model, 1.0)


class TestAdiabaticSweep:
    def test_single_run(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        gate = holonomy(connection_on_ground_space(gen, model))
        runs = adiabatic_sweep(model, gen, gate, [25.0])
        assert len(runs) == 1
        assert 0.0 <= runs[0].fidelity <= 1.0
        assert abs(runs[0].dynamical_phase - np.exp(1j * 25.0)) < 1e-12

    def test_infidelity_decreases_by_decades(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator(HADAMARD_AXIS, 3)
        gate = holonomy(connection_on_ground_space(gen, model))
        medians = []
        for T in (10.0, 100.0, 1000.0):
            window = [0.8 * T, 0.9 * T, T, 1.1 * T, 1.2 * T]
            runs = adiabatic_sweep(model, gen, gate, window)
            medians.append(np.median([1.0 - r.fidelity for r in runs]))
        assert medians[1] < medians[0] / 10.0
        assert medians[2] < medians[1] / 10.0

    def test_two_qubit_fidelity_improves(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
        gate = holonomy(connection_on_ground_space(gen, model))
        runs = adiabatic_sweep(model, gen, gate, [50.0, 500.0])
        assert runs[1].fidelity > runs[0].fidelity

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_bit_equal_to_per_time_runs(self, qubits):
        model, gen, gate = oracle_setup(qubits)
        t_list = [1000.0, 0.5, 3.0, 3.0, 57.3, 10.0 ** 0.75]
        runs = adiabatic_sweep(model, gen, gate, t_list)
        assert [r.T for r in runs] == sorted(t_list)
        for run in runs:
            u = exact_propagator(model, gen, run.T)
            assert np.array_equal(run.propagator, u)
            assert (run.fidelity, run.leakage) == holonomy_fidelity(u, gate, model, run.T)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_time(self, bad):
        model, gen, gate = oracle_setup(1)
        with pytest.raises(DomainError):
            adiabatic_sweep(model, gen, gate, [1.0, bad])
        with pytest.raises(DomainError):
            exact_propagator(model, gen, bad)
        with pytest.raises(DomainError):
            ode_propagator(model, gen, bad, 10)
        with pytest.raises(DomainError):
            holonomy_fidelity(np.eye(model.dim), gate, model, bad)

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_time_limit_from_phase_error(self, qubits):
        model, gen, gate = oracle_setup(qubits)
        t_max = adiabatic._t_max(model)
        scale = abs(model.ground_energy) + np.linalg.norm(model.hamiltonian)
        assert t_max * scale * np.finfo(float).eps / 2 == pytest.approx(1e-6)
        assert t_max > 1e6  # every T <= 1e6 at omega = J = 1 stays accepted
        adiabatic_sweep(model, gen, gate, [1e6])
        for bad in (np.nextafter(t_max, np.inf), 1e17, 1e200, -1e200):
            with np.errstate(all="raise"):
                with pytest.raises(DomainError, match=re.escape(f"at most {t_max:.6g} for this model")):
                    adiabatic_sweep(model, gen, gate, [1.0, bad])
                with pytest.raises(DomainError, match="at most"):
                    exact_propagator(model, gen, bad)
                with pytest.raises(DomainError, match="at most"):
                    ode_propagator(model, gen, bad, 10)
                with pytest.raises(DomainError, match="at most"):
                    holonomy_fidelity(np.eye(model.dim), gate, model, bad)

    def test_rejects_empty_or_nonpositive(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        gate = holonomy(connection_on_ground_space(gen, model))
        with pytest.raises(DomainError):
            adiabatic_sweep(model, gen, gate, [])
        with pytest.raises(DomainError):
            adiabatic_sweep(model, gen, gate, [-1.0])


# Loops up to MAX_WINDING, on default and non-default couplings.
SWEEP_CASES = {
    "1q-hadamard-3": lambda: (build_one_dimer(1.0, 1.0), one_qubit_generator(HADAMARD_AXIS, 3)),
    "1q-x-1-omega": lambda: (build_one_dimer(2.0, 2.0), one_qubit_generator((1.0, 0.0, 0.0), 1)),
    "1q-max": lambda: (build_one_dimer(1.0, 1.0),
                       unchecked_one_qubit_generator((0.6, 0.0, 0.8), MAX_WINDING)),
    "1q-max-1": lambda: (build_one_dimer(1.0, 1.0),
                         unchecked_one_qubit_generator((1.0, 0.0, 0.0), MAX_WINDING - 1)),
    "2q-2-3-1": lambda: (build_two_dimer(1.0, 1.0), two_qubit_generator(2, 3, 1)),
    "2q-couplings": lambda: (build_two_dimer(1.0, 2.0), two_qubit_generator(2, 3, 1)),
    "2q-max": lambda: (build_two_dimer(1.0, 1.0),
                       two_qubit_generator(MAX_WINDING // 3 + 1, MAX_WINDING, 1)),
    "2q-max-couplings": lambda: (build_two_dimer(1.0, 2.0),
                                 two_qubit_generator(MAX_WINDING - 1, MAX_WINDING, MAX_WINDING)),
}

# Unsorted, with duplicates; the 20-point list spans 0.1 to 1e5 like a real sweep.
T_LISTS = {
    "one": lambda t_max: [25.0],
    "two": lambda t_max: [1000.0, 0.5],
    "twenty": lambda t_max: [float(t) for t in np.geomspace(0.1, 1e5, 18)[::-1]] + [3.0, 3.0],
    "at-limit": lambda t_max: [t_max, np.nextafter(t_max, 0.0), 1.0, t_max],
}


class TestStackedSweep:
    """The stacked sweep is bit-equal to evaluating each T on its own."""

    @pytest.mark.parametrize("t_name", sorted(T_LISTS))
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_bit_equal_to_per_time_reference(self, case, t_name):
        model, gen = SWEEP_CASES[case]()
        gate = holonomy(connection_on_ground_space(gen, model))
        t_list = T_LISTS[t_name](adiabatic._t_max(model))
        runs = adiabatic_sweep(model, gen, gate, t_list)
        expected = reference_sweep(model, gen, gate, t_list)
        assert [run_bits(r) for r in runs] == [run_bits(r) for r in expected]
        for run in expected:
            fidelity, leakage = holonomy_fidelity(run.propagator, gate, model, run.T)
            assert (fidelity.hex(), leakage.hex()) == (run.fidelity.hex(), run.leakage.hex())
            assert exact_propagator(model, gen, run.T).tobytes() == run.propagator.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 20])
    def test_one_stacked_pass_per_sweep(self, monkeypatch, count):
        model, gen, gate = oracle_setup(2)
        spies = {name: mock.Mock(wraps=getattr(adiabatic, name))
                 for name in ("expm_skew", "_fidelity_leakage")}
        for name, spy in spies.items():
            monkeypatch.setattr(adiabatic, name, spy)
        runs = adiabatic_sweep(model, gen, gate, np.linspace(1.0, 100.0, count))
        assert len(runs) == count
        assert [spy.call_count for spy in spies.values()] == [1, 1]
