"""Propagators and adiabatic convergence of the realized gates."""

import dataclasses
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
    leakage_audit,
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


def triplet_block(frame):
    """exp(-i F) of one real symmetric 3 x 3 triplet frame F, by its own eigendecomposition."""
    lam, v = np.linalg.eigh(frame)
    return (v * np.exp(-1j * lam)) @ v.T


def with_closure(gen, u):
    """exp(X) u: u for a loop, whose exp(X) is exactly 1; expm_skew(X) u for a raw X."""
    return u if gen.loop is not None else expm_skew(gen.x) @ u


def sector_propagator(model, gen, T):
    """Per-T reference: exp(X) times the block diagonal of exp(-i(-iX_s + H_s T)) over
    dimer 1's four sigma_z sectors s, each from its own triplet eigendecomposition and
    singlet phase over dimer 2's T+, T0, T-, S0, written back entry by entry (two dimers);
    the dense closed form when X does not split (one dimer)."""
    split = gen.triplet_split
    if split is None:
        return with_closure(gen, expm_skew(-1j * (-1j * gen.x + model.hamiltonian * T)))
    h = model.hamiltonian.diagonal().real.reshape(4, 4)
    r = np.sqrt(0.5)
    w = (1.0, r, r, 1.0)
    t = (0, 1, 1, 2)
    u = np.zeros((16, 16), dtype=complex)
    for s in range(4):
        frame = split[s] + np.diag(h[s, [0, 1, 3, 2]]) * T
        e = triplet_block(frame[:3, :3])
        p = np.exp(-1j * frame[3, 3])
        for k in range(4):
            for l in range(4):
                if t[k] == t[l] == 1:  # |+->, |-+>: half the T0 entry and -+ half the S0 phase
                    value = 0.5 * e[1, 1] + (0.5 if k == l else -0.5) * p
                else:
                    value = (w[k] * w[l]) * e[t[k], t[l]]
                u[4 * s + k, 4 * s + l] = value
    return with_closure(gen, u)


def reference_fidelity_leakage(us, gate, model, c, ts):
    """Reference: the stacked (fidelity, leakage) computation with the dense ground projector
    and numpy scalars in its per-T tail."""
    dim_c = c.shape[1]
    v = (c.conj().T @ us @ c) * np.exp(1j * model.ground_energy * ts)[:, None, None]
    overlaps = np.trace(gate.gamma.conj().T @ v, axis1=-2, axis2=-1)
    moduli = np.hypot(overlaps.real, overlaps.imag)
    escaped = (model.ground_projector @ us @ c).reshape(len(us), -1)
    re, im = escaped.real, escaped.imag
    sqnorms = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    norms = np.sqrt(sqnorms.ravel())
    pairs = []
    for modulus, norm in zip(moduli, norms):
        fidelity = float(modulus / dim_c)
        leakage = float(1.0 - norm ** 2 / dim_c)
        pairs.append((min(fidelity, 1.0), min(max(leakage, 0.0), 1.0)))
    return pairs


def reference_sweep(model, gen, gate, t_list):
    """Per-T reference: each T's propagator, fidelity, leakage and phase on its own."""
    c = coding_space(model).vectors
    dim_c = c.shape[1]
    runs = []
    for T in sorted(float(t) for t in t_list):
        u = sector_propagator(model, gen, T)
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
        assert u.tobytes() == bare.tobytes()  # e^X = 1 exactly for a closed loop

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_bit_equal_to_one_time_closed_form(self, qubits):
        model, gen, _ = oracle_setup(qubits)
        for T in (0.0, 0.5, 57.3, 1e6):
            u = exact_propagator(model, gen, T)
            assert u.tobytes() == sector_propagator(model, gen, T).tobytes()
            if qubits == 1:  # one sector: the dense closed form, with no exp(X) for a loop
                rotating_frame = -1j * gen.x + model.hamiltonian * T
                assert u.tobytes() == expm_skew(-1j * rotating_frame).tobytes()

    @pytest.mark.parametrize("model_qubits,gen_qubits", [(2, 1), (1, 2)])
    def test_rejects_generator_of_other_size(self, model_qubits, gen_qubits):
        # One size check, one message, for every function that reads X against the model.
        model = oracle_setup(model_qubits)[0]
        gen = oracle_setup(gen_qubits)[1]
        calls = (lambda: exact_propagator(model, gen, 1.0),
                 lambda: adiabatic._propagators(model, gen, np.array([1.0, 2.0])),
                 lambda: ode_propagator(model, gen, 1.0, 10),
                 lambda: connection_on_ground_space(gen, model),
                 lambda: leakage_audit(gen, model))
        for call in calls:
            with pytest.raises(DomainError, match="^generator dimension does not match the model$"):
                call()

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
                       one_qubit_generator((0.6, 0.0, 0.8), MAX_WINDING)),
    "1q-max-1": lambda: (build_one_dimer(1.0, 1.0),
                         one_qubit_generator((1.0, 0.0, 0.0), MAX_WINDING - 1)),
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


def sweep_corpus(count, seed=20261018):
    """Seeded (model, generator, T list) sweeps, alternating one and two qubits, 1-20 T each."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        t_list = (10.0 ** rng.uniform(-1.0, 3.0, size=rng.integers(1, 21))).tolist()
        j1, j2 = (float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, size=2))
        if i % 2:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            model = build_one_dimer(j1, j1)
            gen = one_qubit_generator(axis, int(rng.integers(1, 1000)))
        else:
            kp = int(rng.integers(1, 300))
            km = int(rng.integers(kp + 1, 3 * kp)) if kp > 1 else 2
            model = build_two_dimer(j1, j2)
            gen = two_qubit_generator(kp, km, int(rng.integers(1, 300)))
        cases.append((model, gen, t_list))
    return cases


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

    def test_seeded_corpus_bit_equal_to_per_time_reference(self):
        # Enough fidelities and leakages (~5000) that a stacked form rounding
        # differently in one case in a thousand shows up.
        cases = sweep_corpus(500)
        assert {gen.n_spins for _, gen, _ in cases} == {2, 4}
        for model, gen, t_list in cases:
            gate = holonomy(connection_on_ground_space(gen, model))
            runs = adiabatic_sweep(model, gen, gate, t_list)
            expected = reference_sweep(model, gen, gate, t_list)
            assert [run_bits(r) for r in runs] == [run_bits(r) for r in expected]

    @pytest.mark.parametrize("count", [1, 2, 20])
    def test_one_stacked_pass_per_sweep(self, monkeypatch, count):
        model, gen, gate = oracle_setup(2)
        spies = {name: mock.Mock(wraps=getattr(adiabatic, name))
                 for name in ("exp_minus_i", "expm_skew", "_fidelity_leakage")}
        for name, spy in spies.items():
            monkeypatch.setattr(adiabatic, name, spy)
        runs = adiabatic_sweep(model, gen, gate, np.linspace(1.0, 100.0, count))
        assert len(runs) == count
        assert [spy.call_count for spy in spies.values()] == [1, 0, 1]
        # Real 3 x 3 triplet frames; dimer 1's |+-> and |-+> sectors share one: 3 of 4 per T.
        (frames,) = spies["exp_minus_i"].call_args.args
        assert frames.shape == (count, 3, 3, 3)
        assert frames.dtype == np.float64

    def test_fidelity_leakage_bit_equal_to_projector_form(self):
        # The row mask and the Python-float tail round as the dense ground projector
        # and a numpy-scalar tail do, on every run of a seeded corpus.
        cases = sweep_corpus(1000, seed=20261020)
        runs = 0
        for model, gen, t_list in cases:
            gate = holonomy(connection_on_ground_space(gen, model))
            ts = np.array(sorted(t_list))
            us = adiabatic._propagators(model, gen, ts)
            c = coding_space(model).vectors
            pairs = adiabatic._fidelity_leakage(us, gate, model, c, ts)
            expected = reference_fidelity_leakage(us, gate, model, c, ts)
            bits = [(f.hex(), l.hex()) for f, l in pairs]
            assert bits == [(f.hex(), l.hex()) for f, l in expected]
            assert all(type(f) is float and type(l) is float for f, l in pairs)
            runs += len(ts)
        assert {gen.n_spins for _, gen, _ in cases} == {2, 4}
        assert runs > 10000


def frobenius_stack(m):
    """Frobenius norm of each matrix in a stack."""
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def dense_propagators(model, gen, ts):
    """The dense closed form exp(X) exp(-i(-iX + HT)) of every T in ``ts``, stacked; for a
    loop exp(X) = 1 exactly, and the product is left out."""
    return with_closure(gen, expm_skew(-1j * (-1j * gen.x + model.hamiltonian * ts[:, None, None])))


def generator_corpus(qubits, count, seed):
    """Seeded (model, generator, times) with windings up to MAX_WINDING and |T| up to _t_max."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        j1, j2 = (float(x) for x in 10.0 ** rng.uniform(-3.0, 3.0, size=2))
        if qubits == 1:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            kappa = MAX_WINDING if i == 0 else int(10.0 ** rng.uniform(0.0, 6.0))
            model, gen = build_one_dimer(j1, j1), one_qubit_generator(axis, kappa)
        else:
            kp = MAX_WINDING // 3 + 1 if i == 0 else int(10.0 ** rng.uniform(0.0, 6.0 - 0.5))
            km = min(kp + 1 + int(rng.random() * (2 * kp - 1)), MAX_WINDING)
            km = MAX_WINDING if i == 0 else km
            kpr = MAX_WINDING if i == 1 else int(10.0 ** rng.uniform(0.0, 6.0))
            model, gen = build_two_dimer(j1, j2), two_qubit_generator(kp, km, kpr)
        t_max = adiabatic._t_max(model)
        ts = 10.0 ** rng.uniform(-2.0, np.log10(t_max), size=5) * rng.choice((-1.0, 1.0), size=5)
        ts[0] = t_max if i % 3 == 0 else 0.0
        cases.append((model, gen, ts))
    return cases


class TestSectorPropagators:
    """Two-dimer propagators come from dimer 2's triplet/singlet split in each of dimer 1's
    sigma_z sectors; one dimer's, and those of any X that does not split, from the dense frame."""

    def test_two_dimer_within_error_bound_of_dense(self):
        # Error model (Higham, Functions of Matrices, 2008, ch. 10): both paths
        # exponentiate the Hermitian frame F = -iX + HT through a backward-stable
        # eigendecomposition, so each is exp(-i(F + E)) up to O(n u) rounding
        # of the reconstruction, with ||E||_F of order n u ||F||_F; the split
        # path also rounds the change to dimer 2's triplet/singlet basis and
        # back (products by sqrt2, 1/sqrt2 and 1/2), a few u ||F||_F more.  On
        # Hermitian arguments ||e^{-iA} - e^{-iB}||_F <= ||A - B||_F, and exp(X)
        # is unitary, so the two differ by at most about n u ||F||_F <= n u
        # (||X||_F + |T| ||H||_F), n = 16.
        worst = 0.0
        cases = generator_corpus(2, 300, seed=20261018)
        for model, gen, ts in cases:
            assert gen.triplet_split is not None, gen.loop
            us = adiabatic._propagators(model, gen, ts)
            errors = frobenius_stack(us - dense_propagators(model, gen, ts))
            scale = frobenius(gen.x) + np.abs(ts) * model.hamiltonian_norm
            bounds = 16 * scale * np.finfo(float).eps / 2
            assert np.all(errors <= bounds), (gen.loop, ts)
            worst = max(worst, float(np.max(errors / bounds)))
        assert sum(len(ts) for _, _, ts in cases) == 1500
        assert worst > 0.0  # the paths round differently; the bound is not vacuous

    def test_one_dimer_bit_equal_to_dense(self):
        for model, gen, ts in generator_corpus(1, 300, seed=20261019):
            assert gen.triplet_split is None
            expected = dense_propagators(model, gen, ts)
            assert adiabatic._propagators(model, gen, ts).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_oracle_reads_dense_generator(self, monkeypatch, qubits):
        # The RK4 oracle stays an independent check of the closed form: a wrong
        # split (two dimers) or a wrong exp(X) moves the exact propagator, not
        # the oracle.  A one-dimer loop's closed form reads only X and H, which
        # the oracle reads too, so one dimer takes the same X as a raw
        # generator, whose exp(X) the closed form reads and the oracle does not.
        model, gen, _ = oracle_setup(qubits)
        if qubits == 1:
            gen = DeformationGenerator(x=gen.x, loop=None, n_spins=2)
        oracle = ode_propagator(model, gen, 10.0, 1000)
        exact = exact_propagator(model, gen, 10.0)
        if qubits == 2:
            name, wrong = "triplet_split", np.zeros((4, 4, 4))
        else:
            name, wrong = "closure", -np.eye(4)
        monkeypatch.setattr(DeformationGenerator, name, property(lambda self: wrong))
        assert getattr(gen, name) is wrong
        assert ode_propagator(model, gen, 10.0, 1000).tobytes() == oracle.tobytes()
        assert frobenius(exact - oracle) < 1e-4
        assert frobenius(exact_propagator(model, gen, 10.0) - oracle) > 0.1

    def test_sectors_derived_from_x(self):
        model, gen, _ = oracle_setup(2)
        # A generator built directly from the same X has the same split.
        same = DeformationGenerator(x=gen.x, loop=None, n_spins=4)
        assert same.triplet_split.tobytes() == gen.triplet_split.tobytes()
        # Real blocks, no triplet entry coupled to the singlet.
        assert same.triplet_split.shape == (4, 4, 4)
        assert same.triplet_split.dtype == np.float64
        assert not same.triplet_split[:, 3, :3].any() and not same.triplet_split[:, :3, 3].any()
        ts = np.array([0.5, 57.3])
        # One triplet-singlet entry <T0|X|S0> = <S0|X|T0> = 1e-300i in dimer 1's |+-> sector
        # (X_{+-,+-} = -X_{-+,-+} there), or one entry between sectors: the dense path.
        couple = gen.x.copy()
        couple[5, 5], couple[6, 6] = couple[5, 5] + 1e-300j, couple[6, 6] - 1e-300j
        between = gen.x.copy()
        between[0, 4] = between[4, 0] = 0.25j  # anti-Hermitian
        for x in (couple, between):
            assert not np.array_equal(x, gen.x)
            dense = DeformationGenerator(x=x, loop=None, n_spins=4)
            assert dense.triplet_split is None
            expected = dense_propagators(model, dense, ts)
            assert adiabatic._propagators(model, dense, ts).tobytes() == expected.tobytes()
        # H must split too: unequal |+-> and |-+> entries of dimer 2 take the dense path.
        h = model.hamiltonian.copy()
        h[1, 1] += 0.5
        skewed = dataclasses.replace(model, hamiltonian=h)
        expected = expm_skew(-1j * (-1j * gen.x + h * ts[:, None, None]))
        assert adiabatic._propagators(skewed, gen, ts).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("qubits", [1, 2])
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_raw_x_keeps_exp_x(self, qubits, scale):
        # A generator built from a raw X (0.3 X is an open path) multiplies the closure-free
        # stack by its exp(X).
        model, gen, _ = oracle_setup(qubits)
        raw = DeformationGenerator(x=scale * gen.x, loop=None, n_spins=gen.n_spins)
        loop = DeformationGenerator(x=raw.x, loop=gen.loop, n_spins=gen.n_spins)
        ts = np.array([0.0, 0.5, 57.3])
        us = adiabatic._propagators(model, raw, ts)
        assert us.tobytes() == (expm_skew(raw.x) @ adiabatic._propagators(model, loop, ts)).tobytes()
        if qubits == 1:
            frames = -1j * (-1j * raw.x + model.hamiltonian * ts[:, None, None])
            assert us.tobytes() == (expm_skew(raw.x) @ expm_skew(frames)).tobytes()

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_loops_near_max_winding(self, qubits):
        # Windings whose float exp(X) misses the fixed closure tolerances build, and their
        # propagators are unitary and within the error bound of the closure-free dense frame.
        if qubits == 1:
            model = build_one_dimer(1.0, 1.0)
            gens = [one_qubit_generator(n, MAX_WINDING) for n in ((1.0, 0.0, 0.0), (0.6, 0.0, 0.8))]
        else:
            model = build_two_dimer(1.0, 2.0)
            gens = [two_qubit_generator(MAX_WINDING // 3 + 1, MAX_WINDING, 1),
                    two_qubit_generator(MAX_WINDING - 1, MAX_WINDING, MAX_WINDING)]
        ts = np.array([0.0, 1.0, 1e3, adiabatic._t_max(model)])
        for gen in gens:
            us = adiabatic._propagators(model, gen, ts)
            frames = -1j * (-1j * gen.x + model.hamiltonian * ts[:, None, None])
            errors = frobenius_stack(us - expm_skew(frames))
            bounds = 16 * (frobenius(gen.x) + ts * model.hamiltonian_norm) * np.finfo(float).eps / 2
            assert np.all(errors <= bounds), gen.loop
            assert all(is_unitary(u) for u in us)

    @pytest.mark.parametrize("entry", [(0, 5), (1, 2), (3, 3)])
    def test_off_diagonal_hamiltonian_takes_dense_frame(self, entry):
        # The split reads H's diagonal only, so any other entry of H sends the model to the
        # dense frame: an off-diagonal coupling, between or inside dimer 1's sectors, or an
        # imaginary part on the diagonal.
        model, gen, _ = oracle_setup(2)
        h = model.hamiltonian.copy()
        i, j = entry
        if i == j:
            h[i, i] += 0.3j
        else:
            h[i, j] = h[j, i] = 0.3
        skewed = dataclasses.replace(model, hamiltonian=h)
        if i != j:
            u = exact_propagator(skewed, gen, 10.0)
            assert u.tobytes() == expm_skew(-1j * (-1j * gen.x + h * 10.0)).tobytes()
            assert frobenius(u - exact_propagator(model, gen, 10.0)) > 0.1
        else:  # not Hermitian: the dense frame rejects it
            with pytest.raises(DomainError, match="anti-Hermitian"):
                exact_propagator(skewed, gen, 10.0)

