"""Propagators and adiabatic convergence of the realized gates."""

import dataclasses
import re
import types
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
    OneQubitLoop,
    TwoQubitLoop,
    one_qubit_generator,
    two_qubit_generator,
)
from holonome.errors import DomainError
from holonome.holonomy import HolonomyGate, connection_on_ground_space, holonomy
from holonome.matrix_kernel import expm_skew, frobenius, is_unitary
from holonome.spin_model import DIMER_BASIS, build_one_dimer, build_two_dimer, coding_space

from conftest import (
    dense_frames,
    ground_projector,
    hamiltonian,
    open_path,
    open_path_propagators,
    reference_ode_propagator,
)

HADAMARD_AXIS = (np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3))
U = np.finfo(float).eps / 2  # unit roundoff
NON_FINITE = (np.nan, np.inf, -np.inf)


def zero_generator(model):
    """A stand-in for X = 0: its dense X, its size and its split, zero in each sector."""
    k = 1 if model.dim == 4 else 3
    split = (np.zeros((k, 3, 3)), np.zeros(k), None)
    return types.SimpleNamespace(**vars(open_path(np.zeros((model.dim, model.dim)))),
                                 triplet_split=split)


def loop_ode_propagator(model, gen, T, steps):
    """Scalar reference: one RK4 step at a time with H(tau) rebuilt in the lab basis."""
    lam, w = np.linalg.eigh(1j * gen.x)
    lam = -lam
    h0 = w.conj().T @ hamiltonian(model) @ w

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


def sector_exponentials(model, gen, T):
    """Per-T reference: exp(-i(-iX_s + H_s T)) of each sector s of the split, each from its own
    triplet eigendecomposition, as its 3 x 3 triplet block times the split's phases entry by
    entry, and its singlet phase.  H_s is read from dimer 1's |++>, |+->, |--> rows for two
    dimers (S1 = 2, 0, -2)."""
    triplets, singlets, phases = gen.triplet_split
    h = hamiltonian(model).diagonal().real.reshape(-1, 4)
    rows = (0,) if len(h) == 1 else (0, 1, 3)
    exps, singlet_phases = [], []
    for sector, row in enumerate(rows):
        e = triplet_block(triplets[sector] + np.diag(h[row, [0, 1, 3]]) * T)
        exps.append(e if phases is None else e * phases)
        singlet_phases.append(np.exp(-1j * (singlets[sector] + h[row, 2] * T)))
    return exps, singlet_phases


def sector_propagator(model, gen, T):
    """Per-T reference: the block diagonal of the sector exponentials over the sigma_z sectors
    of the dimers before the last (one for one dimer, dimer 1's four for two) over the last
    dimer's T+, T0, T-, S0, written back entry by entry (dimer 1's |+-> and |-+> read the
    sector of S1 = 0)."""
    exps, singlet_phases = sector_exponentials(model, gen, T)
    r = np.sqrt(0.5)
    w = (1.0, r, r, 1.0)
    t = (0, 1, 1, 2)
    sectors = (0,) if len(exps) == 1 else t
    u = np.zeros((model.dim, model.dim), dtype=complex)
    for s, sector in enumerate(sectors):
        e, p = exps[sector], singlet_phases[sector]
        for k in range(4):
            for l in range(4):
                if t[k] == t[l] == 1:  # |+->, |-+>: half the T0 entry and -+ half the S0 phase
                    value = 0.5 * e[1, 1] + (0.5 if k == l else -0.5) * p
                else:
                    value = (w[k] * w[l]) * e[t[k], t[l]]
                u[4 * s + k, 4 * s + l] = value
    return u


def dense_scores(model, u, gate, T):
    """Reference: (fidelity, leakage) of one propagator through the dense coding vectors and
    ground projector, with a numpy-scalar tail."""
    c = coding_space(model)
    dim_c = c.shape[1]
    v = (c.conj().T @ u @ c) * np.exp(1j * model.ground_energy * T)
    fidelity = float(abs(np.trace(gate.gamma.conj().T @ v)) / dim_c)
    leakage = float(1.0 - np.linalg.norm(ground_projector(model) @ u @ c) ** 2 / dim_c)
    return min(fidelity, 1.0), min(max(leakage, 0.0), 1.0)


def by_halves(terms):
    """The sum of ``terms`` (a power of two of them) by halves: the first half plus the second,
    entry by entry, until one is left."""
    while len(terms) > 1:
        half = len(terms) // 2
        terms = [a + b for a, b in zip(terms[:half], terms[half:])]
    return terms[0]


def block_scores(model, gen, gate, T):
    """Per-T reference for the sweep's scores, on Python floats: the coding sectors' top-left
    2 x 2 of their own sector exponentials (sector 0 for one dimer; S1 = 2 and S1 = 0, against
    Gamma's diagonal 2 x 2 blocks, for two) give |sum conj(Gamma) V| and ||V||_F^2, each
    entry's product rounded alone and the entries summed by halves."""
    exps, _ = sector_exponentials(model, gen, T)
    gamma = gate.gamma
    pairs = [(complex(exps[b][i, j]), complex(gamma[2 * b + i, 2 * b + j]))
             for b in range(len(gamma) // 2) for i in range(2) for j in range(2)]
    re = by_halves([v.real * g.real + v.imag * g.imag for v, g in pairs])
    im = by_halves([v.imag * g.real - v.real * g.imag for v, g in pairs])
    sqnorm = by_halves([v.real * v.real + v.imag * v.imag for v, _ in pairs])
    dim_c = len(gamma)
    return min(abs(complex(re, im)) / dim_c, 1.0), min(max(1.0 - sqnorm / dim_c, 0.0), 1.0)


def reference_sweep(model, gen, gate, t_list):
    """Per-T reference: each T's propagator, fidelity and leakage on its own."""
    runs = []
    for T in sorted(float(t) for t in t_list):
        fidelity, leakage = block_scores(model, gen, gate, T)
        runs.append(AdiabaticRun(
            T=T,
            propagator=sector_propagator(model, gen, T),
            fidelity=fidelity,
            leakage=leakage,
        ))
    return runs


# The sweep reads its scores off the sector blocks and ``holonomy_fidelity`` off the dense
# propagator; on the same propagator they differ by a few rounding errors of entries of
# modulus at most 1 (measured on 9000 points up to MAX_WINDING: at most 4 u in fidelity and
# 6 u in leakage).
SCORE_BOUND = 8 * U


def run_bits(run):
    return run.T.hex(), run.propagator.tobytes(), run.fidelity.hex(), run.leakage.hex()


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
        # A zero split leaves H alone: the sectors place each dimer's entries of H.
        for model in (build_one_dimer(1.0, 1.0), build_two_dimer(1.0, 2.0)):
            u = exact_propagator(model, zero_generator(model), 2.5)
            expected = expm_skew(-1j * 2.5 * hamiltonian(model))
            assert frobenius(u - expected) < 1e-12

    def test_closed_loop_prefactor_drops(self):
        # e^X = 1 exactly for a closed loop: the propagator is the bare frame, within the
        # error bound of the dense one, and takes no exp(X) at all.
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 1)
        u = exact_propagator(model, gen, 3.0)
        bare = dense_frames(model, gen.x, [3.0])[0]
        bound = 16 * (frobenius(gen.x) + 3.0 * model.hamiltonian_norm) * np.finfo(float).eps / 2
        assert frobenius(u - bare) <= bound
        assert u.tobytes() == sector_propagator(model, gen, 3.0).tobytes()

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_bit_equal_to_one_time_closed_form(self, qubits):
        model, gen, _ = oracle_setup(qubits)
        for T in (0.0, 0.5, 57.3, 1e6):
            u = exact_propagator(model, gen, T)
            assert u.tobytes() == sector_propagator(model, gen, T).tobytes()

    @pytest.mark.parametrize("model_qubits,gen_qubits", [(2, 1), (1, 2)])
    def test_rejects_generator_of_other_size(self, model_qubits, gen_qubits):
        # One size check, one message, for every function that reads X against the model.
        model, _, gate = oracle_setup(model_qubits)
        gen = dataclasses.replace(oracle_setup(gen_qubits)[1])  # a fresh loop, no X built yet
        calls = (lambda: exact_propagator(model, gen, 1.0),
                 lambda: adiabatic._propagators(model, gen, np.array([1.0, 2.0])),
                 lambda: adiabatic_sweep(model, gen, gate, [1.0, 2.0]),
                 lambda: ode_propagator(model, gen, 1.0, 10),
                 lambda: connection_on_ground_space(gen, model))
        for call in calls:
            with pytest.raises(DomainError, match="^generator dimension does not match the model$"):
                call()
        # The check reads the loop's size: it builds no X.
        assert "x" not in vars(gen)

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_propagators_build_no_generator(self, qubits):
        # The propagator and the sweep read the split, never the dense X, of a fresh loop.
        model, gen, gate = oracle_setup(qubits)
        for run in (lambda loop: exact_propagator(model, loop, 10.0),
                    lambda loop: adiabatic_sweep(model, loop, gate, [1.0, 10.0])):
            loop = dataclasses.replace(gen)
            run(loop)
            assert "triplet_split" in vars(loop) and "x" not in vars(loop)

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
        assert frobenius(u - expm_skew(-1j * hamiltonian(model))) < 1e-8

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
        part = open_path(0.3 * gen.x)
        ref = loop_ode_propagator(model, part, 10.0, 1000)
        u = ode_propagator(model, part, 10.0, 1000)
        assert frobenius(u - ref) <= 1e-12 * max(1.0, frobenius(ref))
        assert frobenius(u - open_path_propagators(model, part.x, [10.0])[0]) < 1e-4

    @pytest.mark.parametrize("steps", [1, 10, 1000])
    def test_real_basis_matches_complex_reference(self, steps):
        # Where iX is real (every two-dimer loop, one dimer with n_y = 0) the oracle takes X's
        # eigenbasis from the real eigh; the complex-basis reference runs the same RK4 on the
        # same grid.  They differ by rounding: the eigenbases by O(||X||_F u), W^dag H W by
        # O(|T| ||H||_F u), and each of the ~2 log2 N products of the power by O(u), which the
        # power accumulates N-fold, all relative to |U|, which grows where few steps at large
        # |T| ||H|| are unstable.  Measured: at most 4.6 of the unit below over 9000 cases.
        worst = 0.0
        for model, gen, T in real_oracle_corpus(100, seed=20261021):
            u = ode_propagator(model, gen, T, steps)
            ref = reference_ode_propagator(model, gen, T, steps)
            unit = (steps + frobenius(gen.x) + abs(T) * model.hamiltonian_norm) * U
            error = frobenius(u - ref) / (unit * max(1.0, frobenius(ref)))
            assert error <= 16.0, (gen, T)
            worst = max(worst, error)
        assert worst > 0.0  # the paths round differently; the bound is not vacuous

    @pytest.mark.parametrize("qubits,axis,real", [(1, HADAMARD_AXIS, True),
                                                  (1, (0.6, 0.48, 0.64), False),
                                                  (2, None, True)])
    def test_real_eigh_exactly_when_ix_is_real(self, monkeypatch, qubits, axis, real):
        # One eigendecomposition of iX, in real arithmetic when iX is real.
        model, gen, _ = oracle_setup(qubits)
        if axis is not None:
            gen = one_qubit_generator(axis, 3)
        spy = mock.Mock(wraps=np.linalg.eigh)
        monkeypatch.setattr(adiabatic.np.linalg, "eigh", spy)
        u = ode_propagator(model, gen, 10.0, 1000)
        ((matrix,), _), = spy.call_args_list
        assert matrix.dtype == (np.float64 if real else np.complex128)
        assert frobenius(u - exact_propagator(model, gen, 10.0)) < 1e-4
        assert frobenius(u - reference_ode_propagator(model, gen, 10.0, 1000)) < 1e-12


def real_oracle_corpus(count, seed):
    """Seeded (model, loop, T) whose iX is real, alternating two dimers and one dimer with
    n_y = 0: couplings 0.1 to 10, windings log-spread up to 1000, T from 0.1 to 10."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        j1, j2 = (float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, size=2))
        if i % 2:
            z = rng.uniform(-0.95, 0.95)
            axis = (np.copysign(np.sqrt(1.0 - z * z), rng.normal()), 0.0, z)
            model = build_one_dimer(j1, j1)
            gen = one_qubit_generator(axis, int(10.0 ** rng.uniform(0.0, 3.0)))
        else:
            kp = int(10.0 ** rng.uniform(0.0, 3.0))
            km = kp + 1 + int(rng.random() * (2 * kp - 1)) if kp > 1 else 2
            model = build_two_dimer(j1, j2)
            gen = two_qubit_generator(kp, km, int(10.0 ** rng.uniform(0.0, 3.0)))
        cases.append((model, gen, float(10.0 ** rng.uniform(-1.0, 1.0))))
    return cases


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

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_propagator(self, bad):
        # One non-finite entry, real or imaginary, in or off the coding block, would give
        # (nan, nan): no fidelity or leakage.
        model, gen, gate = self._setup()
        u = exact_propagator(model, gen, 10.0)
        for entry, value in (((0, 0), bad), ((1, 2), complex(0.0, bad)), ((3, 3), bad)):
            broken = u.copy()
            broken[entry] = value
            with pytest.raises(DomainError, match="^propagator must be finite$"):
                holonomy_fidelity(broken, gate, model, 10.0)

    @pytest.mark.parametrize("qubits", [1, 2])
    @pytest.mark.parametrize("factor", [3.0, 0.0, 1.0 + 1e-6, 1e200])
    def test_rejects_non_unitary_propagator(self, qubits, factor):
        # A scaled U would be clamped to a score: 3 U to (1.0, 0.0), as if the gate were
        # perfect, and 0 U to (0.0, 1.0); 1e200 U is refused before U^dag U overflows.  The
        # exact propagator itself is scored.
        model, gen, gate = oracle_setup(qubits)
        u = exact_propagator(model, gen, 1000.0)
        with np.errstate(all="raise"), pytest.raises(DomainError,
                                                     match="^propagator must be unitary$"):
            holonomy_fidelity(factor * u, gate, model, 1000.0)
        fidelity, leakage = holonomy_fidelity(u, gate, model, 1000.0)
        assert 0.0 < fidelity <= 1.0 and 0.0 <= leakage < 1.0

    @pytest.mark.parametrize("qubits", [1, 2])
    @pytest.mark.parametrize("factor", [3.0, 0.0, np.nan])
    def test_rejects_non_unitary_gate(self, qubits, factor):
        # A scaled gate would be clamped to a score: 3 Gamma to fidelity 1.0, as if the
        # propagator realized it perfectly, and a nan gate to nan.  The dense score and the
        # sweep refuse it alike.
        model, gen, gate = oracle_setup(qubits)
        u = exact_propagator(model, gen, 1000.0)
        bad = HolonomyGate(gamma=factor * gate.gamma)
        with pytest.raises(DomainError, match="^gate must be unitary$"):
            holonomy_fidelity(u, bad, model, 1000.0)
        with pytest.raises(DomainError, match="^gate must be unitary$"):
            adiabatic_sweep(model, gen, bad, [1000.0])


class TestAdiabaticSweep:
    def test_single_run(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        gate = holonomy(connection_on_ground_space(gen, model))
        runs = adiabatic_sweep(model, gen, gate, [25.0])
        assert len(runs) == 1
        assert 0.0 <= runs[0].fidelity <= 1.0
        # The dynamical phase that the scores strip: e^{-i E0 T} with E0 = -1.
        phase = np.exp(-1j * model.ground_energy * runs[0].T)
        assert abs(phase - np.exp(1j * 25.0)) < 1e-12

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
            fidelity, leakage = holonomy_fidelity(u, gate, model, run.T)
            assert abs(run.fidelity - fidelity) <= SCORE_BOUND
            assert abs(run.leakage - leakage) <= SCORE_BOUND

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
        scale = abs(model.ground_energy) + np.linalg.norm(hamiltonian(model))
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
            dense = dense_scores(model, run.propagator, gate, run.T)
            assert (fidelity.hex(), leakage.hex()) == (dense[0].hex(), dense[1].hex())
            assert abs(run.fidelity - fidelity) <= SCORE_BOUND
            assert abs(run.leakage - leakage) <= SCORE_BOUND
            assert exact_propagator(model, gen, run.T).tobytes() == run.propagator.tobytes()

    def test_seeded_corpus_bit_equal_to_per_time_reference(self):
        # Enough fidelities and leakages (~5000) that a stacked form rounding
        # differently in one case in a thousand shows up.
        cases = sweep_corpus(500)
        assert {gen.x.shape[0] for _, gen, _ in cases} == {4, 16}
        for model, gen, t_list in cases:
            gate = holonomy(connection_on_ground_space(gen, model))
            runs = adiabatic_sweep(model, gen, gate, t_list)
            expected = reference_sweep(model, gen, gate, t_list)
            assert [run_bits(r) for r in runs] == [run_bits(r) for r in expected]

    @pytest.mark.parametrize("count", [1, 2, 20])
    def test_one_stacked_pass_per_sweep(self, monkeypatch, count):
        # Every loop takes the split: there is no dense exponential to call, and the scores
        # come from the triplet exponentials, not from the dense propagators.
        assert not hasattr(adiabatic, "expm_skew")
        assert not hasattr(adiabatic, "_fidelity_leakage")
        spies = {name: mock.Mock(wraps=getattr(adiabatic, name))
                 for name in ("exp_minus_i", "_scores")}
        for name, spy in spies.items():
            monkeypatch.setattr(adiabatic, name, spy)
        # Real 3 x 3 triplet frames: one sector per T for one dimer, and for two those of
        # S1 = 2, 0, -2 (dimer 1's |+-> and |-+> share S1 = 0), 3 per T.
        for qubits, sectors in ((1, 1), (2, 3)):
            model, gen, gate = oracle_setup(qubits)
            runs = adiabatic_sweep(model, gen, gate, np.linspace(1.0, 100.0, count))
            assert len(runs) == count
            assert [spy.call_count for spy in spies.values()] == [1, 1]
            (frames,) = spies["exp_minus_i"].call_args.args
            assert frames.shape == (count, sectors, 3, 3)
            assert frames.dtype == np.float64
            exps, gamma = spies["_scores"].call_args.args
            assert exps.shape == (count, sectors, 9) and gamma is gate.gamma
            for spy in spies.values():
                spy.reset_mock()

    def test_fidelity_leakage_bit_equal_to_projector_form(self):
        # holonomy_fidelity's row mask and Python-float tail round as the dense ground
        # projector and a numpy-scalar tail do, on every propagator of a seeded corpus.
        cases = sweep_corpus(1000, seed=20261020)
        runs = 0
        for model, gen, t_list in cases:
            gate = holonomy(connection_on_ground_space(gen, model))
            ts = np.array(sorted(t_list))
            for T, u in zip(ts, adiabatic._propagators(model, gen, ts)[0]):
                pair = holonomy_fidelity(u, gate, model, T)
                expected = dense_scores(model, u, gate, T)
                assert [x.hex() for x in pair] == [x.hex() for x in expected]
                assert all(type(x) is float for x in pair)
            runs += len(ts)
        assert {gen.x.shape[0] for _, gen, _ in cases} == {4, 16}
        assert runs > 10000


def frobenius_stack(m):
    """Frobenius norm of each matrix in a stack."""
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def generator_corpus(qubits, count, seed):
    """Seeded (model, generator, times) with windings up to MAX_WINDING and |T| up to _t_max."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        j1, j2 = (float(x) for x in 10.0 ** rng.uniform(-3.0, 3.0, size=2))
        if qubits == 1:
            axis = rng.normal(size=3)
            if i % 4 in (1, 3):  # in the x-z plane: n_y = 0, a real triplet block
                axis[1] = 0.0
            if i % 4 in (2, 3):  # near a pole: |n_z| = 1 / sqrt(1 + r^2), r from 3e-6 to 0.1
                axis[:2] *= 10.0 ** rng.uniform(-5.5, -1.0) / np.hypot(axis[0], axis[1])
                axis[2] = np.sign(axis[2])
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
    """Propagators come from the last dimer's triplet/singlet split in each sigma_z sector of
    the dimers before it: one sector for one dimer, dimer 1's for two."""

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
            us = adiabatic._propagators(model, gen, ts)[0]
            errors = frobenius_stack(us - dense_frames(model, gen.x, ts))
            scale = frobenius(gen.x) + np.abs(ts) * model.hamiltonian_norm
            bounds = 16 * scale * np.finfo(float).eps / 2
            assert np.all(errors <= bounds), (gen, ts)
            worst = max(worst, float(np.max(errors / bounds)))
        assert sum(len(ts) for _, _, ts in cases) == 1500
        assert worst > 0.0  # the paths round differently; the bound is not vacuous

    def test_one_dimer_within_error_bound_of_dense(self):
        # The bound of the two-dimer test: the split rounds the one sector's triplet block, its
        # fixed phases e^{-i phi (m_j - m_k)} off the x-z plane and the change of basis.
        worst = 0.0
        cases = generator_corpus(1, 300, seed=20261019)
        for model, gen, ts in cases:
            us = adiabatic._propagators(model, gen, ts)[0]
            errors = frobenius_stack(us - dense_frames(model, gen.x, ts))
            scale = frobenius(gen.x) + np.abs(ts) * model.hamiltonian_norm
            bounds = 16 * scale * np.finfo(float).eps / 2
            assert np.all(errors <= bounds), (gen, ts)
            worst = max(worst, float(np.max(errors / bounds)))
        axes = np.array([gen.n for _, gen, _ in cases])
        assert sum(len(ts) for _, _, ts in cases) == 1500
        assert np.count_nonzero(axes[:, 1] == 0.0) == 150
        assert np.count_nonzero(np.abs(axes[:, 2]) > 0.995) >= 150
        assert np.count_nonzero(np.abs(axes[:, 2]) > 1.0 - 1e-10) > 0
        assert worst > 0.0  # the paths round differently; the bound is not vacuous

    def test_triplet_table_agrees_with_dimer_basis(self):
        # The propagator's product-to-triplet table and spin_model.DIMER_BASIS both own the
        # dimer basis: product state k lies in the one triplet t(k) whose basis vector is
        # nonzero at k, each triplet's first such k are the sector rows, and |<k|t(k)>| is the
        # block weight w_k (row |++> of the weights, w_0 = 1) within one ulp.
        triplets = [DIMER_BASIS[label] for label in ("T+", "T0", "T-")]
        support = [[t for t, vec in enumerate(triplets) if vec[k] != 0] for k in range(4)]
        table = [t for (t,) in support]  # one triplet per product state
        assert adiabatic._TRIPLET.tolist() == table
        assert adiabatic._FIRST.tolist() == [table.index(t) for t in range(3)]
        w = adiabatic._WEIGHTS.reshape(4, 4)[0]
        overlaps = np.array([abs(triplets[t][k]) for k, t in enumerate(adiabatic._TRIPLET)])
        assert np.all(np.abs(overlaps - w) <= np.spacing(w))

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_oracle_reads_dense_generator(self, monkeypatch, qubits):
        # The RK4 oracle stays an independent check of the closed form: a wrong split moves
        # the exact propagator, not the oracle, for one dimer and two alike.
        model, gen, _ = oracle_setup(qubits)
        oracle = ode_propagator(model, gen, 10.0, 1000)
        exact = exact_propagator(model, gen, 10.0)
        k = len(gen.triplet_split[1])
        wrong = (np.zeros((k, 3, 3)), np.zeros(k), None)
        for cls in (OneQubitLoop, TwoQubitLoop):
            monkeypatch.setattr(cls, "triplet_split", property(lambda self: wrong))
        assert gen.triplet_split is wrong
        assert ode_propagator(model, gen, 10.0, 1000).tobytes() == oracle.tobytes()
        assert frobenius(exact - oracle) < 1e-4
        assert frobenius(exact_propagator(model, gen, 10.0) - oracle) > 0.1

    def test_sectors_built_from_loop(self):
        # An equal loop, built afresh from the same windings, has the same split, byte for byte.
        for qubits in (1, 2):
            gen = oracle_setup(qubits)[1]
            same = dataclasses.replace(gen)
            assert same == gen and same.triplet_split is not gen.triplet_split
            assert [a.tobytes() for a in same.triplet_split if a is not None] == [
                b.tobytes() for b in gen.triplet_split if b is not None]
        gen = one_qubit_generator((0.6, 0.48, 0.64), 999)
        same = dataclasses.replace(gen)
        assert [a.tobytes() for a in same.triplet_split] == [b.tobytes() for b in gen.triplet_split]

    @pytest.mark.parametrize("qubits", [1, 2])
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_raw_x_keeps_exp_x(self, qubits, scale):
        # The open-path reference keeps the exp(X) of an X given raw.  For the loop's own X
        # that is 1 up to the closure residual, so the loop's propagator, which drops it, lies
        # within the error bound plus that residual of the reference; 0.3 X is an open path,
        # whose exp(X) moves the reference by O(1) for T > 0 (at T = 0 both are 1).
        model, gen, _ = oracle_setup(qubits)
        ts = np.array([0.0, 0.5, 57.3])
        reference = open_path_propagators(model, scale * gen.x, ts)
        errors = frobenius_stack(adiabatic._propagators(model, gen, ts)[0] - reference)
        scale_sum = frobenius(gen.x) + ts * model.hamiltonian_norm
        bounds = 16 * scale_sum * np.finfo(float).eps / 2 + gen.closure_residual
        assert np.all(errors <= bounds) == (scale == 1.0)
        if scale != 1.0:
            assert np.all(errors[1:] > 0.1)

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
            us = adiabatic._propagators(model, gen, ts)[0]
            frames = -1j * (-1j * gen.x + hamiltonian(model) * ts[:, None, None])
            errors = frobenius_stack(us - expm_skew(frames))
            bounds = 16 * (frobenius(gen.x) + ts * model.hamiltonian_norm) * np.finfo(float).eps / 2
            assert np.all(errors <= bounds), gen
            assert all(is_unitary(u) for u in us)

    @pytest.mark.parametrize("entry", [(0, 5), (1, 2), (3, 3)])
    def test_off_diagonal_hamiltonian_cannot_be_built(self, entry):
        # The split reads H's diagonal only.  A model holds only its couplings, and H is
        # derived from them as its real diagonal, so no model holds any other entry: an
        # off-diagonal coupling, between or inside dimer 1's sectors, or an imaginary part
        # on the diagonal.  H can be neither replaced nor written into.
        model, gen, _ = oracle_setup(2)
        h = hamiltonian(model)
        i, j = entry
        if i == j:
            h[i, i] += 0.3j
        else:
            h[i, j] = h[j, i] = 0.3
        for field in ("hamiltonian", "diagonal"):
            with pytest.raises(TypeError):
                dataclasses.replace(model, **{field: h})
        with pytest.raises(ValueError):
            model.diagonal[i] = h[i, j].real
        assert model.diagonal.dtype == np.float64 and model.diagonal.shape == (16,)
        u = exact_propagator(model, gen, 10.0)
        assert frobenius(u - expm_skew(-1j * (-1j * gen.x + hamiltonian(model) * 10.0))) < 1e-12


def positive_time_corpus(qubits, count, seed):
    """``generator_corpus`` with each T made positive (T = 0 becomes ``_t_max``), for sweeps."""
    cases = []
    for model, gen, ts in generator_corpus(qubits, count, seed):
        ts = np.abs(ts)
        ts[ts == 0.0] = adiabatic._t_max(model)
        cases.append((model, gen, ts))
    return cases


class TestBlockScores:
    """The sweep reads fidelity and leakage off the coding sectors' triplet exponentials."""

    def test_within_bound_of_dense_holonomy_fidelity(self):
        # Windings log-spread up to MAX_WINDING, couplings from 1e-3 to 1e3 and T up to _t_max.
        worst, points = 0.0, 0
        for qubits, seed in ((1, 20261022), (2, 20261023)):
            for model, gen, ts in positive_time_corpus(qubits, 250, seed):
                gate = holonomy(connection_on_ground_space(gen, model))
                for run in adiabatic_sweep(model, gen, gate, ts):
                    dense = holonomy_fidelity(run.propagator, gate, model, run.T)
                    errors = abs(run.fidelity - dense[0]), abs(run.leakage - dense[1])
                    assert max(errors) <= SCORE_BOUND, (gen, run.T)
                    worst = max(worst, *errors)
                    points += 1
        assert points == 2500
        assert worst > 0.0  # the two forms round differently; the bound is not vacuous

    def test_ground_escape_is_coding_escape(self):
        # A loop propagator keeps dimer 1's sigma_z sector and maps the coding space into the
        # last dimer's triplet, whose T+ and T0 are ground states and T- is not, and into no
        # singlet: ||P U C||_F = ||C^dag U C||_F.  Checked densely; both squares are at most
        # dim_C and round to within a few dim_C u of each other (at most 6 dim_C u measured).
        for qubits, seed in ((1, 20261024), (2, 20261025)):
            for model, gen, ts in generator_corpus(qubits, 100, seed):
                c = coding_space(model)
                dim_c = c.shape[1]
                for u in adiabatic._propagators(model, gen, ts)[0]:
                    ground = np.linalg.norm(ground_projector(model) @ u @ c) ** 2
                    coding = np.linalg.norm(c.conj().T @ u @ c) ** 2
                    assert abs(ground - coding) <= 16 * dim_c * U, (gen, ts)
        # Not so for a unitary that mixes the coding space with other ground states: turning
        # |++++> (T+T+) into the ground state |+++-> (half T+T0, half T+S0) keeps it in the
        # ground space, but not in the coding space.
        model = build_two_dimer(1.0, 1.0)
        c = coding_space(model)
        swap = np.zeros((16, 16))
        swap[0, 1] = swap[1, 0] = 1.0
        mixing = expm_skew(-0.5j * np.pi * swap)
        ground = np.linalg.norm(ground_projector(model) @ mixing @ c) ** 2
        assert ground - np.linalg.norm(c.conj().T @ mixing @ c) ** 2 > 0.1

    def test_real_gamma_scores_as_complex(self):
        # A gate may hold a real Gamma (or a transposed view); it scores as its complex copy.
        # The orthogonal factor of Gamma's real part is a real unitary that is not diagonal.
        model, gen, gate = oracle_setup(2)
        ts = [1.0, 10.0, 100.0]
        for gamma in (np.eye(4), np.linalg.qr(gate.gamma.real)[0], gate.gamma.T):
            runs = adiabatic_sweep(model, gen, HolonomyGate(gamma=gamma), ts)
            expected = adiabatic_sweep(model, gen, HolonomyGate(gamma=np.array(gamma, complex)), ts)
            assert [run_bits(r) for r in runs] == [run_bits(r) for r in expected]
            for run in runs:
                dense = holonomy_fidelity(run.propagator, HolonomyGate(gamma=gamma), model, run.T)
                assert abs(run.fidelity - dense[0]) <= SCORE_BOUND
