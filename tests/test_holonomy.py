"""Connection, holonomy gates, closed forms and two-qubit diagnostics."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holonome.deformation import (
    MAX_WINDING,
    OneQubitLoop,
    TwoQubitLoop,
    one_qubit_generator,
    two_qubit_generator,
)
from holonome import adiabatic, reporting, synthesis
from holonome.errors import DomainError
from holonome import holonomy as holonomy_module
from holonome.holonomy import (
    Connection,
    analytic_one_qubit_gate,
    analytic_two_qubit_gate,
    connection_on_ground_space,
    controlled_phase_gate,
    holonomy,
)
from holonome.matrix_kernel import (
    _U,
    expm_skew,
    frobenius,
    phase_invariant_distance,
)
from holonome.spin_model import build_one_dimer, build_two_dimer, ground_basis

from conftest import (
    haar_su2_target,
    one_qubit_coding_connection,
    reference_local_invariants,
    reference_one_qubit_gate,
    reference_rotation,
    two_qubit_coding_connection,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# c in the forward-error bounds c ||A||_F u and c ||X||_F u on the closed-form two-qubit gate
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
BLOCK_RESIDUAL_C = 16.0


def _winding_corpus(rng, size=200):
    """Admissible and forced-zero-coupling loops, windings log-spread up to MAX_WINDING."""
    top = MAX_WINDING // 3
    loops = [
        two_qubit_generator(1, 2, 1),
        two_qubit_generator(top, top + 1, MAX_WINDING),
        two_qubit_generator(top, 3 * top - 1, MAX_WINDING),
        two_qubit_generator(333333, 500000, 1),
        TwoQubitLoop.with_forced_zero_coupling(MAX_WINDING, MAX_WINDING),
    ]
    while len(loops) < size:
        kp = int(np.exp(rng.uniform(np.log(2), np.log(top))))
        km = int(rng.integers(kp + 1, 3 * kp))
        kpr = int(np.exp(rng.uniform(0.0, np.log(MAX_WINDING))))
        loops.append(two_qubit_generator(kp, km, kpr))
        if len(loops) % 10 == 0:
            loops.append(TwoQubitLoop.with_forced_zero_coupling(kp, kpr))
    return loops


WINDING_CORPUS = _winding_corpus(np.random.default_rng(20081223))
HADAMARD_AXIS = (np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3))


def finite_difference_connection(gen, model, tau, h=1e-6):
    """Oracle: A_ij(tau) = <i; tau| d/dtau |j; tau> by central differences."""
    vecs = ground_basis(model)
    frame = expm_skew(tau * gen.x)
    plus = expm_skew((tau + h) * gen.x) @ vecs
    minus = expm_skew((tau - h) * gen.x) @ vecs
    deriv = (plus - minus) / (2.0 * h)
    return (frame @ vecs).conj().T @ deriv


class TestConnection:
    def test_one_qubit_matches_closed_form(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 2)
        conn = connection_on_ground_space(gen, model)
        assert frobenius(conn.coding_block - one_qubit_coding_connection(gen)) < 1e-12
        assert frobenius(conn.matrix + conn.matrix.conj().T) < 1e-12

    def test_singlet_sector_decouples(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.0, 1.0, 0.0), 4)
        conn = connection_on_ground_space(gen, model)
        assert np.linalg.norm(conn.matrix[2, :]) < 1e-12
        assert np.linalg.norm(conn.matrix[:, 2]) < 1e-12

    def test_two_qubit_matches_closed_form(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
        conn = connection_on_ground_space(gen, model)
        expected = two_qubit_coding_connection(gen)
        assert np.allclose(conn.coding_block, expected, atol=1e-12)

    def test_block_diagonal_between_coding_and_rest(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(1, 2, 1)
        conn = connection_on_ground_space(gen, model)
        assert np.max(np.abs(conn.matrix[4:, :4])) < 1e-12
        assert np.max(np.abs(conn.matrix[:4, 4:])) < 1e-12

    def test_matches_finite_difference_definition(self):
        model = build_one_dimer(1.0, 1.0)
        gen = one_qubit_generator((0.6, 0.0, 0.8), 1)
        conn = connection_on_ground_space(gen, model)
        for tau in (0.0, 0.25, 0.8):
            fd = finite_difference_connection(gen, model, tau)
            assert frobenius(fd - conn.matrix) < 1e-6


class TestOneQubitGate:
    def test_zero_connection_gives_identity(self):
        conn = Connection(matrix=np.zeros((3, 3), dtype=complex), coding_dim=2)
        assert frobenius(holonomy(conn).gamma - np.eye(2)) == 0.0

    def test_x_axis_rotation(self):
        loop = OneQubitLoop((1.0, 0.0, 0.0), 1)
        gate = analytic_one_qubit_gate(loop)
        theta = np.sqrt(2.0) * np.pi
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * np.array(
            [[0, 1], [1, 0]]
        )
        assert frobenius(gate.gamma - expected) < 1e-12

    def test_analytic_equals_numeric_on_grid(self):
        model = build_one_dimer(1.0, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=3)
            n = v / np.linalg.norm(v)
            if abs(n[2]) > 0.95:
                n[2] = 0.5 * np.sign(n[2])
                n /= np.linalg.norm(n)
            kappa = int(rng.integers(1, 8))
            gen = one_qubit_generator(n, kappa)
            numeric = holonomy(connection_on_ground_space(gen, model)).gamma
            analytic = analytic_one_qubit_gate(gen).gamma
            assert phase_invariant_distance(numeric, analytic) < 1e-10

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(z=st.floats(-0.99, 0.99), phi=st.floats(0.0, 2.0 * math.pi),
           kappa=st.integers(1, MAX_WINDING), signs=st.integers(0, 7))
    @example(z=0.0, phi=0.0, kappa=MAX_WINDING, signs=0)  # the x axis, n_y = n_z = +0.0
    @example(z=0.0, phi=0.0, kappa=7, signs=7)  # (1, -0.0, -0.0)
    @example(z=0.0, phi=math.pi / 2, kappa=12345, signs=1)  # (-0.0, 1, 0.0)
    @example(z=0.6, phi=math.pi, kappa=MAX_WINDING, signs=2)  # (-0.8, -0.0, 0.6)
    def test_scalar_gate_within_4u_of_array_form(self, z, phi, kappa, signs):
        # Each entry of the closed form on Python scalars lies within 4 u of the numpy array
        # form; its rotation factor is that form's to the bit, signs of zeros included.
        # A component below 1e-15 is a zero, +0.0 or -0.0 by bit i of ``signs``.
        r = math.sqrt(1.0 - z * z)
        n = [r * math.cos(phi), r * math.sin(phi), z]
        n = [v if abs(v) > 1e-15 else -0.0 if signs >> i & 1 else 0.0 for i, v in enumerate(n)]
        loop = OneQubitLoop(n, kappa)
        gate, ref = analytic_one_qubit_gate(loop).gamma, reference_one_qubit_gate(loop)
        assert np.abs(gate - ref).max() <= 4 * _U
        rot, ref = holonomy_module._rotation(loop.theta_kappa, loop.m), reference_rotation(
            loop.theta_kappa, loop.m)
        assert np.array_equal(rot, ref)
        parts, ref_parts = np.stack([rot.real, rot.imag]), np.stack([ref.real, ref.imag])
        assert np.array_equal(np.signbit(parts), np.signbit(ref_parts))

    def test_hadamard_distance_at_kappa_3(self):
        gate = analytic_one_qubit_gate(OneQubitLoop(HADAMARD_AXIS, 3))
        dist = phase_invariant_distance(gate.gamma, HADAMARD)
        # |sin theta_3| ~ 0.9937 -> distance ~ sqrt(1 - 0.9937)
        assert abs(dist - 0.079) < 2e-3

    def test_hadamard_sines(self):
        for kappa, target in ((3, 0.9937), (10, 0.9892), (16, 0.9970)):
            theta = 2.0 * kappa * np.pi / np.sqrt(3.0)
            assert abs(abs(np.sin(theta)) - target) < 1e-3


class TestTwoQubitGate:
    def test_block_axes_differ_in_z_sign(self):
        fact = analytic_two_qubit_gate(two_qubit_generator(2, 3, 1))
        a, j = fact.loop.a, fact.loop.coupling_j
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        u0 = np.exp(-1j * (2 * fact.loop.omega1 + j)) * expm_skew(-1j * (a * sx + j * sz))
        u1 = np.exp(1j * j) * expm_skew(-1j * (a * sx - j * sz))
        assert frobenius(fact.gamma_exact[:2, :2] - u0) < 1e-12
        assert frobenius(fact.gamma_exact[2:, 2:] - u1) < 1e-12

    @pytest.mark.parametrize("loops", [
        WINDING_CORPUS,
        [TwoQubitLoop.with_forced_zero_coupling(kp, kpr) for kp, kpr in
         ((1, 1), (2, 1), (7, 3), (1, MAX_WINDING), (MAX_WINDING, 1))],
    ], ids=["winding-corpus", "forced-zero-coupling"])
    def test_exact_equals_block_form(self, loops):
        # The closed-form blocks against the eigensolver's exp(-A) of the paper's closed-form
        # coding block A, within the forward-error bound c ||A||_F u, and ``block_residual``
        # against the holonomy of the loop's connection, within c ||X||_F u; the largest
        # ratios seen on random loops up to MAX_WINDING are about 2.3.
        model = build_two_dimer(1.0, 1.0)
        for loop in loops:
            fact = analytic_two_qubit_gate(loop)
            a = two_qubit_coding_connection(loop)
            residual = frobenius(expm_skew(-a) - fact.gamma_exact)
            assert residual <= BLOCK_RESIDUAL_C * frobenius(a) * _U
            numeric = holonomy(connection_on_ground_space(loop, model)).gamma
            assert fact.block_residual == frobenius(numeric - fact.gamma_exact)
            assert fact.block_residual <= BLOCK_RESIDUAL_C * frobenius(loop.x) * _U
            assert fact.gamma_exact[:2, 2:].tobytes() == bytes(64)
            assert fact.gamma_exact[2:, :2].tobytes() == bytes(64)

    def test_exact_equals_numeric_holonomy(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
        numeric = holonomy(connection_on_ground_space(gen, model)).gamma
        fact = analytic_two_qubit_gate(gen)
        assert phase_invariant_distance(numeric, fact.gamma_exact) < 1e-10

    def test_forced_zero_coupling_is_consistent(self):
        fact = analytic_two_qubit_gate(TwoQubitLoop.with_forced_zero_coupling(2, 1))
        assert fact.discrepancy < 1e-10
        # all terms commute: gate is a pure local x-rotation on the target
        expected = np.kron(
            np.eye(2), expm_skew(-1j * np.sqrt(2.0) * fact.loop.omega2 * np.array([[0, 1], [1, 0]]))
        )
        assert phase_invariant_distance(fact.gamma_exact, expected) < 1e-10

    def test_paper_factorization_matches_dense_product(self):
        # Control 0 is the exact block; control 1 is (e^{iJ} drive) @ diag(e^{2iJ}, e^{-2iJ}),
        # drive = exp(-i (a sigma_x + J sigma_z)), as a dense numpy product.
        for loop in WINDING_CORPUS:
            fact = analytic_two_qubit_gate(loop)
            a, j = loop.a, loop.coupling_j
            r = math.hypot(a, j)
            drive = reference_rotation(r, (a / r, 0.0, j / r))
            dense = (np.exp(1j * j) * drive) @ np.diag([np.exp(2j * j), np.exp(-2j * j)])
            paper = fact.paper_factorization
            assert frobenius(paper[2:, 2:] - dense) <= 8 * _U
            assert paper[:2, :2].tobytes() == fact.gamma_exact[:2, :2].tobytes()
            assert paper[:2, 2:].tobytes() == paper[2:, :2].tobytes() == bytes(64)

    def test_generic_discrepancy_is_nonzero(self):
        fact = analytic_two_qubit_gate(two_qubit_generator(2, 3, 1))
        assert fact.discrepancy > 1e-3


class TestClosedFormCost:
    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return expm_skew(*args, **kwargs)

        monkeypatch.setattr(holonomy_module, "expm_skew", counted)
        return calls

    def test_gate_makes_no_expm_skew_call(self, expm_calls):
        facts = [analytic_two_qubit_gate(loop) for loop in WINDING_CORPUS[:20]]
        assert expm_calls == []
        facts[0].block_residual  # the counter sees the module's calls
        facts[0].block_residual  # computed once
        assert len(expm_calls) == 1

    def test_invariants_computed_on_first_use(self, monkeypatch):
        calls, original = [], holonomy_module._block_invariants

        def counted(u):
            calls.append(u)
            return original(u)

        monkeypatch.setattr(holonomy_module, "_block_invariants", counted)
        fact = analytic_two_qubit_gate(two_qubit_generator(2, 3, 1))
        assert calls == []
        assert fact.invariants_match is False
        assert fact.invariants_distance > 1e-3
        assert len(calls) == 2
        assert fact.invariants_exact == original(fact.gamma_exact)
        assert fact.invariants_controlled == original(fact.controlled_gate)


class TestLocalInvariants:
    """The magic-basis reference ``reference_local_invariants`` of any two-qubit unitary."""

    def test_identity(self):
        g1, g2 = reference_local_invariants(np.eye(4))
        assert abs(g1 - 1.0) < 1e-12
        assert abs(g2 - 3.0) < 1e-12

    def test_cnot(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        g1, g2 = reference_local_invariants(cnot)
        assert abs(g1) < 1e-12
        assert abs(g2 - 1.0) < 1e-12

    def test_local_invariance(self):
        def random_unitary(dim, rng):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, r = np.linalg.qr(z)
            return q * (np.diag(r) / np.abs(np.diag(r)))

        rng = np.random.default_rng(17)
        u = random_unitary(4, rng)
        g1, g2 = reference_local_invariants(u)
        for _ in range(5):
            locals_ = [random_unitary(2, rng) for _ in range(4)]
            dressed = (
                np.kron(locals_[0], locals_[1])
                @ u
                @ np.kron(locals_[2], locals_[3])
            )
            h1, h2 = reference_local_invariants(dressed)
            assert abs(g1 - h1) < 1e-9
            assert abs(g2 - h2) < 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            reference_local_invariants(np.ones((4, 4)))

    def test_controlled_phase_invariants_depend_on_angle(self):
        g1a, _ = reference_local_invariants(controlled_phase_gate(0.3))
        g1b, _ = reference_local_invariants(controlled_phase_gate(1.2))
        assert abs(g1a - g1b) > 1e-3


class TestBlockInvariants:
    """``_block_invariants``: the closed form of a block-diagonal gate's Makhlin invariants."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_haar_blocks_within_64u_of_magic_basis_reference(self, seed):
        rng = random.Random(seed)
        u = holonomy_module._block_diagonal(haar_su2_target(rng), haar_su2_target(rng))
        g1, g2 = holonomy_module._block_invariants(u)
        r1, r2 = reference_local_invariants(u)
        assert abs(g1 - r1) <= 64 * _U
        assert abs(g2 - r2) <= 64 * _U

    def test_audit_g1_real_and_g2_exact(self):
        # Seeded loops up to MAX_WINDING, the forced-zero-coupling (--j-zero) limit among them.
        for loop in WINDING_CORPUS:
            payload = reporting.audit_payload(analytic_two_qubit_gate(loop))
            for key in ("invariants_exact", "invariants_controlled"):
                g1, g2 = payload[key]["g1"], payload[key]["g2"]
                assert g1.imag == 0.0
                assert g2 == 1.0 + 2.0 * g1.real


def _equal_result_pairs():
    """(name, build) for every frozen dataclass that holds an array: build() makes a new,
    equal object each call."""

    def run():
        gen, model = two_qubit_generator(2, 3, 1), build_two_dimer(1.0, 1.0)
        gate = holonomy(connection_on_ground_space(gen, model))
        return adiabatic.adiabatic_sweep(model, gen, gate, [10.0])[0]

    return [
        ("LeakageAudit", lambda: holonomy_module.leakage_audit(connection_on_ground_space(
            two_qubit_generator(2, 3, 1), build_two_dimer(1.0, 1.0)))),
        ("Connection", lambda: connection_on_ground_space(
            one_qubit_generator((1.0, 0.0, 0.0), 2), build_one_dimer(1.0, 1.0))),
        ("HolonomyGate", lambda: analytic_one_qubit_gate(OneQubitLoop((1.0, 0.0, 0.0), 2))),
        ("TwoQubitFactorization", lambda: analytic_two_qubit_gate(two_qubit_generator(2, 3, 1))),
        ("AdiabaticRun", run),
        ("SearchResult", lambda: synthesis.search_rotation("x", 1.0, 0.1, 10)),
        ("SynthesisProgram", lambda: synthesis.synthesize_su2(HADAMARD, 0.1, 10)),
    ]


EQUAL_RESULT_PAIRS = _equal_result_pairs()


@pytest.mark.parametrize("name,build", EQUAL_RESULT_PAIRS, ids=[n for n, _ in EQUAL_RESULT_PAIRS])
def test_equality_is_identity(name, build):
    # A generated __eq__ would compare the arrays and raise ValueError.
    a, b = build(), build()
    assert type(a).__name__ == name
    assert (a == b) is False and (a == a) is True and (a != b) is True
    assert len({a, b, a}) == 2
