"""Connection, holonomy gates, closed forms and two-qubit diagnostics."""

import numpy as np
import pytest

from holonome.deformation import (
    MAX_WINDING,
    OneQubitLoop,
    TwoQubitLoop,
    one_qubit_generator,
    two_qubit_generator,
)
from holonome.errors import DomainError
from holonome import holonomy as holonomy_module
from holonome.holonomy import (
    Connection,
    analytic_one_qubit_gate,
    analytic_two_qubit_gate,
    connection_on_ground_space,
    controlled_phase_gate,
    holonomy,
    local_invariants,
    two_qubit_coding_connection,
)
from holonome.matrix_kernel import (
    _U,
    expm_skew,
    frobenius,
    phase_invariant_distance,
    tensor_product,
)
from holonome.spin_model import build_one_dimer, build_two_dimer, ground_basis

from conftest import one_qubit_coding_connection

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# c in the forward-error bound c ||A||_F u on the closed-form two-qubit gate
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
BLOCK_RESIDUAL_C = 16.0


def _winding_corpus(rng, size=200):
    """Admissible and forced-zero-coupling loops, windings log-spread up to MAX_WINDING."""
    top = MAX_WINDING // 3
    loops = [
        TwoQubitLoop.create(1, 2, 1),
        TwoQubitLoop.create(top, top + 1, MAX_WINDING),
        TwoQubitLoop.create(top, 3 * top - 1, MAX_WINDING),
        TwoQubitLoop.create(333333, 500000, 1),
        TwoQubitLoop.with_forced_zero_coupling(MAX_WINDING, MAX_WINDING),
    ]
    while len(loops) < size:
        kp = int(np.exp(rng.uniform(np.log(2), np.log(top))))
        km = int(rng.integers(kp + 1, 3 * kp))
        kpr = int(np.exp(rng.uniform(0.0, np.log(MAX_WINDING))))
        loops.append(TwoQubitLoop.create(kp, km, kpr))
        if len(loops) % 10 == 0:
            loops.append(TwoQubitLoop.with_forced_zero_coupling(kp, kpr))
    return loops


WINDING_CORPUS = _winding_corpus(np.random.default_rng(20081223))
HADAMARD_AXIS = (np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3))


def finite_difference_connection(gen, model, tau, h=1e-6):
    """Oracle: A_ij(tau) = <i; tau| d/dtau |j; tau> by central differences."""
    _, vecs = ground_basis(model)
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
        assert frobenius(conn.coding_block - one_qubit_coding_connection(gen.loop)) < 1e-12
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
        expected = two_qubit_coding_connection(gen.loop)
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

    def test_rejects_nondegenerate_model(self):
        model = build_one_dimer(2.0, 1.0)
        gen = one_qubit_generator((1.0, 0.0, 0.0), 1)
        with pytest.raises(DomainError):
            connection_on_ground_space(gen, model)


class TestOneQubitGate:
    def test_zero_connection_gives_identity(self):
        conn = Connection(matrix=np.zeros((3, 3), dtype=complex), labels=("T+", "T0", "S0"), coding_dim=2)
        assert frobenius(holonomy(conn).gamma - np.eye(2)) == 0.0

    def test_x_axis_rotation(self):
        loop = OneQubitLoop.create((1.0, 0.0, 0.0), 1)
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
            analytic = analytic_one_qubit_gate(gen.loop).gamma
            assert phase_invariant_distance(numeric, analytic) < 1e-10

    def test_hadamard_distance_at_kappa_3(self):
        gate = analytic_one_qubit_gate(OneQubitLoop.create(HADAMARD_AXIS, 3))
        dist = phase_invariant_distance(gate.gamma, HADAMARD)
        # |sin theta_3| ~ 0.9937 -> distance ~ sqrt(1 - 0.9937)
        assert abs(dist - 0.079) < 2e-3

    def test_hadamard_sines(self):
        for kappa, target in ((3, 0.9937), (10, 0.9892), (16, 0.9970)):
            theta = 2.0 * kappa * np.pi / np.sqrt(3.0)
            assert abs(abs(np.sin(theta)) - target) < 1e-3


class TestTwoQubitGate:
    def test_block_axes_differ_in_z_sign(self):
        fact = analytic_two_qubit_gate(TwoQubitLoop.create(2, 3, 1))
        a, j = fact.loop.a, fact.loop.coupling_j
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        u0 = np.exp(-1j * (2 * fact.loop.omega1 + j)) * expm_skew(-1j * (a * sx + j * sz))
        u1 = np.exp(1j * j) * expm_skew(-1j * (a * sx - j * sz))
        assert frobenius(fact.gamma_exact[:2, :2] - u0) < 1e-12
        assert frobenius(fact.gamma_exact[2:, 2:] - u1) < 1e-12

    def test_exact_equals_block_form(self):
        # The closed-form blocks against the eigensolver's exp(-A), within the
        # forward-error bound c ||A||_F u; the largest ratio seen on random
        # loops up to MAX_WINDING is about 3.
        for loop in WINDING_CORPUS:
            fact = analytic_two_qubit_gate(loop)
            a = two_qubit_coding_connection(loop)
            residual = frobenius(expm_skew(-a) - fact.gamma_exact)
            assert residual <= BLOCK_RESIDUAL_C * frobenius(a) * _U
            assert fact.block_residual == residual
            assert fact.gamma_exact[:2, 2:].tobytes() == bytes(64)
            assert fact.gamma_exact[2:, :2].tobytes() == bytes(64)

    def test_exact_equals_numeric_holonomy(self):
        model = build_two_dimer(1.0, 1.0)
        gen = two_qubit_generator(2, 3, 1)
        numeric = holonomy(connection_on_ground_space(gen, model)).gamma
        fact = analytic_two_qubit_gate(gen.loop)
        assert phase_invariant_distance(numeric, fact.gamma_exact) < 1e-10

    def test_forced_zero_coupling_is_consistent(self):
        fact = analytic_two_qubit_gate(TwoQubitLoop.with_forced_zero_coupling(2, 1))
        assert fact.discrepancy < 1e-10
        # all terms commute: gate is a pure local x-rotation on the target
        expected = tensor_product(
            np.eye(2), expm_skew(-1j * np.sqrt(2.0) * fact.loop.omega2 * np.array([[0, 1], [1, 0]]))
        )
        assert phase_invariant_distance(fact.gamma_exact, expected) < 1e-10

    def test_generic_discrepancy_is_nonzero(self):
        fact = analytic_two_qubit_gate(TwoQubitLoop.create(2, 3, 1))
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
        calls = []

        def counted(u):
            calls.append(u)
            return local_invariants(u)

        monkeypatch.setattr(holonomy_module, "local_invariants", counted)
        fact = analytic_two_qubit_gate(TwoQubitLoop.create(2, 3, 1))
        assert calls == []
        assert fact.invariants_match is False
        assert fact.invariants_distance > 1e-3
        assert len(calls) == 2
        assert fact.invariants_exact == local_invariants(fact.gamma_exact)
        assert fact.invariants_controlled == local_invariants(fact.controlled_gate)


class TestConstantProducts:
    def test_bit_equal_fresh_and_read_only(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        for name, (a, b) in {"II": (eye, eye), "ZI": (sz, eye),
                             "IX": (eye, sx), "ZZ": (sz, sz)}.items():
            const = getattr(holonomy_module, name)
            assert const.tobytes() == np.kron(a, b).tobytes()
            with pytest.raises(ValueError):
                const[0, 0] = 2.0


class TestLocalInvariants:
    def test_identity(self):
        g1, g2 = local_invariants(np.eye(4))
        assert abs(g1 - 1.0) < 1e-12
        assert abs(g2 - 3.0) < 1e-12

    def test_cnot(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        g1, g2 = local_invariants(cnot)
        assert abs(g1) < 1e-12
        assert abs(g2 - 1.0) < 1e-12

    def test_local_invariance(self):
        def random_unitary(dim, rng):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, r = np.linalg.qr(z)
            return q * (np.diag(r) / np.abs(np.diag(r)))

        rng = np.random.default_rng(17)
        u = random_unitary(4, rng)
        g1, g2 = local_invariants(u)
        for _ in range(5):
            locals_ = [random_unitary(2, rng) for _ in range(4)]
            dressed = (
                tensor_product(locals_[0], locals_[1])
                @ u
                @ tensor_product(locals_[2], locals_[3])
            )
            h1, h2 = local_invariants(dressed)
            assert abs(g1 - h1) < 1e-9
            assert abs(g2 - h2) < 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            local_invariants(np.ones((4, 4)))

    def test_controlled_phase_invariants_depend_on_angle(self):
        g1a, _ = local_invariants(controlled_phase_gate(0.3))
        g1b, _ = local_invariants(controlled_phase_gate(1.2))
        assert abs(g1a - g1b) > 1e-3
