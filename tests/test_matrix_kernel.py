"""Kernel tests: exponentials, tensor products, distances, eigensystems."""

import math

import numpy as np
import pytest

from holonome.errors import DomainError
from holonome.matrix_kernel import (
    _U,
    exp_minus_i,
    expm_skew,
    frobenius,
    is_unitary,
    phase_invariant_distance,
)
from holonome.spin_model import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    build_one_dimer,
    build_two_dimer,
    pauli_site,
)

from conftest import ground_projector, hamiltonian, reference_distance

RNG = np.random.default_rng(20260826)
NON_FINITE = [np.nan, np.inf, -np.inf]


def random_unitary(dim, rng=RNG):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_antihermitian(dim, rng=RNG):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return z - z.conj().T


class TestExpmSkew:
    def test_zero_generator(self):
        assert frobenius(expm_skew(np.zeros((3, 3))) - np.eye(3)) == 0.0

    def test_pi_rotation(self):
        m = 1j * np.pi * np.diag([1.0, -1.0])
        assert frobenius(expm_skew(m) + np.eye(2)) < 1e-12

    def test_collective_spin_closure(self):
        # n . (sigma_1 + sigma_2) has eigenvalues {+-2, 0, 0}; oracle below.
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.normal(size=3)
            n = v / np.linalg.norm(v)
            coll = sum(
                c * (np.kron(p, np.eye(2)) + np.kron(np.eye(2), p))
                for c, p in zip(n, (SIGMA_X, SIGMA_Y, SIGMA_Z))
            )
            evals = np.sort(np.linalg.eigvalsh(coll))
            assert np.allclose(evals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
            for kappa in (1, 2, 3):
                u = expm_skew(1j * kappa * np.pi * coll)
                assert frobenius(u - np.eye(4)) < 1e-12

    def test_rejects_non_antihermitian(self):
        with pytest.raises(DomainError):
            expm_skew(np.array([[1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", NON_FINITE + [complex(0.0, b) for b in NON_FINITE])
    def test_rejects_non_finite_without_a_warning(self, entry):
        for m in (np.full((2, 2), entry), np.where(np.eye(2), entry, 0.0)):
            with np.errstate(all="raise"), pytest.raises(DomainError, match="finite argument$"):
                expm_skew(m)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1.7e308])
    def test_rejects_an_overflowing_norm_without_a_warning(self, scale):
        # Finite entries whose squares overflow: anti-Hermitian or not, the norm is refused
        # by name, not called infinite.
        for m in (1j * np.full((2, 2), scale), np.full((2, 2), scale)):
            with np.errstate(all="raise"), pytest.raises(DomainError, match="float range$"):
                expm_skew(m)
        unit = expm_skew(1j * np.full((2, 2), 1e150))  # squares at 1e300 stay finite
        assert is_unitary(unit)

    def test_unitarity_and_inverse(self):
        for dim in (2, 4, 9, 16):
            m = random_antihermitian(dim)
            u = expm_skew(m)
            assert frobenius(u.conj().T @ u - np.eye(dim)) < 1e-12 * dim
            assert frobenius(expm_skew(m) @ expm_skew(-m) - np.eye(dim)) < 1e-12

    def test_stack_is_bit_equal_to_slices(self):
        stack = np.stack([random_antihermitian(16) for _ in range(5)]).reshape(5, 1, 16, 16)
        stack *= np.array([0.0, 1e-3, 1.0, 40.0, 1e4]).reshape(5, 1, 1, 1)
        out = expm_skew(stack)
        assert out.shape == stack.shape
        for got, m in zip(out.reshape(-1, 16, 16), stack.reshape(-1, 16, 16)):
            assert np.array_equal(got, expm_skew(m))

    def test_stack_rejects_one_bad_slice(self):
        stack = np.stack([random_antihermitian(4) for _ in range(3)])
        stack[1, 0, 1] += 1e-6
        with pytest.raises(DomainError):
            expm_skew(stack)
        stack[1, 0, 1] -= 1e-6
        stack[2, 3, 3] = np.nan
        with pytest.raises(DomainError):
            expm_skew(stack)
        with pytest.raises(DomainError):
            expm_skew(np.zeros((3, 4, 5)))

    def test_first_bad_slice_names_the_error(self):
        skew, nan = random_antihermitian(4), np.full((4, 4), np.nan)
        bad, huge = skew + 1e-6, 1e200 * skew
        for order, message in (((skew, bad, nan), "anti-Hermitian"),
                               ((skew, nan, bad), "finite"),
                               ((skew, huge, nan), "float range"),
                               ((nan, huge, bad), "finite")):
            with pytest.raises(DomainError, match=message):
                expm_skew(np.stack(order))


class TestExpMinusI:
    """exp(-i h) of complex Hermitian stacks: the one eigen-exponential behind ``expm_skew``."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 16])
    def test_complex_stack_is_unitary_and_matches_expm_skew(self, dim):
        rng = np.random.default_rng(dim)
        z = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        h = z + z.conj().swapaxes(-1, -2)
        us = exp_minus_i(h)
        for u, hk in zip(us, h):
            assert is_unitary(u)
            assert np.abs(u - expm_skew(-1j * hk)).max() <= 4 * _U

    @pytest.mark.parametrize("dim", [2, 3, 4, 16])
    def test_complex_stack_matches_taylor_series(self, dim):
        # At ||h||_F = 1, thirty terms of sum (-i h)^k / k! leave a remainder far below u.
        rng = np.random.default_rng(dim + 100)
        z = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        h = z + z.conj().swapaxes(-1, -2)
        h /= np.linalg.norm(h, axis=(-2, -1))[:, None, None]
        term = np.broadcast_to(np.eye(dim, dtype=complex), h.shape)
        series = term
        for k in range(1, 30):
            term = term @ (-1j * h) / k
            series = series + term
        errors = np.linalg.norm(exp_minus_i(h) - series, axis=(-2, -1))
        assert errors.max() <= 8 * dim * _U


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_zz_signs(self):
        zz = np.kron(SIGMA_Z, SIGMA_Z)
        up_up = np.array([1, 0, 0, 0], dtype=complex)
        up_down = np.array([0, 1, 0, 0], dtype=complex)
        assert np.allclose(zz @ up_up, up_up)
        assert np.allclose(zz @ up_down, -up_down)


class TestPhaseInvariantDistance:
    def test_self_distance(self):
        u = random_unitary(4)
        assert phase_invariant_distance(u, u) < 1e-14

    def test_global_phase_removed(self):
        u = random_unitary(2)
        for phi in (0.3, np.pi, 5.9):
            assert phase_invariant_distance(u, np.exp(1j * phi) * u) < 1e-14

    def test_identity_vs_sigma_x(self):
        # tr(sigma_x) = 0, so d = sqrt(1 - 0) = 1
        assert abs(phase_invariant_distance(np.eye(2), SIGMA_X) - 1.0) < 1e-14

    def test_symmetry_and_nonnegative(self):
        u, v = random_unitary(4), random_unitary(4)
        duv = phase_invariant_distance(u, v)
        assert duv >= 0.0
        assert abs(duv - phase_invariant_distance(v, u)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            phase_invariant_distance(np.eye(2), np.eye(4))

    def test_rejects_non_finite(self):
        u = random_unitary(4)
        u[0, 0] = np.nan
        assert not is_unitary(u)
        with pytest.raises(DomainError):
            phase_invariant_distance(u, np.eye(4))

    @pytest.mark.parametrize("entry", NON_FINITE + [complex(0.0, b) for b in NON_FINITE]
                             + [1e200, 1.7e308j, complex(1.7e308, -1.7e308)])
    def test_non_finite_or_huge_entries_are_not_unitary_without_a_warning(self, entry):
        # Judged before any product: u^dag u would overflow or be nan.
        u = random_unitary(4)
        for m in (np.full((4, 4), entry), np.where(np.eye(4) == 1, entry, u), u.T.copy()):
            m[0, 0] = entry
            with np.errstate(all="raise"):
                assert not is_unitary(m)
                assert not is_unitary(m.T)  # a transposed view, not contiguous
                with pytest.raises(DomainError, match="unitary inputs$"):
                    phase_invariant_distance(m, np.eye(4))
                with pytest.raises(DomainError, match="unitary inputs$"):
                    phase_invariant_distance(np.eye(4), m)

    @pytest.mark.parametrize("dim", [4, 16])
    def test_haar_pairs_match_array_reference(self, dim):
        # Haar-random pairs, and pairs equal up to a global phase (distance ~ 0), against the
        # numpy form: the trace through one matrix product, the phase through np.angle.
        rng = np.random.default_rng(dim)
        for _ in range(50):
            u, v = random_unitary(dim, rng), random_unitary(dim, rng)
            for w in (v, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * u):
                assert abs(phase_invariant_distance(u, w) - reference_distance(u, w)) <= (
                    2 * dim * _U)

    def test_matches_trace_formula(self):
        u, v = random_unitary(4), random_unitary(4)
        expected = np.sqrt(1.0 - abs(np.trace(u.conj().T @ v)) / 4.0)
        assert abs(phase_invariant_distance(u, v) - expected) < 1e-12


def hermitian_eigensystem(h, tol=1e-10):
    """Reference: LAPACK eigendecomposition with gap-threshold degeneracy grouping.

    Returns (energies, multiplicities, vectors): one energy per group of
    ascending eigenvalues whose consecutive gaps are below 1e-9 ||H||_F, the
    group sizes, and the eigenvectors as columns.  The models are built from
    their diagonals with no eigensolver, and their ground level from a label
    table; this is the eigensolver path they replaced, kept to check them
    against.
    """
    h = np.asarray(h, dtype=complex)
    norm = frobenius(h)
    if not math.isfinite(norm):
        raise DomainError("hermitian_eigensystem requires a finite argument")
    scale = max(1.0, norm)
    if frobenius(h - h.conj().T) > tol * scale:
        raise DomainError("hermitian_eigensystem requires a Hermitian argument")
    evals, evecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    gap = 1e-9 * norm
    energies = []
    mults = []
    last = None
    for w in evals:
        if last is not None and w - last < gap:
            mults[-1] += 1
        else:
            energies.append(float(w))
            mults.append(1)
        last = w
    return np.array(energies), tuple(mults), evecs


def dense_one_dimer(omega, j1):
    """Reference: -omega sz_1 - omega sz_2 + J1 sz_1 sz_2 as dense products."""
    sz1 = pauli_site("z", 0, 2)
    sz2 = pauli_site("z", 1, 2)
    return -omega * sz1 - omega * sz2 + j1 * (sz1 @ sz2)


def dense_two_dimer(j1, j2):
    id4 = np.eye(4, dtype=complex)
    return (np.kron(dense_one_dimer(j1, j1), id4)
            + np.kron(id4, dense_one_dimer(j2, j2)))


def coupling_corpus(seed=20261018, count=200):
    """Seeded (J1, J2) pairs, each log-uniform from e^-6 to e^6: the next level lies
    4 min(J1, J2) >= 1e-6 ||H||_F over the ground level, far above the reference's
    grouping gap."""
    rng = np.random.default_rng(seed)
    return [tuple(np.exp(rng.uniform(-6.0, 6.0, size=2))) for _ in range(count)]


class TestHermitianEigensystem:
    def test_diagonal_with_degeneracy(self):
        energies, mults, _ = hermitian_eigensystem(np.diag([-1.0, -1.0, -1.0, 3.0]))
        assert np.allclose(energies, [-1.0, 3.0])
        assert mults == (3, 1)

    def test_one_dimer_working_point(self):
        energies, mults, _ = hermitian_eigensystem(hamiltonian(build_one_dimer(1.0, 1.0)))
        assert abs(energies[0] + 1.0) < 1e-12
        assert mults[0] == 3

    def test_two_dimer_working_point(self):
        energies, mults, _ = hermitian_eigensystem(hamiltonian(build_two_dimer(1.0, 1.0)))
        assert abs(energies[0] + 2.0) < 1e-12
        assert mults[0] == 9

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite(self, entry):
        with pytest.raises(DomainError):
            hermitian_eigensystem(np.array([[0.0, entry], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            hermitian_eigensystem(np.diag([1.0, entry]))

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_diagonal_models_match_reference(self, qubits):
        # H, the ground energy and the ground level's projector byte for byte against
        # the reference's first group.
        for a, b in coupling_corpus():
            if qubits == 1:
                model, h = build_one_dimer(a, a), dense_one_dimer(a, a)
            else:
                model, h = build_two_dimer(a, b), dense_two_dimer(a, b)
            energies, mults, vectors = hermitian_eigensystem(h)
            v = vectors[:, : mults[0]]
            assert hamiltonian(model).tobytes() == h.tobytes()
            assert model.ground_energy.hex() == float(energies[0]).hex()
            assert mults[0] == (3 if qubits == 1 else 9)
            assert ground_projector(model).tobytes() == (v @ v.conj().T).tobytes()

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = z + z.conj().T
        energies, mults, v = hermitian_eigensystem(h)
        assert frobenius(v.conj().T @ v - np.eye(9)) < 1e-12
        evals = np.repeat(energies, mults)
        assert frobenius(v @ np.diag(evals) @ v.conj().T - h) < 1e-12 * max(
            1.0, frobenius(h)
        )
