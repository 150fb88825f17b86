"""Dimer Hamiltonians, the triplet/singlet basis and coding spaces."""

import dataclasses
import importlib
import math
import pkgutil
import types

import numpy as np
import pytest
from conftest import ground_projector, hamiltonian, reference_model, site_reference

import holonome
from holonome import adiabatic, synthesis
from holonome.errors import DomainError
from holonome.matrix_kernel import frobenius
from holonome.spin_model import (
    _GROUND_LABELS,
    DIMER_BASIS,
    MAX_COUPLING,
    PAULI,
    SIGMA_Z,
    SpinModel,
    build_one_dimer,
    build_two_dimer,
    coding_space,
    ground_basis,
    pauli_site,
)


def closed_form_one_dimer_eigenvalues(omega, j1):
    # T+, T0, T-, S0 in that order
    return np.array([-2 * omega + j1, -j1, 2 * omega + j1, -j1])


def assert_ground_level(model, multiplicity):
    """The ground basis is ``multiplicity`` eigenvectors of H at E0, on the rows of the
    reference's level: the product of the dimers' entries equal to each dimer's least.
    (Per dimer: at a ratio of the couplings past 1 / u the sums on H's diagonal round
    the smaller dimer's T- onto E0.)"""
    vecs = ground_basis(model)
    assert vecs.shape == (model.dim, multiplicity)
    assert np.array_equal(hamiltonian(model) @ vecs, model.ground_energy * vecs)
    ref = reference_model(*model.couplings)
    assert ground_projector(model).tobytes() == ref.ground_projector.tobytes()
    assert ref.ground_multiplicity == multiplicity


def sorted_diagonal(model):
    """The spectrum of a (diagonal) model Hamiltonian, ascending with multiplicity."""
    return np.sort(np.diag(hamiltonian(model)).real)


class TestOneDimer:
    def test_working_point_spectrum(self):
        model = build_one_dimer(1.0, 1.0)
        evals = sorted_diagonal(model)
        assert np.allclose(evals, [-1.0, -1.0, -1.0, 3.0], atol=1e-12)
        assert_ground_level(model, 3)
        assert abs(evals[3] - evals[0] - 4.0) < 1e-12

    def test_diagonal_in_z_basis(self):
        h = hamiltonian(build_one_dimer(0.7, 0.7))
        assert frobenius(h - np.diag(np.diag(h))) == 0.0

    def test_closed_form_spectrum_random_couplings(self):
        rng = np.random.default_rng(42)
        for j1 in rng.uniform(0.1, 5.0, size=100):
            model = build_one_dimer(j1, j1)
            expected = np.sort(closed_form_one_dimer_eigenvalues(j1, j1))
            assert np.allclose(sorted_diagonal(model), expected, atol=1e-12)

    @pytest.mark.parametrize("j1", [5e-324, 1e-320, 1e-300, 1.0, 2.5, MAX_COUPLING])
    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_rejects_omega_one_ulp_off_j1(self, j1, toward):
        # The model is built at omega = J1 exactly, or not at all.  Next to 5e-324 and
        # MAX_COUPLING one neighbour is out of range, and rejected for that.
        omega = float(np.nextafter(j1, toward))
        for args in ((omega, j1), (j1, omega)):
            match = ("^one-dimer model is not at its degenerate point$"
                     if 0 < omega <= MAX_COUPLING else " must be finite, > 0 and at most ")
            with pytest.raises(DomainError, match=match):
                build_one_dimer(*args)
        assert build_one_dimer(j1, j1).couplings == (j1,)

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(DomainError):
            build_one_dimer(0.0, 1.0)
        with pytest.raises(DomainError):
            build_one_dimer(1.0, -1.0)

    @pytest.mark.parametrize(
        "build, args, name",
        [
            (build_one_dimer, (np.inf, 1.0), "omega"),
            (build_one_dimer, (np.nan, 1.0), "omega"),
            (build_one_dimer, (1.0, np.nan), "j1"),
            (build_one_dimer, (1.0, -np.inf), "j1"),
            (build_two_dimer, (np.nan, 1.0), "j1"),
            (build_two_dimer, (1.0, np.inf), "j2"),
            (build_two_dimer, (1.0, np.nan), "j2"),
        ],
    )
    def test_rejects_non_finite_couplings_by_name(self, build, args, name):
        with np.errstate(all="raise"), pytest.raises(DomainError, match=f"^{name} "):
            build(*args)


class TestTwoDimer:
    def test_working_point(self):
        model = build_two_dimer(1.0, 1.0)
        assert abs(model.ground_energy + 2.0) < 1e-12
        assert_ground_level(model, 9)

    @pytest.mark.parametrize("j1,j2", [
        (1.0, 2.0), (1.7e-9, 1.0), (1.0, 1.7e-9), (1.8244511890553932e-14, 14.52630271632801),
        (1e-150, MAX_COUPLING), (MAX_COUPLING, 1e-150), (5e-324, 1.0), (0.3, 7.0),
    ])
    def test_asymmetric_couplings(self, j1, j2):
        # The ground level is the product of two 3-fold levels at any ratio of the couplings.
        model = build_two_dimer(j1, j2)
        assert model.ground_energy == -j1 - j2
        assert_ground_level(model, 9)

    def test_spectrum_is_minkowski_sum(self):
        model = build_two_dimer(1.0, 1.0)
        single = build_one_dimer(1.0, 1.0)
        ev1 = sorted_diagonal(single)
        expected = np.sort((ev1[:, None] + ev1[None, :]).ravel())
        assert np.allclose(sorted_diagonal(model), expected, atol=1e-12)


@pytest.mark.parametrize("s", [1e-150, 1e-10, 1.0, MAX_COUPLING])
def test_working_point_at_any_scale(s):
    # A uniform rescaling of the couplings keeps the degeneracy.  2s would exceed
    # MAX_COUPLING at the top of the range, so the two-dimer pair is (s / 2, s).
    one = build_one_dimer(s, s)
    assert one.ground_energy == -s
    assert_ground_level(one, 3)
    two = build_two_dimer(s / 2, s)
    assert_ground_level(two, 9)
    assert np.trace(ground_projector(two)).real == 9.0


@pytest.mark.parametrize("j1,j2", [
    (1.7e-9, 1.0), (1.0, 1.7e-9), (1.8244511890553932e-14, 14.52630271632801),
    (1e-150, MAX_COUPLING), (MAX_COUPLING, 1e-150), (1.0, 1.0), (0.3, 7.0),
])
def test_two_dimer_ground_level_per_dimer(j1, j2):
    # The two-dimer ground level is the product of the two one-dimer levels, in the
    # Kronecker order of the slow dimer first, at any ratio of the couplings.
    two = build_two_dimer(j1, j2)
    one1, one2 = build_one_dimer(j1, j1), build_one_dimer(j2, j2)
    assert_ground_level(two, 9)
    expected = np.kron(ground_projector(one1), ground_projector(one2))
    assert ground_projector(two).tobytes() == expected.tobytes()
    assert two.ground_energy == float(np.diag(hamiltonian(two)).real.min())


@pytest.mark.parametrize("build,args", [
    (build_one_dimer, (1.0, 1.0)), (build_one_dimer, (2.5e-7, 2.5e-7)),
    (build_two_dimer, (1.0, 1.0)), (build_two_dimer, (1e-150, MAX_COUPLING)),
    (build_two_dimer, (0.3, 7.0)),
])
def test_hamiltonian_norm_is_frobenius(build, args):
    # The dense norm is the reference wherever its squares do not underflow.
    model = build(*args)
    dense = frobenius(hamiltonian(model))
    assert abs(model.hamiltonian_norm - dense) <= math.ulp(dense)


@pytest.mark.parametrize("build", [build_one_dimer, build_two_dimer])
def test_hamiltonian_norm_does_not_underflow(build):
    # The dense norm squares H's entries: it reads 3.46408e-160 at 1e-160 and 0.0 below
    # about 1e-162, where _t_max would admit a |T| 4.5 (one dimer) to 5.9 (two) times too
    # large.  The time bound scales as 1 / J.
    at_one = adiabatic._t_max(build(1.0, 1.0))
    for j in (1e-160, 1e-200):
        assert adiabatic._t_max(build(j, j)) * j == at_one, j
    # At 1e-300 the bound, ~1e309 for one dimer, is past the largest float: every
    # finite T is within it.
    assert adiabatic._t_max(build(1e-300, 1e-300)) == math.inf


def model_corpus(count, seed=20261019):
    """Seeded (builder, couplings) pairs: log-uniform couplings from 1e-150 to 1e150,
    omega = J for one dimer and ratios up to 1e15 for two."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        a = rng.uniform(-150.0, 150.0)
        b = np.clip(a + rng.uniform(-15.0, 15.0), -150.0, 150.0)
        pair = (float(10.0**a), float(10.0**b))
        cases.append((build_one_dimer, (pair[0],) * 2) if i % 2 else (build_two_dimer, pair))
    return cases


class TestDerivedFields:
    """A model holds its couplings; every other field is derived from them, read-only."""

    def test_bit_equal_to_eager_reference(self):
        cases = model_corpus(2000)
        multiplicities = set()
        for build, (a, b) in cases:
            model = build(a, b)
            ref = reference_model(a) if build is build_one_dimer else reference_model(a, b)
            assert hamiltonian(model).tobytes() == ref.hamiltonian.tobytes(), (build, a, b)
            assert model.diagonal.tobytes() == ref.hamiltonian.diagonal().real.tobytes()
            assert model.hamiltonian_norm.hex() == ref.hamiltonian_norm.hex(), (build, a, b)
            # The corpus's squares do not underflow: the dense norm is within 1 ulp.
            dense = frobenius(hamiltonian(model))
            assert abs(model.hamiltonian_norm - dense) <= math.ulp(dense), (build, a, b)
            assert model.ground_energy.hex() == ref.ground_energy.hex(), (build, a, b)
            # The label table's level is the reference's: the entries equal to the least.
            assert ground_projector(model).tobytes() == ref.ground_projector.tobytes()
            multiplicities.add((model.n_spins, ref.ground_multiplicity))
        assert multiplicities == {(2, 3), (4, 9)}
        assert min(min(p) for _, p in cases) < 1e-140 and max(max(p) for _, p in cases) > 1e140

    def test_only_field_is_couplings(self):
        assert [f.name for f in dataclasses.fields(SpinModel)] == ["couplings"]
        assert build_one_dimer(0.5, 0.5).couplings == (0.5,)
        model = build_two_dimer(0.5, 3.0)
        assert model.couplings == (0.5, 3.0)
        assert (model.n_spins, model.dim) == (4, 16)

    @pytest.mark.parametrize("field", ["diagonal"])
    def test_replace_cannot_set_derived_field(self, field):
        model = build_two_dimer(1.0, 1.0)
        with pytest.raises(TypeError):
            dataclasses.replace(model, **{field: getattr(model, field).copy()})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, field, getattr(model, field).copy())


class TestConstructor:
    """A model checks its couplings as the builders do."""

    @pytest.mark.parametrize("couplings", [
        (1.0,) * 3, (), [1.0], 1.0, ((1.0, 1.0),), ((1.0, 1.0), (1.0, 1.0)), (1.0, [1.0]),
        ("1.0",), (1.0, 1j),
    ])
    def test_one_or_two_values(self, couplings):
        with pytest.raises(DomainError, match=r"^couplings must be one or two J values$"):
            SpinModel(couplings)

    @pytest.mark.parametrize("couplings, name", [
        ((np.nan,), "dimer 1 J"), ((np.inf,), "dimer 1 J"), ((0.0,), "dimer 1 J"),
        ((1.0, 0.0), "dimer 2 J"), ((1.0, -2.0), "dimer 2 J"),
        ((1.0, 2 * MAX_COUPLING), "dimer 2 J"), ((-5e-324, 1.0), "dimer 1 J"),
    ])
    def test_values_checked_by_name(self, couplings, name):
        with pytest.raises(DomainError, match=f"^{name} must be "):
            SpinModel(couplings)

    def test_builders_check_first_with_their_names(self):
        # The builders' messages name their own arguments, as before the model checked.
        with pytest.raises(DomainError, match=r"^j1 must be finite, > 0 and at most 1e\+150, got nan$"):
            build_one_dimer(1.0, np.nan)
        with pytest.raises(DomainError, match=r"^j2 must be finite, > 0 and at most 1e\+150, got 0\.0$"):
            build_two_dimer(1.0, 0.0)
        assert build_two_dimer(5e-324, MAX_COUPLING).couplings == (5e-324, MAX_COUPLING)


class TestDimerBasis:
    def test_orthonormal(self):
        assert tuple(DIMER_BASIS) == ("T+", "T0", "T-", "S0")
        mat = np.column_stack(list(DIMER_BASIS.values()))
        assert frobenius(mat.conj().T @ mat - np.eye(4)) < 1e-15

    def test_z_action_identities(self):
        # sigma_kz T+ = T+, sigma_kz T0 = (-1)^(k+1) S0 for the two spins
        basis = DIMER_BASIS
        sz1 = pauli_site("z", 0, 2)
        sz2 = pauli_site("z", 1, 2)
        assert np.allclose(sz1 @ basis["T+"], basis["T+"])
        assert np.allclose(sz1 @ basis["T0"], basis["S0"])
        assert np.allclose(sz2 @ basis["T0"], -basis["S0"])
        assert np.allclose(np.vdot(basis["T0"], basis["S0"]), 0.0)

    def test_eigenvectors_of_hamiltonian(self):
        model = build_one_dimer(2.0, 2.0)
        expected = closed_form_one_dimer_eigenvalues(2.0, 2.0)
        for vec, ev in zip(DIMER_BASIS.values(), expected):
            assert np.allclose(hamiltonian(model) @ vec, ev * vec, atol=1e-12)

    def test_read_only(self):
        with pytest.raises(TypeError):
            DIMER_BASIS["T+"] = np.zeros(4, dtype=complex)
        with pytest.raises(ValueError):
            DIMER_BASIS["T0"][1] = 0.0


def logical_pauli(coding, axis, qubit=0):
    """Logical Pauli (axis in 'x', 'y', 'z') on ``qubit`` of the coding columns, built in the
    test: C (I x .. x sigma x .. x I) C^dag, zero off the coding space."""
    op = np.eye(1)
    for q in range(coding.shape[1].bit_length() - 1):
        op = np.kron(op, PAULI[axis] if q == qubit else np.eye(2))
    return coding @ op @ coding.conj().T


class TestCodingSpace:
    def test_one_dimer_ranks(self):
        model = build_one_dimer(1.0, 1.0)
        coding = coding_space(model)
        assert coding.shape == (4, 2)
        assert abs(np.trace(coding @ coding.conj().T).real - 2.0) < 1e-12
        assert abs(np.trace(ground_projector(model)).real - 3.0) < 1e-12

    def test_two_dimer_ranks(self):
        model = build_two_dimer(1.0, 1.0)
        coding = coding_space(model)
        assert coding.shape == (16, 4)
        assert abs(np.trace(coding @ coding.conj().T).real - 4.0) < 1e-12
        assert abs(np.trace(ground_projector(model)).real - 9.0) < 1e-12

    def test_subset_of_ground_space(self):
        for model in (build_one_dimer(1.0, 1.0), build_two_dimer(1.0, 2.0)):
            coding = coding_space(model)
            pc = coding @ coding.conj().T
            assert frobenius(pc @ ground_projector(model) - pc) < 1e-12

    def test_logical_pauli_algebra(self):
        for model in (build_one_dimer(1.0, 1.0), build_two_dimer(1.0, 2.0)):
            coding = coding_space(model)
            for qubit in range(coding.shape[1].bit_length() - 1):
                sx, sy, sz = (logical_pauli(coding, a, qubit) for a in "xyz")
                assert frobenius(sx @ sy - 1j * sz) < 1e-12
                zero_logical = coding[:, 0]  # |0>_L = T+ on every dimer
                assert np.allclose(sz @ zero_logical, zero_logical)

    def test_ground_basis_order(self):
        vecs = ground_basis(build_two_dimer(1.0, 1.0))
        labels = _GROUND_LABELS[4]
        assert labels[:4] == ("T+T+", "T+T0", "T0T+", "T0T0")
        assert all("S0" in lab for lab in labels[4:])
        assert frobenius(vecs.conj().T @ vecs - np.eye(9)) < 1e-12


def fresh_ground_columns(n_spins):
    """The ground basis built from scratch with np.kron, coding vectors first."""
    rt2 = 1.0 / np.sqrt(2.0)
    basis = {"T+": np.array([1, 0, 0, 0], dtype=complex),
             "T0": np.array([0, rt2, rt2, 0], dtype=complex),
             "S0": np.array([0, rt2, -rt2, 0], dtype=complex)}
    if n_spins == 2:
        return np.column_stack([basis["T+"], basis["T0"], basis["S0"]])
    pairs = [("T+", "T+"), ("T+", "T0"), ("T0", "T+"), ("T0", "T0"),
             ("T+", "S0"), ("T0", "S0"), ("S0", "T+"), ("S0", "T0"), ("S0", "S0")]
    return np.column_stack(
        [np.kron(basis[a].reshape(4, 1), basis[b].reshape(4, 1)).ravel() for a, b in pairs]
    )


def bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


MODELS = {2: lambda: build_one_dimer(1.0, 1.0), 4: lambda: build_two_dimer(1.0, 2.0)}


class TestCaches:
    """Request-independent operators and bases are built once and read-only, and so are a
    model's derived arrays."""

    @pytest.mark.parametrize("n_spins", [2, 4])
    def test_pauli_sites_bit_equal_fresh(self, n_spins):
        for axis in "xyz":
            for site in range(n_spins):
                cached = pauli_site(axis, site, n_spins)
                assert bit_equal(cached, site_reference(PAULI[axis], site, n_spins))
                assert pauli_site(axis, site, n_spins) is cached

    @pytest.mark.parametrize("n_spins", [2, 4])
    def test_ground_columns_and_coding_space_bit_equal_fresh(self, n_spins):
        model = MODELS[n_spins]()
        vecs = ground_basis(model)
        assert bit_equal(vecs, fresh_ground_columns(n_spins))
        dim_c = 2 if n_spins == 2 else 4
        coding = coding_space(model)
        assert bit_equal(coding, fresh_ground_columns(n_spins)[:, :dim_c])
        # Both are the columns built once per spin count.
        assert ground_basis(MODELS[n_spins]()) is vecs and coding.base is vecs

    @pytest.mark.parametrize("n_spins", [2, 4])
    def test_cached_arrays_are_read_only(self, n_spins):
        model = MODELS[n_spins]()
        arrays = [pauli_site(a, 0, n_spins) for a in "xyz"]
        arrays += [ground_basis(model), coding_space(model)]
        arrays.append(model.diagonal)
        for a in arrays:
            before = a.copy()
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 7.0
            with pytest.raises(ValueError):
                a *= 2.0
            assert bit_equal(a, before)

    def test_module_constants_are_read_only(self):
        # Every module-level array of the package, and every array in its module-level
        # mappings, is read-only, so no caller can change a constant that others share.
        arrays = {}
        for info in pkgutil.iter_modules(holonome.__path__):
            module = importlib.import_module(f"holonome.{info.name}")
            for name, value in vars(module).items():
                values = value.items() if isinstance(value, types.MappingProxyType) else ()
                for key, v in [(None, value), *values]:
                    if isinstance(v, np.ndarray):
                        arrays[f"{info.name}.{name}" + ("" if key is None else f"[{key!r}]")] = v
        assert {"spin_model.SIGMA_Z", "spin_model.ID2", "synthesis.HADAMARD",
                "adiabatic._WEIGHTS", "spin_model.PAULI['x']"} <= set(arrays)
        assert [name for name, a in arrays.items() if a.flags.writeable] == []
        sigma_z = SIGMA_Z
        with pytest.raises(ValueError):
            sigma_z *= -1
        assert isinstance(PAULI, types.MappingProxyType)
        assert isinstance(synthesis.NAMED_AXES, types.MappingProxyType)
