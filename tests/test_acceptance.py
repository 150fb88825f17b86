"""Acceptance suite: one test per release criterion, each printing a verdict line."""

import io
import json

import numpy as np
import pytest

from holonome.adiabatic import adiabatic_sweep, exact_propagator, ode_propagator
from holonome.cli import run
from holonome.deformation import TwoQubitLoop, one_qubit_generator, two_qubit_generator
from holonome.holonomy import (
    analytic_one_qubit_gate,
    analytic_two_qubit_gate,
    connection_on_ground_space,
    holonomy,
    leakage_audit,
)
from holonome.matrix_kernel import frobenius, phase_invariant_distance
from holonome.spin_model import build_one_dimer, build_two_dimer, ground_basis
from holonome.synthesis import (
    circular_distance,
    coupling_strength,
    figure_table,
    search_controlled_phase,
)

from conftest import (
    closure_residual,
    eager_leakage_audit,
    hamiltonian,
    one_qubit_coding_connection,
    two_qubit_coding_connection,
)

HADAMARD_AXIS = (np.sqrt(1 / 3), 0.0, np.sqrt(2 / 3))


def verdict(number, label, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok


def ground_level_dim(model):
    """The number of ground-basis columns, each an eigenvector of H at E0 (else 0)."""
    vecs = ground_basis(model)
    return vecs.shape[1] if np.allclose(hamiltonian(model) @ vecs, model.ground_energy * vecs,
                                        atol=1e-12) else 0


def test_criterion_01_spectral_structure():
    one = build_one_dimer(1.0, 1.0)
    evals = np.sort(np.diag(hamiltonian(one)).real)
    ok = (
        np.allclose(evals, [-1.0, -1.0, -1.0, 3.0], atol=1e-12)
        and abs((evals[3] - evals[0]) - 4.0) < 1e-12
        and ground_level_dim(one) == 3
    )
    two = build_two_dimer(1.0, 1.0)
    ok = ok and abs(two.ground_energy + 2.0) < 1e-12 and ground_level_dim(two) == 9
    verdict(1, "spectral structure of H_1D and H_2D", ok)


def test_criterion_02_closure():
    rng = np.random.default_rng(1234)
    ok = True
    axes = []
    while len(axes) < 10:
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        if abs(n[2]) < 0.999:
            axes.append(n)
    for n in axes:
        for kappa in range(1, 6):
            ok = ok and closure_residual(one_qubit_generator(n, kappa).x) < 1e-10
    for kp in range(1, 5):
        for km in range(kp + 1, 3 * kp):
            for kprime in (1, 2):
                ok = ok and closure_residual(two_qubit_generator(kp, km, kprime).x) < 1e-8
    verdict(2, "loop closure over windings and axes", ok)


def test_criterion_03_connection_analytics():
    model1 = build_one_dimer(1.0, 1.0)
    gen1 = one_qubit_generator((0.6, 0.0, 0.8), 2)
    conn1 = connection_on_ground_space(gen1, model1)
    ok = frobenius(conn1.coding_block - one_qubit_coding_connection(gen1)) < 1e-12
    ok = ok and np.linalg.norm(conn1.matrix[2, :]) < 1e-12
    ok = ok and np.linalg.norm(conn1.matrix[:, 2]) < 1e-12

    model2 = build_two_dimer(1.0, 1.0)
    gen2 = two_qubit_generator(2, 3, 1)
    conn2 = connection_on_ground_space(gen2, model2)
    ok = ok and frobenius(conn2.coding_block - two_qubit_coding_connection(gen2)) < 1e-12

    ok = ok and leakage_audit(conn2).passed
    named = eager_leakage_audit(gen2, model2)[3]
    ok = ok and abs(named["<T+T+|Xc|T+T+>"] - 1j * 4.0 * gen2.coupling_j) < 1e-12
    for key in ("<T+S0|Xc|T+T0>", "<S0T+|Xc|T0T+>", "<S0S0|Xc|T0S0>", "<S0T0|Xc|T0S0>"):
        ok = ok and abs(named[key]) < 1e-12
    verdict(3, "connection matches closed forms; no leakage elements", ok)


def test_criterion_04_one_qubit_gate_identity():
    model = build_one_dimer(1.0, 1.0)
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(20):
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        if abs(n[2]) > 0.95:
            n[2] *= 0.5
            n /= np.linalg.norm(n)
        gen = one_qubit_generator(n, int(rng.integers(1, 10)))
        numeric = holonomy(connection_on_ground_space(gen, model)).gamma
        analytic = analytic_one_qubit_gate(gen).gamma
        ok = ok and phase_invariant_distance(numeric, analytic) < 1e-10
    verdict(4, "closed-form one-qubit gate equals exp(-A) on 20 loops", ok)


def test_criterion_05_hadamard_reproduction():
    sines = {
        kappa: abs(np.sin(2.0 * kappa * np.pi / np.sqrt(3.0)))
        for kappa in range(1, 17)
    }
    top3 = sorted(sines, key=sines.get, reverse=True)[:3]
    ok = set(top3) == {3, 10, 16}
    for kappa, value in ((3, 0.9937), (10, 0.9892), (16, 0.9970)):
        ok = ok and abs(sines[kappa] - value) < 1e-3
    verdict(5, "Hadamard windings {3, 10, 16} with the quoted |sin|", ok)


def test_criterion_06_rotation_lattice_points():
    thetas = [np.sqrt(2.0) * kappa * np.pi for kappa in range(11)]
    points = np.array([(np.cos(t), np.sin(t)) for t in thetas])
    ok = abs(points[0][0] - 1.0) < 1e-12 and abs(points[0][1]) < 1e-12
    min_dist = min(
        np.linalg.norm(points[i] - points[j])
        for i in range(11)
        for j in range(i + 1, 11)
    )
    ok = ok and min_dist > 0.01
    verdict(6, "11 distinct x-rotation lattice points including (1, 0)", ok)


def test_criterion_07_controlled_phase_lattice():
    ok = abs(2.0 * coupling_strength(2, 3) - np.pi * np.sqrt(5.0 / 2.0)) < 1e-12
    expected = {
        (kp, km) for kp in range(1, 6) for km in range(kp + 1, 3 * kp)
    }
    ok = ok and {(kp, km) for kp, km, *_ in figure_table("fig4")[1]} == expected
    verdict(7, "2J closed form and admissible winding pairs", ok)


def test_criterion_08_propagator_oracle_equivalence():
    model1 = build_one_dimer(1.0, 1.0)
    gen1 = one_qubit_generator((1.0, 0.0, 0.0), 1)
    exact1 = exact_propagator(model1, gen1, 10.0)
    ok = frobenius(ode_propagator(model1, gen1, 10.0, 20000) - exact1) < 1e-6

    model2 = build_two_dimer(1.0, 1.0)
    gen2 = two_qubit_generator(2, 3, 1)
    exact2 = exact_propagator(model2, gen2, 10.0)
    ok = ok and frobenius(ode_propagator(model2, gen2, 10.0, 20000) - exact2) < 1e-6

    err_coarse = frobenius(ode_propagator(model1, gen1, 10.0, 500) - exact1)
    err_fine = frobenius(ode_propagator(model1, gen1, 10.0, 1000) - exact1)
    ok = ok and 8.0 < err_coarse / err_fine < 32.0
    verdict(8, "exact vs RK4 propagator within 1e-6; 4th-order step scaling", ok)


def test_criterion_09_adiabatic_convergence():
    model = build_one_dimer(1.0, 1.0)
    gen = one_qubit_generator(HADAMARD_AXIS, 3)
    gate = holonomy(connection_on_ground_space(gen, model))
    stats = {}
    for T in (10.0, 1000.0):
        window = [0.8 * T, 0.9 * T, T, 1.1 * T, 1.2 * T]
        runs = adiabatic_sweep(model, gen, gate, window)
        stats[T] = (
            np.median([1.0 - r.fidelity for r in runs]),
            np.median([r.leakage for r in runs]),
        )
    ok = stats[1000.0][0] < stats[10.0][0] / 10.0
    ok = ok and stats[1000.0][1] < stats[10.0][1] / 10.0
    verdict(9, "infidelity and leakage drop 10x from T=10 to T=1000", ok)


def test_criterion_10_controlled_z_synthesis():
    result = search_controlled_phase(np.pi / 2.0, 0.05, 10, 500)
    ok = not result.exhausted
    kp, km, n = (
        result.params["kappa_plus"],
        result.params["kappa_minus"],
        result.params["n"],
    )
    reevaluated = circular_distance(2.0 * n * coupling_strength(kp, km) - np.pi / 2.0,
                                    2.0 * np.pi)
    ok = ok and reevaluated < 0.05
    # regression: frozen winner from the first oracle run
    ok = ok and (kp, km, n) == (10, 29, 308)
    verdict(10, "controlled-Z search finds a sub-tolerance triple", ok)


def test_criterion_11_factorization_audit():
    fact = analytic_two_qubit_gate(two_qubit_generator(2, 3, 1))
    ok = np.isfinite(fact.discrepancy) and len(fact.invariants_exact) == 2
    forced = analytic_two_qubit_gate(TwoQubitLoop.with_forced_zero_coupling(2, 1))
    ok = ok and forced.discrepancy < 1e-10
    out = io.StringIO()
    code = run(["audit", "--kp", "2", "--km", "3", "--kprime", "1"], out, io.StringIO())
    payload = json.loads(out.getvalue())["outputs"]
    ok = ok and code == 0 and payload["verdict"] in ("consistent", "inconsistent")
    out = io.StringIO()
    run(["audit", "--kp", "2", "--j-zero"], out, io.StringIO())
    ok = ok and json.loads(out.getvalue())["outputs"]["verdict"] == "consistent"
    verdict(11, "factorization audit: generic report + consistent J=0 limit", ok)


def test_criterion_12_determinism(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["figure", "fig4", "--csv", str(p1)], io.StringIO(), io.StringIO()) == 0
    assert run(["figure", "fig4", "--csv", str(p2)], io.StringIO(), io.StringIO()) == 0
    verdict(12, "byte-identical fig4 CSV across runs", p1.read_bytes() == p2.read_bytes())
