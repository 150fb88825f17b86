"""Mutation suite: each entry breaks one contract, and the tests it names must catch it.

    python3 tools/mutants.py    # every mutant; exit 1 on a survivor or a stale entry

An entry is (file, exact old text, new text, test node IDs).  For each entry the tree's
``src``, ``tests`` and ``pyproject.toml`` are copied to a temporary directory, the old text
is replaced by the new one there, and the named tests run on that copy
(``python -m pytest -x``, its ``src`` on PYTHONPATH).  A mutant is killed when they fail
(pytest exit code 1).  The tool prints one line per mutant and exits 1 if any survives, if
its tests could not run (another exit code, such as a node ID that no longer exists), or if
its old text does not occur exactly once in the file: then the entry is stale, and so is
what it checks.  The source tree itself is never edited.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ADIABATIC, SYNTHESIS = "src/holonome/adiabatic.py", "src/holonome/synthesis.py"
DEFORMATION = "src/holonome/deformation.py"
MATRIX_KERNEL = "src/holonome/matrix_kernel.py"
BLOCK_SCORES = "tests/test_adiabatic.py::TestBlockScores::test_within_bound_of_dense_holonomy_fidelity"
SECTORS = "tests/test_adiabatic.py::TestSectorPropagators::"
KERNEL = "tests/test_synthesis.py::TestControlledPhaseKernel::"

# (file, old text, new text, test node IDs): one contract each.
MUTANTS = [
    # The leakage audit reads the connection's non-coding-by-coding block, not its transpose.
    ("src/holonome/holonomy.py",
     "block = conn.matrix[conn.coding_dim :, : conn.coding_dim]",
     "block = conn.matrix[: conn.coding_dim, conn.coding_dim :]",
     ["tests/test_deformation.py::TestLeakageAudit::test_lazy_fields_equal_eager_reference"]),
    # The circular distance is min(r, period - r).
    (SYNTHESIS, "np.minimum(r, period - r)", "np.minimum(r, period + r)",
     ["tests/test_synthesis.py::TestCircularDistance"]),
    # Dimer 1's |++>, |+->, |-+>, |--> take the blocks of S1 = 2, 0, 0, -2.
    (ADIABATIC, "enumerate((0, 1, 1, 2))", "enumerate((0, 1, 2, 2))",
     ["tests/test_adiabatic.py::TestSectorPropagators::test_two_dimer_within_error_bound_of_dense"]),
    # two_qubit_generator builds the coupled loop only: it refuses kappa_- = kappa_+.
    (DEFORMATION,
     "    if loop.kappa_minus == loop.kappa_plus:\n",
     "    if False:\n",
     ["tests/test_deformation.py::TestEveryConstructionChecks::"
      "test_commuting_limit_is_kept_by_replace_and_refused_by_generator"]),
    # The CLI replaces a file only once every output is written: here the --csv is
    # replaced before the --out report is written.
    ("src/holonome/cli.py",
     "            with fh:\n                staged.append((fh.name, path))\n                fh.write(text)\n",
     "            with fh:\n                fh.write(text)\n            os.replace(fh.name, path)\n",
     ["tests/test_cli.py::TestFilesystemErrors::test_failed_sweep_leaves_an_existing_csv_unchanged"]),
    # The connection's coding block is 2^(n_spins / 2) square: 2 for one dimer, 4 for two.
    ("src/holonome/holonomy.py", "coding_dim=2 ** (n_spins // 2)", "coding_dim=2",
     ["tests/test_holonomy.py::TestConnection::test_two_qubit_matches_closed_form"]),
    # A sweep whose --csv and --out name one file is refused: the report would replace the table.
    ("src/holonome/cli.py",
     '        raise DomainError("--csv and --out name the same file")\n', "        pass\n",
     ["tests/test_cli.py::TestFilesystemErrors::test_csv_and_out_on_one_file_leave_it_unchanged"]),
    # ... unless that one path is written in place, as a device or a pipe is.
    ("src/holonome/cli.py", "if (args.csv and args.out and not _in_place(args.out)\n",
     "if (args.csv and args.out\n",
     ["tests/test_cli.py::TestFilesystemErrors::test_csv_and_out_on_one_device_are_written_in_place"]),
    # _scores sums conj(Gamma) V: the imaginary part of Gamma enters with a minus sign.
    (ADIABATIC, "signs[: len(e), 1] = -1.0", "signs[: len(e), 1] = 1.0", [BLOCK_SCORES]),
    # The coding block of control T0 is dimer 1's S1 = 0 sector (entries 9..13), not S1 = -2.
    (ADIABATIC, "_score_indices([0, 1, 3, 4, 9, 10, 12, 13],",
     "_score_indices([0, 1, 3, 4, 18, 19, 21, 22],", [BLOCK_SCORES]),
    # A real iX is -Im X, not Im X.
    (ADIABATIC, "if x.real.any() else -x.imag)", "if x.real.any() else x.imag)",
     ["tests/test_adiabatic.py::TestOdePropagator::test_real_basis_matches_complex_reference"]),
    # Past the bound n, the point after q is q - d-, not q + d-.
    (SYNTHESIS, "return q - dm", "return q + dm",
     ["tests/test_synthesis.py::TestLineSearch::test_walk_and_successor_match_brute_force"]),
    # The scan's fixed-point slack covers the rounding of n T_c, up to rows / 2 units.
    (SYNTHESIS, "b = rows / 2 + 2 + 2.0", "b = 2 + 2.0",
     [KERNEL + "test_kernel_matches_plain_scan_on_a_long_column"]),
    # The fixed-point error is two-sided: |n T_c - Theta| through an int32 view.
    (SYNTHESIS, "            np.abs(est.view(np.int32), out=est.view(np.int32))\n", "",
     [KERNEL + "test_kernel_matches_plain_scan_on_any_lattice"]),
    # The fixed-point phase is measured from the target, n T_c - Theta.
    (SYNTHESIS, "            np.subtract(est, origin, out=est)\n", "",
     [KERNEL + "test_kernel_matches_plain_scan_on_any_lattice"]),
    # A NaN axis fails the unit-norm test.
    (DEFORMATION, "if not abs(math.hypot(nx, ny, nz) - 1.0) <= 1e-12:",
     "if abs(math.hypot(nx, ny, nz) - 1.0) > 1e-12:",
     ["tests/test_deformation.py::TestOneQubitGenerator::test_rejects_non_finite_axis"]),
    # A one-dimer model is built at omega = J1 exactly, or not at all.
    ("src/holonome/spin_model.py", "    if omega != j1:\n", "    if False:\n",
     ["tests/test_spin_model.py::TestOneDimer::test_rejects_omega_one_ulp_off_j1"]),
    # holonomy_fidelity's leakage keeps the rows that the ground basis spans: here their mirror.
    (ADIABATIC, "ground_basis(model).any(axis=1)[:, None]",
     "ground_basis(model).any(axis=1)[::-1, None]", [BLOCK_SCORES]),
    # Within dimer 1's sector S1 = 2 s the inter-dimer coupling adds 2 J s to the tilt.
    (DEFORMATION, "self.coupling_j * (2.0 * s)", "self.coupling_j * s",
     [SECTORS + "test_two_dimer_within_error_bound_of_dense"]),
    # The triplet's tilt is 2 Omega n_z.
    (DEFORMATION, "tilt = self.omega * (2.0 * nz)", "tilt = self.omega * nz",
     [SECTORS + "test_one_dimer_within_error_bound_of_dense"]),
    # _walk's first index past the interval is (x - v - 1) // y + 1.
    (SYNTHESIS, "i = (x - v - 1) // y + 1", "i = (x - v) // y + 1",
     ["tests/test_synthesis.py::TestLineSearch::test_walk_and_successor_match_brute_force"]),
    # A two-qubit loop closes only for kappa_- < 3 kappa_+, strictly.
    (DEFORMATION, "if not km < 3 * kp:", "if not km <= 3 * kp:",
     ["tests/test_deformation.py::TestTwoQubitGenerator::test_rejects_violating_constraints"]),
    # The one-qubit gate's off-diagonal is phase * (-i sin theta (m_x -+ i m_y)).
    ("src/holonome/holonomy.py", "[[phase * a, phase * b], [phase * c, phase * d]]",
     "[[phase * a, -phase * b], [phase * c, phase * d]]",
     ["tests/test_holonomy.py::TestOneQubitGate::test_scalar_gate_within_4u_of_array_form"]),
    # The unitarity defect reads (U^dag U)_01 = conj(a) b + conj(c) d.
    (SYNTHESIS, "off = abs(a.conjugate() * b + c.conjugate() * d)",
     "off = abs(a * b + c.conjugate() * d)",
     ["tests/test_synthesis.py::TestScalarSynthesis::test_unitarity_decision_matches_is_unitary"]),
    # z-y-z angles: alpha = s + d and gamma = s - d, not the other way round.
    (SYNTHESIS, "return s + h, beta, s - h", "return s - h, beta, s + h",
     ["tests/test_synthesis.py::TestSynthesizeSu2::test_euler_angles_match_array_form"]),
    # The phase-invariant distance divides by sqrt(2 n), not by the 2 x 2 case's 2.
    (MATRIX_KERNEL, "root = math.sqrt(2.0 * math.isqrt(len(u)))", "root = 2.0",
     ["tests/test_matrix_kernel.py::TestPhaseInvariantDistance::"
      "test_haar_pairs_match_array_reference"]),
    # exp(-i h) = V e^{-i lam} V^dag: the conjugate matters for a complex V.
    (MATRIX_KERNEL, "@ evecs.conj().swapaxes(-1, -2)", "@ evecs.swapaxes(-1, -2)",
     ["tests/test_matrix_kernel.py::TestExpMinusI"]),
    # Figure rows hold Python floats, which the emitter's exact-type table covers.
    (SYNTHESIS, "js = [float(coupling_strength(kp, km))", "js = [(coupling_strength(kp, km))",
     ["tests/test_cli.py::TestEmitterDispatch::test_figure_rows_hold_only_table_types"]),
    # A non-finite float has no JSON or CSV form.
    ("src/holonome/reporting.py",
     "    if not math.isfinite(x):\n        raise DomainError(f\"cannot report the non-finite value {x!r}\")\n",
     "", ["tests/test_cli.py::TestNonFiniteOutput::test_format_float_rejects_non_finite"]),
]


def run_mutant(path: str, old: str, new: str, tests: list) -> str:
    """'killed', 'SURVIVED', 'STALE' (the old text is not there exactly once) or 'ERROR'."""
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        return "STALE"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        (work / path).write_text(text.replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=work, capture_output=True, text=True, check=False,
            env=dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1"))
    return {0: "SURVIVED", 1: "killed"}.get(proc.returncode, f"ERROR (pytest exit {proc.returncode})")


def main() -> int:
    bad = []
    for path, old, new, tests in MUTANTS:
        verdict = run_mutant(path, old, new, tests)
        label = f"{path}: {old.strip()!r} -> {new.strip()!r}"
        print(f"{verdict:9s} {label}", flush=True)
        if verdict != "killed":
            bad.append(f"{verdict} {label}")
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    for line in bad:
        print("not killed:", line)
    return int(bool(bad))


if __name__ == "__main__":
    sys.exit(main())
