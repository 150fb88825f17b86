"""CLI surface: exit codes, report determinism, CSV schemas and round-trips."""

import argparse
import dataclasses
import enum
import io
import json
import os
import re
import stat
import sys
import warnings

import numpy as np
import pytest

from holonome import __version__, adiabatic, cli, holonomy, reporting, spin_model, synthesis
from holonome.cli import run
from holonome.errors import DomainError
from holonome.reporting import csv_lines


def parse_csv(text: str):
    """Round-trip parser for emitted CSVs: header plus typed rows."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(int(cell))
            except ValueError:
                cells.append(float(cell))
        rows.append(tuple(cells))
    return header, rows


def tree_snapshot(root):
    """Every path under root, with the bytes of each file (None for a directory)."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_missing_arguments_is_usage_error(self):
        code, _, _ = invoke(["one-qubit"])
        assert code == 2

    def test_domain_error_exit_one(self):
        code, _, err = invoke(["two-qubit", "--kp", "1", "--km", "3", "--kprime", "1"])
        assert code == 1
        assert "3 kappa_plus" in err

    @pytest.mark.parametrize(
        "windings,message",
        [
            (["--kp", "0"], "kappa_plus must be in [1, 1000000]"),
            (["--kp", "-3"], "kappa_plus must be in [1, 1000000]"),
            (["--kp", "2000000"], "kappa_plus must be in [1, 1000000]"),
            (["--kp", "2", "--kprime", "0"], "kappa_prime must be in [1, 1000000]"),
        ],
    )
    def test_j_zero_audit_rejects_invalid_windings(self, windings, message):
        code, out, err = invoke(["audit", *windings, "--j-zero"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_trivial_axis_exit_one(self):
        code, _, err = invoke(["one-qubit", "--n", "0,0,1", "--kappa", "2"])
        assert code == 1
        assert "trivial" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--target", "hadamard", "--kappa-max", "0"],
            ["--target", "hadamard", "--eps", "inf"],
            ["--target", "cz", "--kp-max", "0"],
            ["--target", "cz", "--n-max", "0"],
            ["--target", "cz", "--eps", "nan"],
            ["--target", "rx", "--theta", "1.0", "--kappa-max", "0"],
            ["--target", "ry", "--theta", "1.0", "--kappa-max", "-3"],
            ["--target", "rx", "--theta", "1.0", "--eps", "nan"],
            ["--target", "rx", "--theta", "nan"],
            ["--target", "cphase", "--theta", "inf"],
            ["--target", "cz", "--kp-max", "1001"],
            ["--target", "cz", "--kp-max", "1000", "--n-max", "1000000"],
        ],
    )
    def test_invalid_search_input_exit_one(self, argv):
        code, out, err = invoke(["search", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("t_list", ["inf", "nan", "1,inf"])
    def test_non_finite_sweep_time_exit_one(self, t_list):
        code, out, err = invoke(["sweep", "--n=1,0,0", "--kappa", "1", "--T", t_list])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("t_list", ["1e17", "1e200", "10,-1e200"])
    def test_sweep_time_beyond_limit_exit_one(self, t_list):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["sweep", "--n=1,0,0", "--kappa", "1", "--T", t_list])
        assert code == 1
        assert out == ""
        assert err.startswith("error: |T| must be at most 2.01") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["one-qubit", "--n", "nan,0,0", "--kappa", "1"],
            ["one-qubit", "--n=1,inf,0", "--kappa", "1"],
            ["sweep", "--n=0,nan,1", "--kappa", "1", "--T", "1"],
            ["sweep", "--kp", "2", "--T", "1"],
            ["sweep", "--n=1,0,0", "--T", "1"],
        ],
    )
    def test_non_finite_axis_or_missing_winding_exit_one(self, argv):
        code, out, err = invoke(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_success(self):
        code, out, _ = invoke(["one-qubit", "--n", "1,0,0", "--kappa", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "holonomy"


class TestControlledPhaseTargetRange:
    """Any finite target is searched: at |theta| = 1.7e308 every lattice angle is absorbed,
    so every point ties and the first wins."""

    GATE = ('"gate":{"imag":[[0,0,0,0],[0,0,0,0],[0,0,-0.64883836667811601,0],'
            '[0,0,0,0.64883836667811601]],"real":[[1,0,0,0],[0,1,0,0],'
            '[0,0,-0.76092626050523104,0],[0,0,0,-0.76092626050523104]]}')

    @pytest.mark.parametrize("sign,distance", [("", "0.78268981738689036"),
                                               ("-", "0.99941399634934935")])
    def test_largest_targets(self, sign, distance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["search", "--target", "cphase", f"--theta={sign}1.7e308",
                                     "--eps", "1e-3", "--kp-max", "12", "--n-max", "500"])
        assert (code, err) == (0, "")
        assert out == (
            '{"deterministic":true,"inputs":{"eps":0.001,"kp_max":12,"n_max":500,'
            f'"target":"cphase","theta":{sign}1.6999999999999999e+308}},"kind":"search",'
            f'"outputs":{{"angle_error":1.0128362867734282,"exhausted":true,{self.GATE},'
            f'"gate_distance":{distance},"params":{{"kappa_minus":2,"kappa_plus":1,"n":1}}}},'
            f'"tool_version":"{__version__}"}}\n')


class TestReports:
    def test_one_qubit_report_contents(self, tmp_path):
        out_file = tmp_path / "gate.json"
        code, _, _ = invoke(
            ["one-qubit", "--n", "1,0,0", "--kappa", "1", "--out", str(out_file)]
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        outputs = report["outputs"]
        assert abs(outputs["theta_kappa"] - np.sqrt(2) * np.pi) < 1e-12
        assert outputs["closure_residual"] < 1e-10
        assert outputs["analytic_vs_numeric_distance"] < 1e-10
        assert outputs["leakage_audit_passed"] is True

    def test_two_qubit_report_contents(self):
        code, out, _ = invoke(["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1"])
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert abs(outputs["coupling_j"] - np.pi * np.sqrt(5) / (2 * np.sqrt(2))) < 1e-12
        assert outputs["factorization_discrepancy"] > 1e-3

    def test_report_byte_determinism(self):
        _, first, _ = invoke(["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1"])
        _, second, _ = invoke(["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1"])
        assert first == second

    def test_audit_verdicts(self):
        _, out, _ = invoke(["audit", "--kp", "2", "--km", "3", "--kprime", "1"])
        payload = json.loads(out)["outputs"]
        assert payload["verdict"] == "inconsistent"
        assert payload["discrepancy"] > 1e-8
        _, out, _ = invoke(["audit", "--kp", "2", "--j-zero"])
        payload = json.loads(out)["outputs"]
        assert payload["verdict"] == "consistent"
        assert payload["discrepancy"] < 1e-10
        g1 = payload["invariants_exact"]["g1"]
        assert abs(complex(g1["re"], g1["im"]) - 1.0) < 1e-9  # local gate
        assert abs(payload["invariants_exact"]["g2"] - 3.0) < 1e-9

    @pytest.mark.parametrize(
        "argv",
        [
            ["two-qubit", "--kp", "333333", "--km", "500000", "--kprime", "1"],
            ["audit", "--kp", "300000", "--km", "500000"],
            ["audit", "--kp", "1000000", "--j-zero"],
        ],
    )
    def test_large_windings_report(self, argv):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        outputs = json.loads(out)["outputs"]
        if argv[0] == "audit":
            assert 0.0 <= outputs["block_residual"] < 1e-8
        if "--j-zero" in argv:
            assert outputs["verdict"] == "consistent"

    def test_two_qubit_request_skips_invariants(self, monkeypatch):
        calls, original = [], holonomy.local_invariants

        def counted(u):
            calls.append(u)
            return original(u)

        monkeypatch.setattr(holonomy, "local_invariants", counted)
        assert invoke(["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1"])[0] == 0
        assert calls == []
        assert invoke(["audit", "--kp", "2", "--km", "3", "--kprime", "1"])[0] == 0
        assert len(calls) == 2

    def test_audit_requires_km_or_j_zero(self):
        code, _, err = invoke(["audit", "--kp", "2"])
        assert code == 1
        assert "--km" in err

    def test_search_cz(self):
        _, out, _ = invoke(["search", "--target", "cz"])
        payload = json.loads(out)["outputs"]
        assert not payload["exhausted"]
        assert payload["angle_error"] < 0.05

    def test_search_rx_requires_theta(self):
        code, _, _ = invoke(["search", "--target", "rx"])
        assert code == 1

    def test_config_option_is_gone(self):
        code, out, _ = invoke(["one-qubit", "--n", "1,0,0", "--kappa", "1", "--config", "c.json"])
        assert code == 2
        assert out == ""


class TestFilesystemErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["one-qubit", "--n", "1,0,0", "--kappa", "1", "--out"],
            ["figure", "fig2", "--csv"],
            ["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1", "--csv"],
        ],
    )
    def test_missing_directory_exit_one(self, tmp_path, argv):
        path = tmp_path / "missing" / "x.out"
        code, out, err = invoke([*argv, str(path)])
        assert code == 1
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
        assert not path.parent.exists()

    @pytest.mark.parametrize(
        "csv,out,made",
        [
            ("rows.csv", "missing/r.json", {}),
            ("missing/rows.csv", "r.json", {}),
            ("missing/rows.csv", "r.json", {"r.json": "before\n"}),
            ("rows.csv", "r.json", {"rows.csv": None}),  # None: a directory
            ("rows.csv", "r.json", {"r.json": None}),
        ],
    )
    def test_failed_sweep_leaves_no_file(self, tmp_path, csv, out, made):
        # A sweep that exits 1 creates and changes no file, whichever of its two writes fails.
        for name, text in made.items():
            if text is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(text)
        before = tree_snapshot(tmp_path)
        code, stdout, err = invoke(["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1,10",
                                    "--csv", str(tmp_path / csv), "--out", str(tmp_path / out)])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert tree_snapshot(tmp_path) == before

    def test_failed_sweep_leaves_an_existing_csv_unchanged(self, tmp_path):
        csv = tmp_path / "rows.csv"
        csv.write_text("before\n")
        argv = ["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1,10", "--csv", str(csv)]
        assert invoke([*argv, "--out", str(tmp_path / "missing" / "r.json")])[0] == 1
        assert csv.read_text() == "before\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

    def test_a_pipe_is_written_in_place(self, tmp_path):
        # A path that is not a regular file is written through, never replaced by a file.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            argv = ["one-qubit", "--n", "1,0,0", "--kappa", "1"]
            assert invoke([*argv, "--out", str(fifo)])[:2] == (0, "")
            assert os.read(reader, 1 << 16).decode() == invoke(argv)[1]
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    @pytest.mark.parametrize("csv", ["r.json", "./r.json", "link.json"])
    def test_csv_and_out_on_one_file_leave_it_unchanged(self, tmp_path, monkeypatch, csv):
        # Staged to one path, the report would replace the table: the request is refused.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text("before\n")
        (tmp_path / "link.json").symlink_to("r.json")
        before = tree_snapshot(tmp_path)
        code, out, err = invoke(["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1,10",
                                 "--csv", csv, "--out", "r.json"])
        assert (code, out, err) == (1, "", "error: --csv and --out name the same file\n")
        assert tree_snapshot(tmp_path) == before
        assert (tmp_path / "link.json").is_symlink()

    def test_csv_and_out_on_one_device_are_written_in_place(self):
        argv = ["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1",
                "--csv", os.devnull, "--out", os.devnull]
        assert invoke(argv) == (0, "", "")


def parser_options():
    """(subcommand, option) for every option of every subcommand but -h, --out and --csv, a
    positional argument by its name."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {(name, (action.option_strings or [action.dest])[-1])
            for name, p in sub.choices.items() for action in p._actions
            if action.dest not in ("help", "out", "csv")}


class TestEveryOptionIsRead:
    """No option silently does nothing: each changes a report's outputs, or is rejected."""

    # (subcommand, option): a base request and two argument lists whose reports' outputs
    # differ, or a base request and one argument list that turns its exit 0 into exit 1.
    ONE, TWO = ["--n", "1,0,0", "--kappa", "1"], ["--kp", "2", "--km", "3"]
    EFFECTS = {
        ("one-qubit", "--n"): (["one-qubit", "--kappa", "1"], ["--n", "1,0,0"], ["--n", "0,1,0"]),
        ("one-qubit", "--kappa"): (["one-qubit", "--n", "1,0,0"], ["--kappa", "1"],
                                   ["--kappa", "2"]),
        ("two-qubit", "--kp"): (["two-qubit", "--km", "5", "--kprime", "1"], ["--kp", "2"],
                                ["--kp", "3"]),
        ("two-qubit", "--km"): (["two-qubit", "--kp", "2", "--kprime", "1"], ["--km", "3"],
                                ["--km", "5"]),
        ("two-qubit", "--kprime"): (["two-qubit", *TWO], ["--kprime", "1"], ["--kprime", "2"]),
        ("search", "--target"): (["search"], ["--target", "cz"], ["--target", "hadamard"]),
        ("search", "--theta"): (["search", "--target", "rx"], ["--theta", "1"],
                                ["--theta", "2"]),
        ("search", "--eps"): (["search", "--target", "hadamard"], ["--eps", "0.1"],
                              ["--eps", "1e-4"]),
        ("search", "--kappa-max"): (["search", "--target", "rx", "--theta", "1", "--eps", "1e-9"],
                                    ["--kappa-max", "10"], ["--kappa-max", "100"]),
        ("search", "--kp-max"): (["search", "--target", "cz", "--eps", "1e-9"],
                                 ["--kp-max", "2"], ["--kp-max", "5"]),
        ("search", "--n-max"): (["search", "--target", "cz", "--eps", "1e-9"],
                                ["--n-max", "2"], ["--n-max", "50"]),
        ("sweep", "--T"): (["sweep", *ONE], ["--T", "1"], ["--T", "10"]),
        ("sweep", "--n"): (["sweep", "--kappa", "1", "--T", "1"], ["--n", "1,0,0"],
                           ["--n", "0.6,0,0.8"]),
        ("sweep", "--kappa"): (["sweep", "--n", "1,0,0", "--T", "1"], ["--kappa", "1"],
                               ["--kappa", "2"]),
        ("sweep", "--kp"): (["sweep", "--km", "5", "--T", "1"], ["--kp", "2"], ["--kp", "3"]),
        ("sweep", "--km"): (["sweep", "--kp", "2", "--T", "1"], ["--km", "3"], ["--km", "5"]),
        ("sweep", "--kprime"): (["sweep", *TWO, "--T", "1"], ["--kprime", "1"],
                                ["--kprime", "2"]),
        ("sweep", "--j1"): (["sweep", *ONE, "--T", "1"], ["--j1", "1"], ["--j1", "2"]),
        ("sweep", "--j2"): (["sweep", *TWO, "--T", "1"], ["--j2", "1"], ["--j2", "2"]),
        ("figure", "which"): (["figure"], ["fig2"], ["fig4"]),
        ("figure", "--caption-convention"): (["figure", "fig3"], [], ["--caption-convention"]),
        ("audit", "--kp"): (["audit", "--km", "5"], ["--kp", "2"], ["--kp", "3"]),
        ("audit", "--km"): (["audit", "--kp", "2"], ["--km", "3"], ["--km", "5"]),
        ("audit", "--kprime"): (["audit", *TWO], ["--kprime", "1"], ["--kprime", "2"]),
        ("audit", "--j-zero"): (["audit", *TWO], ["--j-zero"]),
    }

    def test_every_option_has_an_entry(self):
        assert parser_options() == set(self.EFFECTS)

    @pytest.mark.parametrize("key", sorted(EFFECTS), ids=" ".join)
    def test_option_is_read(self, key):
        base, *variants = self.EFFECTS[key]
        results = [invoke(base + v) for v in variants]
        if len(variants) == 1:
            assert invoke(base)[0] == 0
            [(code, out, err)] = results
            assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
            return
        assert [(code, err) for code, _, err in results] == [(0, ""), (0, "")]
        first, second = (json.loads(out)["outputs"] for _, out, _ in results)
        assert first != second


class TestNonFiniteCouplings:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1", "--j1", "nan"], "j1"),
            (["sweep", "--kp", "2", "--km", "3", "--T", "1", "--j2", "nan"], "j2"),
            (["sweep", "--kp", "2", "--km", "3", "--T", "1", "--j1=-inf"], "j1"),
            (["sweep", "--kp", "2", "--km", "3", "--T", "1", "--j2", "inf"], "j2"),
            (["sweep", "--kp", "2", "--km", "3", "--T", "1", "--j1", "1e200"], "j1"),
            (["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1", "--j1", "1e200"], "j1"),
            (["sweep", "--kp", "2", "--km", "3", "--T", "1", "--j2", "1e200"], "j2"),
            (["sweep", "--kp", "2", "--km", "3", "--T", "1", "--j2", "1.0000001e150"], "j2"),
            # An axis whose norm overflows is rejected without an overflow warning.
            (["one-qubit", "--n", "1e200,0,0", "--kappa", "1"], "axis"),
            (["one-qubit", "--n", "1e308,1e308,0", "--kappa", "1"], "axis"),
            (["sweep", "--n", "1e200,0,0", "--kappa", "1", "--T", "1"], "axis"),
            (["sweep", "--n", "1e308,1e308,0", "--kappa", "1", "--T", "1"], "axis"),
        ],
    )
    def test_exit_one_without_warning(self, argv, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {name} ") and err.count("\n") == 1

    def test_largest_coupling_is_accepted(self):
        # The time bound shrinks as 1 / J: about 7.6e-142 here.
        argv = ["sweep", "--kp", "2", "--km", "3", "--kprime", "1", "--T", "1e-142",
                "--j1", "1e150", "--j2", "1e150"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        [[t, fidelity, leakage]] = json.loads(out)["outputs"]["rows"]
        assert t == 1e-142 and 0.0 <= fidelity <= 1.0 and 0.0 <= leakage <= 1.0


class TestCouplingRange:
    """Every coupling in (0, MAX_COUPLING] builds a sweep's model at omega = J.  The gate
    commands take no coupling: their loop alone fixes the gate."""

    @pytest.mark.parametrize("c", ["5e-324", "1e-320", "1e-300", "1e150"])
    @pytest.mark.parametrize("request_argv", [
        ["sweep", "--n", "1,0,0", "--kappa", "1", "--j1", "{c}", "--T", "1,10"],
        ["sweep", "--kp", "2", "--km", "3", "--j1", "{c}", "--j2", "{c}", "--T", "1,10"],
    ])
    def test_exit_zero_or_the_time_bound_without_warning(self, request_argv, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke([a.format(c=c) for a in request_argv])
        if c == "1e150":  # _t_max is about 2e-141 here
            assert (code, out) == (1, "")
            assert err.startswith("error: |T| must be at most ") and err.count("\n") == 1
            return
        assert (code, err) == (0, "")
        assert len(json.loads(out)["outputs"]["rows"]) == 2

    @pytest.mark.parametrize("c", ["5e-324", "1", "1e150"])
    @pytest.mark.parametrize("request_argv", [
        ["one-qubit", "--n", "1,0,0", "--kappa", "1", "--j1", "{c}"],
        ["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1", "--j1", "{c}"],
        ["two-qubit", "--kp", "3", "--km", "6", "--kprime", "2", "--j2", "{c}"],
    ])
    def test_gate_coupling_options_are_gone(self, request_argv, c):
        code, out, err = invoke([a.format(c=c) for a in request_argv])
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(request_argv[-2:]).format(c=c)}" in err

    def test_j1_alone_sets_the_one_dimer_working_point(self):
        # omega is J1: --j1 2 once left omega at its default 1 and exited 1.
        argv = ["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1,10"]
        code, out, err = invoke([*argv, "--j1", "2"])
        assert (code, err) == (0, "")
        assert json.loads(out)["outputs"] != json.loads(invoke([*argv, "--j1", "1"])[1])["outputs"]

    def test_omega_option_is_gone(self):
        code, out, err = invoke(["one-qubit", "--n", "1,0,0", "--kappa", "1", "--omega", "1"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --omega 1" in err


class TestRequestWork:
    """A sweep builds its model without an eigensolver; a gate request builds no model and
    reads only the audit verdict.

    A model derives its fields when they are first read, so the spied window reads all of them.
    """

    def test_models_use_no_eigh_or_kron(self, monkeypatch):
        calls = []
        building = []
        for module, name in ((np.linalg, "eigh"), (np, "kron")):
            def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
                if building:
                    calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        for name in ("build_one_dimer", "build_two_dimer"):
            def build(*args, _original=getattr(spin_model, name)):
                building.append(True)
                try:
                    model = _original(*args)
                    for field in ("diagonal", "hamiltonian_norm", "ground_energy"):
                        getattr(model, field)
                    return model
                finally:
                    building.pop()
            monkeypatch.setattr(spin_model, name, build)
        assert invoke(["sweep", "--kp", "2", "--km", "3", "--T", "1"])[0] == 0
        assert invoke(["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1"])[0] == 0
        assert calls == []
        np.linalg.eigh(np.eye(2))  # the spies do see calls outside the builders
        building.append(True)
        np.kron(np.eye(2), np.eye(2))
        assert calls == ["kron"]

    @pytest.mark.parametrize("argv", [
        ["one-qubit", "--n", "0.6,0,0.8", "--kappa", "3"],
        ["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1"],
    ])
    def test_one_connection_per_gate_request(self, monkeypatch, argv):
        # The leakage audit reads its block off the request's connection: one connection from
        # the loop alone, no other product over the ground basis in any module, and no model.
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("holonome.")]:
            for name in ("connection_on_ground_space", "_connection", "ground_basis",
                         "_ground_columns"):
                if hasattr(module, name):
                    def spy(*args, _original=getattr(module, name), _name=name):
                        calls.append(_name)
                        return _original(*args)
                    monkeypatch.setattr(module, name, spy)

        def post_init(model, _original=spin_model.SpinModel.__post_init__):
            calls.append("SpinModel")
            _original(model)
        monkeypatch.setattr(spin_model.SpinModel, "__post_init__", post_init)
        code, out, _ = invoke(argv)
        assert code == 0 and json.loads(out)["outputs"]["leakage_audit_passed"] is True
        assert calls == ["_connection", "_ground_columns"]
        spin_model.build_one_dimer(1.0, 1.0)  # the spy does see a model built
        assert calls[-1] == "SpinModel"


class TestUsageStreams:
    """Usage errors and help go to the streams passed to ``run``."""

    def test_usage_error_lands_in_given_stream(self, capsys):
        code, out, err = invoke(["search", "--target", "cphase", "--kp-max", "oops"])
        assert code == 2
        assert out == ""
        assert err.startswith("usage: holonome search")
        assert "invalid int value: 'oops'" in err
        assert capsys.readouterr() == ("", "")

    def test_help_lands_in_given_stream(self, capsys):
        code, out, err = invoke(["search", "--help"])
        assert code == 0
        assert out.startswith("usage: holonome search") and err == ""
        assert capsys.readouterr() == ("", "")


class TestParserReuse:
    # Later requests rely on defaults that earlier ones set explicitly, so a
    # value carried over from one request to the next changes their bytes.
    SEQUENCE = [
        ["one-qubit", "--n", "1,0,0", "--kappa", "2"],
        ["search", "--target", "cz"],
        ["search", "--target", "cphase", "--theta", "1", "--kp-max", "6", "--eps", "0.1"],
        ["sweep", "--kp", "2", "--km", "3", "--kprime", "2", "--j1", "2", "--j2", "2",
         "--T", "10"],
        ["search", "--target", "cphase", "--kp-max", "oops"],
        ["search", "--target", "cz"],
        ["search", "--target", "rx", "--theta", "0.5"],
        ["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "10"],
        ["audit", "--kp", "2"],
        ["one-qubit", "--n", "1,0,0", "--kappa", "2"],
    ]

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_interleaved_requests_match_fresh_parser(self):
        shared = [invoke(argv) for argv in self.SEQUENCE]
        for argv, got in zip(self.SEQUENCE, shared):
            cli._parser.cache_clear()
            assert got == invoke(argv), argv
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 0, 0, 2, 0, 0, 0, 1, 0]
        assert shared[0] == shared[-1]
        assert shared[1] == shared[5]


class TestCsv:
    def test_figure_schemas(self, tmp_path):
        expectations = {
            "fig2": "kappa,theta,sin_theta",
            "fig3": "kappa,theta_mod_2pi,cos_theta,sin_theta",
            "fig4": "kappa_plus,kappa_minus,J,two_J_mod_2pi,cos_2J,sin_2J",
        }
        for which, header in expectations.items():
            path = tmp_path / f"{which}.csv"
            code, _, _ = invoke(["figure", which, "--csv", str(path)])
            assert code == 0
            text = path.read_text()
            assert text.split("\n")[0] == header
            assert "\r" not in text

    def test_fig2_row_count(self, tmp_path):
        path = tmp_path / "fig2.csv"
        invoke(["figure", "fig2", "--csv", str(path)])
        _, rows = parse_csv(path.read_text())
        assert len(rows) == 21

    def test_csv_round_trip(self):
        header = ["a", "b"]
        rows = [(1, 0.1 + 0.2), (2, np.pi), (3, 1e-17)]
        _, parsed = parse_csv(csv_lines(header, rows))
        for (i, x), (j, y) in zip(rows, parsed):
            assert i == j and x == y

    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = invoke(
            ["sweep", "--T", "10,100", "--n", "1,0,0", "--kappa", "1",
             "--csv", str(path)]
        )
        assert code == 0
        header, rows = parse_csv(path.read_text())
        assert header == ["T", "fidelity", "leakage"]
        assert len(rows) == 2
        assert rows[1][1] > rows[0][1]  # fidelity improves with T

    def test_a_symlinked_csv_is_replaced_not_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "rows.csv"
        target.write_text("before\n")
        link.symlink_to(target)
        assert invoke(["figure", "fig2", "--csv", str(link)])[:2] == (0, "")
        assert target.read_text() == "before\n" and not link.is_symlink()
        assert link.read_text().startswith("kappa,theta,sin_theta\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "target.csv"]

    def test_longest_file_name(self, tmp_path):
        path = tmp_path / ("x" * 251 + ".csv")  # 255 bytes, the usual NAME_MAX
        assert invoke(["figure", "fig2", "--csv", str(path)])[:2] == (0, "")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_figure_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(["figure", "fig4", "--csv", str(p1)])
        invoke(["figure", "fig4", "--csv", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestUnusedOptions:
    """An option the request would not read is rejected by name, before any work."""

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["search", "--target", "cz", "--theta", "1.0"], "--theta"),
            (["search", "--target", "cz", "--theta", "0"], "--theta"),
            (["search", "--target", "cz", "--kappa-max", "500"], "--kappa-max"),
            (["search", "--target", "hadamard", "--theta", "1"], "--theta"),
            (["search", "--target", "hadamard", "--kp-max", "3"], "--kp-max"),
            (["search", "--target", "hadamard", "--n-max", "3"], "--n-max"),
            (["search", "--target", "cphase", "--theta", "1", "--kappa-max", "10"], "--kappa-max"),
            (["search", "--target", "rx", "--theta", "1", "--kp-max", "3"], "--kp-max"),
            (["search", "--target", "ry", "--theta", "1", "--n-max", "500"], "--n-max"),
            (["figure", "fig2", "--csv", "f.csv", "--out", "f.json"], "--out"),
            (["figure", "fig2", "--caption-convention"], "--caption-convention"),
            (["figure", "fig4", "--caption-convention"], "--caption-convention"),
            (["sweep", "--n", "1,0,0", "--kappa", "1", "--kp", "2", "--km", "3", "--j2", "7",
              "--T", "1"], "--kp"),
            (["sweep", "--n", "1,0,0", "--kappa", "1", "--km", "3", "--T", "1"], "--km"),
            (["sweep", "--n", "1,0,0", "--kappa", "1", "--kprime", "1", "--T", "1"], "--kprime"),
            (["sweep", "--n", "1,0,0", "--kappa", "1", "--j2", "1", "--T", "1"], "--j2"),
            (["sweep", "--kp", "2", "--km", "3", "--kappa", "4", "--T", "1"], "--kappa"),
            (["audit", "--kp", "2", "--km", "5", "--j-zero"], "--km"),
        ],
    )
    def test_exit_one_naming_the_option(self, tmp_path, monkeypatch, argv, option):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {option} is not used ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,inputs",
        [
            (["search", "--target", "cz"], {"kp_max": 10, "n_max": 500}),
            (["search", "--target", "hadamard"], {"kappa_max": 500}),
            (["search", "--target", "rx", "--theta", "1"], {"kappa_max": 500}),
            (["sweep", "--kp", "2", "--km", "3", "--T", "1"],
             {"kappa_prime": 1, "j1": 1.0, "j2": 1.0}),
            (["figure", "fig3", "--caption-convention"], {"caption_convention": True}),
            (["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1"], {"j1": 1.0}),
        ],
    )
    def test_defaults_filled_where_used(self, argv, inputs):
        code, out, _ = invoke(argv)
        assert code == 0
        reported = json.loads(out)["inputs"]
        assert {k: reported[k] for k in inputs} == inputs

    @pytest.mark.parametrize("windings", [["--n", "1,0,0", "--kappa", "1"],
                                          ["--kp", "2", "--km", "3"]])
    def test_sweep_echoes_the_couplings_it_used(self, windings):
        # Reports whose fidelities differ must not echo the same inputs.
        argv = ["sweep", *windings, "--T", "1"]
        one, two = (json.loads(invoke([*argv, "--j1", j])[1]) for j in ("1", "2"))
        assert one["outputs"] != two["outputs"]
        assert (one["inputs"]["j1"], two["inputs"]["j1"]) == (1.0, 2.0)
        assert {**one["inputs"], "j1": 2.0} == two["inputs"]

    def test_sweep_j2_default_matches_explicit(self):
        argv = ["sweep", "--kp", "2", "--km", "3", "--T", "1,10"]
        assert invoke(argv) == invoke(argv + ["--j2", "1.0", "--kprime", "1"])


class TestNonFiniteOutput:
    def test_format_float_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="non-finite"):
                reporting.format_float(bad)
        assert reporting.format_float(0.1) == "0.10000000000000001"

    def test_json_and_csv_reject_nan(self):
        with pytest.raises(DomainError):
            reporting.dumps_report({"x": [1.0, float("nan")]})
        with pytest.raises(DomainError):
            reporting.dumps_report({"z": complex(1.0, np.inf)})
        with pytest.raises(DomainError):
            reporting.csv_lines(["a"], [(np.nan,)])

    @pytest.mark.parametrize("bad", ["fidelity", "leakage"])
    def test_non_finite_sweep_writes_nothing(self, tmp_path, monkeypatch, bad):
        # Both outputs are rendered before any write: a NaN in either leaves every path as it was.
        real = adiabatic.adiabatic_sweep
        monkeypatch.setattr(adiabatic, "adiabatic_sweep", lambda *a: [
            dataclasses.replace(point, **{bad: np.nan}) for point in real(*a)])
        (tmp_path / "rows.csv").write_text("before\n")
        before = tree_snapshot(tmp_path)
        code, out, err = invoke(["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1",
                                 "--csv", str(tmp_path / "rows.csv"),
                                 "--out", str(tmp_path / "r.json")])
        assert (code, out) == (1, "") and err.startswith("error: cannot report the non-finite")
        assert tree_snapshot(tmp_path) == before


def _float_arrays():
    """Float arrays of every shape the reports use, and the corner values."""
    rng = np.random.default_rng(1729)
    corners = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1, 1.0,
                        -1.0, 1e16, 123456789012345678.0, np.pi, 1e-17, 2.0**-53])
    arrays = [corners, corners.reshape(1, -1), corners[:12].reshape(3, 2, 2),
              np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3)),
              np.array([0.1, -0.0, 3.4e38, 1e-45], dtype=np.float32), np.array([[7.0]])]
    for shape in ((4, 4), (2, 2), (16,), (3, 5)):
        scale = 10.0 ** rng.integers(-300, 300, size=shape)
        arrays.append(rng.normal(size=shape) * scale)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    arrays.extend(reporting.matrix_payload(m).values())
    return arrays


class TestFlatEmitter:
    @pytest.mark.parametrize("array", _float_arrays())
    def test_bytes_match_element_emitter(self, array):
        assert reporting._emit(array) == reporting._emit(array.tolist())
        payload = {"m": array, "nested": [array]}
        listed = {"m": array.tolist(), "nested": [array.tolist()]}
        assert reporting.dumps_report(payload) == reporting.dumps_report(listed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_by_value(self, bad):
        array = np.array([[1.0, 2.0], [bad, np.nan]])
        with pytest.raises(DomainError, match=f"non-finite value {float(bad)!r}$"):
            reporting._emit(array)
        payload = reporting.matrix_payload(np.array([[1.0, complex(0.0, bad)]]))
        with pytest.raises(DomainError):
            reporting.dumps_report(payload)


def listing_emit(value) -> str:
    """Reference: the isinstance chain the report emitter replaced, one json.dumps per key."""
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(str(k))}:{listing_emit(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(listing_emit(v) for v in value) + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return reporting.format_float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return listing_emit({"re": float(value.real), "im": float(value.imag)})
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.ndim:
            return reporting._emit_floats(value)
        return listing_emit(value.tolist())
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def request_corpus(seed=20261018):
    """Seeded CLI requests of every subcommand and search target."""
    rng = np.random.default_rng(seed)

    def axis():
        v = rng.normal(size=3)
        return "--n=" + ",".join(repr(float(x)) for x in v / np.linalg.norm(v))

    def windings():
        kp = int(rng.integers(1, 60))
        km = int(rng.integers(kp + 1, 3 * kp)) if kp > 1 else 2
        return ["--kp", str(kp), "--km", str(km), "--kprime", str(int(rng.integers(1, 30)))]

    def number(lo, hi):
        return repr(float(rng.uniform(lo, hi)))

    def t_list():
        return ",".join(repr(float(t)) for t in 10.0 ** rng.uniform(-1, 3, rng.integers(1, 8)))

    requests = [["figure", "fig2"], ["figure", "fig3"], ["figure", "fig3", "--caption-convention"],
                ["figure", "fig4"], ["search", "--target", "cz"],
                ["search", "--target", "hadamard"]]
    for _ in range(8):
        # Three draws stand for the couplings the gate commands no longer take, so that the
        # other requests stay the same.
        rng.uniform()
        gates = [["one-qubit", axis(), "--kappa", str(int(rng.integers(1, 1000)))],
                 ["two-qubit", *windings()]]
        rng.uniform(size=2)
        requests += [
            *gates,
            ["search", "--target", str(rng.choice(["rx", "ry"])), "--theta", number(0, 7),
             "--eps", number(1e-4, 0.1), "--kappa-max", str(int(rng.integers(1, 300)))],
            ["search", "--target", "cphase", "--theta", number(-7, 7),
             "--kp-max", str(int(rng.integers(1, 6))), "--n-max", str(int(rng.integers(1, 60)))],
            ["search", "--target", "hadamard", "--eps", number(1e-3, 0.1),
             "--kappa-max", str(int(rng.integers(1, 300)))],
            ["sweep", axis(), "--kappa", str(int(rng.integers(1, 100))), "--T", t_list()],
            ["sweep", *windings(), "--T", t_list(), "--j2", number(0.2, 5.0)],
            ["audit", *windings()],
            ["audit", "--kp", str(int(rng.integers(1, 100))), "--j-zero"],
        ]
    return requests


class _Label(str):
    pass


class _Count(enum.IntEnum):
    ONE = 1


class _Ratio(float):
    pass


class _Mapping(dict):
    pass


class _Row(list):
    pass


# Values of the emitter's exact types that the reports never hold: escaped keys, non-str
# keys (numpy scalars and subclasses among them: a key is emitted as its str) and corners.
EDGE_VALUES = [
    {'quote"': 1, "back\\slash": 2, "tab\t": 3, "line sep": 4, "ünï": 5, "": 6, "\x00": 7},
    {3: "a", 1: "b", -2: "c"},
    {2.5: 1, -0.0: 2},
    {True: 1, False: 0},
    {None: 1},
    {_Label("sub"): 1, "plain": 2},
    {_Count.ONE: "enum"},
    {np.int64(4): 1, np.int64(-1): 2},
    {np.float64(0.5): [1, 2]},
    [10**30, -(10**30)],
    [complex(-0.0, 0.0), 1j],
    ["é\U0001f600"],
    [(1, (2, (3,)))],
    [True, False, None, 0, -0.0, 5e-324, 1e308, -1e-17],
    [np.array(3.0), np.array(2), np.array([1, 2, 3]), np.array([[1j, 2]]),
     np.array([True, False]), np.array([], dtype=np.int64), np.array(["a", "b"]),
     np.arange(6.0).reshape(2, 3), np.array([np.float32(0.1)])],
    np.arange(4.0),
    np.array(0.5),
    7,
    "top",
    (),
    {},
]

BAD_VALUES = [
    float("nan"), float("inf"), -np.inf,
    complex(np.nan, 1.0), complex(1.0, np.inf), complex(np.inf, np.nan),
    {"x": [1.0, float("nan")]}, np.array([1.0, np.inf]),
    np.array(np.nan), np.array([complex(0, np.nan)]),
    {1, 2}, frozenset(), object(), b"bytes", bytearray(b"x"), np.bool_(True), np.void(b"x"),
    {"a": 1, 2: "b"}, {"a": {"b": [1, object()]}}, [1, np.datetime64("2026-01-01")],
    np.array([object()], dtype=object),
]


# Numpy scalars and subclasses of the exact types, finite or not: the emitter's table has no
# entry for them, so each is a TypeError naming its type, whatever its value.
FOREIGN_VALUES = [
    np.float64(0.1), np.float32(0.1), np.float16(0.1), np.longdouble(0.1), np.float64(2.0),
    np.float64("nan"), np.float32("inf"),
    np.int8(-3), np.uint64(2**64 - 1), np.int64(-(2**63)),
    np.complex128(1.5 - 0.25j), np.complex64(0.1 + 0.2j), np.complex128(complex(np.inf, 0.0)),
    np.str_("numpy"), _Label("sub"), _Count.ONE, _Ratio(0.3), _Ratio("inf"),
    _Mapping(b=1, a=2), _Row([1, 2.5]),
]


def held_types(value):
    """The type of ``value`` and of every value it holds, through dicts, lists and tuples."""
    yield type(value)
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from held_types(item)


def error_of(emit, value):
    try:
        emit(value)
    except Exception as exc:  # any error: its type and message are what is compared
        return type(exc), str(exc)
    return None


class TestEmitterDispatch:
    """The table-dispatched emitter gives the isinstance chain's bytes and errors on the
    table's exact types, and a TypeError naming any other type."""

    def test_figure_rows_hold_only_table_types(self):
        for args in (("fig2",), ("fig3",), ("fig3", True), ("fig4",)):
            for row in synthesis.figure_table(*args)[1]:
                assert set(held_types(row)) <= reporting._EMITTERS.keys(), (args, row)

    def test_every_report_of_a_seeded_corpus(self, monkeypatch):
        reports = []
        original = reporting.dumps_report

        def recording(report):
            reports.append(report)
            return original(report)

        monkeypatch.setattr(reporting, "dumps_report", recording)
        requests = request_corpus()
        for argv in requests:
            code, out, err = invoke(argv)
            assert (code, err) == (0, ""), argv
        assert len(reports) == len(requests)
        assert {r["kind"] for r in reports} == {"holonomy", "search", "sweep", "figure", "audit"}
        for report in reports:
            assert set(held_types(report)) <= reporting._EMITTERS.keys()
            assert original(report) == listing_emit(report) + "\n"

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_edge_values(self, value):
        assert reporting._emit(value) == listing_emit(value)
        wrapped = {"k": value, "list": [value], "tuple": (value,)}
        assert reporting.dumps_report(wrapped) == listing_emit(wrapped) + "\n"

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_error_paths(self, value):
        expected = error_of(listing_emit, value)
        assert expected is not None
        assert error_of(reporting._emit, value) == expected
        assert error_of(reporting.dumps_report, {"k": [value]}) == error_of(
            listing_emit, {"k": [value]})

    @pytest.mark.parametrize("value", FOREIGN_VALUES)
    def test_any_other_type_is_a_type_error(self, value):
        message = f"^cannot serialize {re.escape(repr(type(value)))}$"
        for emit, wrapped in ((reporting._emit, value), (reporting.dumps_report, {"k": [value]}),
                              (lambda row: reporting.csv_lines(["a"], [row]), (value,))):
            with pytest.raises(TypeError, match=message):
                emit(wrapped)

    def test_key_quoting_is_cached_per_str_key(self):
        assert reporting._key("a\"b") == json.dumps("a\"b")
        assert reporting._key("a\"b") is reporting._key("a\"b")
        assert reporting._key(1) == '"1"' and reporting._key(True) == '"True"'
        assert reporting._key(1.0) == '"1.0"'
