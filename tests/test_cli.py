"""CLI surface: exit codes, report determinism, CSV schemas and round-trips."""

import io
import json
import warnings

import numpy as np
import pytest

from holonome import cli, holonomy, reporting
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
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.parent.exists()


class TestNonFiniteCouplings:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["one-qubit", "--n", "1,0,0", "--kappa", "1", "--omega", "inf"], "omega"),
            (["one-qubit", "--n", "1,0,0", "--kappa", "1", "--j1", "nan"], "j1"),
            (["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1", "--j2", "nan"], "j2"),
            (["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1", "--j1=-inf"], "j1"),
            (["sweep", "--n", "1,0,0", "--kappa", "1", "--T", "1", "--j1", "nan"], "j1"),
            (["sweep", "--kp", "2", "--km", "3", "--T", "1", "--j2", "inf"], "j2"),
        ],
    )
    def test_exit_one_without_warning(self, argv, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {name} ") and err.count("\n") == 1


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
        ["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1", "--j1", "2", "--j2", "2"],
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
            (["sweep", "--kp", "2", "--km", "3", "--T", "1"], {"kappa_prime": 1}),
            (["figure", "fig3", "--caption-convention"], {"caption_convention": True}),
        ],
    )
    def test_defaults_filled_where_used(self, argv, inputs):
        code, out, _ = invoke(argv)
        assert code == 0
        reported = json.loads(out)["inputs"]
        assert {k: reported[k] for k in inputs} == inputs

    def test_sweep_j2_default_matches_explicit(self):
        argv = ["sweep", "--kp", "2", "--km", "3", "--T", "1,10"]
        assert invoke(argv) == invoke(argv + ["--j2", "1.0", "--kprime", "1"])


class TestNonFiniteOutput:
    def test_format_float_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="non-finite"):
                reporting.format_float(bad)
        assert reporting.format_float(0.1) == "0.10000000000000001"

    def test_json_and_csv_reject_nan(self, tmp_path):
        with pytest.raises(DomainError):
            reporting.dumps_report({"x": [1.0, np.float64("nan")]})
        with pytest.raises(DomainError):
            reporting.dumps_report({"z": complex(1.0, np.inf)})
        path = tmp_path / "t.csv"
        with pytest.raises(DomainError):
            reporting.emit_csv(path, ["a"], [(np.nan,)])
        assert not path.exists()


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
