import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from deformed_renyi.cli import main
from deformed_renyi.measures import Counting, ProbabilityPair, save_pair


@pytest.fixture
def pair_csv(tmp_path):
    pair = ProbabilityPair(Counting(2), [0.5, 0.5], [0.9, 0.1])
    path = tmp_path / "pair.csv"
    save_pair(pair, path)
    return str(path)


@pytest.fixture
def identical_csv(tmp_path):
    pair = ProbabilityPair(Counting(3), [0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
    path = tmp_path / "identical.csv"
    save_pair(pair, path)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(schema_name, payload):
    ref = resources.files("deformed_renyi") / "schemas" / f"{schema_name}.schema.json"
    schema = json.loads(ref.read_text())
    jsonschema.validate(payload, schema)


class TestDivergenceCommand:
    def test_matches_oracle_and_schema(self, capsys, pair_csv):
        code, out, _ = run_cli(capsys, [
            "divergence", "--family", "exp", "--u0", "const:1",
            "--pair", pair_csv, "--alpha", "0.5",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("divergence", obj)
        assert obj["value"] == pytest.approx(0.44628710262841964, abs=1e-9)
        assert obj["status"] == "converged"

    def test_identical_pair_is_zero(self, capsys, identical_csv):
        code, out, _ = run_cli(capsys, [
            "divergence", "--family", "exp", "--pair", identical_csv, "--alpha", "0.3",
        ])
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == 0.0
        assert obj["kappa"] == 0.0

    def test_deterministic_output(self, capsys, pair_csv):
        argv = ["divergence", "--family", "kaniadakis:0.5", "--pair", pair_csv, "--alpha", "0.37"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestKappaCommand:
    def test_schema_and_value(self, capsys, pair_csv):
        code, out, _ = run_cli(capsys, [
            "kappa", "--family", "exp", "--pair", pair_csv, "--alpha", "0.5",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("kappa", obj)
        assert obj["kappa"] == pytest.approx(0.11157177565710491, abs=1e-10)


class TestSweepCommand:
    def test_csv_table(self, capsys, pair_csv):
        code, out, _ = run_cli(capsys, [
            "sweep", "--family", "exp", "--pair", pair_csv, "--alphas", "0.25,0.5,0.75",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,kappa,value,status"
        assert len(lines) == 4
        assert all(line.endswith("converged") for line in lines[1:])

    def test_grid_spec(self, capsys, pair_csv):
        code, out, _ = run_cli(capsys, [
            "sweep", "--family", "exp", "--pair", pair_csv, "--alphas", "0.1:0.9:9",
        ])
        assert code == 0
        assert len(out.strip().splitlines()) == 10


class TestProbeCommand:
    def test_ratio_counterexample_unbounded(self, capsys):
        code, out, _ = run_cli(capsys, [
            "probe", "ratio", "--family", "counterexample", "--lambda0", "1", "--umax", "100",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("probe_ratio", obj)
        assert obj["verdict"] == "unbounded"

    def test_ratio_exp_bounded(self, capsys):
        code, out, _ = run_cli(capsys, ["probe", "ratio", "--family", "exp", "--lambda0", "1"])
        obj = json.loads(out)
        validate("probe_ratio", obj)
        assert obj["verdict"] == "bounded"
        assert obj["bound_K"] == pytest.approx(np.e, rel=1e-8)

    def test_inequality_schema(self, capsys):
        code, out, _ = run_cli(capsys, [
            "probe", "inequality", "--family", "exp", "--alpha", "0.3",
            "--u0-value", "1", "--ugrid=-30:30:601",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("probe_inequality", obj)
        assert obj["c_found"] == "-inf"
        assert obj["holds"] is True

    def test_envelope_schema(self, capsys):
        code, out, _ = run_cli(capsys, [
            "probe", "envelope", "--family", "exp", "--bound-k", "2.718281828459045",
            "--lambda0", "1", "--ugrid=0:100:101", "--vgrid=0:20:21",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("probe_envelope", obj)
        assert obj["holds"] is True

    @pytest.mark.parametrize("args, message", [
        (["inequality", "--ugrid", "0:1:0"], "expected lo:hi:n"),
        (["inequality", "--ugrid", "0:1"], "expected lo:hi:n"),
        (["inequality", "--ugrid", "nan:1:3"], "expected lo:hi:n"),
        (["envelope", "--vgrid", "0:20:0"], "expected lo:hi:n"),
        (["envelope", "--c", "500"], "nothing to check"),
    ], ids=["ugrid-n0", "ugrid-malformed", "ugrid-nan", "vgrid-n0", "c-above-grid"])
    def test_empty_grid_rejected(self, capsys, args, message):
        code, out, err = run_cli(capsys, ["probe", args[0], "--family", "exp"] + args[1:])
        assert code == 2
        assert out == ""
        assert message in err

    def test_strict_inconclusive_exit(self, capsys, tmp_path):
        u = np.linspace(0.0, 300.0, 601)
        knots = tmp_path / "slow.csv"
        rows = "\n".join(f"{ui},{vi}" for ui, vi in zip(u, np.exp(u ** 1.5 / 10.0)))
        knots.write_text("u,phi\n" + rows + "\n")
        argv = ["probe", "ratio", "--family", f"tabulated:{knots}",
                "--lambda0", "1", "--umax", "299"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["verdict"] == "inconclusive"
        code, _, _ = run_cli(capsys, argv + ["--strict"])
        assert code == 4


class TestConstructU0Command:
    def test_schema_and_certificate(self, capsys):
        code, out, _ = run_cli(capsys, [
            "construct-u0", "--family", "counterexample", "--alpha", "0.3",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("construct_u0", obj)
        assert obj["certificate_ok"] is True

    def test_seq_u0_from_csv(self, capsys, tmp_path, pair_csv):
        u0_path = tmp_path / "u0.csv"
        u0_path.write_text("u0\n0.5\n2.0\n")
        code, out, _ = run_cli(capsys, [
            "kappa", "--family", "exp", "--pair", pair_csv,
            "--alpha", "0.5", "--u0", f"seq:{u0_path}",
        ])
        assert code == 0
        assert json.loads(out)["status"] == "converged"

    def test_seq_u0_length_mismatch(self, capsys, tmp_path, pair_csv):
        u0_path = tmp_path / "u0.csv"
        u0_path.write_text("u0\n0.5\n2.0\n1.0\n")
        code, _, err = run_cli(capsys, [
            "kappa", "--family", "exp", "--pair", pair_csv,
            "--alpha", "0.5", "--u0", f"seq:{u0_path}",
        ])
        assert code == 2
        assert "entries" in err

    def test_tabulated_family(self, capsys, tmp_path):
        u = np.linspace(-40.0, 40.0, 161)
        knots = tmp_path / "exp_knots.csv"
        knots.write_text("u,phi\n" + "\n".join(f"{ui},{vi}" for ui, vi in zip(u, np.exp(u))) + "\n")
        code, out, err = run_cli(capsys, [
            "construct-u0", "--family", f"tabulated:{knots}", "--alpha", "0.3",
        ])
        assert (code, err) == (0, "")
        obj = json.loads(out)
        validate("construct_u0", obj)
        assert obj["certificate_ok"] is True

    def test_constructed_u0_feeds_kappa(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, [
            "construct-u0", "--family", "exp", "--alpha", "0.3", "--terms", "16",
        ])
        path = tmp_path / "u0.json"
        path.write_text(out)
        pair = ProbabilityPair.from_raw(Counting(8), np.arange(1.0, 9.0), np.ones(8))
        pair_path = tmp_path / "pair8.csv"
        save_pair(pair, pair_path)
        code, out, _ = run_cli(capsys, [
            "kappa", "--family", "exp", "--pair", str(pair_path),
            "--alpha", "0.4", "--u0", f"constructed:{path}",
        ])
        assert code == 0
        assert json.loads(out)["status"] == "converged"


class TestDemoCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, ["demo-counterexample", "--lam", "1", "--pieces", "12"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# divergence certified for shifts >= 1")
        assert lines[1].startswith("n,c_value,log_mass")
        assert len(lines) == 14

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, [
            "demo-counterexample", "--lam", "1", "--pieces", "15", "--output", "json",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("demo_counterexample", obj)
        assert obj["certifies_lambda_at_least"] == 1.0


class TestValidatePhiCommand:
    def test_clean_family(self, capsys):
        code, out, _ = run_cli(capsys, [
            "validate-phi", "--family", "exp", "--umin", "-50", "--umax", "50", "--n", "201",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("validate_phi", obj)
        assert obj["passed"] is True

    def test_violations_exit_code(self, capsys, tmp_path):
        knots = tmp_path / "concave.csv"
        knots.write_text("u,phi\n0.0,1.0\n1.0,10.0\n2.0,11.0\n4.0,12.0\n")
        code, out, _ = run_cli(capsys, [
            "validate-phi", "--family", f"tabulated:{knots}",
            "--umin", "0", "--umax", "4", "--n", "3",
        ])
        assert code == 2
        obj = json.loads(out)
        validate("validate_phi", obj)
        assert obj["passed"] is False


class TestOracleCommand:
    def test_values_and_schema(self, capsys, pair_csv):
        code, out, _ = run_cli(capsys, [
            "oracle", "--pair", pair_csv, "--alpha", "0.5", "--tsallis-q", "1.5",
        ])
        assert code == 0
        obj = json.loads(out)
        validate("oracle", obj)
        assert obj["classical_renyi"] == pytest.approx(0.44628710262841964, rel=1e-12)
        assert obj["kl_pq"] == pytest.approx(0.5108256237659907, rel=1e-12)
        assert obj["kl_qp"] == pytest.approx(0.3680642071684971, rel=1e-12)


class TestExitCodes:
    def test_divergent_pair_exit_three(self, capsys, tmp_path):
        from deformed_renyi.existence import build_divergent_pair

        path = tmp_path / "divergent.json"
        save_pair(build_divergent_pair(), path)
        code, out, _ = run_cli(capsys, [
            "divergence", "--family", "counterexample", "--pair", str(path), "--alpha", "0.5",
        ])
        assert code == 3
        obj = json.loads(out)
        assert obj["status"] == "divergent_integral"
        assert obj["value"] == "inf"

    def test_validation_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("atom,p,q\n1,0.5,0.9\n2,0,0.1\n")
        code, _, err = run_cli(capsys, [
            "divergence", "--family", "exp", "--pair", str(bad), "--alpha", "0.5",
        ])
        assert code == 2
        assert "row 3" in err

    def test_validation_error_counts_blank_lines(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("atom,p,q\n1,0.5,0.5\n\n2,0.5,0\n")
        code, _, err = run_cli(capsys, [
            "divergence", "--family", "exp", "--pair", str(bad), "--alpha", "0.5",
        ])
        assert code == 2
        assert f"{bad}: row 4: probabilities must be > 0" in err

    @pytest.mark.parametrize("kind", ["seq", "tabulated"])
    def test_bad_csv_cell_names_file_and_row(self, capsys, tmp_path, pair_csv, kind):
        bad = tmp_path / "bad.csv"
        if kind == "seq":
            bad.write_text("u0\n0.5\nabc\n")
            argv = ["kappa", "--family", "exp", "--pair", pair_csv, "--alpha", "0.5", "--u0", f"seq:{bad}"]
        else:
            bad.write_text("u,phi\n0,1\n1,abc\n")
            argv = ["validate-phi", "--family", f"tabulated:{bad}"]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert f"{bad}: row 3: could not convert string to float: 'abc'" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, [
            "divergence", "--family", "exp", "--pair", "/nonexistent.csv", "--alpha", "0.5",
        ])
        assert code == 2

    def test_usage_error_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["divergence", "--family", "exp", "--bogus"])
        assert exc.value.code == 64

    def test_unknown_subcommand_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("argv", [
        ["oracle", "--pair", "pair.csv", "--alpha", "0.5", "--tol", "1e-9"],
        ["validate-phi", "--family", "exp", "--strict"],
    ], ids=["oracle-tol", "validate-strict"])
    def test_option_not_taken_by_subcommand_exit_64(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64


class TestOutFile:
    def test_out_writes_file(self, capsys, tmp_path, pair_csv):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, [
            "divergence", "--family", "exp", "--pair", pair_csv,
            "--alpha", "0.5", "--out", str(target),
        ])
        assert code == 0
        assert out == ""
        obj = json.loads(target.read_text())
        assert obj["status"] == "converged"
