import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from deformed_renyi import cli
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


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
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
        obj = loads(out)
        validate("divergence", obj)
        assert obj["value"] == pytest.approx(0.44628710262841964, abs=1e-9)
        assert obj["status"] == "converged"

    def test_identical_pair_is_zero(self, capsys, identical_csv):
        code, out, _ = run_cli(capsys, [
            "divergence", "--family", "exp", "--pair", identical_csv, "--alpha", "0.3",
        ])
        assert code == 0
        obj = loads(out)
        assert obj["value"] == 0.0
        assert obj["kappa"] == 0.0

    @pytest.mark.parametrize("kind", ["const", "seq"])
    def test_u0_spec_echoed(self, capsys, tmp_path, pair_csv, kind):
        if kind == "const":
            spec = "const:1"
        else:
            u0_path = tmp_path / "u0.csv"
            u0_path.write_text("u0\n0.5\n2.0\n")
            spec = f"seq:{u0_path}"
        code, out, _ = run_cli(capsys, [
            "divergence", "--family", "exp", "--pair", pair_csv, "--alpha", "0.5", "--u0", spec,
        ])
        assert code == 0
        obj = loads(out)
        validate("divergence", obj)
        assert obj["u0"] == spec

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
        obj = loads(out)
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
        obj = loads(out)
        validate("probe_ratio", obj)
        assert obj["verdict"] == "unbounded"

    def test_ratio_exp_bounded(self, capsys):
        code, out, _ = run_cli(capsys, ["probe", "ratio", "--family", "exp", "--lambda0", "1"])
        obj = loads(out)
        validate("probe_ratio", obj)
        assert obj["verdict"] == "bounded"
        assert obj["bound_K"] == pytest.approx(np.e, rel=1e-8)

    def test_inequality_schema(self, capsys):
        code, out, _ = run_cli(capsys, [
            "probe", "inequality", "--family", "exp", "--alpha", "0.3",
            "--u0-value", "1", "--ugrid=-30:30:601",
        ])
        assert code == 0
        obj = loads(out)
        validate("probe_inequality", obj)
        assert obj["c_found"] == "-inf"
        assert obj["holds"] is True

    def test_envelope_schema(self, capsys):
        code, out, _ = run_cli(capsys, [
            "probe", "envelope", "--family", "exp", "--bound-k", "2.718281828459045",
            "--lambda0", "1", "--ugrid=0:100:101", "--vgrid=0:20:21",
        ])
        assert code == 0
        obj = loads(out)
        validate("probe_envelope", obj)
        assert obj["holds"] is True
        assert obj["n_violations"] == 0

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

    @pytest.mark.parametrize("args, message", [
        (["envelope", "--bound-k", "nan"], "need 1 <= K < inf and 0 < lambda0 < inf"),
        (["envelope", "--bound-k", "inf"], "need 1 <= K < inf and 0 < lambda0 < inf"),
        (["envelope", "--lambda0", "nan"], "need 1 <= K < inf and 0 < lambda0 < inf"),
        (["inequality", "--u0-value", "nan"], "u0_value must be positive and finite"),
        (["inequality", "--u0-value", "inf"], "u0_value must be positive and finite"),
        (["ratio", "--lambda0", "nan"], "lambda0 must be positive and finite"),
        (["ratio", "--lambda0", "inf"], "lambda0 must be positive and finite"),
        (["ratio", "--threshold", "nan"], "threshold must be positive and finite"),
    ])
    def test_non_finite_parameters_rejected(self, capsys, args, message):
        # on the counterexample, which fails every probe, a NaN parameter used
        # to give "holds": true or a misleading error
        code, out, err = run_cli(capsys, ["probe", args[0], "--family", "counterexample"] + args[1:])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind", ["inequality", "envelope", "validate-phi"])
    def test_default_grids_clipped_to_tabulated_range(self, capsys, tmp_path, kind):
        u = np.linspace(-40.0, 40.0, 161)
        knots = tmp_path / "exp_knots.csv"
        knots.write_text("u,phi\n" + "\n".join(f"{ui},{vi}" for ui, vi in zip(u, np.exp(u))) + "\n")
        command = ["validate-phi"] if kind == "validate-phi" else ["probe", kind]
        code, out, err = run_cli(capsys, command + ["--family", f"tabulated:{knots}"])
        assert (code, err) == (0, "")
        obj = loads(out)
        validate("validate_phi" if kind == "validate-phi" else f"probe_{kind}", obj)
        if kind == "validate-phi":
            # the default [-50, 50] becomes the knot range [-40, 40], still 2001 points
            assert (obj["n_points"], obj["passed"]) == (2001, True)
            assert obj["tail_low_value"] == pytest.approx(math.exp(-40.0), rel=1e-12)
            assert obj["tail_high_value"] == pytest.approx(math.exp(40.0), rel=1e-12)
        elif kind == "inequality":
            # u - u0 >= -40 and u <= 40 on the default grid's step of 1/8; exp
            # at alpha 0.5 and u0 1 violates the inequality everywhere
            assert (obj["grid_max"], obj["n_violations"], obj["holds"]) == (40.0, 633, False)
        else:
            # u in [-40, 20] so that u + v <= 40 for v in [0, 20]
            assert (obj["n_checked"], obj["holds"]) == (481 * 201, True)

    def test_strict_inconclusive_exit(self, capsys, tmp_path):
        u = np.linspace(0.0, 300.0, 601)
        knots = tmp_path / "slow.csv"
        rows = "\n".join(f"{ui},{vi}" for ui, vi in zip(u, np.exp(u ** 1.5 / 10.0)))
        knots.write_text("u,phi\n" + rows + "\n")
        argv = ["probe", "ratio", "--family", f"tabulated:{knots}",
                "--lambda0", "1", "--umax", "299"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert loads(out)["verdict"] == "inconclusive"
        code, _, _ = run_cli(capsys, argv + ["--strict"])
        assert code == 4


class TestConstructU0Command:
    def test_schema_and_certificate(self, capsys):
        code, out, _ = run_cli(capsys, [
            "construct-u0", "--family", "counterexample", "--alpha", "0.3",
        ])
        assert code == 0
        obj = loads(out)
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
        assert loads(out)["status"] == "converged"

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
        obj = loads(out)
        validate("construct_u0", obj)
        assert obj["certificate_ok"] is True

    def test_tabulated_flat_bottom_run(self, capsys, tmp_path):
        # phi = max(e^u, e^5): eps = e^5 has the whole run [-10, 5] as preimage
        knots = tmp_path / "flat_bottom.csv"
        knots.write_text("u,phi\n" + "".join(f"{u},{math.exp(max(u, 5.0))!r}\n" for u in (-10.0, 5.0, 10.0, 40.0)))
        code, out, err = run_cli(capsys, [
            "construct-u0", "--family", f"tabulated:{knots}", "--alpha", "0.5",
        ])
        assert (code, err) == (0, "")
        obj = loads(out)
        validate("construct_u0", obj)
        assert obj["certificate_ok"] is True
        assert obj["epsilon"] == math.exp(5.0)

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
        assert loads(out)["status"] == "converged"


class TestVacuousCertificates:
    @pytest.mark.parametrize("argv, message", [
        (["demo-counterexample", "--lam", "nan", "--output", "json"], "lam must be positive and finite"),
        (["demo-counterexample", "--lam", "nan"], "lam must be positive and finite"),
        (["construct-u0", "--family", "exp", "--alpha", "0.3", "--terms", "0"], "n_terms must be >= 1"),
        (["construct-u0", "--family", "exp", "--alpha", "0.3", "--target", "nan"],
         "summability_target must be positive and finite"),
        (["validate-phi", "--family", "exp", "--umin", "nan"], "u_grid must be finite"),
        (["validate-phi", "--family", "exp", "--umax", "inf"], "u_grid must be finite"),
    ], ids=["demo-json", "demo-csv", "terms-0", "target-nan", "umin-nan", "umax-inf"])
    def test_vacuous_input_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("lam", ["1e-300", "1e-160"])
    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_demo_lam_too_small_for_the_ladder(self, capsys, lam, output):
        # the spacing 1/lam would overflow log phi(c_n): one error line, no numpy warning
        code, out, err = run_cli(capsys, ["demo-counterexample", "--lam", lam, "--output", output])
        spacing = format(1.0 / float(lam), "g")
        assert (code, out, err) == (2, "", f"error: lam={float(lam):g} is too small: log phi(c_n) "
                                           f"overflows at the ladder spacing 1/lam = {spacing}\n")

    @pytest.mark.parametrize("lam", ["2e16", "1e200"])
    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_demo_lam_too_large_for_the_growth(self, capsys, lam, output):
        # rounding against lam^2/2 (or lam^2 = inf) flattens the shifted column
        code, out, err = run_cli(capsys, ["demo-counterexample", "--lam", lam, "--output", output])
        assert (code, out, err) == (2, "", f"error: lam={float(lam):g} is too large: "
                                           "lam^2/2 swamps the per-row growth\n")


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
        obj = loads(out)
        validate("demo_counterexample", obj)
        assert obj["certifies_lambda_at_least"] == 1.0

        # at lam = 50 the shifted terms overflow: they must reach JSON as "inf"
        code, out, _ = run_cli(capsys, [
            "demo-counterexample", "--lam", "50", "--pieces", "15", "--output", "json",
        ])
        assert code == 0
        obj = loads(out)
        validate("demo_counterexample", obj)
        assert obj["second_column_final"] == "inf"
        assert all(row["term_shifted"] == "inf" for row in obj["rows"])


class TestValidatePhiCommand:
    def test_clean_family(self, capsys):
        code, out, _ = run_cli(capsys, [
            "validate-phi", "--family", "exp", "--umin", "-50", "--umax", "50", "--n", "201",
        ])
        assert code == 0
        obj = loads(out)
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
        obj = loads(out)
        validate("validate_phi", obj)
        assert obj["passed"] is False


class TestOracleCommand:
    def test_values_and_schema(self, capsys, pair_csv):
        code, out, _ = run_cli(capsys, [
            "oracle", "--pair", pair_csv, "--alpha", "0.5", "--tsallis-q", "1.5",
        ])
        assert code == 0
        obj = loads(out)
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
        obj = loads(out)
        validate("divergence", obj)
        assert obj["status"] == "divergent_integral"
        assert obj["value"] == "inf"

        code, out, _ = run_cli(capsys, [
            "kappa", "--family", "counterexample", "--pair", str(path), "--alpha", "0.5",
        ])
        assert code == 3
        obj = loads(out)
        validate("kappa", obj)
        assert obj["status"] == "divergent_integral"
        assert obj["kappa"] == "inf"
        lo, hi = obj["bracket"]  # the jump of N to +inf, just above 0.05
        assert lo == pytest.approx(0.05, rel=1e-9) and lo <= hi
        kappa_last, n_last = obj["last_finite"]
        assert kappa_last == lo and 0.0 < n_last < 1.0

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

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_probability_cell_names_file_and_row(self, capsys, tmp_path, cell):
        # a NaN cell used to pass the row check and fail later without the file or the row
        bad = tmp_path / "bad.csv"
        bad.write_text(f"atom,p,q\n1,{cell},0.9\n2,0.5,0.1\n")
        code, out, err = run_cli(capsys, ["kappa", "--family", "exp", "--pair", str(bad), "--alpha", "0.5"])
        assert (code, out, err) == (
            2, "", f"error: {bad}: row 2: probabilities must be finite (p={float(cell)}, q=0.9)\n")

    @pytest.mark.parametrize("column", ["node", "weight"])
    def test_nan_quadrature_cell_names_column(self, capsys, tmp_path, column):
        # a NaN weight used to load and fail later as "N(kappa) is NaN", blaming the solver
        rows = [["0.0", "0.25", "1.0", "0.5"], ["0.5", "0.5", "1.0", "1.0"], ["1.0", "0.25", "1.0", "1.5"]]
        rows[1][0 if column == "node" else 1] = "nan"
        bad = tmp_path / "quad.csv"
        bad.write_text("node,weight,p,q\n" + "".join(",".join(r) + "\n" for r in rows))
        code, out, err = run_cli(capsys, ["kappa", "--family", "exp", "--pair", str(bad), "--alpha", "0.5"])
        assert (code, out, err) == (2, "", f"error: {column}s must be finite\n")

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

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["kappa", "--alpha", "0.5"],
        ["divergence", "--alpha", "0.5"],
        ["sweep", "--alphas", "0.25,0.5,0.75"],
    ], ids=["kappa", "divergence", "sweep"])
    def test_tol_must_be_positive_and_finite(self, capsys, tmp_path, command, tol):
        pair = tmp_path / "pair.csv"
        save_pair(ProbabilityPair(Counting(3), [0.2, 0.3, 0.5], [0.6, 0.3, 0.1]), pair)
        code, out, err = run_cli(capsys, command + [
            "--family", "kaniadakis:0.5", "--pair", str(pair), f"--tol={tol}",
        ])
        assert code == 2
        assert out == ""
        assert err == "error: tol must be positive and finite\n"

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["kappa", "--alpha", "0.5"],
        ["divergence", "--alpha", "0.5"],
        ["sweep", "--alphas", "0.25,0.5,0.75"],
    ], ids=["kappa", "divergence", "sweep"])
    def test_const_u0_must_be_positive_and_finite(self, capsys, pair_csv, command, value):
        code, out, err = run_cli(capsys, command + [
            "--family", "exp", "--pair", pair_csv, "--u0", f"const:{value}",
        ])
        assert (code, out, err) == (2, "", "error: u0 must be strictly positive and finite\n")

    def test_non_finite_json_value_is_an_error(self, capsys, pair_csv, monkeypatch):
        # a NaN that reaches the JSON writer, which cannot hold it; tsallis_relative_entropy
        # itself rejects every input that would give one, so the NaN is injected
        monkeypatch.setattr(cli, "tsallis_relative_entropy", lambda pair, q: math.nan)
        code, out, err = run_cli(capsys, [
            "oracle", "--pair", pair_csv, "--alpha", "0.5", "--tsallis-q", "1.5",
        ])
        assert (code, out) == (2, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")

    @pytest.mark.parametrize("q, message", [
        ("nan", "q_param must be finite, got nan"),
        ("inf", "q_param must be finite, got inf"),
        ("1e308", "Tsallis relative entropy is not finite in float64 at q_param=1e+308"),
    ])
    def test_tsallis_q_without_finite_value_rejected(self, capsys, pair_csv, q, message):
        code, out, err = run_cli(capsys, [
            "oracle", "--pair", pair_csv, "--alpha", "0.5", "--tsallis-q", q,
        ])
        assert (code, out, err) == (2, "", f"error: {message}\n")

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
        # each probe kind takes only the options it reads
        ["probe", "inequality", "--family", "exp", "--strict"],
        ["probe", "ratio", "--family", "exp", "--ugrid", "0:1:3"],
        ["probe", "envelope", "--family", "exp", "--alpha", "0.3"],
    ], ids=["oracle-tol", "validate-strict", "inequality-strict", "ratio-ugrid", "envelope-alpha"])
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
        obj = loads(target.read_text())
        assert obj["status"] == "converged"


class TestParserReuse:
    def _calls(self, pair_csv, out_path):
        solve = ["--family", "kaniadakis:0.5", "--pair", pair_csv]
        return [
            ["kappa", "--family", "exp", "--bogus"],
            ["--version"],
            ["kappa", "--alpha", "0.3", "--tol", "1e-10", *solve],
            ["kappa", "--alpha", "0.3", *solve],
            ["kappa", "--alpha", "0.3", "--out", out_path, *solve],
            ["kappa", "--alpha", "0.3", "--u0", "const:2", *solve],
            ["sweep", "--alphas", "0.25,0.5", *solve],
            ["probe", "ratio", "--family", "exp", "--strict"],
            ["probe", "ratio", "--family", "exp"],
            ["kappa", "--alpha", "0.3", *solve],
        ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_match_a_fresh_parser(self, capsys, tmp_path, pair_csv):
        calls = self._calls(pair_csv, str(tmp_path / "out.json"))
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, argv))
        reused = [run_cli(capsys, argv) for argv in calls]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [64, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert reused[1][1].strip() == cli.__version__
        assert reused[4][1] == "" and reused[3][1] == reused[9][1] != reused[5][1]

    def test_no_option_leaks_into_the_next_parse(self, pair_csv):
        cli.build_parser().parse_args(["kappa", "--alpha", "0.3", "--family", "exp", "--pair", pair_csv,
                                       "--tol", "1e-3", "--u0", "const:2", "--out", "x.json"])
        args = cli.build_parser().parse_args(["kappa", "--alpha", "0.4", "--family", "exp", "--pair", pair_csv])
        assert (args.alpha, args.tol, args.u0, args.out) == (0.4, 1e-12, "const:1", None)
