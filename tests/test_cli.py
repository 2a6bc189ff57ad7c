import hashlib
import json
import subprocess
import sys

import jsonschema
import pytest

from superosc import cli
from superosc.report import Divergence, IdentityReport, MISMATCH, REPORT_SCHEMA

COEFFS_GOLDEN = "k,value\n0,4\n1,-4\n2,1\n"

#: supershift --values output, pinned byte for byte (.17g prints every
#: bit of each double): kind -> (flags, stdout)
SUPERSHIFT_GOLDEN = {
    "dpf": (
        ["--kind", "dpf", "--a", "2", "--p", "1", "--n-list", "10,40", "--x-min", "-0.5", "--x-max", "0.5"],
        "n,x,re,im\n"
        "10,-0.5,1.647497395313295,1.2472940064370361\n"
        "10,-0.25,0.89921194327685505,1.8048561171156108\n"
        "10,0,0,2\n"
        "10,0.25,-0.89921194327685505,1.8048561171156108\n"
        "10,0.5,-1.647497395313295,1.2472940064370361\n"
        "40,-0.5,1.6773775783856739,1.122365030827241\n"
        "40,-0.25,0.9444627948557579,1.7681046576872983\n"
        "40,0,0,2\n"
        "40,0.25,-0.9444627948557579,1.7681046576872983\n"
        "40,0.5,-1.6773775783856739,1.122365030827241\n",
    ),
    "y": (
        ["--kind", "y", "--g", "0,0,1", "--h", "1,1", "--a", "1.5", "--n-list", "20,60", "--x-min", "-0.5", "--x-max", "0.7"],
        "n,x,re,im\n"
        "20,-0.5,1.3130189294221055,-2.2960100709221769\n"
        "20,-0.20000000000000001,2.3008104118254877,-1.0352307486417185\n"
        "20,0.099999999999999978,2.4498662399142552,0.52619100094068416\n"
        "20,0.39999999999999991,1.7245604415385232,1.9355685584251232\n"
        "20,0.69999999999999996,0.2995632558624704,2.7708758951458679\n"
        "60,-0.5,1.1560466586348008,-2.2788402267928705\n"
        "60,-0.20000000000000001,2.2689124955601092,-1.0705303136368611\n"
        "60,0.099999999999999978,2.4416382773182961,0.54715309160722514\n"
        "60,0.39999999999999991,1.6127386989634802,1.9562034080025734\n"
        "60,0.69999999999999996,0.078844239452696835,2.6080930842577228\n",
    ),
    "z": (
        ["--kind", "z", "--m", "2", "--p", "1", "--a", "1.2", "--n-list", "30", "--x-min", "-1", "--x-max", "1"],
        "n,x,re,im\n"
        "30,-1,-0.29759216466345351,1.4430615653931624\n"
        "30,-0.5,-1.1132699985453625,0.90906699873051067\n"
        "30,0,-1.4253333333333333,0\n"
        "30,0.5,-1.1132699985453625,-0.90906699873051067\n"
        "30,1,-0.29759216466345351,-1.4430615653931624\n",
    ),
}

#: SHA-256 of the stdout of verify --suite all --max-n 2 --max-k 2
#: --order 6 (1597 checks, 198 of them printed-form mismatches), by format
VERIFY_GOLDEN_SHA256 = {
    "json": "954a0f985765cd9a77bac49796b33b5d8845c9525644e48102153d702c0d2cd6",
    "csv": "dbb86f21f1057d045af0c938b83298cd7c82b2b53610b5ab844bbfe3fc7726b5",
}

#: SHA-256 of the stdout of verify --suite all on the default grid (20221
#: checks), by format
VERIFY_ALL_SHA256 = {
    "json": "099066cd27af041d8191a36dd976b4fd21af81bc0caeecf56da7f964b29daba8",
    "csv": "83d9258182895d60f7252b5bdfeae74000ae54118f31d9676b4cc06a69eba95a",
}


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestCoeffs:
    def test_golden_csv(self, capsys):
        code, out = run_cli(capsys, ["coeffs", "--n", "2", "--a", "3"])
        assert code == 0
        assert out == COEFFS_GOLDEN

    def test_byte_stable(self, capsys):
        _, first = run_cli(capsys, ["coeffs", "--n", "2", "--a", "3"])
        _, second = run_cli(capsys, ["coeffs", "--n", "2", "--a", "3"])
        assert first.encode() == second.encode()

    def test_row_sum_cross_check(self, capsys):
        from fractions import Fraction

        _, out = run_cli(capsys, ["coeffs", "--n", "5", "--a", "7/3"])
        rows = out.strip().splitlines()[1:]
        total = sum(Fraction(line.split(",")[1]) for line in rows)
        assert total == 1

    def test_n_zero(self, capsys):
        code, out = run_cli(capsys, ["coeffs", "--n", "0"])
        assert code == 0
        assert out == "k,value\n0,1\n"

    def test_out_of_range_k_gives_empty_table(self, capsys):
        code, out = run_cli(capsys, ["coeffs", "--n", "3", "--k", "5"])
        assert code == 0
        assert out == "k,value\n"

    def test_symbolic_output(self, capsys):
        code, out = run_cli(capsys, ["coeffs", "--n", "1"])
        assert code == 0
        assert out == "k,value\n0,1/2 + 1/2*x\n1,1/2 - 1/2*x\n"

    def test_malformed_rational_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--n", "2", "--a", "1.5x"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code = cli.main(["coeffs", "--n", "2", "--a", "3", "--out", str(target)])
        assert code == 0
        assert target.read_text() == COEFFS_GOLDEN


class TestEval:
    def test_exact_limit_at_a_one(self, capsys):
        code, out = run_cli(
            capsys,
            ["eval", "--n", "50", "--a", "1", "--x-min", "-1", "--x-max", "1", "--samples", "21"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,re_f,im_f,re_limit,im_limit,abs_error"
        assert all(float(line.split(",")[-1]) < 1e-12 for line in lines[1:])

    def test_error_halves_with_n(self, capsys):
        def max_err(n):
            _, out = run_cli(
                capsys,
                ["eval", "--n", str(n), "--a", "2", "--x-min", "-1", "--x-max", "1", "--samples", "51"],
            )
            return max(float(line.split(",")[-1]) for line in out.strip().splitlines()[1:])

        e1, e2 = max_err(100), max_err(200)
        assert 1.8 <= e1 / e2 <= 2.2

    def test_row_at_origin_is_one(self, capsys):
        _, out = run_cli(
            capsys,
            ["eval", "--n", "7", "--a", "2", "--x-min", "-1", "--x-max", "1", "--samples", "3"],
        )
        middle = out.strip().splitlines()[2].split(",")
        assert float(middle[0]) == 0.0
        assert float(middle[1]) == 1.0
        assert float(middle[2]) == 0.0

    def test_bad_range_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["eval", "--n", "5", "--a", "2", "--x-min", "1", "--x-max", "-1"])
        assert code == 2

    def test_single_sample_is_x_min(self, capsys):
        code, out = run_cli(
            capsys,
            ["eval", "--n", "7", "--a", "2", "--x-min", "-1", "--x-max", "1", "--samples", "1"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == -1.0

    def test_zero_samples_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["eval", "--n", "7", "--a", "2", "--samples", "0"])
        assert code == 2


    @pytest.mark.parametrize("a,code,message", [
        ("nan", 2, "error: a must be finite, got nan\n"),
        ("1e300", 3, "error: ArithmeticError: F_n at n=5, a=1e+300, x=-1.0 does not fit in a float\n"),
    ])
    def test_non_finite_or_overflowing_a(self, capsys, a, code, message):
        assert cli.main(["eval", "--n", "5", "--a", a, "--samples", "2"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    def test_overflowing_limit_phase_is_exit_3(self, capsys):
        # F_1 fits in a float, but a x does not
        argv = ["eval", "--n", "1", "--a", "1e300", "--x-min", "1e10", "--x-max", "2e10", "--samples", "2"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        message = "error: ArithmeticError: limit phase does not fit in a float at a=1e+300, x=10000000000.0\n"
        assert (captured.out, captured.err) == ("", message)


class TestVerify:
    def test_recurrence_suite_passes(self, capsys):
        code, out = run_cli(capsys, ["verify", "--suite", "recurrence", "--max-n", "6"])
        assert code == 0
        payload = json.loads(out)
        assert payload and all(r["status"] == "verified" for r in payload)
        for report in payload:
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_printed_mismatches_do_not_fail(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "--suite", "s1-m1", "--max-n", "2", "--max-k", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        statuses = {r["status"] for r in payload}
        assert "printed_form_mismatch_corrected_form_verified" in statuses
        assert "mismatch" not in statuses

    def test_unknown_suite_is_usage_error(self, capsys):
        code = cli.main(["verify", "--suite", "no-such"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: unknown identity 'no-such'; known: recurrence, ")

    def test_usage_error_is_a_value_error(self):
        assert issubclass(cli.UsageError, ValueError)

    @pytest.mark.parametrize("suite", ["recurrence", "all"])
    def test_negative_order_is_usage_error(self, capsys, suite):
        code = cli.main(["verify", "--suite", suite, "--order", "-1", "--max-n", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "truncation order must be >= 0" in captured.err

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        fake = IdentityReport(
            "recurrence",
            {"k": 0, "n": 0},
            12,
            MISMATCH,
            Divergence(v=0, lhs="1", rhs="2"),
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [fake])
        code, out = run_cli(capsys, ["verify", "--suite", "recurrence"])
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload[0], REPORT_SCHEMA)
        assert payload[0]["status"] == "mismatch"

    @pytest.mark.parametrize("fmt", sorted(VERIFY_GOLDEN_SHA256))
    def test_golden_bytes(self, capsys, fmt):
        code, out = run_cli(
            capsys,
            ["verify", "--suite", "all", "--max-n", "2", "--max-k", "2", "--order", "6",
             "--format", fmt],
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDEN_SHA256[fmt]

    @pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_SHA256))
    def test_default_grid_golden_bytes(self, capsys, fmt):
        code, out = run_cli(capsys, ["verify", "--suite", "all", "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[fmt]

    def test_order_below_grid_k_is_usage_error(self, capsys):
        code = cli.main(["verify", "--suite", "all", "--order", "4", "--max-n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--order=4 is below k=5" in captured.err
        assert "--max-k=6" in captured.err

    def test_order_below_k_where_order_is_unused(self, capsys):
        code, out = run_cli(capsys, ["verify", "--suite", "recurrence", "--order", "4"])
        assert code == 0
        assert len(json.loads(out)) == 77

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "--suite", "g-closed-form", "--format", "csv", "--max-k", "2"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,params,order,status,first_divergence_v"
        assert len(lines) == 4


class TestTables:
    def test_stirling_triangle(self, capsys):
        code, out = run_cli(capsys, ["stirling", "--max-c", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,d,value"
        assert "4,2,7" in lines

    def test_hermite_table(self, capsys):
        code, out = run_cli(capsys, ["hermite", "--n-max", "2"])
        assert code == 0
        assert out == "n,polynomial\n0,1\n1,2*z\n2,-2 + 4*z^2\n"

    def test_bernstein_row(self, capsys):
        code, out = run_cli(capsys, ["bernstein", "--v", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,polynomial"
        assert lines[1] == "0,1 - 2*y + y^2"
        assert lines[3] == "2,y^2"

    def test_genfun_dump_matches_g(self, capsys):
        code, out = run_cli(
            capsys,
            ["genfun", "--which", "s2", "--m", "0", "--k", "1", "--n", "1",
             "--alphas", "1", "--order", "4"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v,coefficient"
        assert lines[1] == "0,0"
        assert lines[2] == "1,1/2 - 1/2*x"

    def test_genfun_domain_error(self, capsys):
        code, _ = run_cli(
            capsys,
            ["genfun", "--which", "s2", "--m", "1", "--k", "0", "--n", "1",
             "--alphas", "1,1"],
        )
        assert code == 2


class TestSupershift:
    def test_reduction_matches_eval(self, capsys):
        _, sup_out = run_cli(
            capsys,
            ["supershift", "--kind", "y", "--g", "0,1", "--h", "1", "--a", "2",
             "--n-list", "50", "--x-min", "-1", "--x-max", "1", "--samples", "21"],
        )
        _, eval_out = run_cli(
            capsys,
            ["eval", "--n", "50", "--a", "2", "--x-min", "-1", "--x-max", "1", "--samples", "21"],
        )
        sup = float(sup_out.strip().splitlines()[1].split(",")[1])
        max_err = max(float(line.split(",")[-1]) for line in eval_out.strip().splitlines()[1:])
        assert sup == pytest.approx(max_err, abs=1e-11)

    def test_z_sweep_decreases(self, capsys):
        code, out = run_cli(
            capsys,
            ["supershift", "--kind", "z", "--m", "2", "--p", "1", "--a", "1.5",
             "--n-list", "50,100,200", "--samples", "11", "--x-min", "-1", "--x-max", "1"],
        )
        assert code == 0
        sups = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert sups[0] > sups[1] > sups[2]

    def test_dpf_at_a_one_is_exact(self, capsys):
        code, out = run_cli(
            capsys,
            ["supershift", "--kind", "dpf", "--a", "1", "--p", "2",
             "--n-list", "30,60", "--samples", "7"],
        )
        assert code == 0
        sups = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert all(s < 1e-12 for s in sups)

    def test_values_mode(self, capsys):
        code, out = run_cli(
            capsys,
            ["supershift", "--kind", "dpf", "--a", "1.2", "--n-list", "10",
             "--samples", "3", "--values"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,x,re,im"
        assert len(lines) == 4

    @pytest.mark.parametrize("kind", sorted(SUPERSHIFT_GOLDEN))
    def test_values_golden_bytes(self, capsys, kind):
        flags, expected = SUPERSHIFT_GOLDEN[kind]
        code, out = run_cli(capsys, ["supershift", *flags, "--samples", "5", "--values"])
        assert code == 0
        assert out.encode() == expected.encode()

    def test_malformed_polynomial(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["supershift", "--kind", "y", "--g", "1,zz", "--a", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags,message", [
        (["--a", "nan"], "a must be finite, got nan"),
        (["--a", "inf"], "a must be finite, got inf"),
        (["--a=-inf"], "a must be finite, got -inf"),
        (["--a", "2", "--x-min", "nan"], "x_lo must be finite, got nan"),
        (["--a", "2", "--x-max", "inf"], "x_hi must be finite, got inf"),
    ])
    @pytest.mark.parametrize("kind", ["dpf", "y", "z"])
    def test_non_finite_input_is_usage_error(self, capsys, kind, flags, message):
        code = cli.main(["supershift", "--kind", kind, *flags, "--n-list", "10", "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("kind", ["dpf", "y", "z"])
    def test_overflowing_sum_is_exit_3(self, capsys, kind):
        code = cli.main(["supershift", "--kind", kind, "--a", "1e300", "--n-list", "10", "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ArithmeticError: Fourier sum at n=10, a=1e+300")
        assert captured.err.endswith("does not fit in a float\n")


    @pytest.mark.parametrize("flags,message", [
        (["--kind", "dpf", "--p", "3"], "limit amplitude does not fit in a float at a=1e+300, p=3"),
        (["--kind", "z", "--m", "2"], "limit frequency does not fit in a float at a=1e+300, m=2, p=0"),
        (["--kind", "z", "--m", "2", "--p", "1"], "limit amplitude does not fit in a float at a=1e+300, m=2, p=1"),
        (["--kind", "y", "--g", "0,0,1"], "limit frequency does not fit in a float at a=1e+300"),
    ])
    def test_overflowing_limit_is_exit_3(self, capsys, flags, message):
        code = cli.main(["supershift", *flags, "--a", "1e300", "--n-list", "10", "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert (captured.out, captured.err) == ("", f"error: ArithmeticError: {message}\n")

    @pytest.mark.parametrize("flags,message", [
        (["--kind", "dpf"], "a=1e+300, p=0"),
        (["--kind", "z", "--m", "1"], "a=1e+300, m=1, p=0"),
        (["--kind", "y", "--g", "0,1"], "a=1e+300"),
    ])
    def test_overflowing_limit_phase_is_exit_3(self, capsys, flags, message):
        # the n = 1 sum fits in a float, but freq x does not
        code = cli.main(["supershift", *flags, "--a", "1e300", "--n-list", "1",
                         "--x-min", "1e10", "--x-max", "2e10", "--samples", "2"])
        captured = capsys.readouterr()
        assert code == 3
        expected = f"error: ArithmeticError: limit phase does not fit in a float at {message}, x=10000000000.0\n"
        assert (captured.out, captured.err) == ("", expected)

    @pytest.mark.parametrize("flags,message", [
        (["--g", "0,nan"], "phase coefficient must be finite, got nan"),
        (["--h", "1,inf"], "weight coefficient must be finite, got inf"),
    ])
    def test_non_finite_coefficient_is_usage_error(self, capsys, flags, message):
        code = cli.main(["supershift", "--kind", "y", *flags, "--a", "2", "--n-list", "10", "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestExitCodes:
    """0 success, 1 verification mismatch, 2 usage or domain error
    (ValueError), 3 any other failure, with a one-line message."""

    @pytest.mark.parametrize("exc,name", [
        (ArithmeticError("no float\nholds it"), "ArithmeticError"),
        (OverflowError("too large"), "OverflowError"),
        (RuntimeError("did not stabilize"), "RuntimeError"),
        (KeyError("lost"), "KeyError"),
    ])
    def test_other_failures_are_exit_3(self, capsys, monkeypatch, exc, name):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "limit_profile", fail)
        code = cli.main(["supershift", "--kind", "dpf", "--a", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name}: ")
        assert captured.err.count("\n") == 1

    def test_keyboard_interrupt_is_not_swallowed(self, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "limit_profile", interrupt)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["supershift", "--kind", "dpf", "--a", "2"])


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "superosc.cli", "coeffs", "--n", "2", "--a", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == COEFFS_GOLDEN


def test_cli_import_loads_no_scipy():
    # mpmath is the one numeric library
    result = subprocess.run(
        [sys.executable, "-c", "import sys, superosc.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
