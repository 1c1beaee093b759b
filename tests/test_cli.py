"""Tests for the command-line interface: output shapes and exit codes."""

import json
import shlex
from pathlib import Path

import pytest

from monofour import checks, trace
from monofour.cli import build_parser, main
from monofour.reports import EXIT_CODES, EXIT_REFUSED
from test_reports import validate_report_dict

# Refused input (usage errors, expressions that do not parse, parameters
# out of range) exits EXIT_REFUSED, not the code 1 of a failed check; the
# tests named `..._exits_refused` assert it.


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_weyl_json(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "--algebra", "weyl", "dx*(x-1)")
        assert code == 0 and not err
        data = json.loads(out)
        assert data["normal_form"] == "1 - dx + x*dx"
        assert data["algebra"] == "weyl"

    def test_shift_kernel_relation(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--algebra", "shift", "(s+1) - Ti*s")
        assert code == 0
        assert json.loads(out)["normal_form"] == "Ti*(-s) + (1 + s)"

    def test_pretty_is_plain_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--algebra", "weyl", "dx*x", "--pretty"
        )
        assert code == 0
        assert "normal form" in out and "x*dx" in out

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "reduce", "--algebra", "weyl", "x")
        assert out.strip() == json.dumps(json.loads(out), sort_keys=True)

    def test_syntax_error_exits_refused(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "--algebra", "shift", "s + +")
        assert code == EXIT_REFUSED and not out
        assert "offset 4" in err

    def test_zero_denominator_exits_refused(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "--algebra", "weyl", "2/0")
        assert (code, out) == (EXIT_REFUSED, "")
        assert err == "error: zero denominator at offset 2\n"

    def test_superscript_exponent_exits_refused_with_offset(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "--algebra", "weyl", "x^\u00b2")
        assert (code, out) == (EXIT_REFUSED, "")
        assert err == "error: unexpected character '\u00b2' at offset 2\n"

    def test_wrong_algebra_atom_exits_refused(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "--algebra", "weyl", "T*s")
        assert code == EXIT_REFUSED
        assert "shift" in err


class TestMellinAndFourier:
    def test_mellin_euler_operator(self, capsys):
        code, out, _ = run_cli(capsys, "mellin", "x*dx")
        assert code == 0
        data = json.loads(out)
        assert data["shift_normal_form"] == "s"

    def test_mellin_variable_becomes_shift(self, capsys):
        _, out, _ = run_cli(capsys, "mellin", "x")
        assert json.loads(out)["shift_normal_form"] == "T"

    def test_fourier_variable(self, capsys):
        code, out, _ = run_cli(capsys, "fourier", "--rank", "1", "x")
        assert code == 0
        assert json.loads(out)["transformed"] == "-dx"

    def test_fourier_default_rank(self, capsys):
        code, out, _ = run_cli(capsys, "fourier", "dx")
        assert code == 0
        assert json.loads(out)["transformed"] == "x"

    @pytest.mark.parametrize("argv, key, want", [
        (("reduce", "--algebra", "weyl", "1/2*x*dx + 1/2*x*dx - 3/2"), "normal_form",
         "-3/2 + x*dx"),
        (("fourier", "x*dx + 1/2*x*dx"), "transformed", "-3/2 - 3/2*x*dx"),
        (("mellin", "2/4*x*dx+1/2*x*dx"), "shift_normal_form", "s"),
    ])
    def test_halves_summing_to_integers_print_as_before(self, capsys, argv, key, want):
        # the lines CI runs through the installed entry point
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)[key] == want

    def test_fourier_rank_two_output_reparses(self, capsys):
        code, out, _ = run_cli(capsys, "fourier", "--rank", "2", "x*dx + dx2*x2")
        assert code == 0
        data = json.loads(out)
        assert data["normal_form"] == "1 + x2*dx2 + x1*dx1"
        assert data["transformed"] == "-1 - x2*dx2 - x1*dx1"
        # the printed forms parse back at the same rank
        for printed in (data["normal_form"], data["transformed"]):
            code, out, _ = run_cli(capsys, "fourier", "--rank", "2", printed)
            assert code == 0
            assert json.loads(out)["normal_form"] == printed
        # coordinate 1 written with its index reduces at the default rank
        code, out, _ = run_cli(capsys, "reduce", "--algebra", "weyl", "x1*dx1")
        assert code == 0
        assert json.loads(out)["normal_form"] == "x*dx"


class TestTrace:
    def test_kernel_table(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--q", "5", "--object", "B")
        assert code == 0
        data = json.loads(out)
        values = {row["point"]: row["value"] for row in data["values"]}
        assert values == {"0": "1", "1": "-4", "2": "1", "3": "1", "4": "1"}

    def test_power_count_table(self, capsys):
        _, out, _ = run_cli(capsys, "trace", "--q", "5", "--object", "I0:2")
        data = json.loads(out)
        values = {row["point"]: row["value"] for row in data["values"]}
        assert values == {"0": "0", "1": "2", "2": "0", "3": "0", "4": "2"}

    def test_psi_table(self, capsys):
        _, out, _ = run_cli(capsys, "trace", "--q", "3", "--object", "psi")
        data = json.loads(out)
        assert [row["value"] for row in data["values"]] == ["1", "z3", "-1 - z3"]

    def test_pretty_table_lexicographic(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--q", "3", "--object", "B", "--pretty"
        )
        assert code == 0
        lines = [ln.split() for ln in out.strip().splitlines()[1:]]
        assert [ln[0] for ln in lines] == ["0", "1", "2"]

    def test_unknown_object_exits_refused(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--q", "5", "--object", "Z")
        assert code == EXIT_REFUSED and "Z" in err

    def test_nonprime_power_q_exits_refused(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--q", "6", "--object", "B")
        assert code == EXIT_REFUSED and err


class TestVerify:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "keythm", "--q", "3", "--d", "1")
        assert code == 0
        data = json.loads(out)
        validate_report_dict(data)
        assert data["verdict"] == "pass"
        assert data["parameters"]["q"] == 3

    def test_diagnostic_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "propB3-diagnostic", "--q", "3", "--n", "1")
        assert code == 2
        assert json.loads(out)["verdict"] == "diagnostic"

    def test_chi_flag_reaches_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "propDmod3", "--chi", "1/2", "--n", "2", "--window", "6"
        )
        assert code == 0
        assert json.loads(out)["parameters"]["chi"] == "1/2"

    def test_degree_bound_flag_reaches_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "propDmod1", "--window", "3", "--degree-bound", "2"
        )
        assert code == 0
        assert json.loads(out)["parameters"]["degree_bound"] == 2

    def test_count_flag_reaches_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "mon-test", "--count", "2", "--window", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["parameters"]["count"] == 2
        assert data["witness"]["count"] == 2

    def test_variant_flag_reaches_check(self, capsys):
        # The plain twist admits no kernel-relation generator: a fail.
        code, out, _ = run_cli(
            capsys, "verify", "exp-square", "--variant", "plain", "--window", "3"
        )
        assert code == 1
        data = json.loads(out)
        assert data["parameters"]["variant"] == "plain"
        assert data["verdict"] == "fail"

    def test_every_check_parameter_has_a_flag(self):
        options = vars(build_parser().parse_args(["verify", "appendix-tensor"]))
        for spec in checks.CHECKS.values():
            assert set(spec.defaults) <= set(options), spec.check_id

    def test_inapplicable_flag_exits_refused(self, capsys):
        code, _, err = run_cli(capsys, "verify", "keythm", "--ell", "3")
        assert code == EXIT_REFUSED and "ell" in err

    def test_unknown_check_exits_refused(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonsense")
        assert code == EXIT_REFUSED and err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "appendix-augmentation", "--ell", "0"), "ell must be prime, got 0"),
        (("verify", "appendix-augmentation", "--n", "0"), "n = 0 must be at least 1"),
        (("verify", "mon-test", "--window", "-1"), "window radius -1 must be at least 0"),
        (("verify", "propDmod1", "--degree-bound", "-1"), "degree bound -1 must be at least 0"),
        (("verify", "lem-mon-shadow", "--q", "7", "--n", "3", "--chi", "1/2"),
         "chi = 1/2 must be an integer"),
        # these raised a plain ValueError before every refusal was typed
        (("trace", "--q", "5", "--object", "I0:x"),
         "power-count exponent 'x' is not a rational number"),
        (("fourier", "--rank", "0", "x"), "rank 0 must be at least 1"),
        (("verify", "bl2", "--q", "4"), "q must be prime, got 4"),
        (("verify", "exp-square", "--variant", "x"), "unknown twist variant 'x'"),
        (("trace", "--q", "6", "--object", "B"), "field size 6 is not a prime power"),
        (("verify", "keythm", "--ell", "3"), "check 'keythm' takes no parameter 'ell'"),
        # keythm grew without limit here
        (("verify", "keythm", "--q", "3", "--d", "12"), "q^d = 531441 must be at most 2187"),
    ])
    def test_bad_parameter_exits_refused_without_traceback(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_REFUSED, "")
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_pretty_shows_statement(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "appendix-tensor", "--pretty")
        assert code == 0
        assert "verdict:   pass" in out
        assert checks.CHECKS["appendix-tensor"].statement in out


class TestVerifyAll:
    @pytest.fixture()
    def tiny_profile(self, monkeypatch):
        monkeypatch.setitem(
            checks.PROFILES,
            "quick",
            lambda: [
                ("keythm", {"q": 2, "d": 1}),
                ("gauss-g-diagnostic", {"q": 3, "n": 1}),
            ],
        )

    def test_exit_0_when_no_failures(self, capsys, tiny_profile):
        code, out, _ = run_cli(capsys, "verify-all", "--profile", "quick")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["counts"] == {"pass": 1, "fail": 0, "diagnostic": 1, "error": 0}
        for rep in data["reports"]:
            validate_report_dict(rep)

    def test_exit_1_on_any_failure(self, capsys, monkeypatch):
        canned = {
            "profile": "quick",
            "seed": None,
            "counts": {"pass": 0, "fail": 1, "diagnostic": 0},
            "verdict": "fail",
            "reports": [],
        }
        monkeypatch.setattr(checks, "run_all", lambda *a, **k: canned)
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_seed_flag_threaded_through(self, capsys, tiny_profile):
        code, out, _ = run_cli(capsys, "verify-all", "--seed", "123")
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == 123
        keythm = data["reports"][0]
        assert keythm["parameters"]["seed"] == 123

    def test_pretty_summary_line(self, capsys, tiny_profile):
        code, out, _ = run_cli(capsys, "verify-all", "--pretty")
        assert code == 0
        assert "verdict=pass" in out.splitlines()[-1]

    def test_exit_3_when_a_check_raises(self, capsys, monkeypatch, tiny_profile):
        def boom(**params):
            raise ZeroDivisionError("engine broke")

        monkeypatch.setattr(trace, "check_keythm", boom)
        code, out, _ = run_cli(capsys, "verify-all", "--pretty")
        assert code == 3
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["error", "keythm"]
        assert lines[-1].endswith("verdict=error pass=0 fail=0 diagnostic=1 error=1")

    def test_verify_still_raises_from_the_engine(self, monkeypatch):
        def boom(**params):
            raise ZeroDivisionError("engine broke")

        monkeypatch.setattr(trace, "check_keythm", boom)
        with pytest.raises(ZeroDivisionError):
            main(["verify", "keythm", "--q", "2", "--d", "1"])

    def test_an_untyped_value_error_is_a_fault_not_refused_input(self, monkeypatch):
        def broken(**params):
            raise ValueError("an internal invariant failed")

        monkeypatch.setattr(trace, "check_keythm", broken)
        with pytest.raises(ValueError, match="internal invariant"):
            main(["verify", "keythm"])

    def test_jobs_flag_is_usage_error(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no profile may run")

        monkeypatch.setattr(checks, "run_all", never)
        for jobs in ("1", "2", "0"):
            code, out, err = run_cli(capsys, "verify-all", "--jobs", jobs)
            assert code == EXIT_REFUSED and not out
            assert "unrecognized arguments: --jobs" in err


class TestUsageErrors:
    def test_refused_input_has_a_code_of_its_own(self):
        assert EXIT_REFUSED == 4 and EXIT_REFUSED not in EXIT_CODES.values()

    def test_unknown_subcommand_exits_refused(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == EXIT_REFUSED and err

    def test_missing_required_flag_exits_refused(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "dx")
        assert code == EXIT_REFUSED and err

    def test_no_subcommand_exits_refused(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == EXIT_REFUSED and err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "verify-all" in out


def readme_quick_start():
    """(argv, expected stdout) for every `$ monofour ...` line of the README
    quick start that shows output: the lines after it up to the next
    blank line, comment or command."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start (CLI)")[1].split("```sh\n")[1].split("```")[0]
    cases, lines = [], None
    for line in block.splitlines():
        if line.startswith("$ monofour "):
            lines = []
            cases.append((shlex.split(line)[2:], lines))
        elif lines is not None and line and not line.startswith("#"):
            lines.append(line)
        else:
            lines = None
    return [(argv, "".join(f"{out}\n" for out in lines)) for argv, lines in cases if lines]


README_CASES = readme_quick_start()


class TestReadmeQuickStart:
    def test_cases_found(self):
        assert len(README_CASES) == 6

    @pytest.mark.parametrize("argv,expected", README_CASES,
                             ids=[" ".join(argv) for argv, _ in README_CASES])
    def test_output_matches_readme(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, expected, "")
