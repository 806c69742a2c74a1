import json
import os
import site
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hyperspace", *args],
        capture_output=True,
        text=True,
    )


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if "generated_at" not in line
    )


class TestEval:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("c[1,1] * c[1,1]", "c[0,2]"),
            ("abs(c[3,4])", "5"),
            ("lift(c[3,4], 12)", "c[3,4,12]"),
        ],
    )
    def test_worked_examples_bit_stable(self, expr, expected):
        first = run_cli("eval", expr)
        second = run_cli("eval", expr)
        assert first.returncode == 0
        assert first.stdout == expected + "\n"
        assert first.stdout == second.stdout

    def test_orientation_flag(self):
        ccw = run_cli("eval", "p[2; pi/2, pi/2]")
        cw = run_cli("eval", "--orientation", "cw", "p[2; pi/2, pi/2]")
        assert ccw.stdout == "c[0,0,2]\n"
        assert cw.stdout == "c[0,2,0]\n"

    def test_json_format(self):
        out = run_cli("eval", "--format", "json", "c[1,1] * c[1,1]")
        payload = json.loads(out.stdout)
        assert payload["kind"] == "cartesian"
        assert payload["coeffs"][1] == pytest.approx(2.0)

    def test_digits_flag(self):
        out = run_cli("eval", "--digits", "4", "p[1; 1]")
        assert out.stdout == "c[0.5403,0.8415]\n"

    def test_subnormal_coefficients_print_as_themselves(self):
        assert run_in_process("eval", "--digits", "6", "c[1e-313,1e-313]") == (
            0, "c[1e-313,1e-313]\n", "")
        tiny = format(5e-324, ".12g")
        assert run_in_process("eval", "c[5e-324,5e-324,5e-324]")[1] == f"c[{tiny},{tiny},{tiny}]\n"
        out = run_in_process("eval", "--format", "json", "c[5e-324,5e-324,5e-324]")[1]
        assert json.loads(out)["coeffs"] == [5e-324] * 3

    def test_s3_eval(self):
        out = run_cli("eval", "s3p[1; pi/2, pi/2] * s3p[1; pi/2, pi/2]")
        assert out.returncode == 0
        assert out.stdout == "s3[-1,0,0]\n"


class TestErrors:
    def test_malformed_expression_exit_1_with_position(self):
        out = run_cli("eval", "c[1,")
        assert out.returncode == 1
        assert out.stdout == ""
        assert "offset 4" in out.stderr

    def test_a_character_no_token_starts_with_is_named_at_its_offset(self):
        code, out, err = run_in_process("eval", "c[1,2] $")
        assert (code, out) == (1, "")
        assert err == "hsc: syntax error at offset 7: expected a token, found '$'\n"

    def test_the_type_check_walks_the_tree_once(self, monkeypatch):
        from hyperspace import expr

        check, nodes = expr.check, []
        monkeypatch.setattr(expr, "check", lambda node: nodes.append(node) or check(node))
        assert run_in_process("convert", "--to", "polar", "c[1,0] * c[0,1]")[0] == 0
        assert len(nodes) == 3

    def test_type_error_exit_1(self):
        out = run_cli("eval", "c[1,2] + s3[1,2,3]")
        assert out.returncode == 1
        assert "type error" in out.stderr

    def test_arithmetic_error_exit_2(self):
        out = run_cli("eval", "c[1,0] / c[0,0]")
        assert out.returncode == 2
        assert "arithmetic error" in out.stderr

    def test_lift_of_zero_exit_2(self):
        out = run_cli("eval", "lift(c[0,0], 1)")
        assert out.returncode == 2

    def test_usage_error_exit_1(self):
        out = run_cli("eval", "--orientation", "widdershins", "c[1,1]")
        assert out.returncode == 1

    def test_missing_command_exit_1(self):
        out = run_cli()
        assert out.returncode == 1


class TestConvert:
    def test_to_polar(self):
        out = run_cli("convert", "--to", "polar", "c[1,1]")
        assert out.returncode == 0
        assert out.stdout == "p[1.41421356237; 0.785398163397]\n"

    def test_to_cartesian(self):
        out = run_cli("convert", "--to", "cartesian", "p[2; pi/2, pi/2]")
        assert out.stdout == "c[0,0,2]\n"

    def test_s3_to_polar(self):
        out = run_cli("convert", "--to", "polar", "s3[0,0,2]")
        assert out.stdout == "s3p[2; 1.57079632679, 1.57079632679]\n"

    def test_scalar_rejected(self):
        out = run_cli("convert", "--to", "polar", "abs(c[1,1])")
        assert out.returncode == 1


class TestRoots:
    def test_square_roots_of_minus_one(self):
        out = run_cli("roots", "c[-1,0]", "2")
        assert out.stdout.splitlines() == ["c[0,1]", "c[0,-1]"]

    def test_s3_roots(self):
        out = run_cli("roots", "s3[1,0,0]", "2")
        assert out.stdout.splitlines() == ["s3[1,0,0]", "s3[-1,0,0]"]

    def test_json_roots(self):
        out = run_cli("roots", "--format", "json", "c[-1,0]", "2")
        payload = json.loads(out.stdout)
        assert payload["kind"] == "roots" and len(payload["roots"]) == 2

    def test_bad_order(self):
        out = run_cli("roots", "c[1,0]", "0")
        assert out.returncode == 1


class TestAudit:
    def test_byte_identical_modulo_timestamp(self):
        args = ("audit", "--samples", "60", "--dim", "2", "--dim", "3", "--seed", "7")
        first = run_cli(*args)
        second = run_cli(*args)
        assert strip_timestamp(first.stdout) == strip_timestamp(second.stdout)
        assert json.loads(first.stdout)["config"]["seed"] == 7

    def test_exit_three_on_hypothesis_failures(self):
        out = run_cli("audit", "--samples", "40", "--dim", "3", "--law", "distributive")
        assert out.returncode == 3
        payload = json.loads(out.stdout)
        assert payload["results"][0]["passes"] < 40

    def test_exit_zero_when_all_pass(self):
        out = run_cli(
            "audit", "--samples", "40", "--dim", "2", "--law", "mul_commutative"
        )
        assert out.returncode == 0

    def test_markdown_format(self):
        out = run_cli(
            "audit",
            "--samples",
            "20",
            "--dim",
            "2",
            "--law",
            "demoivre",
            "--format",
            "markdown",
        )
        assert "| demoivre | 2 |" in out.stdout

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        out = run_cli(
            "audit", "--samples", "20", "--dim", "2", "--law", "demoivre",
            "--out", str(target),
        )
        assert out.stdout == ""
        assert json.loads(target.read_text())["results"][0]["law"] == "demoivre"

    def test_unknown_law_rejected(self):
        out = run_cli("audit", "--law", "no_such_law")
        assert out.returncode == 1

    def test_default_dims_are_the_library_defaults(self):
        from hyperspace.audit import AuditConfig

        code, out, err = run_in_process("audit", "--samples", "1", "--law", "add_commutative")
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["dims"] == list(AuditConfig().dims)

    def test_domain_flag(self):
        out = run_cli(
            "audit", "--samples", "30", "--dim", "2",
            "--law", "cartesian_mul_agreement",
            "--domain", "positive_restricted",
        )
        assert out.returncode == 0  # agreement holds on the positive domain


def run_in_process(*args):
    """cli.main in this process: (exit code, stdout, stderr)."""
    import contextlib
    import io

    from hyperspace import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestExitContract:
    @pytest.mark.parametrize("expr", ["c[10,0]^400", "p[10^400; 0]"])
    def test_overflow_is_an_arithmetic_error(self, expr):
        code, out, err = run_in_process("eval", expr)
        assert (code, out) == (2, "")
        assert err.startswith("hsc: arithmetic error:") and err.count("\n") == 1

    def test_an_engine_result_that_overflows_keeps_its_message(self):
        # the modulus of an operand overflows inside to_polar, not at a literal
        code, out, err = run_in_process("eval", "c[1e308,1e308] * c[1e308,1e308]")
        assert (code, out) == (2, "")
        assert err == "hsc: arithmetic error: modulus must be finite and >= 0, got inf\n"

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * 3000 + "c[1,0]" + ")" * 3000,
            " + ".join(["c[1,0]"] * 3000),
            "abs(" * 400 + "c[1,0]" + ")" * 400,
            "c[1,0]" + "^1" * 3000,
            "p[" + "(" * 3000 + "1" + ")" * 3000 + "; 0]",
            "c[" + "+".join(["1"] * 3000) + ",0]",
            "-" * 3000 + "c[1,0]",
        ],
        ids=["parentheses", "chain", "calls", "powers", "scalar", "scalar_chain", "signs"],
    )
    def test_too_deep_is_a_syntax_error_with_an_offset(self, expr):
        code, out, err = run_in_process("eval", "--", expr)
        assert (code, out) == (1, "")
        assert err.startswith("hsc: syntax error at offset ") and "nesting levels" in err

    def test_too_deep_exits_1_from_a_process(self):
        out = run_cli("eval", "(" * 3000 + "c[1,0]" + ")" * 3000)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr and "offset" in out.stderr

    @pytest.mark.parametrize(
        "expr,offset",
        [("c[1e400,0]", 2), ("c[1e308*10,0]", 7), ("p[1; 1e308*10]", 10),
         ("lift(c[1,0], 1e400)", 13)],
    )
    def test_literal_out_of_range_names_its_offset(self, expr, offset):
        code, out, err = run_in_process("eval", expr)
        assert (code, out) == (2, "")
        assert err == f"hsc: arithmetic error: numeric literal out of range at offset {offset}\n"

    def test_literal_zero_to_a_negative_power_is_a_division_by_zero(self):
        code, out, err = run_in_process("eval", "c[0^-1,1]")
        assert (code, out) == (1, "")
        assert err == "hsc: type error at offset 3: division by zero in a numeric literal\n"

    def test_complex_literal_is_a_type_error(self):
        code, _, err = run_in_process("eval", "c[(-8)^0.5, 1]")
        assert code == 1 and "not a real number" in err

    def test_infinite_power_is_a_syntax_error(self):
        code, _, err = run_in_process("eval", "c[1,1]^1e400")
        assert code == 1 and "expected an integer" in err

    def test_root_order_bound(self):
        from hyperspace.expr import MAX_ROOT_ORDER

        code, out, _ = run_in_process("roots", "c[1,0]", str(MAX_ROOT_ORDER))
        assert code == 0 and len(out.splitlines()) == MAX_ROOT_ORDER
        for argv in (
            ("roots", "c[1,0]", str(MAX_ROOT_ORDER + 1)),
            ("eval", f"roots(c[1,0], {MAX_ROOT_ORDER + 1})"),
        ):
            code, out, err = run_in_process(*argv)
            assert (code, out) == (1, "")
            assert f"root order must be <= {MAX_ROOT_ORDER}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--digits", "-1", "c[1,2]"),
            ("convert", "--to", "polar", "--digits", str(2**31), "c[1,2]"),
            ("audit", "--samples", "0"),
            ("audit", "--seed", "-1"),
            ("audit", "--seed", str(2**64)),
            ("audit", "--dim", "1"),
            ("audit", "--abs-eps", "0"),
            ("audit", "--rel-eps", "-1"),
            ("audit", "--law", "bogus"),
            ("audit", "--domain", "bogus"),
            ("audit", "--abs-eps", "inf"),
            ("audit", "--rel-eps", "1e400"),
        ],
    )
    def test_option_out_of_range_is_a_usage_error(self, argv):
        code, out, err = run_in_process(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("hsc: ") and err.count("\n") == 1
        assert "arithmetic" not in err

    def test_a_request_over_the_audit_bounds_is_rejected_before_the_audit(self, monkeypatch):
        from hyperspace import audit

        monkeypatch.setattr(audit, "run_audit", lambda *args: pytest.fail("the audit ran"))
        for option in (("--dim", str(audit.MAX_DIM + 1)), ("--samples", str(2**32 + 1))):
            code, out, err = run_in_process("audit", *option)
            assert (code, out) == (1, "")
            assert err.startswith("hsc: ") and err.count("\n") == 1 and "at most" in err

    def test_unwritable_report_file_is_rejected_before_the_audit(self, tmp_path, monkeypatch):
        from hyperspace import audit

        monkeypatch.setattr(audit, "run_audit", lambda *args: pytest.fail("the audit ran"))
        for path in (tmp_path / "missing" / "r.json", tmp_path):
            code, out, err = run_in_process("audit", "--out", str(path))
            assert (code, out) == (1, "")
            assert err.startswith("hsc: ") and err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize(
        "repeat", [("--dim", "3"), ("--law", "add_commutative")], ids=["dim", "law"]
    )
    def test_repeated_option_is_rejected_before_the_audit(self, repeat, tmp_path, monkeypatch):
        from hyperspace import audit

        monkeypatch.setattr(audit, "run_audit", lambda *args: pytest.fail("the audit ran"))
        path = tmp_path / "r.json"
        code, out, err = run_in_process("audit", *repeat, *repeat, "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("hsc: ") and err.count("\n") == 1 and "repeat" in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--digits", "3", "--digits", "5", "c[1,1]"),
            ("eval", "--dig", "3", "--digits", "3", "c[1,1]"),  # an abbreviation is the option
            ("eval", "--orientation", "cw", "--orientation", "ccw", "c[1,1]"),
            ("eval", "--format", "json", "--format", "json", "c[1,1]"),
            ("convert", "--to", "polar", "--to", "cartesian", "c[1,1]"),
            ("roots", "--digits", "3", "--digits", "4", "c[1,0]", "2"),
            ("audit", "--samples", "3", "--samples", "2"),
            ("audit", "--seed", "1", "--seed", "1"),
            ("audit", "--domain", "unrestricted", "--domain", "positive_restricted"),
            ("audit", "--abs-eps", "1e-9", "--abs-eps", "1e-9"),
            ("audit", "--rel-eps", "1e-9", "--rel-eps", "1e-6"),
            ("audit", "--format", "json", "--format", "markdown"),
            ("audit", "--out", "a.json", "--out", "b.json"),
        ],
    )
    def test_a_repeated_single_option_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        from hyperspace import audit, cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(audit, "run_audit", lambda *args: pytest.fail("the audit ran"))
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.startswith("usage: hsc ")
        assert err.endswith(f"error: argument {argv[3]}: may not be repeated\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_repeated_option_exits_1_from_a_process(self):
        out = run_cli("eval", "--digits", "3", "--digits", "5", "c[1,1]")
        assert (out.returncode, out.stdout) == (1, "")
        assert "Traceback" not in out.stderr and "may not be repeated" in out.stderr

    def test_dims_and_laws_stay_repeatable(self):
        code, out, _ = run_in_process(
            "audit", "--samples", "2", "--dim", "2", "--dim", "3",
            "--law", "add_commutative", "--law", "mul_commutative",
        )
        cells = [(r["law"], r["dim"]) for r in json.loads(out)["results"]]
        assert code == 0 and cells == [
            ("add_commutative", 2), ("add_commutative", 3), ("mul_commutative", 2), ("mul_commutative", 3)
        ]

    @pytest.mark.parametrize(
        "option,known", [("--law", "add_commutative"), ("--domain", "unrestricted")]
    )
    def test_unknown_choice_is_rejected_before_the_audit(
        self, option, known, tmp_path, monkeypatch
    ):
        from hyperspace import audit

        monkeypatch.setattr(audit, "run_audit", lambda *args: pytest.fail("the audit ran"))
        path = tmp_path / "r.json"
        code, out, err = run_in_process("audit", option, "bogus", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("hsc: unknown ") and err.count("\n") == 1 and known in err
        assert not path.exists()

    def test_a_bare_audit_hands_over_the_library_defaults(self, monkeypatch):
        from hyperspace import audit

        calls = []

        def run_audit(cfg, laws):
            calls.append((cfg, laws))
            return audit.AuditReport(cfg, laws, (), "", "")

        monkeypatch.setattr(audit, "run_audit", run_audit)
        code, _, err = run_in_process("audit")
        assert (code, err) == (0, "")
        assert calls == [(audit.AuditConfig(), audit.LAW_IDS)]

    @pytest.mark.parametrize(
        "argv",
        [
            ("convert", "--to", "polar", "abs(c[1e300,1e300] * c[1e300,1e300])"),
            ("roots", "abs(c[1e300,1e300] * c[1e300,1e300])", "2"),
            ("roots", "roots(c[1,0], 1000)", "2"),
        ],
        ids=["convert_overflow", "roots_overflow", "roots_of_roots"],
    )
    def test_a_non_number_is_rejected_before_it_is_evaluated(self, argv, monkeypatch):
        from hyperspace import expr

        monkeypatch.setattr(expr, "evaluate", lambda *args: pytest.fail("evaluated"))
        code, out, err = run_in_process(*argv)
        assert (code, out) == (1, "")
        assert err == f"hsc: type error at offset 0: {argv[0]} expects a number-valued expression\n"

    def test_a_result_that_cannot_be_written_exits_1_with_one_line(self, monkeypatch):
        import contextlib
        import errno
        import io

        from hyperspace import cli

        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        def run(*argv, stdout):
            err = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                return cli.main(list(argv)), err.getvalue()

        full = (1, "hsc: cannot write output: [Errno 28] No space left on device\n")
        audit = ("audit", "--dim", "2", "--samples", "2", "--law", "add_commutative")
        for argv in (("eval", "c[1,1]"), ("roots", "c[0,1]", "2"), audit):
            assert run(*argv, stdout=Full()) == full, argv
        # the report file, opened before the audit, fails when it is written
        monkeypatch.setattr(cli, "open", lambda *args, **kw: Full(), raising=False)
        out = io.StringIO()
        assert run(*audit, "--out", "r.json", stdout=out) == full and out.getvalue() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_writing_to_a_full_device_exits_1_without_a_traceback(self):
        audit = ("audit", "--dim", "2", "--samples", "2", "--law", "add_commutative")
        for argv, to_stdout in (((*audit, "--out", "/dev/full"), False), (audit, True), (("eval", "c[1,1]"), True)):
            with open("/dev/full", "w") as full:
                out = subprocess.run([sys.executable, "-m", "hyperspace", *argv], text=True,
                                     stdout=full if to_stdout else subprocess.PIPE, stderr=subprocess.PIPE)
            assert out.returncode == 1, argv
            assert out.stderr == "hsc: cannot write output: [Errno 28] No space left on device\n", argv

    def test_a_closed_stdout_exits_1_with_one_line(self):
        # the interpreter sets sys.stdout to None when descriptor 1 is closed at start
        audit = ("audit", "--dim", "2", "--samples", "2", "--law", "add_commutative")
        for argv in (("eval", "c[1,1]"), ("roots", "c[0,1]", "2"), audit):
            out = subprocess.run([sys.executable, "-m", "hyperspace", *argv], text=True,
                                 stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
            assert out.returncode == 1, argv
            assert out.stderr == "hsc: cannot write output: [Errno 9] Bad file descriptor: '<stdout>'\n", argv

    def test_report_file_holds_the_report(self, tmp_path):
        argv = ("audit", "--samples", "3", "--dim", "2", "--law", "add_commutative")
        code, out, err = run_in_process(*argv)
        path = tmp_path / "r.json"
        assert run_in_process(*argv, "--out", str(path)) == (code, "", err)
        assert strip_timestamp(path.read_text()) == strip_timestamp(out)

    def test_s3_roots_ignore_the_orientation(self):
        # a 3D product is carried in polar form; it keeps the s3 chart
        ccw = run_in_process("roots", "s3[1,2,3] * s3[0.5,-1,2]", "3")
        cw = run_in_process("roots", "--orientation", "cw", "s3[1,2,3] * s3[0.5,-1,2]", "3")
        assert ccw == cw and ccw[0] == 0 and ccw[1].count("s3[") == 3


_WATCHED = ("numpy", "hyperspace.audit", "hyperspace.coeff_formulas", "hyperspace._columns")

# A probe's fresh interpreter runs without site (-S), whose .pth files may
# import modules (typing, say) before the probe starts. src and this
# interpreter's site-packages, where numpy is, go on an explicit path.
_PROBE_PATH = os.pathsep.join([str(SRC), *site.getsitepackages(), site.getusersitepackages()])


def fresh_interpreter(code: str, *args: str) -> str:
    """What ``code`` prints, run with ``args`` in a new interpreter without site."""
    env = {**os.environ, "PYTHONPATH": _PROBE_PATH}
    return subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True).stdout


# what the interpreter loaded before hyperspace does not count
_MAIN_IN_A_FRESH_INTERPRETER = """
import contextlib, io, json, sys
before = set(sys.modules)
from hyperspace import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, [m for m in json.loads(sys.argv[2]) if m in set(sys.modules) - before]]))
"""


def main_in_a_fresh_interpreter(*argvs, watched=_WATCHED):
    """Exit codes of cli.main over argvs in one new interpreter, and which of
    the watched modules were loaded from ``from hyperspace import cli`` on."""
    return tuple(json.loads(fresh_interpreter(_MAIN_IN_A_FRESH_INTERPRETER, json.dumps(argvs), json.dumps(watched))))


@pytest.fixture(scope="module")
def number_commands():
    """One fresh interpreter's run of eval, convert and roots."""
    return main_in_a_fresh_interpreter(
        ["eval", "c[1,1] * c[1,1]"],
        ["convert", "--to", "polar", "c[1,1,1]"],
        ["roots", "c[-1,0]", "2"],
        ["eval", "c[1,0] / c[0,0]"],
    )


# modules a number command does without: the dataclass machinery, and the
# rotation oracle and 3D module, which only the library's API and the audit use
_COLD = ("dataclasses", "inspect", "typing", "hyperspace.rotation", "hyperspace.space3")


class TestImports:
    def test_number_commands_load_no_dataclasses_rotation_or_space3(self):
        codes, loaded = main_in_a_fresh_interpreter(
            ["eval", "c[1,1] * c[1,1]"],
            ["eval", "--format", "json", "c[1,2] + c[3,4]"],
            ["convert", "--to", "polar", "--orientation", "cw", "c[1,1,1]"],
            ["convert", "--to", "cartesian", "s3p[2; pi/2, pi]"],
            ["roots", "s3[-1,0,0]", "3"],
            ["roots", "c[-1,0]", "2"],
            watched=_COLD,
        )
        assert codes == [0] * 6
        assert loaded == []

    def test_the_audit_loads_neither_dataclasses_nor_the_expression_front_end(self):
        # numpy loads inspect and typing itself; space3 and the column kernels
        # loading shows the probe sees the audit's loads
        codes, loaded = main_in_a_fresh_interpreter(
            ["audit", "--samples", "1", "--law", "add_commutative", "--dim", "2"],
            watched=("dataclasses", "hyperspace.expr", "hyperspace.space3", "hyperspace._columns"),
        )
        assert codes == [0]
        assert loaded == ["hyperspace.space3", "hyperspace._columns"]

    def test_importing_the_cli_loads_no_expression_front_end(self):
        probe = "import sys, hyperspace.cli; print('hyperspace.expr' in sys.modules)"
        assert fresh_interpreter(probe) == "False\n"

    def test_the_package_loads_rotation_and_space3_on_first_use(self):
        probe = (
            "import json, sys, hyperspace\n"
            "cold = [m for m in ('hyperspace.rotation', 'hyperspace.space3') if m in sys.modules]\n"
            "from hyperspace import RotationChain, mul3\n"
            "import hyperspace.rotation, hyperspace.space3\n"
            "same = [RotationChain is hyperspace.rotation.RotationChain, mul3 is hyperspace.space3.mul3]\n"
            "print(json.dumps([cold, same]))"
        )
        assert json.loads(fresh_interpreter(probe)) == [[], [True, True]]

    def test_every_exported_name_resolves_and_is_listed(self):
        import hyperspace
        from hyperspace.core import Space3

        assert hyperspace.Space3 is Space3
        assert hyperspace.RotationChain.__module__ == "hyperspace.rotation"
        assert all(getattr(hyperspace, name) is not None for name in hyperspace.__all__)
        star = {}
        exec("from hyperspace import *", star)
        assert set(hyperspace.__all__) <= set(star)
        assert set(hyperspace.__all__) <= set(dir(hyperspace))
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            hyperspace.nope

    def test_number_commands_do_not_load_numpy(self, number_commands):
        codes, loaded = number_commands
        assert codes == [0, 0, 0, 2]
        assert "numpy" not in loaded

    def test_number_commands_do_not_load_the_audit(self, number_commands):
        assert number_commands[1] == []

    def test_the_audit_loads_numpy(self):
        # the control: the probe above can see these modules load
        codes, loaded = main_in_a_fresh_interpreter(
            ["audit", "--samples", "1", "--law", "add_commutative", "--dim", "2"],
        )
        assert codes == [0]
        assert loaded == list(_WATCHED)

    def test_an_audit_that_replays_a_failing_sample_leaves_numpy_random_unloaded(self):
        # every draw, the counterexample's replay too, reads the audit's own
        # stream words; numpy's generators are never built
        bare = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
                              capture_output=True, text=True, check=True)
        if bare.stdout.strip() == "True":
            pytest.skip("a bare `import numpy` loads numpy.random (numpy 1.x)")
        codes, loaded = main_in_a_fresh_interpreter(
            ["audit", "--law", "distributive", "--dim", "3", "--samples", "50"],
            watched=("numpy", "numpy.random"),
        )
        assert codes == [3]
        assert loaded == ["numpy"]

    def test_the_audit_forks_its_workers_without_multiprocessing(self):
        # a multi-cell audit, split over the CPUs where there are several
        codes, loaded = main_in_a_fresh_interpreter(
            ["audit", "--samples", "2", "--dim", "2", "--dim", "3", "--law", "add_commutative", "--law", "demoivre"],
            watched=("multiprocessing", "concurrent.futures", "hyperspace._columns"),
        )
        assert codes == [0]
        assert loaded == ["hyperspace._columns"]

    def test_importing_the_audit_loads_neither_numpy_nor_its_kernels(self):
        probe = f"import json, sys, hyperspace.audit; print(json.dumps([m for m in {_WATCHED!r} if m in sys.modules]))"
        assert json.loads(fresh_interpreter(probe)) == ["hyperspace.audit", "hyperspace.coeff_formulas"]
