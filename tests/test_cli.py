import argparse
import json
import sys
import time

import pytest

from hweyl.cli import main
from hweyl.params import MAX_INPUT_DIGITS, MAX_ORDER
from hweyl.bialgebra import Cocommutator
from hweyl.quantization import HopfPresentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify -----------------------------------------------------------------

def test_classify_coboundary_point(capsys):
    code, out, _ = run(capsys, "classify", '{"a2":"-1","b3":"-1"}')
    assert code == 0
    assert "class: TYPE_II" in out
    assert "coboundary: yes" in out
    assert "xi = 1" in out
    assert "beta_plus, beta_minus free" in out


def test_classify_empty_is_trivial(capsys):
    code, out, _ = run(capsys, "classify", "{}")
    assert code == 0
    assert "class: TRIVIAL" in out


@pytest.mark.parametrize("command", ["classify", "quantize", "coboundary"])
@pytest.mark.parametrize("doc", ["[]", "0", "false", '""', "null"])
def test_input_that_is_not_an_object_exits_1(capsys, command, doc):
    code, out, err = run(capsys, command, doc)
    assert code == 1
    assert out == ""
    assert "must be a JSON object" in err and "Traceback" not in err


def test_classify_invalid_exits_2(capsys):
    code, out, _ = run(capsys, "classify", '{"a1":"1","a3":"1","b1":"1","b3":"2"}')
    assert code == 2
    assert "class: INVALID" in out
    assert "cojacobi residuals: (0, -2)" in out


def test_classify_type_i_plus_automorphism(capsys):
    code, out, _ = run(capsys, "classify", '{"a1":"1","b1":"1"}')
    assert code == 0
    assert "class: TYPE_I_PLUS" in out
    assert "A+ -> -A- +A+" in out or "A+ -> A+ - A-" in out or "-A-" in out


def test_classify_malformed_json_exits_1(capsys):
    code, _, err = run(capsys, "classify", "{not json")
    assert code == 1
    assert "malformed JSON" in err


def test_missing_input_file_is_named(tmp_path, capsys):
    missing = tmp_path / "delta.json"
    code, out, err = run(capsys, "classify", str(missing))
    assert code == 1 and out == ""
    assert err == f"cannot read input file {str(missing)!r}: No such file or directory\n"


def test_unreadable_input_path_is_named(tmp_path, capsys):
    code, out, err = run(capsys, "classify", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith(f"cannot read input file {str(tmp_path)!r}: ")
    assert "malformed JSON" not in err


def test_inline_json_that_fails_to_parse_stays_malformed(capsys):
    for text in ("{not json", ' [1, 2', '{"a1": }'):
        code, _, err = run(capsys, "classify", text)
        assert code == 1
        assert err.startswith("malformed JSON: ")


def test_classify_unknown_field_exits_1(capsys):
    code, _, err = run(capsys, "classify", '{"zz":"1"}')
    assert code == 1
    assert "unknown" in err


def test_classify_json_format_roundtrip(capsys):
    code, out, _ = run(capsys, "classify", '{"a2":"-1","b3":"-1"}',
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "TYPE_II"
    assert doc["coboundary"] is True
    assert doc["rmatrix"]["xi"] == "1"
    # normalized coefficients round-trip through the documented schema
    assert Cocommutator.from_json(doc["normalized"]) == Cocommutator(a2=-1, b3=-1)


def test_classify_input_flag_and_file(tmp_path, capsys):
    path = tmp_path / "delta.json"
    path.write_text('{"a1":"1"}', encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and "TYPE_I_PLUS" in out
    code, out, _ = run(capsys, "classify", "--input", '{"a1":"1"}')
    assert code == 0 and "TYPE_I_PLUS" in out
    code, _, err = run(capsys, "classify", "{}", "--input", "{}")
    assert code == 1


# -- quantize ------------------------------------------------------------------

def test_quantize_symbolic_type_i_plus(capsys):
    code, out, _ = run(capsys, "quantize", "--family", "type1plus",
                       "--order", "3")
    assert code == 0
    assert "A- (x) exp(a1*A+)" in out
    assert "[A-,M] = (1/2)*a1*M^2" in out
    assert "central element" in out


def test_quantize_concrete_type_ii_relation(capsys):
    code, out, _ = run(capsys, "quantize", '{"a2":"-1","b3":"-1"}',
                       "--order", "3")
    assert code == 0
    assert "[A-,A+] = M - M^2 + (2/3)*M^3" in out


def test_quantize_parameter_equal_to_one_is_concrete(capsys):
    code, out, _ = run(capsys, "quantize", '{"a1":"1"}', "--order", "3")
    assert code == 0
    assert "parameters: a1 = 1, a3 = 0" in out
    series = out.split("\nrelations:\n", 1)[1]
    assert "a1" not in series and "(1/2)*M^2" in series


def test_order_cuts_rational_output_at_k_letters(capsys):
    # symbolic output keeps parameter degree <= K, which has words of K + 1
    # letters; with every parameter rational, words of more than K letters go
    code, out, _ = run(capsys, "quantize", "--family", "type1plus", "--order", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["coproduct"]["M"].endswith("(1/2)*a1^2*M (x) A+^2")
    code, out, _ = run(capsys, "quantize", '{"a1":"1","a3":"2"}', "--order", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["coproduct"]["M"] == "1 (x) M + M (x) 1 + M (x) A+"


def test_quantize_invalid_input_exits_2(capsys):
    code, _, err = run(capsys, "quantize", '{"a1":"1","a3":"1","b1":"1","b3":"2"}')
    assert code == 2


def test_quantize_refuses_family_together_with_an_input(capsys):
    for argv in (("--family", "type2", '{"a1":"1"}'),
                 ("--family", "type2", "--input", '{"a1":"1"}')):
        code, out, err = run(capsys, "quantize", *argv)
        assert code == 1 and out == ""
        assert err.strip() == "give either --family or an input, not both"


def test_quantize_json_roundtrip(capsys):
    code, out, _ = run(capsys, "quantize", "--family", "type2",
                       "--order", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "TYPE_II"
    rebuilt = HopfPresentation.from_json(doc)
    assert rebuilt.to_json() == {k: v for k, v in doc.items()
                                 if k != "classification"}


def test_quantize_trivial(capsys):
    code, out, _ = run(capsys, "quantize", "{}", "--order", "2")
    assert code == 0
    assert "family: TRIVIAL" in out
    assert "Delta(M) = 1 (x) M + M (x) 1" in out


# -- verify ---------------------------------------------------------------------

def test_verify_type2(capsys):
    code, out, _ = run(capsys, "verify", "--family", "type2", "--order", "3")
    assert code == 0
    for axiom in ("homomorphism", "coassociativity", "counit", "antipode",
                  "first-order"):
        assert f"{axiom}: PASS" in out
    assert "FAIL" not in out


def test_verify_all_families(capsys):
    code, out, _ = run(capsys, "verify", "--family", "all", "--order", "2")
    assert code == 0
    assert out.count("antipode: PASS") == 3


def test_verify_failure_exits_3(capsys, monkeypatch):
    import hweyl.cli as cli
    monkeypatch.setattr(cli, "_verify_one",
                        lambda tag, order: {"homomorphism": False})
    code, out, _ = run(capsys, "verify", "--family", "type2")
    assert code == 3
    assert "homomorphism: FAIL" in out


# -- coboundary -------------------------------------------------------------------

def test_coboundary_symbolic(capsys):
    code, out, _ = run(capsys, "coboundary")
    assert code == 0
    assert "schouten: -xi^2*(M ^ A+ ^ A-)" in out
    assert "mcybe: PASS" in out
    assert "a2=-xi" in out and "b3=-xi" in out


def test_coboundary_concrete(capsys):
    code, out, _ = run(capsys, "coboundary", '{"xi":"1"}')
    assert code == 0
    assert "schouten: -(M ^ A+ ^ A-)" in out
    assert "mcybe: PASS" in out
    assert "recovered r-matrix: xi = 1" in out


def test_coboundary_classical_ybe_point(capsys):
    code, out, _ = run(capsys, "coboundary", '{"beta_plus":"5","beta_minus":"-2"}')
    assert code == 0
    assert "schouten: 0" in out


@pytest.mark.parametrize("doc,holds", [
    ('{"beta_plus":"5","beta_minus":"-2"}', True), ('{}', True),
    ('{"xi":"1/3","beta_plus":"5"}', False), (None, False),
])
def test_coboundary_cybe_holds_only_for_xi_zero(capsys, doc, holds):
    # unlike the mCYBE, the CYBE [[r, r]] = 0 is a fact that can fail
    args = ("coboundary",) if doc is None else ("coboundary", doc)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert f"cybe ([[r, r]] = 0, r triangular): {'yes' if holds else 'no'}" in out
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0 and json.loads(out)["cybe"] is holds


@pytest.mark.parametrize("command,doc", [
    ("coboundary", '{"xi":"1/0"}'),
    ("classify", '{"a1":"1/0"}'),
    ("quantize", '{"b3":"-3/00"}'),
])
def test_zero_denominator_exits_1_without_traceback(capsys, command, doc):
    code, out, err = run(capsys, command, doc)
    assert code == 1
    assert out == ""
    # the message names the fault, not the repr Fraction raises it with
    field, = json.loads(doc)
    assert err == f"invalid input: field {field!r}: zero denominator\n"


@pytest.mark.parametrize("raw", ["0x10", "x", "1/2/3", "1e2/0"])
def test_malformed_rational_exits_1_naming_the_fault(capsys, raw):
    # the message says what is wrong in the input's terms, not Fraction's
    code, out, err = run(capsys, "quantize", json.dumps({"a1": raw}))
    assert code == 1
    assert out == ""
    assert err == (f"invalid input: field 'a1': {raw!r} is not a rational: write an "
                   "integer, p/q or a decimal such as -2/3 or 1.5e-3\n")


def test_coboundary_json(capsys):
    code, out, _ = run(capsys, "coboundary", '{"xi":"2"}', "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mcybe"] is True
    assert doc["recovered_xi"] == "2"
    assert doc["gauge"] == ["beta_plus", "beta_minus"]


# -- poisson / realize ----------------------------------------------------------------

def test_poisson_all(capsys):
    code, out, _ = run(capsys, "poisson")
    assert code == 0
    assert "jacobi: PASS" in out
    assert "homomorphism: PASS" in out
    assert "associativity: PASS" in out
    assert "matrix: PASS" in out
    assert "FAIL" not in out


def test_poisson_group_law_check_can_fail(capsys, monkeypatch):
    import hweyl.poisson as po

    def wrong_law(g1, g2):
        # the true law plus a_plus * a_minus', still associative with the
        # same identity, but no longer D(g2) * D(g1)
        return po.GroupCoords(g1.m + g2.m - g1.a_minus * g2.a_plus
                              + g1.a_plus * g2.a_minus,
                              g1.a_minus + g2.a_minus, g1.a_plus + g2.a_plus)
    monkeypatch.setattr(po, "group_compose", wrong_law)
    code, out, _ = run(capsys, "poisson", "--check", "grouplaw")
    assert code == 3
    assert out == ("group law:\n  associativity: PASS\n  identity: PASS\n"
                   "  matrix: FAIL\n")


def test_poisson_single_family_single_check(capsys):
    code, out, _ = run(capsys, "poisson", "--check", "homomorphism",
                       "--family", "type1plus")
    assert code == 0
    assert "TYPE_I_PLUS" in out and "homomorphism: PASS" in out


def test_poisson_help_says_the_order_is_not_used(capsys):
    with pytest.raises(SystemExit):
        main(["poisson", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "exact polynomial identities" in text
    assert "do not use the truncation order K" in text
    assert "grows steeply" not in text


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poisson_output_does_not_depend_on_the_order(capsys, fmt):
    code, default, _ = run(capsys, "poisson", "--format", fmt)
    assert code == 0
    for order in ("1", str(MAX_ORDER)):
        code, out, _ = run(capsys, "poisson", "--order", order, "--format", fmt)
        assert code == 0
        assert out == default


def test_realize(capsys):
    code, out, _ = run(capsys, "realize", "--order", "3", "--degree", "4")
    assert code == 0
    assert "[A-,A+] = M: PASS" in out
    assert "C = lambda: PASS" in out


def test_realize_negative_degree_exits_1(capsys):
    code, out, err = run(capsys, "realize", "--order", "2", "--degree", "-1")
    assert code == 1
    assert "PASS" not in out
    assert "invalid input: max_degree must be >= 0" in err


@pytest.mark.parametrize("order", [2, 8])
def test_realize_degree_bound(capsys, order):
    top = MAX_ORDER + 1 - 2 * order
    code, out, _ = run(capsys, "realize", "--order", str(order), "--degree", str(top))
    assert code == 0
    assert "C = lambda: PASS" in out
    code, out, err = run(capsys, "realize", "--order", str(order), "--degree", str(top + 1))
    assert code == 1
    assert out == ""
    assert err.strip() == f"--degree must be at most {top} at --order {order}"


def test_realize_order_leaving_no_degree_exits_1(capsys):
    last = (MAX_ORDER + 1) // 2
    code, out, _ = run(capsys, "realize", "--order", str(last), "--degree", "0")
    assert code == 0
    code, out, err = run(capsys, "realize", "--order", str(last + 1), "--degree", "0")
    assert code == 1
    assert out == ""
    assert err.strip() == f"realize needs --order at most {last}"


def test_realize_help_states_the_degree_bound(capsys):
    with pytest.raises(SystemExit):
        main(["realize", "--help"])
    assert f"at most {MAX_ORDER + 1} - 2*K" in " ".join(capsys.readouterr().out.split())


# -- global behavior ---------------------------------------------------------------------

def test_order_must_be_positive(capsys):
    code, _, err = run(capsys, "classify", "{}", "--order", "0")
    assert code == 1


def test_order_above_the_packed_key_limit_exits_1(capsys):
    code, out, err = run(capsys, "quantize", "--family", "type2",
                         "--order", str(MAX_ORDER + 1))
    assert code == 1
    assert out == ""
    assert f"--order must be between 1 and {MAX_ORDER}" in err
    # commands that build no series at that order are refused the same way
    for argv in (("classify", "{}"), ("poisson",)):
        code, out, err = run(capsys, *argv, "--order", str(MAX_ORDER + 1))
        assert code == 1 and out == ""
        assert str(MAX_ORDER) in err


@pytest.mark.parametrize("argv", [("classify", "--format", "xml"),
                                  ("quantize", "--order", "abc"), ("bogus",)])
def test_malformed_command_line_exits_1(capsys, argv):
    # argparse's own exit 2 would read as an invalid bialgebra
    with pytest.raises(SystemExit) as exn:
        main(list(argv))
    assert exn.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: hweyl" in captured.err and "error:" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exn:
        main(["--help"])
    assert exn.value.code == 0
    assert "usage: hweyl" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["classify", "quantize", "verify",
                                     "coboundary", "poisson", "realize"])
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exn:
        main([command, "--help"])
    assert exn.value.code == 0
    assert f"usage: hweyl {command}" in capsys.readouterr().out


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # the argparse tree costs about 20 times what parsing one command line
    # does, so in-process callers share one parser instead of rebuilding it
    run(capsys, "classify")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (("classify",), ("quantize", "--family", "type2", "--order", "2"),
                 ("poisson", "--check", "jacobi")):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
    assert built == []


def test_order_help_names_the_limit(capsys):
    with pytest.raises(SystemExit):
        main(["quantize", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"1 to {MAX_ORDER}" in text
    assert "grows steeply with K" in text and "1.4 times longer per +2 in K" in text


def test_failure_after_partial_output_leaves_stdout_empty(capsys):
    # two inputs of about limit/2 digits each are accepted, and their
    # co-Jacobi residual a1*b3 = 1/(p*q) classifies; but printing it exceeds
    # the interpreter's integer string limit after the "class:" line is made
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no integer string limit in this interpreter")
    p, q = "3" * (limit // 2 + 50), "7" * (limit // 2 + 50)
    code, out, err = run(capsys, "classify", f'{{"a1":"1/{p}","b3":"1/{q}"}}')
    assert code == 1
    assert out == ""
    assert err.startswith("output limit: ") and f"{limit} digits" in err
    assert "Traceback" not in err


def test_coboundary_result_past_the_print_limit_names_the_output_limit(capsys):
    # xi = 10^4000 is read (4,001 digits), but the induced cocommutator holds
    # xi^2, with 8,001 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit > 8000:
        pytest.skip("no integer string limit below 8,001 digits in this interpreter")
    code, out, err = run(capsys, "coboundary", '{"xi":"1e4000"}')
    assert code == 1
    assert out == ""
    assert err.startswith("output limit: ") and f"{limit} digits" in err
    assert "invalid input" not in err


def test_json_number_past_the_digit_limit_is_invalid_input(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no integer string limit in this interpreter")
    code, out, err = run(capsys, "classify", '{"a1": %s}' % ("1" * (limit + 1)))
    assert code == 1 and out == ""
    assert err.startswith(f"invalid input: a JSON number has more than {limit} digits")


@pytest.mark.parametrize("raw", ["1e-999999", "1e-999999999", "1e4300",
                                 "1" * 2150 + "/" + "3" * 2151])
def test_input_past_the_digit_bound_exits_1_at_parse_time(capsys, raw):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "classify", f'{{"b2":"0","a1":"{raw}"}}')
    elapsed = time.perf_counter() - t0
    assert code == 1 and out == ""
    assert err.startswith(f"invalid input: field 'a1': more than {MAX_INPUT_DIGITS} digits")
    # no huge integer is made: the old path spent seconds on such inputs
    assert elapsed < 0.5


def test_output_is_deterministic(capsys):
    args = ("quantize", "--family", "type2", "--order", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("poisson",)
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_console_entry_point_runs():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "hweyl.cli", "classify", "{}"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "TRIVIAL" in proc.stdout
    assert proc.stdout.endswith("\n")
