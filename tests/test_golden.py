"""Golden CLI outputs: stdout and exit code of a fixed command list.

The files under ``tests/golden`` are the behaviour contract for refactors:
every command below must print exactly the recorded bytes and exit with the
recorded code.  To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hweyl import cli

GOLDEN = Path(__file__).with_name("golden")

_I_PLUS = '{"a1":"2","a2":"6","a3":"-4/3","b1":"3","b2":"3","b3":"2"}'
_I_MINUS = '{"b1":"3","b2":"-2","a2":"5","b3":"5"}'
_COBOUNDARY = '{"a2":"2","b3":"2"}'
_COCYCLE_FAIL = '{"a1":"2","c1":"3"}'

CASES = {}
for _label, _arg in (("i_plus", _I_PLUS), ("i_minus", _I_MINUS),
                     ("coboundary", _COBOUNDARY), ("cocycle_fail", _COCYCLE_FAIL)):
    for _fmt in ("text", "json"):
        CASES[f"classify_{_label}_{_fmt}"] = ["classify", _arg, "--format", _fmt]
for _family in ("type1plus", "type1minus", "type2", "trivial"):
    for _fmt in ("text", "json"):
        CASES[f"quantize_{_family}_{_fmt}"] = [
            "quantize", "--family", _family, "--order", "4", "--format", _fmt]
CASES["quantize_type2_input"] = [
    "quantize", '{"a2":"1/2","a3":"-2","b2":"3","b3":"1/3"}', "--order", "4"]
# the largest rendered document: 568 terms in four parameters
CASES["quantize_type2_order8_json"] = [
    "quantize", "--family", "type2", "--order", "8", "--format", "json"]
# concrete rendering with fractional and negative coefficients, and closed forms
CASES["quantize_i_plus_input_order6"] = [
    "quantize", '{"a1":"-9/2","a3":"1"}', "--order", "6"]
CASES["verify_json"] = ["verify", "--order", "4", "--format", "json"]
CASES["coboundary_symbolic"] = ["coboundary"]
CASES["coboundary_input"] = ["coboundary", '{"xi":"3","beta_plus":"1/2"}']
for _fmt in ("text", "json"):
    CASES[f"poisson_{_fmt}"] = ["poisson", "--format", _fmt]
CASES["realize_json"] = ["realize", "--degree", "4", "--order", "4",
                         "--format", "json"]


def run(argv):
    """(stdout, exit code) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    stdout, code = run(CASES[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[name]
    assert stdout.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        stdout, codes[name] = run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout.encode())
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
