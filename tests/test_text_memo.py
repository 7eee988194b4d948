"""The text memo of a presentation: each monomial and each word is formatted
once per ``HopfPresentation``, and the output stays what a fresh printer
gives.

Presentations that share monomials but differ in family, order or
concreteness are rendered one after another in one process; each must equal
its golden file, or the output of a fresh interpreter.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hweyl import TYPE_I_PLUS, TYPE_II, ParamPoly, quantize
from hweyl.params import ring, signed_sum

from test_golden import CASES, GOLDEN, run

SRC = Path(__file__).resolve().parents[1] / "src"

#: I+ at K = 3 has no golden file: it is compared with a fresh interpreter.
I_PLUS_K3 = ["quantize", "--family", "type1plus", "--order", "3", "--format", "json"]

#: Interleaved: symbolic I+ at K = 3 and K = 4, symbolic TYPE_II at K = 8,
#: the concrete TYPE_II input, and I- text right after I+ JSON.
SEQUENCE = [
    I_PLUS_K3,
    "quantize_type2_order8_json",
    "quantize_type2_input",
    "quantize_type1plus_json",
    "quantize_type1minus_text",
    "quantize_i_plus_input_order6",
    "quantize_type2_json",
]


def fresh_stdout(argv):
    """stdout of ``hweyl`` run in a new interpreter."""
    done = subprocess.run([sys.executable, "-m", "hweyl.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=True)
    return done.stdout.decode("utf-8")


def test_interleaved_renders_equal_golden_files_and_a_fresh_interpreter():
    want = {tuple(I_PLUS_K3): fresh_stdout(I_PLUS_K3)}
    for case in SEQUENCE:
        if isinstance(case, str):
            want[tuple(CASES[case])] = (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8")
    # twice through, so that every render also follows every other one
    for case in SEQUENCE + SEQUENCE:
        argv = tuple(case if isinstance(case, list) else CASES[case])
        out, code = run(list(argv))
        assert code == 0
        assert out == want[argv], argv


def test_a_presentation_renders_as_str_through_its_memo():
    hp = quantize(TYPE_II, order=5)
    first = hp.to_json()
    assert hp._texts  # the first render filled the memo
    assert hp.to_json() == first  # and a second reads it back
    for name in ("M", "A+", "A-"):
        assert hp._render(hp.coproduct[name]) == str(hp.coproduct[name])
        assert hp._render(hp.antipode[name]) == str(hp.antipode[name])


def test_str_leaves_the_memo_alone_and_each_presentation_has_its_own():
    hp, other = quantize(TYPE_I_PLUS, order=4), quantize(TYPE_I_PLUS, order=4)
    str(hp.coproduct["A+"])
    assert hp._texts == {}
    hp.to_json()
    assert other._texts == {}
    assert hp._texts is not other._texts
    # copy and pickle start the memo afresh, as they do Delta's and gamma's
    for clone in (copy.copy(hp), pickle.loads(pickle.dumps(hp))):
        assert clone._texts == {}
        assert clone.to_json() == hp.to_json()


def test_one_table_keeps_the_monomials_of_each_ring_apart():
    # x and y are the same packed key in their two rings
    x = ParamPoly.symbol("x", names=ring(("x",)))
    y = ParamPoly.symbol("y", names=ring(("y",)))
    assert list(x._num) == list(y._num)
    texts = {}
    assert [signed_sum(p._rows(texts)) for p in (x, y, x)] == ["x", "y", "x"]
