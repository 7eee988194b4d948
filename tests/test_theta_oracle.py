"""Oracles for the one per-family input of quantization, Theta read off delta.

* theta = p * Theta (``_Series.theta``) at random rational points of each
  family: the wedge sum_j theta_ij ^ v_j must equal
  ``Cocommutator.as_tensor(v_i)``.
* Every printed closed form, expanded by sympy to parameter degree K, must
  equal the engine's own series: the Delta, gamma and central-element lines,
  the matrix E = exp(-theta) and the brackets.  Products in the gamma lines
  are not normal-ordered, so they go through the presentation's own rewrite
  rules before the comparison.

With every parameter concrete the printed forms carry no grading symbol.
Then each primitive letter in the Delta and gamma lines of the other
generators and in the C line, and s in the bracket (exp(s*M) - 1)/s, stands
for one parameter degree.  That grading is put back as t, the variable that
grades every rational parameter value in the engine's own series.  A bracket
is compared with the grading set to 1.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hweyl.params import PARAMS, ParamPoly  # noqa: E402
from hweyl.freealg import (GEN_AM, GEN_AP, GEN_M, FreeElement,  # noqa: E402
                           normal_form)
from hweyl.tensor import TensorElement, outer  # noqa: E402
from hweyl.bialgebra import (FAMILIES, TRIVIAL, TYPE_I_MINUS,  # noqa: E402
                             TYPE_I_PLUS, TYPE_II, BialgebraClass, Cocommutator)
from hweyl.quantization import (_Series, central_element, closed_forms,  # noqa: E402
                                quantize)

from engine_helpers import specialized  # noqa: E402

K = 3
GRADING = "t"

_NAMES = {"Ap": GEN_AP, "Am": GEN_AM, "M": GEN_M}
_LETTERS = {name: sympy.Symbol(name, commutative=False) for name in _NAMES}
_GENS = tuple(sympy.Symbol(n) for n in PARAMS if n != "lambda")
_S = sympy.Symbol("s")


def _rational():
    return st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _random_point(data, tag):
    return {n: data.draw(_rational(), label=n)
            for n in FAMILIES[tag][0]}


# -- Theta read off delta -------------------------------------------------------

@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(tag=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_matrix_delta_is_the_cocommutator_at_random_points(tag, data):
    values = _random_point(data, tag)
    series = _Series(BialgebraClass(tag, normalized=Cocommutator(**values)), K)
    p, vector = FreeElement.generator(series.prim, K), series.vector
    theta = [[p * c for c in row] for row in series.theta]
    t = ParamPoly.symbol(GRADING, K)
    graded = Cocommutator(**{n: t * q for n, q in values.items()})
    for i, vi in enumerate(vector):
        wedge = TensorElement(2, {}, K)
        for j, vj in enumerate(vector):
            v = FreeElement.generator(vj, K)
            wedge = wedge + outer(theta[i][j], v) - outer(v, theta[i][j])
        assert wedge == graded.as_tensor(vi, K)


# -- the closed-form oracle -------------------------------------------------------

def _exp(x):
    return sum(x ** n / sympy.factorial(n) for n in range(K + 2))


def _sympify(text, funcs=None):
    src = text.replace("A+", "Ap").replace("A-", "Am").replace("^", "**")
    local = {**_LETTERS, "exp": _exp, "s": _S, **(funcs or {})}
    return sympy.sympify(src, locals=local)


def _param_poly(expr):
    out = ParamPoly.zero(K)
    for exps, c in sympy.Poly(expr, *_GENS).terms():
        term = ParamPoly.const(Fraction(int(c.p), int(c.q)), K)
        for gen, e in zip(_GENS, exps):
            term = term * ParamPoly.symbol(str(gen), K) ** e
        out = out + term
    return out


def _terms(expr, prim, graded):
    """{word: ParamPoly} of an expanded sympy expression; with ``graded``
    each primitive letter contributes one degree of the grading symbol."""
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        if term == 0:
            continue
        c, nc = term.args_cnc()
        word = ()
        for factor in nc:
            base, e = factor.as_base_exp()
            word += (_NAMES[str(base)],) * int(e)
        coeff = _param_poly(sympy.Mul(*c))
        if graded:
            coeff = coeff * ParamPoly.symbol(GRADING, K) ** word.count(prim)
        out[word] = out.get(word, ParamPoly.zero(K)) + coeff
    return out


def _summands(text):
    """Top-level summands of a sum, each with its sign."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if depth == 0 and text.startswith((" + ", " - "), i):
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [s.replace("+ ", "", 1) if s.startswith("+ ") else s.replace("- ", "-", 1)
            for s in out]


def _split(line):
    lhs, rhs = line.split(" = ", 1)
    return lhs.strip(), rhs


def _matrix_funcs(forms):
    """E11(M) ... F22(M) of a matrix-form closed form, as sympy functions."""
    e_line = next((x for x in forms["coproduct"] if x.startswith("with E = exp(")), None)
    if e_line is None:
        return {}, None
    m = _LETTERS["M"]
    x = sympy.Matrix(_sympify(e_line.removeprefix("with E = exp(").removesuffix(")")))
    e = sum((x ** n / sympy.factorial(n) for n in range(K + 2)), sympy.zeros(2, 2))
    f_line = next(x for x in forms["antipode"] if x.startswith("with F = "))
    f = _sympify(f_line.removeprefix("with F = "), {"E": lambda a: e.subs(m, a)})
    funcs = {}
    for name, mat in (("E", e), ("F", f)):
        for i in range(2):
            for j in range(2):
                funcs[f"{name}{i + 1}{j + 1}"] = lambda a, v=mat[i, j]: v.subs(m, a)
    return funcs, x


def _check(hp):
    """Compare every closed form of ``hp`` with its series; return the forms."""
    forms = closed_forms(hp)
    prim = FAMILIES[hp.family][1]
    graded = hp.is_concrete

    def series(text, funcs=None, grade=graded):
        return FreeElement(_terms(_sympify(text, funcs), prim, grade), K)

    funcs, exponent = _matrix_funcs(forms)
    if exponent is not None:
        theta = _Series(hp.bialgebra_class, K).theta
        p = FreeElement.generator(prim, K)
        for i in range(2):
            for j in range(2):
                got = FreeElement(_terms(exponent[i, j], prim, graded), K)
                assert got == p * -theta[i][j], (i, j)

    checked = 0
    for line in forms["coproduct"]:
        if line.startswith("with"):
            continue
        lhs, rhs = _split(line)
        name = lhs.removeprefix("Delta(").removesuffix(")")
        terms = {}
        for summand in _summands(rhs):
            left, right = (series(x, funcs, graded and name != prim)
                           for x in summand.split(" (x) "))
            for wl, cl in left.terms.items():
                for wr, cr in right.terms.items():
                    terms[(wl, wr)] = terms.get((wl, wr), ParamPoly.zero(K)) + cl * cr
        assert TensorElement(2, terms, K) == hp.coproduct[name], line
        checked += 1
    for line in forms["antipode"]:
        if line.startswith("with"):
            continue
        lhs, rhs = _split(line)
        name = lhs.removeprefix("gamma(").removesuffix(")")
        got = normal_form(series(rhs, funcs, graded and name != prim), hp.rewrite)
        assert got == hp.antipode[name], line
        checked += 1
    for line in forms.get("central_element", ()):
        assert series(_split(line)[1]) == central_element(hp), line
    brackets = hp.rewrite.commutation_rules()
    for line in forms["relations"]:
        lhs, rhs = _split(line)
        g, h = lhs.strip("[]").split(",")
        text, _, s = rhs.partition(" with s = ")
        expr = sympy.expand(_sympify(text))
        if s:
            scale = _sympify(s) * (sympy.Symbol(GRADING) if graded else 1)
            expr = expr.subs(_S, scale)
        got, want = FreeElement(_terms(expr, prim, False), K), brackets[(g, h)]
        if graded:
            got, want = specialized(got, {GRADING: 1}), specialized(want, {GRADING: 1})
        assert got == want, line
        checked += 1
    assert checked == 9
    return forms


def _assert_no_pasted_values(forms, brackets_too=True):
    """No concrete value is pasted in brackets.  A positive non-integer
    rational in an exponent is the engine's own bracket, exp((p/q)*X), so
    the random points do not check for ``((``."""
    for lines in forms.values():
        for line in lines:
            assert "(0)" not in line and "(1)" not in line, line
            if brackets_too:
                assert "((" not in line, line


@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL])
def test_symbolic_closed_forms_expand_to_the_engine_series(tag):
    _assert_no_pasted_values(_check(quantize(tag, order=K)))


@pytest.mark.parametrize("tag,params", [
    # a diagonal TYPE_II, whose E is written out
    (TYPE_II, {"a2": 1, "a3": 0, "b2": 0, "b3": 1}),
    # a1 = 0: no exponential is left
    (TYPE_I_PLUS, {"a1": 0, "a3": 2}),
    (TYPE_I_PLUS, {"a1": 2, "a3": -1}),
    (TYPE_I_MINUS, {"b1": 1, "b2": 1}),
    # the concrete TYPE_II of the golden CLI outputs
    (TYPE_II, {"a2": Fraction(1, 2), "a3": -2, "b2": 3, "b3": Fraction(1, 3)}),
])
def test_concrete_closed_forms_expand_to_the_engine_series(tag, params):
    _assert_no_pasted_values(_check(quantize(tag, order=K, params=params)))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(tag=st.sampled_from([TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II]), data=st.data())
def test_closed_forms_at_random_points_expand_to_the_engine_series(tag, data):
    hp = quantize(tag, order=K, params=_random_point(data, tag))
    _assert_no_pasted_values(_check(hp), brackets_too=False)
