"""The series built by the shared element arithmetic, against sympy.

``exp_matrix2`` of a 1x1 matrix on one generator (``exp_on``), the TYPE_II
bracket series ``exprel_series`` and the determinant of the TYPE_II
coproduct matrix E = exp(-theta) are compared with sympy's own expansions
of exp(x) and (exp(x) - 1)/x, truncated at parameter degree K.  Every
element here lives in the commutative subalgebra of one generator, so the
generator is read as a commuting symbol g (not t, a name of PARAMS).
"""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hweyl.params import PARAMS, ParamPoly  # noqa: E402
from hweyl.freealg import GEN_M, GENERATORS, exp_matrix2  # noqa: E402
from hweyl.bialgebra import TYPE_II, BialgebraClass, Cocommutator  # noqa: E402
from hweyl.quantization import _Series, exprel_series  # noqa: E402

from engine_helpers import exp_on, poly  # noqa: E402

PARAM_SYMS = sympy.symbols(PARAMS)
G = sympy.Symbol("g")
X = sympy.Symbol("x")

examples = settings(max_examples=15, derandomize=True, database=None, deadline=None)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)

# a few parameters, so that products collide and cancel
_POOL = (0, 1, 5)


@st.composite
def graded_polys(draw, order):
    """A ParamPoly with no constant term (every term of degree >= 1)."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = [0] * len(PARAMS)
        for _ in range(draw(st.integers(1, 2))):
            exps[draw(st.sampled_from(_POOL))] += 1
        terms[tuple(exps)] = draw(rationals)
    return poly(terms, order)


@st.composite
def cases(draw):
    order = draw(st.integers(1, 4))
    return order, draw(graded_polys(order))


def rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def poly_to_sympy(p):
    return sum((rational(c) * sympy.Mul(*(s ** e for s, e in zip(PARAM_SYMS, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def element_to_sympy(x, letter):
    """A FreeElement in powers of one generator as a polynomial in g."""
    assert {g for w in x.terms for g in w} <= {letter}
    return sum((poly_to_sympy(c) * G ** len(w) for w, c in x.terms.items()),
               sympy.Integer(0))


def truncated(expr, order):
    """Drop the terms of parameter degree above ``order``."""
    poly = sympy.Poly(sympy.expand(expr), *PARAM_SYMS, G)
    return sum((c * sympy.Mul(*(s ** e for s, e in zip(PARAM_SYMS + (G,), monom)))
                for monom, c in poly.terms()
                if sum(monom[:len(PARAMS)]) <= order), sympy.Integer(0))


def series_at(fn, arg, order):
    """sympy's expansion of fn(x) to x^order, at x = arg, truncated at
    parameter degree ``order`` (arg has parameter degree >= 1)."""
    head = sympy.series(fn, X, 0, order + 1).removeO()
    return truncated(head.subs(X, arg), order)


@examples
@given(cases(), st.sampled_from(GENERATORS))
def test_exp_element_matches_sympy(case, letter):
    order, c = case
    got = exp_on(letter, c)
    want = series_at(sympy.exp(X), poly_to_sympy(c) * G, order)
    assert sympy.expand(element_to_sympy(got, letter) - want) == 0


@examples
@given(cases())
def test_exprel_series_matches_sympy(case):
    order, s = case
    got = exprel_series(s, order)
    # (exp(s M) - 1)/s = M * (exp(x) - 1)/x at x = s M
    want = truncated(G * series_at((sympy.exp(X) - 1) / X, poly_to_sympy(s) * G,
                                   order), order)
    assert sympy.expand(element_to_sympy(got, GEN_M) - want) == 0


@examples
@given(st.integers(1, 4), st.lists(rationals, min_size=4, max_size=4))
def test_type_ii_coproduct_matrix_determinant(order, qs):
    a2, a3, b2, b3 = qs
    cls = BialgebraClass(TYPE_II, normalized=Cocommutator(a2=a2, a3=a3, b2=b2, b3=b3))
    theta = _Series(cls, order).theta
    e = [[element_to_sympy(x, GEN_M) for x in row]
         for row in exp_matrix2(GEN_M, [[-x for x in row] for row in theta])]
    det = truncated(e[0][0] * e[1][1] - e[0][1] * e[1][0], order)
    # a rational parameter q is graded as q*t
    trace = (rational(a2) + rational(b3)) * PARAM_SYMS[PARAMS.index("t")]
    assert sympy.expand(det - series_at(sympy.exp(X), trace * G, order)) == 0
