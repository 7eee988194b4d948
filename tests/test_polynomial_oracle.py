"""ParamPoly against sympy: the ring operations over the parameters with
truncation at total degree K, and products and derivatives of coordinate
polynomials whose coefficients are parameter polynomials: polynomials over
COORD_RING, PARAMS followed by the coordinates, where nothing is
truncated."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hweyl.params import PARAMS, ParamPoly  # noqa: E402
from hweyl.poisson import COORD_RING, COORDS  # noqa: E402

PARAM_SYMS = sympy.symbols(PARAMS)
COORD_SYMS = sympy.symbols(COORDS)

examples = settings(max_examples=20, derandomize=True, database=None, deadline=None)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def exponents(nvars, pool, max_factors):
    """Exponent vectors over ``nvars`` variables using the indices in ``pool``."""
    def build(factors):
        exps = [0] * nvars
        for i, e in factors:
            exps[i] += e
        return tuple(exps)
    return st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)),
                    max_size=max_factors).map(build)


# a few parameters, the last one included, so that terms collide and cancel
param_exps = exponents(len(PARAMS), (0, 1, 5, len(PARAMS) - 1), 3)


def param_polys(order):
    return st.dictionaries(param_exps, rationals, max_size=5).map(
        lambda terms: ParamPoly(terms, order))


@st.composite
def param_pairs(draw):
    order = draw(st.integers(0, 6))
    return order, draw(param_polys(order)), draw(param_polys(order))


@st.composite
def coord_pairs(draw):
    order = draw(st.integers(0, 6))
    coeffs = st.one_of(rationals, param_polys(order))
    coord_exps = exponents(len(COORDS), (0, 1, 2), 3)
    polys = st.dictionaries(coord_exps, coeffs, max_size=4).map(coordinate_poly)
    return order, draw(polys), draw(polys)


def coordinate_poly(terms):
    """The sum of c * m over {coordinate exponents of m: c}, each
    parameter polynomial c lifted into COORD_RING by the product."""
    out = ParamPoly.zero(math.inf, COORD_RING)
    for exps, c in terms.items():
        out = out + ParamPoly({(0,) * len(PARAMS) + exps: 1}, math.inf, COORD_RING) * c
    return out


def to_sympy(p):
    syms = PARAM_SYMS if p.names == PARAMS else PARAM_SYMS + COORD_SYMS
    out = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        c = sympy.Rational(coeff.numerator, coeff.denominator)
        out += c * sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
    return out


def truncated(expr, order):
    """Drop the terms of parameter degree above ``order``."""
    poly = sympy.Poly(sympy.expand(expr), *PARAM_SYMS, *COORD_SYMS)
    return sum((c * sympy.Mul(*(s ** e for s, e in
                                zip(PARAM_SYMS + COORD_SYMS, monom)))
                for monom, c in poly.terms()
                if sum(monom[:len(PARAMS)]) <= order), sympy.Integer(0))


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


@examples
@given(param_pairs())
def test_param_ring_operations_match_sympy(pair):
    order, p, q = pair
    P, Q = to_sympy(p), to_sympy(q)
    assert same(p + q, P + Q)
    assert same(p - q, P - Q)
    assert same(p * q, truncated(P * Q, order))
    assert same(p * Fraction(-3, 2), P * sympy.Rational(-3, 2))


@examples
@given(param_pairs(), st.integers(0, 4))
def test_param_powers_match_sympy(pair, n):
    order, p, _ = pair
    assert same(p ** n, truncated(to_sympy(p) ** n, order))


@examples
@given(coord_pairs())
def test_coordinate_products_match_sympy(pair):
    """COORD_RING has ``order=math.inf``: its products keep every term, also
    those of parameter degree above the order of the lifted coefficients."""
    order, f, g = pair
    assert same(f * g, to_sympy(f) * to_sympy(g))
    scale = ParamPoly.symbol("a1", order) + 1
    assert same(f * scale, to_sympy(f) * to_sympy(scale))
    assert same(scale * f, to_sympy(f) * to_sympy(scale))
    assert same(scale + f, to_sympy(scale) + to_sympy(f))
    assert same(scale - f, to_sympy(scale) - to_sympy(f))


@examples
@given(coord_pairs())
def test_coordinate_partials_match_sympy(pair):
    _, f, _ = pair
    for i, s in enumerate(COORD_SYMS, len(PARAMS)):
        assert same(f.partial(i), sympy.diff(to_sympy(f), s))
