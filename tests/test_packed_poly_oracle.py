"""ParamPoly storage (int numerators over one denominator, packed exponent
keys) against sympy: the structural operations with denominators up to 30,
canonical form, the single-term fast paths of ``*``, ``+`` and ``-`` (also
against naive loops, for zero, unit, single- and multi-term operands and
scalars on either side), coordinate polynomials with parameter coefficients
(one polynomial over a ring of PARAMS followed by the coordinates, a
parameter polynomial entering it by a key shift), the packed-key field
limit, the truncation cut-offs of the general product (against sympy and a
naive Fraction pair loop), and setting the grading variable t to 1 in one
pass (``ParamPoly.at_one``).  The reference for that last one is the tests'
naive substitution (``engine_helpers.subs``), itself checked against sympy
here.  Every result keeps the storage invariant: int numerators, a positive
denominator, gcd 1."""

import math
from fractions import Fraction
from math import gcd
from operator import add

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from hweyl.params import MAX_ORDER, PARAMS, ParamPoly, ring  # noqa: E402
from hweyl.poisson import COORD_RING, COORD_RING2, COORDS  # noqa: E402
from hweyl.quantization import _X  # noqa: E402

from engine_helpers import cut, degree, poly, subs  # noqa: E402

#: A coordinate chart x1, x2, x3 of the group, the target of ``subs`` below.
CHART = ("x1", "x2", "x3")
CHART_RING = ring(CHART)
PARAM_SYMS = sympy.symbols(PARAMS)
COORD_SYMS = sympy.symbols(COORDS)
CHART_SYMS = sympy.symbols(CHART)
SYMS = {PARAMS: PARAM_SYMS, COORDS: COORD_SYMS, CHART: CHART_SYMS,
        COORD_RING: PARAM_SYMS + COORD_SYMS, CHART_RING: PARAM_SYMS + CHART_SYMS}
#: The rings of the engine with coordinates after PARAMS.
MIXED_RINGS = (COORD_RING, COORD_RING2, CHART_RING, _X)

#: No shrink phase: a failure is reported as drawn.  With a product cut-off
#: planted one degree early, shrinking took minutes per test (each candidate
#: calls sympy or the naive pair loop), against seconds without it.  Every
#: drawn operand has at most five terms, so the reported example stays small.
examples = settings(max_examples=20, derandomize=True, database=None, deadline=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))

#: Denominators up to 30, so that sums need an lcm and products a gcd pass.
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=30)
nonzero_rationals = rationals.filter(bool)

#: A few parameters, the first and last included, so that terms collide.
POOL = (0, 1, 5, len(PARAMS) - 1)


def exponents(nvars, pool, max_factors):
    def build(factors):
        exps = [0] * nvars
        for i, e in factors:
            exps[i] += e
        return tuple(exps)
    return st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)),
                    max_size=max_factors).map(build)


def param_polys(order):
    return st.dictionaries(exponents(len(PARAMS), POOL, 3), rationals,
                           max_size=5).map(lambda terms: poly(terms, order))


@st.composite
def ordered(draw, count):
    order = draw(st.integers(0, 6))
    return (order, *(draw(param_polys(order)) for _ in range(count)))


def to_sympy(p):
    syms = SYMS[p.names]
    out = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        c = sympy.Rational(coeff.numerator, coeff.denominator)
        out += c * sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
    return out


def graded(expr, keep):
    """The terms of ``expr`` whose parameter degree passes ``keep``."""
    poly = sympy.Poly(sympy.expand(expr), *PARAM_SYMS, *COORD_SYMS, *CHART_SYMS)
    return sum((c * sympy.Mul(*(s ** e for s, e in
                                zip(PARAM_SYMS + COORD_SYMS + CHART_SYMS, monom)))
                for monom, c in poly.terms() if keep(sum(monom[:len(PARAMS)]))),
               sympy.Integer(0))


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


def in_lowest_terms(p):
    """The storage invariant: int numerators over a positive int
    denominator, sharing no factor with it."""
    return (type(p._den) is int and p._den > 0
            and all(type(c) is int for c in p._num.values())
            and gcd(p._den, *p._num.values()) == 1)


def coordinate_poly(terms, names=COORD_RING):
    """The sum of c * x over {coordinate exponents of x: c}, a parameter
    polynomial c lifted into the ring ``names`` by the product."""
    out = ParamPoly.zero(math.inf, names)
    for exps, c in terms.items():
        out = out + poly({(0,) * len(PARAMS) + exps: 1}, math.inf, names) * c
    return out


# -- structural operations --------------------------------------------------------

@examples
@given(ordered(1), st.integers(0, 7))
def test_homogeneous_part_and_truncate_match_sympy(args, k):
    order, p = args
    P = to_sympy(p)
    part = p.homogeneous_part(k)
    assert same(part, graded(P, lambda d: d == k))
    assert in_lowest_terms(part)
    low = cut(p, k)
    assert low.order == k
    assert same(low, graded(P, lambda d: d <= k))
    assert in_lowest_terms(low)


@examples
@given(ordered(1))
def test_partial_matches_sympy(args):
    _, p = args
    for i in POOL:
        d = p.partial(i)
        assert same(d, sympy.diff(to_sympy(p), PARAM_SYMS[i]))
        assert in_lowest_terms(d)


@examples
@given(ordered(2), nonzero_rationals, st.booleans())
def test_subs_matches_sympy(args, value, by_poly):
    order, p, q = args
    image = q if by_poly else value
    image_expr = to_sympy(q) if by_poly else sympy.Rational(value.numerator,
                                                          value.denominator)
    out = subs(p, {"a1": image, "b3": Fraction(1, 2)})
    expected = to_sympy(p).subs({PARAM_SYMS[0]: image_expr,
                                 PARAM_SYMS[5]: sympy.Rational(1, 2)},
                                simultaneous=True)
    assert same(out, graded(expected, lambda d: d <= order))
    assert in_lowest_terms(out)


@examples
@given(st.dictionaries(exponents(len(COORDS), (0, 1, 2), 3),
                       st.one_of(rationals, param_polys(3)), max_size=4))
def test_subs_into_another_ring_matches_sympy(terms):
    """The parameter fields, which lead both rings, move with each term."""
    f = coordinate_poly(terms)
    x1, x2, x3 = (ParamPoly.symbol(n, math.inf, CHART_RING) for n in CHART)
    out = subs(f, {"a_minus": x1, "a_plus": x2, "m": x3 - x1 * x2 * Fraction(1, 3)})
    X1, X2, X3 = CHART_SYMS
    expected = to_sympy(f).subs({COORD_SYMS[0]: X1, COORD_SYMS[1]: X2,
                                 COORD_SYMS[2]: X3 - X1 * X2 / 3}, simultaneous=True)
    assert out.names is CHART_RING
    assert same(out, expected)
    assert in_lowest_terms(out)
    # a coordinate without an image cannot move; the parameter a1 can
    a1_m = ParamPoly.symbol("m", math.inf, COORD_RING) * ParamPoly.symbol("a1", 3)
    with pytest.raises(ValueError, match="no image for variable 'm'"):
        subs(a1_m, {"a_minus": x1})


# -- canonical form ----------------------------------------------------------------

@examples
@given(ordered(3))
def test_canonical_form(args):
    _, p, q, r = args
    back = p + q - q
    assert back == p
    assert back.terms == p.terms
    assert (back._num, back._den) == (p._num, p._den)
    left, right = (p * q) * r, p * (q * r)
    assert left == right
    assert left.terms == right.terms
    for result in (p + q, p - q, p * q, -p, p * Fraction(-7, 30), p ** 2):
        assert in_lowest_terms(result)
    assert (p - p)._den == 1 and not (p - p)._num


# -- coordinate polynomials with parameter coefficients ----------------------------------

@st.composite
def mixed_coordinate_polys(draw):
    """A coordinate polynomial over COORD_RING with a parameter polynomial
    coefficient and rational ones."""
    order = draw(st.integers(1, 5))
    coord_exps = exponents(len(COORDS), (0, 1, 2), 3)
    terms = draw(st.dictionaries(coord_exps, rationals, max_size=3))
    exps = draw(coord_exps)
    terms[exps] = draw(param_polys(order)) + ParamPoly.symbol("a1", order)
    return order, coordinate_poly(terms)


@examples
@given(mixed_coordinate_polys(),
       st.dictionaries(exponents(len(COORDS), (0, 1, 2), 2), nonzero_rationals,
                       min_size=1, max_size=3),
       st.integers(2, 30))
def test_mixed_times_denominator_keeps_the_denominator(mixed, terms, den):
    """COORD_RING has ``order=math.inf``: nothing in a product is cut."""
    _, f = mixed
    g = coordinate_poly({e: c / den for e, c in terms.items()})
    expected = to_sympy(f) * to_sympy(g)
    for result in (f * g, g * f):
        assert same(result, expected)
        assert in_lowest_terms(result)
    assert same(f + g, to_sympy(f) + to_sympy(g))
    assert same(f * Fraction(1, den), to_sympy(f) / den)


def test_mixed_polynomial_returns_to_int_form():
    a1 = ParamPoly.symbol("a1", 3)
    am, ap = (ParamPoly.symbol(n, math.inf, COORD_RING) for n in COORDS[:2])
    f = am * a1 + ap * Fraction(1, 6)
    rational = f - am * a1
    assert rational == ap * Fraction(1, 6)
    assert (rational._num, rational._den) == ((ap * Fraction(1, 6))._num, 6)
    # a constant parameter polynomial still equals the same rational
    half = ParamPoly.const(Fraction(1, 2), 3)
    assert am * half == am * Fraction(1, 2)
    assert am * Fraction(1, 2) == am * half
    assert am * half != am * Fraction(1, 3)


@examples
@given(st.integers(0, 6).flatmap(param_polys),
       st.sampled_from(MIXED_RINGS),
       st.lists(st.integers(0, 2), min_size=1, max_size=6),
       nonzero_rationals)
def test_params_polynomial_times_a_coordinate_monomial_matches_sympy(p, names, exps, c):
    """The PARAMS embedding into each ring, term by term: p times c x^e
    lifts every key of p past the coordinate fields."""
    width = len(names) - len(PARAMS)
    exps = tuple((exps * width)[:width])
    x = poly({(0,) * len(PARAMS) + exps: c}, math.inf, names)
    syms = PARAM_SYMS + sympy.symbols(names[len(PARAMS):])
    expected = sympy.Poly(sympy.expand(to_sympy(p) * c * sympy.Mul(
        *(s ** e for s, e in zip(syms[len(PARAMS):], exps)))), *syms)
    for product in (p * x, x * p):
        assert product.names is names and product.order == math.inf
        assert dict(product.terms) == {monom: Fraction(int(r.p), int(r.q))
                                       for monom, r in expected.terms() if r}
        assert in_lowest_terms(product)


@st.composite
def ring_operands(draw):
    """(names, p, q): two polynomials over one engine ring, PARAMS at a
    finite order or a ring of PARAMS and coordinates, with terms in the
    first and last parameter and in every coordinate."""
    names = draw(st.sampled_from((PARAMS,) + MIXED_RINGS))
    order = draw(st.integers(0, 6)) if names is PARAMS else math.inf
    pool = (0, len(PARAMS) - 1) + tuple(range(len(PARAMS), len(names)))
    polys = st.dictionaries(exponents(len(names), pool, 3), rationals, max_size=5)
    return (names, poly(draw(polys), order, names), poly(draw(polys), order, names))


@settings(examples, max_examples=60)
@given(ring_operands(), param_polys(4), nonzero_rationals)
def test_storage_invariant_over_every_ring(args, coeff, value):
    """Int numerators over a positive denominator, gcd 1, after every
    operation and the PARAMS embedding, over PARAMS and each mixed ring."""
    names, p, q = args
    last = names[-1]
    results = [p + q, p - q, p * q, -p, p * value, p ** 2,
               p.at_one(), cut(p, 3), p.homogeneous_part(2)]
    results += [p.partial(i) for i in range(len(names))]
    if names is not PARAMS:
        results += [p * coeff, coeff * p, p + coeff, coeff - p]
    for result in results:
        assert result.names is names
        assert in_lowest_terms(result)
        assert all(result._num.values())


# -- single-term operands --------------------------------------------------------------

def canonical(p):
    """Canonical storage: no zero numerator, and int numerators in lowest
    terms (so zero has denominator 1)."""
    return all(p._num.values()) and in_lowest_terms(p)


def one_term(nvars, pool, degrees, coefficients):
    """{exponents: coefficient} with one term of a total degree from ``degrees``."""
    def build(args):
        factors, coeff = args
        exps = [0] * nvars
        for i in factors:
            exps[i] += 1
        return {tuple(exps): coeff}
    return degrees.flatmap(lambda d: st.tuples(
        st.lists(st.sampled_from(pool), min_size=d, max_size=d), coefficients)).map(build)


def short_terms(nvars, monomials):
    """The operands of the single-term paths: zero, the unit, -1, a constant
    with a denominator up to 30, or one monomial."""
    const = (0,) * nvars
    return st.one_of(st.just({}), st.just({const: 1}), st.just({const: -1}),
                     nonzero_rationals.map(lambda c: {const: c}), monomials)


@st.composite
def short_operands(draw, order, names, monomials, general):
    """(p, partner, q): p has one term, its partner has p's monomial and a
    coefficient that may cancel p's, and q is short or a general polynomial."""
    terms = draw(st.one_of(short_terms(len(names), monomials), monomials).filter(bool))
    (exps, coeff), = terms.items()
    partner = draw(st.one_of(st.sampled_from([coeff, -coeff]), nonzero_rationals))
    q = draw(st.one_of(short_terms(len(names), monomials).map(
        lambda t: poly(t, order, names)), general))
    return (poly(terms, order, names), poly({exps: partner}, order, names), q)


@st.composite
def short_param_operands(draw):
    """Over PARAMS at a finite order, monomials of degree K - 1 or K: the
    product of two of them lies at or beyond the truncation edge."""
    order = draw(st.integers(0, 6))
    edge = one_term(len(PARAMS), POOL, st.integers(max(order - 1, 0), order),
                    nonzero_rationals)
    return (order, *draw(short_operands(order, PARAMS, edge, param_polys(order))))


@st.composite
def short_coordinate_operands(draw):
    """Over COORD_RING at ``order=math.inf``, so no product is cut; a
    monomial may hold parameters beside the coordinates, as the general
    operand's parameter coefficient does."""
    _, general = draw(mixed_coordinate_polys())
    pool = (0, 5, len(PARAMS), len(PARAMS) + 1, len(PARAMS) + 2)
    monomials = one_term(len(COORD_RING), pool, st.integers(0, 3), nonzero_rationals)
    return (math.inf,
            *draw(short_operands(math.inf, COORD_RING, monomials, st.just(general))))


def check_arithmetic(order, p, partner, q):
    """``*``, ``+`` and ``-`` of the pairs against sympy, with products cut at
    parameter degree ``order`` (nothing is cut at ``math.inf``); every result
    canonical."""
    for x, y in ((p, q), (q, p), (p, partner)):
        X, Y = to_sympy(x), to_sympy(y)
        for result, expected in ((x * y, graded(X * Y, lambda d: d <= order)),
                                 (x + y, X + Y), (x - y, X - Y)):
            assert same(result, expected)
            assert canonical(result)
    for zero in (p - p, p + (-p), partner - partner):
        assert not zero._num and zero._den == 1


@settings(examples, max_examples=40)
@given(short_param_operands())
def test_single_term_parameter_operands_match_sympy(args):
    check_arithmetic(*args)


@examples
@given(short_coordinate_operands())
def test_single_term_coordinate_operands_match_sympy(args):
    check_arithmetic(*args)


# -- the packed-key field limit ---------------------------------------------------------

def test_finite_order_above_the_field_limit_raises():
    above = MAX_ORDER + 1
    for build in (lambda: ParamPoly.symbol("a1", above),
                  lambda: ParamPoly.zero(above),
                  lambda: ParamPoly.const(2, above),
                  lambda: poly({}, above),
                  lambda: cut(ParamPoly.symbol("a1", 4), above)):
        with pytest.raises(ValueError, match=f"above {MAX_ORDER}"):
            build()
    top = ParamPoly.symbol("a1", MAX_ORDER) ** MAX_ORDER
    assert top.min_degree() == MAX_ORDER
    assert top.terms == {(MAX_ORDER,) + (0,) * (len(PARAMS) - 1): 1}


def test_untruncated_exponent_above_the_field_limit_raises():
    am, ap, m = (ParamPoly.symbol(n, math.inf, COORDS) for n in COORDS)
    top = am ** MAX_ORDER
    assert top.terms == {(MAX_ORDER, 0, 0): 1}
    with pytest.raises(ValueError, match=f"above {MAX_ORDER}"):
        top * am
    with pytest.raises(ValueError, match=f"above {MAX_ORDER}"):
        am ** 200 * am ** 100
    with pytest.raises(ValueError, match=f"above {MAX_ORDER}"):
        (am + 1) ** (MAX_ORDER + 1)
    with pytest.raises(ValueError, match=f"0..{MAX_ORDER}"):
        poly({(MAX_ORDER + 1, 0, 0): 1}, math.inf, COORDS)
    # a total degree above the limit is fine while each exponent fits
    wide = am ** 200 * ap ** 200 * m ** 200
    assert wide.terms == {(200, 200, 200): 1}
    assert wide.min_degree() == 600
    assert wide.partial(1).terms == {(200, 199, 200): 200}


def test_field_limit_in_a_ring_of_parameters_and_coordinates():
    """A parameter field of COORD_RING holds exponents up to MAX_ORDER, as a
    coordinate field does; only the total degree, on top of the key, has no
    limit."""
    a1 = ParamPoly.symbol("a1", math.inf)
    am = ParamPoly.symbol("a_minus", math.inf, COORD_RING)
    top = a1 ** MAX_ORDER * am
    assert top.terms == {(MAX_ORDER,) + (0,) * (len(PARAMS) - 1) + (1, 0, 0): 1}
    for overflow in (lambda: top * a1, lambda: a1 * top, lambda: top * am ** MAX_ORDER):
        with pytest.raises(ValueError, match=f"exponent above {MAX_ORDER}, the packed-key"):
            overflow()
    wide = top * am ** (MAX_ORDER - 1)
    assert wide.min_degree() == 2 * MAX_ORDER
    assert wide.terms == {(MAX_ORDER,) + (0,) * (len(PARAMS) - 1) + (MAX_ORDER, 0, 0): 1}


# -- the truncation cut-offs of the general product ---------------------------------------

def naive_product(p, q):
    """p * q from the ``terms`` views: every pair of terms multiplied in
    Fractions, kept when its total degree is at most the order."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            if sum(e) <= p.order:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def check_product(p, q):
    """p * q and q * p against the naive pair loop, in canonical storage."""
    expected = naive_product(p, q)
    for result in (p * q, q * p):
        assert result.terms == expected
        assert canonical(result)
    return p * q


def lowest_at(order, degree):
    """A polynomial whose lowest total degree is exactly ``degree``: one term
    there and up to five more between ``degree`` and ``order``."""
    first = one_term(len(PARAMS), POOL, st.just(degree), nonzero_rationals)
    rest = st.lists(one_term(len(PARAMS), POOL, st.integers(degree, order), rationals),
                    max_size=5)

    def build(parts):
        head, tail = parts
        terms = {}
        for t in tail:  # the lowest term is not first in insertion order
            terms.update(t)
        terms.update(head)
        return poly(terms, order)
    return st.tuples(first, rest).map(build)


@st.composite
def edge_operands(draw):
    """(order, p, q, total): the lowest degrees of p and q sum to ``total``,
    one of K - 1, K and K + 1 for the order K."""
    order = draw(st.integers(1, 6))
    total = order + draw(st.sampled_from((-1, 0, 1)))
    d1 = draw(st.integers(max(0, total - order), min(order, total)))
    return (order, draw(lowest_at(order, d1)), draw(lowest_at(order, total - d1)), total)


@settings(examples, max_examples=60)
@given(edge_operands())
def test_products_at_the_truncation_edge_match_the_pair_loop(args):
    order, p, q, total = args
    prod = check_product(p, q)
    if total > order:
        assert not prod._num and prod._den == 1
    else:
        # the lowest homogeneous parts multiply to a nonzero part of degree
        # ``total``, which is within the order
        assert prod.min_degree() == total
        assert prod.homogeneous_part(total) == (p.homogeneous_part(p.min_degree())
                                                * q.homogeneous_part(q.min_degree()))


@examples
@given(edge_operands())
def test_products_at_the_truncation_edge_match_sympy(args):
    order, p, q, _ = args
    assert same(p * q, graded(to_sympy(p) * to_sympy(q), lambda d: d <= order))


def test_outer_rows_past_the_limit_are_dropped_in_any_insertion_order():
    """The shorter (outer) operand lists its high rows first; only its low
    rows meet the longer operand within the order."""
    order = 6
    a1, a2, b2, b3 = (ParamPoly.symbol(n, order) for n in ("a1", "a2", "b2", "b3"))
    rest = (0,) * (len(PARAMS) - 6)
    outer = poly({(0, 0, 0, 0, 0, 6) + rest: 2,
                  (5, 0, 0, 0, 0, 0) + rest: Fraction(-1, 3),
                  (0, 0, 0, 0, 0, 0) + rest: 7,
                  (1, 0, 0, 0, 0, 0) + rest: Fraction(5, 2)}, order)
    assert list(outer._num) != sorted(outer._num)
    inner = a2 + a2 * b2 + b2 ** 3 * 4 + b3 ** 2 * a1 * Fraction(1, 7) + a2 ** 4
    assert len(inner._num) > len(outer._num)
    prod = check_product(outer, inner)
    assert prod == (7 + a1 * Fraction(5, 2)) * inner + a1 ** 5 * a2 * Fraction(-1, 3)
    # the outer operand has the higher lowest degree: the inner one bounds it
    high = a1 ** 3 + b3 ** 4
    check_product(high, inner)
    assert check_product(high * b3, inner) == a1 ** 3 * b3 * a2 * (1 + b2) + b3 ** 5 * a2


@examples
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.just(k), param_polys(k), st.lists(param_polys(k), min_size=1, max_size=6))))
def test_an_operand_reused_in_many_products(args):
    order, p, others = args
    for q in others:
        check_product(p, q)
        check_product(p, p)
    assert check_product(p, p) == p ** 2
    assert p._sorted_terms() is p._sorted_terms()
    assert p._sorted_terms() == sorted(p._num.items())


@examples
@given(st.dictionaries(exponents(len(PARAMS), POOL, 5), rationals, max_size=5),
       st.dictionaries(exponents(len(PARAMS), POOL, 5), rationals, max_size=5))
def test_untruncated_products_match_the_pair_loop(left, right):
    p, q = poly(left, math.inf), poly(right, math.inf)
    check_product(p, q)
    expected = sympy.expand(to_sympy(p) * to_sympy(q))
    assert same(p * q, expected)


def test_untruncated_field_limit_with_sorted_operands():
    """The field check of ``order=math.inf`` runs before any cut-off, on
    operands whose sorted terms are already built."""
    am, ap, m = (ParamPoly.symbol(n, math.inf, COORDS) for n in COORDS)
    left, right = am ** 200 + ap + m * ap, am ** 100 + 1 + ap ** 3
    for x in (left, right):
        x._sorted_terms()
    with pytest.raises(ValueError, match=f"exponent above {MAX_ORDER}, the packed-key"):
        left * right
    with pytest.raises(ValueError, match=f"exponent above {MAX_ORDER}, the packed-key"):
        right * left
    fits = (am ** 155 + ap) * right
    assert fits.terms[(255, 0, 0)] == 1 and degree(fits) == 255


@st.composite
def mixed_pairs(draw):
    """Two coordinate polynomials whose parameter coefficients share an order."""
    order, f = draw(mixed_coordinate_polys())
    coefficients = st.one_of(nonzero_rationals, param_polys(order).filter(bool))
    terms = draw(st.dictionaries(exponents(len(COORDS), (0, 1, 2), 3), coefficients,
                                 min_size=2, max_size=4))
    return order, f, coordinate_poly(terms)


@examples
@given(mixed_pairs())
def test_coordinate_products_with_parameter_coefficients_match_sympy(args):
    """Untruncated: the parameter degree of a product may pass the order of
    the coefficients that entered the ring."""
    _, f, g = args
    expected = to_sympy(f) * to_sympy(g)
    for result in (f * g, g * f):
        assert same(result, expected)
        assert canonical(result)


# -- the fast paths of *, + and -, against the naive pair loop ------------------------

def terms_of(x, names):
    """The ``terms`` view of a polynomial over ``names`` or over a prefix of
    them (its exponents padded with zeros), or of a scalar as a constant."""
    if isinstance(x, ParamPoly):
        pad = (0,) * (len(names) - len(x.names))
        return {e + pad: c for e, c in x.terms.items()}
    if not x:
        return {}
    return {(0,) * len(names): Fraction(x)}


def naive_sum(p, q, sign):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c * sign
    return {e: c for e, c in out.items() if c}


def check_fast_paths(operands, names, order):
    """Every pair of operands, one of them a polynomial over ``names``:
    ``*``, ``+`` and ``-`` against the naive loops over the ``terms`` views,
    each result in canonical storage.  A polynomial is subtracted from a
    scalar as its negation added, since only a polynomial has ``-``."""
    polys = [x for x in operands if isinstance(x, ParamPoly) and x.names == names]
    for x in operands:
        for y in polys:
            for left, right in ((x, y), (y, x)):
                lt, rt = terms_of(left, names), terms_of(right, names)
                product = naive_product(poly(lt, order, names),
                                        poly(rt, order, names))
                difference = left - right if isinstance(left, ParamPoly) else left + -right
                for result, expected in ((left * right, product),
                                         (left + right, naive_sum(lt, rt, 1)),
                                         (difference, naive_sum(lt, rt, -1))):
                    assert result.names is names and result.order == order
                    assert result.terms == expected
                    assert canonical(result)


def test_fast_paths_over_parameters_match_the_pair_loop():
    order = 4
    a1, b3 = ParamPoly.symbol("a1", order), ParamPoly.symbol("b3", order)
    operands = [
        ParamPoly.zero(order), ParamPoly.one(order), ParamPoly.const(-1, order),
        ParamPoly.const(Fraction(2, 3), order),
        a1,  # one term with coefficient 1 that is not the unit
        b3 * Fraction(-3, 5), a1 ** 2 * b3 ** 2 * 7,  # one term at the order
        1 + a1 + b3 ** 2, (a1 * Fraction(1, 6) - b3 * Fraction(5, 4)) ** 2 + 3,
        0, 1, -2, Fraction(1), Fraction(-2, 5), Fraction(0),
    ]
    check_fast_paths(operands, PARAMS, order)


def test_fast_paths_over_coordinates_with_parameter_coefficients():
    """Untruncated polynomials over COORD_RING, some with parameter
    coefficients; parameter polynomials on either side, the parameter
    polynomial 1 among them, enter the ring by a key shift."""
    order = 3
    a1 = ParamPoly.symbol("a1", order)
    one = ParamPoly.one(order)
    am, ap, m = (ParamPoly.symbol(n, math.inf, COORD_RING) for n in COORDS)
    operands = [
        ParamPoly.zero(math.inf, COORD_RING), ParamPoly.one(math.inf, COORD_RING),
        m, am * Fraction(-7, 2), ap * (a1 + 1), am * one,
        m * ap + am * Fraction(1, 3) - 2, am * one + m * (a1 * 2 - 1) + 5,
        0, 1, 3, Fraction(1), Fraction(3, 7), a1 * Fraction(-1, 2), one,
    ]
    check_fast_paths(operands, COORD_RING, math.inf)


@pytest.mark.parametrize("base, order", [(PARAMS, 3), (COORD_RING, math.inf)],
                         ids=["parameters", "coordinates"])
def test_every_zero_carries_its_own_names_tuple(base, order):
    """Two equal names tuples built at run time: each zero from ``*``, ``+``,
    ``-`` and ``zero()`` carries its operands' very tuple and their order,
    so the fast paths (``names is``) take it.  Over PARAMS a single-term and
    a multi-term product truncated to zero do too."""
    rings = tuple(list(base)), tuple(list(base))
    assert rings[0] == rings[1] and rings[0] is not rings[1]
    for names in rings:
        x, y = (ParamPoly.symbol(n, order, names) for n in (names[0], names[-1]))
        zero = ParamPoly.zero(order, names)
        zeros = [zero, ParamPoly.const(0, order, names), x * 0, 0 * x, x * zero,
                 zero * (x + y), x - x, (x + y) - (x + y), x + (-x), -zero, zero - zero]
        if order != math.inf:
            zeros += [x ** 2 * y ** 2, (x ** 2 + y ** 2) * (x ** 2 - y ** 3)]
        for z in zeros:
            assert z.names is names and z.order == order
            assert (z._num, z._den) == ({}, 1)
        for other in (0, 5):  # one zero per order, too
            assert ParamPoly.zero(other, names).order == other


# -- the grading variable t set to 1 in one pass ------------------------------------------

@settings(examples, max_examples=60)
@given(st.sampled_from((0, 3, 6, math.inf)).flatmap(lambda k: param_polys(k)))
def test_at_one_equals_subs(p):
    out = p.at_one()
    expected = subs(p, {"t": 1})
    assert out == expected
    assert (out._num, out._den) == (expected._num, expected._den)
    assert str(out) == str(expected)
    assert canonical(out)


@examples
@given(mixed_coordinate_polys())
def test_at_one_on_coordinate_polynomials_equals_subs(mixed):
    """Over COORD_RING the field of t has the coordinate fields below it."""
    _, f = mixed
    out, expected = f.at_one(), subs(f, {"t": 1})
    assert out == expected
    assert str(out) == str(expected)
    assert canonical(out)
