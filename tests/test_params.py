import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest

from hweyl.params import (MAX_INPUT_DIGITS, PARAMS, ParamPoly, as_fraction, parse_rational,
                          ring)
from hweyl.bialgebra import Cocommutator, RMatrix
from hweyl.poisson import COORD_RING, COORD_RING2, COORDS
from hweyl.quantization import _X

from engine_helpers import cut, poly, subs

#: The ring of a coordinate chart (x1, x2, x3) of the group.
CHART_RING = ring(("x1", "x2", "x3"))


def sym(name, order=6):
    return ParamPoly.symbol(name, order)


def test_monomial_product():
    a1 = sym("a1")
    assert a1 * a1 == sym("a1") * sym("a1")
    assert str(a1 * a1) == "a1^2"


def test_difference_of_squares():
    one = ParamPoly.one()
    a2 = sym("a2")
    assert (one + a2) * (one - a2) == one - a2 * a2


def test_truncation_kills_high_degree():
    a1 = sym("a1", 6)
    assert not (a1 ** 3) * (a1 ** 4)
    assert (a1 ** 3) * (a1 ** 3)


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        sym("a1", 4) + sym("a1", 6)
    with pytest.raises(ValueError):
        sym("a1", 4) * sym("a1", 6)
    # the unit and zero operands are checked before they are returned
    for left, right in ((ParamPoly.one(3), sym("a1", 4)), (sym("a1", 4), ParamPoly.one(3)),
                        (ParamPoly.zero(3), sym("a1", 4))):
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(ValueError, match="mismatched truncation orders"):
                op(left, right)


def test_different_variable_lists_rejected_for_the_unit():
    one = ParamPoly.one(math.inf, COORD_RING)
    x = ParamPoly.symbol("x1", math.inf, CHART_RING)
    for op in (operator.mul, operator.add):
        with pytest.raises(ValueError, match="different variable lists"):
            op(one, x)


def test_unit_operand_is_returned():
    one = ParamPoly.one()
    p = sym("a1") * Fraction(2, 3) + sym("b2")
    assert one * p is p
    assert p * one is p
    assert p + ParamPoly.zero() is p


def test_canonical_no_zero_terms():
    a1 = sym("a1")
    assert not (a1 - a1).terms
    assert (a1 - a1) == 0
    assert not bool(a1 - a1)


def test_scalar_coercion_and_arithmetic():
    a1 = sym("a1")
    p = 2 * a1 + 1
    assert p - 1 == a1 * 2
    assert Fraction(1, 2) * a1 + Fraction(1, 2) * a1 == a1
    assert (1 + -a1) + (a1 - 1) == 0


def test_pow_and_degree():
    a1 = sym("a1", 4)
    assert (a1 ** 2).min_degree() == 2
    assert a1.min_degree() == 1
    assert ParamPoly.one().min_degree() == 0
    assert ParamPoly.zero().min_degree() is None


def test_homogeneous_part():
    a1, b1 = sym("a1"), sym("b1")
    p = 1 + a1 + a1 * b1
    assert p.homogeneous_part(0) == 1
    assert p.homogeneous_part(1) == a1
    assert p.homogeneous_part(2) == a1 * b1
    assert p.homogeneous_part(3) == 0


# -- the tests' substitution oracle (``engine_helpers.subs``) ----------------------------

def test_subs_rational():
    a1, a3 = sym("a1"), sym("a3")
    p = a1 * a1 + 2 * a3
    q = subs(p, {"a1": Fraction(1, 2), "a3": 3})
    assert q == ParamPoly.const(Fraction(1, 4), 6) + 6


def test_subs_polynomial_value():
    a1 = sym("a1")
    p = a1 ** 2
    q = subs(p, {"a1": a1 * Fraction(1, 2)})
    assert q == a1 ** 2 * Fraction(1, 4)


def test_subs_unknown_name_rejected():
    with pytest.raises(ValueError):
        subs(sym("a1"), {"zz": 1})


def test_truncate_consistency_random():
    rng = random.Random(12345)
    names = PARAMS[:6]
    for _ in range(30):
        def rand_poly(order):
            p = ParamPoly.zero(order)
            for _ in range(5):
                mono = ParamPoly.const(Fraction(rng.randint(-3, 3)), order)
                for _ in range(rng.randint(0, 3)):
                    mono = mono * ParamPoly.symbol(rng.choice(names), order)
                p = p + mono
            return p
        p6, q6 = rand_poly(6), rand_poly(6)
        p3, q3 = cut(p6, 3), cut(q6, 3)
        assert cut(p6 * q6, 3) == p3 * q3
        assert cut(p6 + q6, 3) == p3 + q3


def test_rendering():
    a1 = sym("a1")
    assert str(ParamPoly.zero()) == "0"
    assert str(ParamPoly.one()) == "1"
    assert str(-a1) == "-a1"
    assert str(1 + -a1 ** 2) == "1 - a1^2"
    assert str(a1 * Fraction(1, 2)) == "(1/2)*a1"
    assert str(ParamPoly.const(Fraction(-2, 3))) == "-2/3"
    # graded order, earlier parameters first inside a degree class
    assert str(sym("b3") + sym("a2")) == "a2 + b3"


def test_as_fraction():
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(-2) == Fraction(-2)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    assert ParamPoly.const("1/3") == Fraction(1, 3)


@pytest.mark.parametrize("raw,message", [
    ("1/0", "field 'xi': zero denominator"),
    ("x", "field 'xi': 'x' is not a rational"),
    (1, "field 'xi': must be a string rational, got 1"),
])
def test_parse_rational_rejects_with_the_field_name(raw, message):
    with pytest.raises(ValueError) as exc:
        parse_rational("xi", raw)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("reader,what,field,not_object", [
    (Cocommutator.from_json, "cocommutator", "b2",
     "cocommutator input must be a JSON object"),
    (RMatrix.from_json, "r-matrix", "beta_plus", "r-matrix input must be a JSON object"),
], ids=["cocommutator", "r-matrix"])
def test_json_readers_refuse_with_one_strict_field_parser(reader, what, field, not_object):
    # the readers share ``parse_fields``: a non-object, an unknown key and a
    # malformed value each end in a ValueError with a fixed message
    for data, message in [
        ("1", not_object),
        ({field: "1", "zz": "2", "aa": "3"}, f"unknown {what} fields: ['aa', 'zz']"),
        ({field: "x"}, f"field {field!r}: 'x' is not a rational: write an integer, p/q "
                       "or a decimal such as -2/3 or 1.5e-3"),
        ({field: 1}, f"field {field!r}: must be a string rational, got 1"),
    ]:
        with pytest.raises(ValueError) as exc:
            reader(data)
        assert str(exc.value) == message


def test_parse_rational_accepts_string_rationals():
    assert parse_rational("xi", "-2/3") == Fraction(-2, 3)
    assert parse_rational("xi", "0") == 0


@pytest.mark.parametrize("raw", [
    "1e4299", "1e-4299", "0.5e4298", "-2.5E-4297", "9" * MAX_INPUT_DIGITS,
    "-1/" + "7" * (MAX_INPUT_DIGITS - 1), "1" * 2150 + "/" + "3" * 2150,
])
def test_parse_rational_accepts_up_to_the_digit_bound(raw):
    value = parse_rational("a1", raw)
    assert value == Fraction(raw)
    # the bound is the interpreter's int <-> str limit, so the value prints
    assert Fraction(str(value)) == value


@pytest.mark.parametrize("raw", [
    "1e4300", "1e-4300", "0.5e4299", "1e-999999999", "1e+" + "9" * 5000,
    "1" * 2150 + "/" + "3" * 2151, "9" * (MAX_INPUT_DIGITS + 1),
    " 1_0e4_299 ",
])
def test_parse_rational_rejects_past_the_digit_bound(raw):
    with pytest.raises(ValueError, match=f"^field 'a1': more than {MAX_INPUT_DIGITS} digits"):
        parse_rational("a1", raw)


@pytest.mark.parametrize("attr, value, message", [
    ("order", 3, "^ParamPoly is immutable$"),
    ("names", PARAMS[:2], "^ParamPoly is immutable$"),
    ("terms", {}, None),
], ids=["order", "names", "terms"])
def test_immutable(attr, value, message):
    p = sym("a1")
    with pytest.raises(AttributeError):
        p.order = 3
    with pytest.raises(AttributeError, match=message):
        setattr(p, attr, value)
    assert (p.order, p.names, dict(p.terms)) == (6, PARAMS, {(1,) + (0,) * 13: 1})


def _round_trips(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("make", [
    lambda: ParamPoly.zero(4),
    lambda: ParamPoly.const(Fraction(-3, 7), 4),
    lambda: (sym("a1", 4) * Fraction(1, 6) + sym("b3", 4) ** 2 * 5 - 2) ** 2,
    lambda: ParamPoly.symbol("m", math.inf, COORD_RING) ** 3 * Fraction(2, 3) + 1,
    lambda: (ParamPoly.symbol("a_plus", math.inf, COORD_RING) * (sym("a1", 3) + 1)
             + ParamPoly.symbol("m", math.inf, COORD_RING) * Fraction(1, 5)),
], ids=["zero", "constant", "series", "coordinates", "parameter-coefficients"])
def test_param_poly_copy_and_pickle_round_trip(make):
    p = make()
    p.terms, p._sorted_terms()  # fill both caches before copying
    for q in _round_trips(p):
        assert type(q) is ParamPoly
        assert q == p and str(q) == str(p)
        assert (q._num, q._den, q.order, q.names) == (p._num, p._den, p.order, p.names)
        # the caches are rebuilt on use, not carried
        assert not hasattr(q, "_terms") and not hasattr(q, "_sorted")
        assert q.terms == p.terms and q * p == p * p
        with pytest.raises(AttributeError, match="immutable"):
            q.order = 3


#: A polynomial per ring: PARAMS, the two coordinate rings of ``poisson``,
#: the chart ring, the realization's x and the nine group-law coordinates.
RINGS = [PARAMS, COORD_RING, COORD_RING2, CHART_RING, _X,
         ring(f"{n}{i}" for i in (1, 2, 3) for n in COORDS)]


def sample(names, order):
    """a1/3 + b2^2 over PARAMS; times the ring's last variable and plus 1
    over a coordinate ring."""
    p = sym("a1", order) * Fraction(1, 3) + sym("b2", order) ** 2
    if names is PARAMS:
        return p
    return ParamPoly.symbol(names[-1], math.inf, names) * p + 1


def test_restored_param_poly_shares_the_params_tuple():
    """copy and pickle hand back the ring's one names tuple (``ring``), for
    one polynomial per ring, so arithmetic with a fresh polynomial takes the
    same fast paths (``names is``) and gives the parent's result."""
    for names in RINGS:
        order = 4 if names is PARAMS else math.inf
        p = sample(names, 4)
        fresh = (sample(names, 4), sample(names, 4) * sample(names, 4) - 2,
                 ParamPoly.one(order, names))
        for q in _round_trips(p):
            assert q.names is names, names
            for f in fresh:
                for op in (operator.add, operator.sub, operator.mul):
                    assert op(q, f) == op(p, f) and op(f, q) == op(f, p)
                    assert op(q, f).names is names


@pytest.mark.parametrize("c", [1, 2])
def test_a_constant_parampoly_coefficient_is_stored_as_its_rational(c):
    """Times a constant parameter polynomial, lifted into its ring, a
    coordinate polynomial is stored, printed and compared as times the
    rational: int numerators over one denominator.  Neither ``const`` nor
    the tests' ``poly`` takes a ParamPoly coefficient."""
    a_minus = ParamPoly.symbol("a_minus", math.inf, COORD_RING)
    const = ParamPoly.const(c, 3)
    expected = a_minus * c
    for p in (a_minus * const, const * a_minus):
        assert p._num == expected._num == {next(iter(a_minus._num)): c}
        assert p._den == 1
        assert str(p) == str(expected) == ("a_minus" if c == 1 else f"{c}*a_minus")
        assert p == expected and expected == p
    exps = (0,) * len(PARAMS) + (1, 0, 0)
    for build in (lambda: poly({exps: const}, math.inf, COORD_RING),
                  lambda: ParamPoly.const(const, math.inf, COORD_RING)):
        with pytest.raises(TypeError, match="not an exact rational"):
            build()
