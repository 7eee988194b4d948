"""The printing of ParamPoly, FreeElement and TensorElement, and of the
closed forms, against the ``terms``-view renderer of ``tests/render_oracle.py``
on random operands: 13 parameter names, negative, fractional and zero
coefficients, and coordinate polynomials with parameter coefficients (one
polynomial over PARAMS followed by the coordinates)."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, find, given, settings, strategies as st  # noqa: E402

from hweyl.bialgebra import FAMILIES  # noqa: E402
from hweyl.freealg import GENERATORS, FreeElement  # noqa: E402
from hweyl.params import _BITS, PARAMS, ParamPoly  # noqa: E402
from hweyl.poisson import COORD_RING  # noqa: E402
from hweyl.quantization import _signed_sum, quantize  # noqa: E402
from hweyl.tensor import TensorElement  # noqa: E402

from render_oracle import poly_str, spread_sum, sum_str  # noqa: E402

examples = settings(max_examples=60, derandomize=True, database=None, deadline=None)

K = 4

#: Zero, negative and fractional coefficients.
rationals = st.fractions(min_value=-7, max_value=7, max_denominator=12)


def exponents(width):
    """Up to three factors name^e, e <= 2, over ``width`` names."""
    def build(factors):
        exps = [0] * width
        for i, e in factors:
            exps[i] += e
        return tuple(exps)
    return st.lists(st.tuples(st.integers(0, width - 1), st.integers(1, 2)),
                    max_size=3).map(build)


def param_polys(order=K):
    """Polynomials over all 13 parameters; terms above ``order`` are dropped."""
    return st.dictionaries(exponents(len(PARAMS)), rationals, max_size=6).map(
        lambda terms: ParamPoly(terms, order))


words = st.lists(st.sampled_from(GENERATORS), max_size=4).map(tuple)
free_elements = st.dictionaries(words, param_polys(), max_size=5).map(
    lambda terms: FreeElement(terms, K))


@st.composite
def tensors(draw):
    rank = draw(st.sampled_from([2, 3]))
    keys = st.lists(words, min_size=rank, max_size=rank).map(tuple)
    return TensorElement(rank, draw(st.dictionaries(keys, param_polys(), max_size=5)), K)


def coordinate_poly(terms):
    """The sum of c * m over {coordinate exponents of m: c}, each
    parameter polynomial c lifted into COORD_RING by the product."""
    out = ParamPoly.zero(math.inf, COORD_RING)
    for exps, c in terms.items():
        out = out + ParamPoly({(0,) * len(PARAMS) + exps: 1}, math.inf, COORD_RING) * c
    return out


#: Coordinate polynomials whose coefficients are rationals or parameter series.
coordinate_polys = st.dictionaries(
    exponents(len(COORD_RING) - len(PARAMS)), st.one_of(rationals, param_polys(math.inf)),
    max_size=5).map(coordinate_poly)

bodies = st.sampled_from(["M", "1 (x) A+", "A- (x) exp(a1*A+)", "M*A+*exp(-a3*A+)"])


@given(st.one_of(param_polys(), param_polys(math.inf), param_polys(0)))
@examples
def test_param_poly_prints_as_the_oracle(p):
    assert str(p) == poly_str(p)


@given(free_elements)
@examples
def test_free_element_prints_as_the_oracle(x):
    assert str(x) == sum_str(x)


@given(tensors())
@examples
def test_tensor_prints_as_the_oracle(t):
    assert str(t) == sum_str(t)


@given(coordinate_polys)
@examples
def test_coordinate_poly_with_param_coefficients_prints_as_the_oracle(p):
    assert str(p) == poly_str(p)


@given(st.lists(st.tuples(param_polys(), bodies), max_size=4))
@examples
def test_closed_form_sums_print_as_the_oracle(items):
    assert _signed_sum(items, {}) == spread_sum(items)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_presentations_print_as_the_oracle(family):
    hp = quantize(family, order=K)
    for name in GENERATORS:
        assert str(hp.coproduct[name]) == sum_str(hp.coproduct[name])
        assert str(hp.antipode[name]) == sum_str(hp.antipode[name])
    for rhs in hp.rewrite.rules.values():
        assert str(rhs) == sum_str(rhs)


def test_sorting_by_the_bare_key_fails_the_oracle(monkeypatch):
    # every renderer sorts by the print keys of ParamPoly._rows; sorted by the
    # packed key k itself, in place of k ^ mask, the later variables of one
    # degree would come first, and every check above finds it
    rows = ParamPoly._rows

    def by_bare_key(self, texts, body=""):
        mask = (1 << _BITS * len(self.names)) - 1
        return sorted((k ^ mask, *row) for k, *row in rows(self, texts, body))

    monkeypatch.setattr(ParamPoly, "_rows", by_bare_key)
    # the first counterexample is enough: no shrinking
    fast = settings(examples, phases=[Phase.generate])
    p = find(param_polys(), lambda p: str(p) != poly_str(p), settings=fast)
    assert len(p.terms) >= 2
    find(free_elements, lambda x: str(x) != sum_str(x), settings=fast)
    find(tensors(), lambda t: str(t) != sum_str(t), settings=fast)
    find(coordinate_polys, lambda p: str(p) != poly_str(p), settings=fast)
    a1, a2 = ParamPoly.symbol("a1", K), ParamPoly.symbol("a2", K)
    assert str(a1 + a2) == "a2 + a1" != poly_str(a1 + a2)
