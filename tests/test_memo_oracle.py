"""The memoized word maps against direct computation, on random input.

A rewrite system keeps one normal form per word, filled by leftmost
rewriting, and a presentation one Delta and one gamma per word.  These checks
compare them with the uncached rightmost rewriting of ``rewrite_oracle`` (a
second strategy, which reads only the rules), with associativity of the
normal-ordered product, and with Delta and gamma multiplied out letter by
letter, for every family at K = 3..5.  After a full Hopf verification every
word the rewrite memo holds, also those met only inside another word's
rewriting, is checked against the rightmost rewriting too.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hweyl.params import ParamPoly  # noqa: E402
from hweyl.freealg import (GENERATORS, FreeElement,  # noqa: E402
                           RewriteSystem, nc_mul, normal_form)
from hweyl.tensor import outer, tensor_mul  # noqa: E402
from hweyl.bialgebra import (TRIVIAL, TYPE_I_MINUS, TYPE_I_PLUS,  # noqa: E402
                             TYPE_II)
from hweyl.quantization import quantize, verify_all  # noqa: E402

from rewrite_oracle import rightmost_normal_form  # noqa: E402

examples = settings(max_examples=15, derandomize=True, database=None, deadline=None)

CASES = [(tag, order) for tag in (TRIVIAL, TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II)
         for order in (3, 4, 5)]

#: One presentation per case, shared by the examples so that the memos fill.
_PRESENTATIONS = {}


def presentation(tag, order):
    key = (tag, order)
    if key not in _PRESENTATIONS:
        _PRESENTATIONS[key] = quantize(tag, order=order, verify=False)
    return _PRESENTATIONS[key]


def words(max_len):
    return st.lists(st.sampled_from(GENERATORS), max_size=max_len).map(tuple)


def coeffs(order):
    """A rational times at most two of the deformation parameters."""
    names = st.lists(st.sampled_from(("a1", "a2", "b1", "b3")), max_size=2)
    value = st.integers(-3, 3).filter(bool)

    def build(pair):
        c, factors = pair
        out = ParamPoly.const(c, order)
        for name in factors:
            out = out * ParamPoly.symbol(name, order)
        return out
    return st.tuples(value, names).map(build)


def elements(order, max_len):
    def build(terms):
        out = FreeElement.zero(order)
        for word, coeff in terms:
            out = out + FreeElement.from_word(word, order, coeff=coeff)
        return out
    return st.lists(st.tuples(words(max_len), coeffs(order)), max_size=3).map(build)


@pytest.mark.parametrize("tag,order", CASES)
@examples
@given(data=st.data())
def test_memoized_normal_form_equals_rightmost_rewriting(tag, order, data):
    rs = presentation(tag, order).rewrite
    x = data.draw(elements(order, 5))
    assert normal_form(x, rs) == rightmost_normal_form(x, rs)


@pytest.mark.parametrize("tag,order", CASES)
@examples
@given(data=st.data())
def test_normal_form_is_associative(tag, order, data):
    rs = presentation(tag, order).rewrite
    x, y, z = (data.draw(elements(order, 3)) for _ in range(3))
    left = normal_form(nc_mul(normal_form(nc_mul(x, y), rs), z), rs)
    right = normal_form(nc_mul(x, normal_form(nc_mul(y, z), rs)), rs)
    assert left == right


@pytest.mark.parametrize("tag,order", CASES)
@examples
@given(data=st.data())
def test_memoized_word_maps_equal_letter_by_letter_products(tag, order, data):
    hp = presentation(tag, order)
    word = data.draw(words(4))
    elem = FreeElement.from_word(word, order)
    one = FreeElement.one(order)
    delta = outer(one, one)
    gamma = one
    for letter in word:
        delta = tensor_mul(delta, hp.coproduct[letter], hp.rewrite)
        gamma = nc_mul(hp.antipode[letter], gamma)
    assert hp.coproduct_map.extend(elem) == delta
    assert hp.antipode_map.image(word) == normal_form(gamma, hp.rewrite)


@pytest.mark.parametrize("tag,order", CASES)
def test_every_memoized_word_equals_its_rightmost_rewriting(tag, order, monkeypatch):
    asked, depth = set(), []
    form = RewriteSystem._form

    def record(rs, word):
        if not depth:
            asked.add(word)
        depth.append(word)
        try:
            return form(rs, word)
        finally:
            depth.pop()
    monkeypatch.setattr(RewriteSystem, "_form", record)
    hp = quantize(tag, order=order, verify=False)
    report = verify_all(hp)
    rs = hp.rewrite
    forms = dict(rs._forms)
    assert forms.keys() - asked, "the memo keeps the words met inside a rewriting"
    for word, form in forms.items():
        assert form == rightmost_normal_form(FreeElement.from_word(word, order), rs)
        i = next((i for i in range(len(word) - 1) if word[i:i + 2] in rs.rules), None)
        if i is not None:
            # the words of the leftmost rewriting step are in the memo too
            assert all(word[:i] + rw + word[i + 2:] in forms
                       for rw in rs.rules[word[i:i + 2]].terms)
    assert all(report.values())
