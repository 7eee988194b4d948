"""``freealg._word_image``, the one extension of a map on letters to words.

The coproduct, the antipode, the I+/I- swap and the differential realization
all read it.  These checks compare Delta and gamma of every short word with
the letter-by-letter products that define them, check both antipode axioms
on the words of two letters, check that a word extends the longest prefix
the memo holds, and run words longer than the default recursion limit.
"""

import sys
from itertools import product

import pytest

from hweyl.freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, FreeElement,
                           _word_image, nc_mul, normal_form)
from hweyl.tensor import outer, tensor_mul
from hweyl.bialgebra import TRIVIAL, TYPE_I_MINUS, TYPE_I_PLUS, TYPE_II
from hweyl.quantization import quantize

WORDS = [w for n in range(5) for w in product((GEN_M, GEN_AP, GEN_AM), repeat=n)]


def counting(mul):
    """``mul`` with a count of its calls in ``.calls``."""
    def wrapped(x, y):
        wrapped.calls += 1
        return mul(x, y)
    wrapped.calls = 0
    return wrapped


@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL])
def test_every_short_word_map_equals_its_letter_by_letter_definition(tag):
    """Delta(w) is the left-to-right chain of ``tensor_mul`` from 1 (x) 1,
    and gamma(w) the normal form of the letters' antipodes multiplied by
    ``nc_mul`` in reverse order, for every word of up to four letters."""
    order = 4
    hp = quantize(tag, order=order, verify=False)
    one = FreeElement.one(order)
    for word in WORDS:
        delta, gamma = outer(one, one), one
        for letter in word:
            delta = tensor_mul(delta, hp.coproduct[letter], hp.rewrite)
        for letter in reversed(word):
            gamma = nc_mul(gamma, hp.antipode[letter])
        assert hp._delta(word) == delta, word
        assert hp._gamma(word) == normal_form(gamma, hp.rewrite), word


@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL])
def test_both_antipode_axioms_hold_on_every_two_letter_word(tag):
    """m(gamma (x) id) Delta(w) = m(id (x) gamma) Delta(w) = eps(w) = 0 on the
    nine words of two letters.  ``verify_antipode`` checks generators only,
    where the left slots of Delta are powers of one letter, so it passes a
    gamma extended as an algebra map; these words do not."""
    order = 3
    hp = quantize(tag, order=order, verify=False)
    for word in product(GENERATORS, repeat=2):
        left = right = FreeElement.zero(order)
        for (u, w), c in hp._delta(word).terms.items():
            left = left + nc_mul(hp._gamma(u), FreeElement.from_word(w, order, coeff=c))
            right = right + nc_mul(FreeElement.from_word(u, order, coeff=c), hp._gamma(w))
        assert not normal_form(left, hp.rewrite), word
        assert not normal_form(right, hp.rewrite), word


def test_a_word_extends_its_longest_memoized_prefix():
    """Once (a, b, c) is built, (a, b, d) takes one product: its prefix
    (a, b) is in the memo."""
    order = 2
    letters = {g: FreeElement.generator(g, order) for g in GENERATORS}
    mul = counting(nc_mul)
    memo = {(): FreeElement.one(order)}
    a, b, c = GENERATORS
    assert _word_image((a, b, c), letters, mul, memo) == FreeElement.from_word((a, b, c), order)
    assert mul.calls == 3
    assert set(memo) == {(), (a,), (a, b), (a, b, c)}
    assert _word_image((a, b, a), letters, mul, memo) == FreeElement.from_word((a, b, a), order)
    assert mul.calls == 4
    _word_image((a, b, c), letters, mul, memo)
    assert mul.calls == 4


def test_a_word_longer_than_the_recursion_limit_takes_one_product_per_letter():
    word = ((GEN_M, GEN_AP, GEN_AM) * 1667)[:5000]
    assert len(word) > sys.getrecursionlimit()
    mul = counting(lambda x, y: x * y)
    image = _word_image(word, {GEN_M: -1, GEN_AP: 1, GEN_AM: 1}, mul, {(): 1})
    assert image == (-1) ** word.count(GEN_M)
    assert mul.calls == len(word)


def test_gamma_of_a_long_word_on_i_plus():
    """gamma(A+) = -A+ on I+, so gamma(A+^1200) = A+^1200: a word longer
    than the default recursion limit."""
    order = 2
    hp = quantize(TYPE_I_PLUS, order=order, verify=False)
    word = (GEN_AP,) * 1200
    assert hp._gamma(word) == FreeElement.from_word(word, order)
