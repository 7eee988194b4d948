"""The composed operators of ``check_realization`` against the letter-by-letter
oracle (``realization_oracle``): random free-algebra elements and the four
residuals of the realization, at K = 2..5, on the monomials x^n, n <= 6.  The
residuals are built from the engine's I+ rules, so a wrong rule fails."""

from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from hweyl import quantization  # noqa: E402
from hweyl.bialgebra import TYPE_I_PLUS, BialgebraClass  # noqa: E402
from hweyl.freealg import GEN_AM, GEN_M, GENERATORS, FreeElement, RewriteSystem  # noqa: E402
from hweyl.params import MAX_ORDER, ParamPoly  # noqa: E402
from hweyl.quantization import (_Operator, _apply_operator, _realization,  # noqa: E402
                                _realization_residuals, check_realization)
from realization_oracle import X_POLY, apply_element, realization_ops  # noqa: E402

#: The monomials x^0 .. x^6.
POWERS = [X_POLY ** n for n in range(7)]

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def realization_residuals(order):
    """The four residuals of the symbolic I+ family, whose a1 is the symbol."""
    return _realization_residuals(BialgebraClass.symbolic(TYPE_I_PLUS, order), order)


def coefficients(order):
    """c0 + c1 a1 + c2 lambda + c3 b2, c0 nonzero: a1 and lambda are the
    parameters of the realization, and b2 is one it does not use.  Degree
    at most 1, so that most products of letters stay within the order."""
    def build(cs):
        out = ParamPoly.const(cs[0], order)
        for name, c in zip(("a1", "lambda", "b2"), cs[1:]):
            out = out + ParamPoly.symbol(name, order) * c
        return out
    return st.tuples(rationals.filter(bool), rationals, rationals, rationals).map(build)


@st.composite
def elements(draw):
    """(K, a1, element): words of up to 4 letters; a1 symbolic or 0."""
    order = draw(st.integers(2, 5))
    a1 = draw(st.sampled_from((ParamPoly.symbol("a1", order), ParamPoly.zero(order))))
    # lengths drawn evenly, so that long words are as common as short ones
    words = st.integers(0, 4).flatmap(
        lambda n: st.lists(st.sampled_from(GENERATORS), min_size=n, max_size=n)).map(tuple)
    terms = draw(st.dictionaries(words, coefficients(order), min_size=1, max_size=5))
    return order, a1, FreeElement(terms, order)


def composed_equals_oracle(order, a1, elems):
    """Each element's composed operator on x^0 .. x^6 equals the oracle's
    letter-by-letter action; one prefix memo serves all elements."""
    rho = _realization(a1, order)
    ops = realization_ops(a1, order)
    for elem in elems:
        op = rho.extend(elem)
        for n, power in enumerate(POWERS):
            assert _apply_operator(op, POWERS, n) == apply_element(ops, elem, power)


# no shrink phase: shrinking a failure here takes minutes, and the word-by-word
# test below already names the shortest failing word
@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(elements())
def test_composed_operators_equal_the_letter_by_letter_oracle(args):
    order, a1, elem = args
    composed_equals_oracle(order, a1, [elem])


@pytest.mark.parametrize("order", [2, 5])
def test_every_word_of_up_to_four_letters_equals_the_oracle(order):
    """Each word alone: the binomials C(i, m) of the Leibniz rule matter only
    where a prefix holds two A- and the last letter has a nonzero second
    derivative term, as in A- A- A+ and A- M A- M."""
    words = [()] + [w for n in range(1, 5) for w in product(GENERATORS, repeat=n)]
    for a1 in (ParamPoly.symbol("a1", order), ParamPoly.zero(order)):
        composed_equals_oracle(order, a1, [FreeElement.from_word(w, order) for w in words])


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_residuals_act_as_zero_in_both_ways(order):
    a1 = ParamPoly.symbol("a1", order)
    residuals = realization_residuals(order)
    composed_equals_oracle(order, a1, list(residuals.values()))
    ops = realization_ops(a1, order)
    for res in residuals.values():
        assert not any(apply_element(ops, res, power) for power in POWERS)
    # a relation that does not hold is seen by both
    wrong = residuals["[A-,A+] = M"] + FreeElement.generator(GENERATORS[0], order)
    composed_equals_oracle(order, a1, [wrong])
    assert apply_element(ops, wrong, POWERS[0])


def test_composed_operators_of_the_residuals_are_zero():
    """Each residual's operator is zero term by term, so it vanishes on
    every monomial, and ``check_realization`` passes."""
    order = 6
    rho = _realization(ParamPoly.symbol("a1", order), order)
    for res in realization_residuals(order).values():
        assert not rho.extend(res)
    assert all(check_realization(TYPE_I_PLUS, max_degree=6, order=order).values())


def test_a_wrong_engine_rule_fails_its_relation(monkeypatch):
    """With the I+ rule [A-,M] = (a1/2) M^2 of ``family_rewrite`` doubled, the
    realization fails that relation and passes the other three."""
    engine_rules = quantization.family_rewrite

    def doubled(cls, order, **kwargs):
        rules = dict(engine_rules(cls, order, **kwargs).rules)
        rules[(GEN_AM, GEN_M)] = rules[(GEN_AM, GEN_M)] * 2 - FreeElement.from_word(
            (GEN_M, GEN_AM), order)
        return RewriteSystem("doubled", rules, order)

    monkeypatch.setattr(quantization, "family_rewrite", doubled)
    assert check_realization(TYPE_I_PLUS, max_degree=4, order=4) == {
        "[A-,A+] = M": True, "[A-,M] = (a1/2)*M^2": False, "[A+,M] = 0": True,
        "C = lambda": True}


def test_prefix_operators_are_shared():
    """The word M A+^j is composed from the stored operator of M A+^(j-1)."""
    order = 4
    rho = _realization(ParamPoly.symbol("a1", order), order)
    rho.extend(realization_residuals(order)["C = lambda"])
    words = [w for w in rho._memo if w and w[0] == GENERATORS[0]]
    assert sorted(map(len, words)) == list(range(1, order + 2))
    s = rho.letters[GENERATORS[0]].terms[0]
    assert rho._memo[(GENERATORS[0],) + (GENERATORS[1],) * 2].terms == {0: s * X_POLY ** 2}


def test_field_limit_bound_is_the_letter_by_letter_one():
    """``max_degree`` up to MAX_ORDER + 1 - 2K passes; one more raises the
    packed-key field-limit error of the letter-by-letter products."""
    for order in (4, 128):
        top = MAX_ORDER + 1 - 2 * order
        assert all(check_realization(TYPE_I_PLUS, max_degree=top, order=order).values())
        with pytest.raises(ValueError, match=f"exponent above {MAX_ORDER}, the packed-key"):
            check_realization(TYPE_I_PLUS, max_degree=top + 1, order=order)


def test_composed_coefficients_are_cut_within_the_field_limit():
    """M^4 at K = 65: each composed coefficient is cut at parameter degree K,
    so the a1 exponents of the next product stay within a packed-key field
    (uncut, the four factors s would reach a1^256), and the operator still
    equals the oracle."""
    order = 65
    a1 = ParamPoly.symbol("a1", order)
    word = FreeElement.from_word((GEN_M,) * 4, order)
    op = _realization(a1, order).extend(word)
    ops = realization_ops(a1, order)
    for n, power in enumerate(POWERS[:3]):
        assert _apply_operator(op, POWERS, n) == apply_element(ops, word, power)


def test_apply_operator_scales_by_the_falling_factorial():
    """(c d^2) x^5 = 20 c x^3, and d^k kills x^n for k > n."""
    c = X_POLY * Fraction(1, 3)
    assert _apply_operator(_Operator._clean({2: c}, 2), POWERS, 5) == c * X_POLY ** 3 * 20
    assert not _apply_operator(_Operator._clean({3: c}, 2), POWERS, 2)
