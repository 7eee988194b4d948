"""``quantization.WordMap``, the one kernel of the maps given on generators.

The identity of every family's algebra respects the family's rules and
agrees with itself, the antipode respects them as an anti-map, and a fault
planted in one structure map fails the axioms that read it.  An anti-map
reads its words reversed.
"""

import pytest

from hweyl.params import ParamPoly
from hweyl.freealg import GEN_AM, GEN_AP, GEN_M, GENERATORS, FreeElement, RewriteSystem
from hweyl.bialgebra import TRIVIAL, TYPE_I_MINUS, TYPE_I_PLUS, TYPE_II
from hweyl.quantization import (HopfPresentation, WordMap, _normal_product, quantize,
                                verify_all)

from test_quantization import _with_delta_am_changed_at_degree_2

FAMILIES = (TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL)


def identity(rewrite):
    """The identity of the algebra that ``rewrite`` presents."""
    return WordMap({g: FreeElement.generator(g, rewrite.order) for g in GENERATORS},
                   _normal_product(rewrite), FreeElement.one(rewrite.order))


def with_fields(hp, **changed):
    """The presentation with some fields replaced."""
    fields = {name: getattr(hp, name) for name in HopfPresentation._FIELDS}
    return HopfPresentation(**{**fields, **changed})


@pytest.mark.parametrize("order", range(2, 9))
@pytest.mark.parametrize("tag", FAMILIES)
def test_the_identity_respects_the_rules_and_agrees_with_itself(tag, order):
    rewrite = quantize(tag, order=order, verify=False).rewrite
    ident = identity(rewrite)
    report = ident.respects(rewrite.rules)
    assert report.keys() == rewrite.rules.keys()
    assert not any(report.values())
    assert not any(ident.agrees(identity(rewrite), GENERATORS).values())


@pytest.mark.parametrize("order", range(2, 7))
@pytest.mark.parametrize("tag", FAMILIES)
def test_the_antipode_respects_the_rules_as_an_anti_map(tag, order):
    # gamma is an anti-map: gamma(h)gamma(g) = gamma(rhs) for each rule g*h -> rhs
    hp = quantize(tag, order=order, verify=False)
    assert not any(hp.antipode_map.respects(hp.rewrite.rules).values())


def test_a_map_that_breaks_a_rule_does_not_respect_it():
    # A+ -> 2 A+ keeps [A+, M] = 0 but doubles [A-, A+], which is M
    rewrite = quantize(TYPE_II, order=3, verify=False).rewrite
    ident = identity(rewrite)
    scaled = WordMap({**ident.letters, GEN_AP: ident.letters[GEN_AP] * 2}, ident.mul,
                     ident.unit)
    report = scaled.respects(rewrite.rules)
    assert [pair for pair, r in report.items() if r] == [(GEN_AM, GEN_AP)]
    assert scaled.agrees(ident, GENERATORS).keys() == set(GENERATORS)
    assert [g for g, r in scaled.agrees(ident, GENERATORS).items() if r] == [GEN_AP]


def test_an_anti_map_reads_the_word_reversed():
    rewrite = quantize(TYPE_I_PLUS, order=3, verify=False).rewrite
    ident = identity(rewrite)
    anti = WordMap(ident.letters, ident.mul, ident.unit, anti=True)
    word = (GEN_AM, GEN_AP, GEN_M)
    assert anti.image(word) == ident.image(word[::-1])
    assert anti._memo.keys() == {(), (GEN_M,), (GEN_M, GEN_AP), (GEN_M, GEN_AP, GEN_AM)}


def planted(tag, order, axiom):
    """The family's presentation with one fault that ``axiom`` reads."""
    hp = quantize(tag, order=order, verify=False)
    t = ParamPoly.symbol("t", order)
    if axiom == "homomorphism":
        # [A-, M] gains t M^2: a rule Delta does not respect
        rules = dict(hp.rewrite.rules)
        rules[GEN_AM, GEN_M] = rules[GEN_AM, GEN_M] + FreeElement.from_word(
            (GEN_M, GEN_M), order, coeff=t)
        return with_fields(hp, rewrite=RewriteSystem("planted", rules, order))
    if axiom == "coassociativity":
        return _with_delta_am_changed_at_degree_2(tag, order)
    if axiom == "counit":
        return with_fields(hp, counit={**hp.counit, GEN_M: t})
    # antipode: one term of gamma(A-) doubled
    terms = dict(hp.antipode[GEN_AM].terms)
    key = next(iter(terms))
    terms[key] = terms[key] * 2
    return with_fields(hp, antipode={**hp.antipode, GEN_AM: FreeElement(terms, order)})


#: The axioms each planted fault fails: a changed rule is read by the
#: antipode check's normal-ordering too, the changed Delta(A-) by the
#: homomorphism and antipode checks too, and the changed eps(M) by the
#: antipode check, whose sides must equal eps(M)1.
FAILS = {
    (TYPE_I_PLUS, "homomorphism"): {"homomorphism"},
    (TYPE_II, "homomorphism"): {"homomorphism", "antipode"},
    (TYPE_I_PLUS, "coassociativity"): {"homomorphism", "coassociativity", "antipode"},
    (TYPE_II, "coassociativity"): {"homomorphism", "coassociativity", "antipode"},
    (TYPE_I_PLUS, "counit"): {"counit", "antipode"},
    (TYPE_II, "counit"): {"counit", "antipode"},
    (TYPE_I_PLUS, "antipode"): {"antipode"},
    (TYPE_II, "antipode"): {"antipode"},
}


@pytest.mark.parametrize("tag, axiom", sorted(FAILS))
def test_a_planted_fault_fails_its_axiom(tag, axiom):
    report = verify_all(planted(tag, 4, axiom))
    assert {name for name, ok in report.items() if not ok} == FAILS[tag, axiom]
