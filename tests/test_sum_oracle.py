"""The in-place sums of the Hopf checks against the step-by-step sums they replaced.

The linear extensions of Delta and gamma (``WordMap.extend``) and the
antipode residuals of ``verify_antipode`` (``WordMap.apply``) add every
product into one dict.  The oracles below are the earlier versions,
which build each sum as ``acc = acc + x * c`` through the public operations;
both must agree term by term on every family at two orders, with concrete
parameters, and on a broken presentation whose residuals do not vanish.
"""

from fractions import Fraction

import pytest

from hweyl.freealg import GEN_M, GENERATORS, FreeElement, nc_mul, normal_form
from hweyl.tensor import TensorElement, outer
from hweyl.bialgebra import TYPE_I_MINUS, TYPE_I_PLUS, TYPE_II
from hweyl.quantization import HopfPresentation, quantize, verify_antipode


def coproduct_oracle(hp, x):
    out = TensorElement(2, {}, x.order)
    for word, coeff in x.terms.items():
        out = out + hp.coproduct_map.image(word) * coeff
    return out


def antipode_oracle(hp, x):
    out = FreeElement.zero(x.order)
    for word, coeff in x.terms.items():
        out = out + hp.antipode_map.image(word) * coeff
    return out


def antipode_residual_oracle(hp, name, side):
    order = hp.order
    gamma = hp.antipode_map.image
    acc = FreeElement.zero(order)
    for (u, w), coeff in hp.coproduct[name].terms.items():
        if side == "left":
            elem = nc_mul(gamma(u), FreeElement.from_word(w, order))
        else:
            elem = nc_mul(FreeElement.from_word(u, order), gamma(w))
        acc = acc + elem * coeff
    return normal_form(acc, hp.rewrite)


def same_terms(got, want):
    assert type(got) is type(want)
    assert got.order == want.order
    assert got.terms == want.terms


def check_against_oracles(hp):
    """Compare every in-place sum with its oracle; return the residuals."""
    elements = (list(hp.rewrite.rules.values()) + list(hp.antipode.values())
                + [hp.antipode_map.image(tuple(reversed(GENERATORS))),
                   FreeElement.from_word(GENERATORS, hp.order, coeff=Fraction(-3, 2))])
    for x in elements:
        got = hp.coproduct_map.extend(x)
        same_terms(got, coproduct_oracle(hp, x))
        assert got.rank == 2
        same_terms(hp.antipode_map.extend(x), antipode_oracle(hp, x))
    residuals = []
    report = verify_antipode(hp)
    for name in GENERATORS:
        for side, got in zip(("left", "right"), report[name]):
            same_terms(got, antipode_residual_oracle(hp, name, side))
            residuals.append(got)
    return residuals


@pytest.mark.parametrize("order", [4, 7])
@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II])
def test_in_place_sums_match_the_oracles(tag, order):
    residuals = check_against_oracles(quantize(tag, order=order, verify=False))
    assert not any(residuals)


@pytest.mark.parametrize("tag, params", [
    (TYPE_I_PLUS, {"a1": 2, "a3": Fraction(-1, 3)}),
    (TYPE_I_MINUS, {"b1": Fraction(5, 2), "b2": None}),
    (TYPE_II, {"a2": 1, "a3": Fraction(1, 2), "b2": 0, "b3": -1}),
])
def test_in_place_sums_match_the_oracles_with_concrete_parameters(tag, params):
    residuals = check_against_oracles(quantize(tag, order=5, params=params, verify=False))
    assert not any(residuals)


def test_in_place_sums_match_the_oracles_on_a_broken_presentation():
    # the presentation of test_inconsistent_coproduct_fails_the_antipode_gate:
    # Delta(M) without its M (x) 1 part has no antipode
    order = 3
    hp = quantize(TYPE_II, order=order, verify=False)
    broken = dict(hp.coproduct)
    broken[GEN_M] = outer(FreeElement.one(order), FreeElement.generator(GEN_M, order))
    bad = HopfPresentation(
        series=hp.series, rewrite=hp.rewrite, coproduct=broken, counit=hp.counit,
        antipode=hp.antipode)
    residuals = check_against_oracles(bad)
    assert residuals[0] and residuals[1]
