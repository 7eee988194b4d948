"""The homomorphism and coassociativity residuals against an independent
subtraction.

``verify_homomorphism`` and ``verify_coassoc`` compare the two sides of each
check and subtract only when they differ.  Here both sides are rebuilt
through the public operations and subtracted coefficient by coefficient in
Fractions, from the ``terms`` views: on presentations with a planted fault
(a changed Delta(A-), a changed rule) the reported residual must be that
difference, and on every family it must be zero.
"""

import pytest

import hweyl.quantization as qu
from hweyl.bialgebra import FAMILIES, TYPE_I_MINUS, TYPE_I_PLUS, TYPE_II
from hweyl.freealg import GEN_AM, GEN_AP, GEN_M, GENERATORS, FreeElement, RewriteSystem
from hweyl.quantization import (HopfPresentation, quantize, verify_all, verify_coassoc,
                                verify_homomorphism)
from hweyl.tensor import TensorElement, tensor_mul

from test_quantization import _with_delta_am_changed_at_degree_2


def difference(lhs, rhs):
    """lhs - rhs as {key: {exponents: Fraction}}, zero entries dropped."""
    out = {}
    for key in lhs.terms.keys() | rhs.terms.keys():
        left = lhs.terms[key].terms if key in lhs.terms else {}
        right = rhs.terms[key].terms if key in rhs.terms else {}
        diff = {e: left.get(e, 0) - right.get(e, 0) for e in left.keys() | right.keys()}
        diff = {e: c for e, c in diff.items() if c}
        if diff:
            out[key] = diff
    return out


def as_fractions(x):
    return {key: dict(c.terms) for key, c in x.terms.items()}


def homomorphism_sides(hp):
    """{"g*h": (Delta(g)Delta(h), Delta of the rule's right side)}."""
    out = {}
    for (g, h), rhs in hp.rewrite.rules.items():
        right = TensorElement(2, {}, hp.order)
        for word, coeff in rhs.terms.items():
            right = right + hp.coproduct_map.image(word) * coeff
        out[f"{g}*{h}"] = (tensor_mul(hp.coproduct[g], hp.coproduct[h], hp.rewrite),
                           right)
    return out


def coassoc_sides(hp):
    """{X: ((Delta (x) id) Delta(X), (id (x) Delta) Delta(X))}."""
    out = {}
    for name in GENERATORS:
        left = right = TensorElement(3, {}, hp.order)
        for (u, w), coeff in hp.coproduct[name].terms.items():
            for (p, q), c in hp.coproduct_map.image(u).terms.items():
                left = left + TensorElement(3, {(p, q, w): coeff * c}, hp.order)
            for (p, q), c in hp.coproduct_map.image(w).terms.items():
                right = right + TensorElement(3, {(u, p, q): coeff * c}, hp.order)
        out[name] = (left, right)
    return out


def check_residuals(hp):
    """Every reported residual is the independent difference of its sides;
    returns how many are nonzero."""
    nonzero = 0
    for report, sides in ((verify_homomorphism(hp), homomorphism_sides(hp)),
                          (verify_coassoc(hp), coassoc_sides(hp))):
        assert report.keys() == sides.keys()
        for label, (lhs, rhs) in sides.items():
            got = report[label]
            assert type(got) is type(lhs)
            assert as_fractions(got) == difference(lhs, rhs), label
            nonzero += bool(got)
    return nonzero


def with_rule_changed(tag, order):
    """A presentation of the family whose [A-,A+] rule gains p^2 * M^2, p the
    family's first parameter."""
    hp = quantize(tag, order=order, verify=False)
    p = next(iter(hp.values.values()))
    rules = dict(hp.rewrite.rules)
    rules[(GEN_AM, GEN_AP)] = rules[(GEN_AM, GEN_AP)] + FreeElement.from_word(
        (GEN_M, GEN_M), order, coeff=p * p)
    return HopfPresentation(
        order=order, values=hp.values,
        rewrite=RewriteSystem("changed", rules, order), coproduct=hp.coproduct,
        counit=hp.counit, antipode=hp.antipode, bialgebra_class=hp.bialgebra_class)


FAULTS = [pytest.param(_with_delta_am_changed_at_degree_2, tag, id=f"delta-{tag}")
          for tag in (TYPE_I_PLUS, TYPE_II)]
FAULTS += [pytest.param(with_rule_changed, tag, id=f"rule-{tag}")
           for tag in (TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II)]


@pytest.mark.parametrize("plant, tag", FAULTS)
def test_faulty_residuals_equal_an_independent_subtraction(plant, tag):
    bad = plant(tag, 4)
    assert check_residuals(bad)
    assert verify_all(bad)["homomorphism"] is False


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_every_family_has_zero_residuals(tag, order):
    hp = quantize(tag, order=order, verify=False)
    assert check_residuals(hp) == 0
    assert all(isinstance(r, TensorElement) and not r
               for report in (verify_homomorphism(hp), verify_coassoc(hp))
               for r in report.values())


def test_a_compare_that_ignores_coefficients_fails(monkeypatch):
    # the changed Delta(A-) keeps every key of some check's two sides, so a
    # compare of keys alone reports a zero residual where there is none
    def keys_only(lhs, rhs):
        if lhs.terms.keys() == rhs.terms.keys():
            return lhs._like({}, lhs.order)
        return lhs - rhs

    monkeypatch.setattr(qu, "_residual", keys_only)
    for tag in (TYPE_I_PLUS, TYPE_II):
        with pytest.raises(AssertionError):
            check_residuals(_with_delta_am_changed_at_degree_2(tag, 4))
