import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from hweyl.params import ParamPoly
from hweyl.freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, FreeElement,
                           RewriteSystem, commutator, exp_matrix2, nc_mul, normal_form)
from hweyl.bialgebra import (BialgebraClass, TRIVIAL, TYPE_I_MINUS, TYPE_I_PLUS,
                             TYPE_II)
from hweyl.quantization import _Series, family_rewrite

from engine_helpers import cut, exp_on, truncated
from rewrite_oracle import rightmost_normal_form

K = 6


def gen(name, order=K):
    return FreeElement.generator(name, order)


def sym(name, order=K):
    return ParamPoly.symbol(name, order)


def series_exp(x, order):
    """Independent exponential oracle: explicit sum x^n / n!."""
    out = power = FreeElement.one(order)
    for n in range(1, order + 1):
        power = nc_mul(power, x)
        out = out + power * Fraction(1, factorial(n))
    return out


# -- nc_mul -------------------------------------------------------------------

def test_nc_mul_concatenates():
    prod = nc_mul(gen(GEN_AM), gen(GEN_AP))
    assert prod == FreeElement.from_word((GEN_AM, GEN_AP), K)


def test_nc_mul_unit():
    x = gen(GEN_M) + gen(GEN_AP)
    assert nc_mul(x, FreeElement.one(K)) == x
    assert nc_mul(FreeElement.one(K), x) == x


def test_nc_mul_scalar_bilinear():
    a1, a3 = sym("a1"), sym("a3")
    prod = nc_mul(gen(GEN_AP) * a1, gen(GEN_M) * a3)
    assert prod == FreeElement.from_word((GEN_AP, GEN_M), K, coeff=a1 * a3)


# -- normal_form ----------------------------------------------------------------

def test_normal_form_undeformed():
    rs = RewriteSystem.undeformed(K)
    x = nc_mul(gen(GEN_AM), gen(GEN_AP))
    assert normal_form(x, rs) == FreeElement.from_word((GEN_AP, GEN_AM), K) \
        + gen(GEN_M)


def test_normal_form_type_i_plus_am_m():
    rs = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_I_PLUS, K), K))
    x = nc_mul(gen(GEN_AM), gen(GEN_M))
    expected = FreeElement.from_word((GEN_M, GEN_AM), K) \
        + FreeElement.from_word((GEN_M, GEN_M), K, coeff=sym("a1") * Fraction(1, 2))
    assert normal_form(x, rs) == expected


def test_normal_form_type_ii_m_central():
    rs = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_II, K), K))
    x = nc_mul(gen(GEN_AP), gen(GEN_M))
    assert normal_form(x, rs) == FreeElement.from_word((GEN_M, GEN_AP), K)


def test_normal_form_linear_and_idempotent():
    rs = RewriteSystem.undeformed(K)
    x = nc_mul(gen(GEN_AM), gen(GEN_AP)) * 3 - gen(GEN_M)
    nf = normal_form(x, rs)
    assert normal_form(nf, rs) == nf
    assert normal_form(x + x, rs) == nf + nf


# -- commutator ---------------------------------------------------------------------

def test_commutator_undeformed():
    rs = RewriteSystem.undeformed(K)
    assert commutator(gen(GEN_AM), gen(GEN_AP), rs) == gen(GEN_M)
    assert not commutator(gen(GEN_M), gen(GEN_AP), rs)


def test_commutator_type_i_plus():
    rs = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_I_PLUS, K), K))
    c = commutator(gen(GEN_AM), gen(GEN_M), rs)
    assert c == FreeElement.from_word((GEN_M, GEN_M), K,
                                      coeff=sym("a1") * Fraction(1, 2))


# -- exp ------------------------------------------------------------------------------

def test_exp_zero():
    assert exp_on(GEN_AP, ParamPoly.zero(K)) == FreeElement.one(K)


def test_exp_single_generator_against_series_oracle():
    x = gen(GEN_AP, 2) * sym("a1", 2)
    expected = FreeElement.one(2) + x \
        + FreeElement.from_word((GEN_AP, GEN_AP), 2,
                                coeff=sym("a1", 2) ** 2 * Fraction(1, 2))
    assert exp_on(GEN_AP, sym("a1", 2)) == expected
    assert exp_on(GEN_AP, sym("a1", 2)) == series_exp(x, 2)


def test_exp_sum_scale():
    s = sym("a2", 2) + sym("b3", 2)
    x = gen(GEN_M, 2) * s
    expected = FreeElement.one(2) + x \
        + FreeElement.from_word((GEN_M, GEN_M), 2, coeff=s ** 2 * Fraction(1, 2))
    assert exp_on(GEN_M, s) == expected


def test_exp_inverse_property():
    rs = RewriteSystem.undeformed(K)
    for name, pname in ((GEN_AP, "a1"), (GEN_M, "b3"), (GEN_AM, "xi")):
        prod = normal_form(nc_mul(exp_on(name, sym(pname)), exp_on(name, -sym(pname))), rs)
        assert prod == FreeElement.one(K)


def test_exp_rejects_degree_zero():
    with pytest.raises(ValueError):
        exp_on(GEN_AP, ParamPoly.one(K))
    with pytest.raises(ValueError):
        exp_on(GEN_AP, 1 + sym("a1"))
    with pytest.raises(ValueError):
        exp_matrix2(GEN_M, [[sym("a2"), sym("a3")], [ParamPoly.one(K), sym("b3")]])


def test_constructor_refuses_a_letter_that_is_no_generator():
    # the string "A+" is read letter by letter: the word ('A', '+') was
    # stored, and printing it raised KeyError
    one = ParamPoly.one(K)
    for terms, letter in (({"A+": one}, "A"), ({(GEN_M, "B"): one}, "B"),
                          ({(GEN_AP, "A"): one}, "A")):
        with pytest.raises(ValueError, match=f"unknown generator '{letter}'"):
            FreeElement(terms, K)
    assert str(FreeElement({(GEN_M, GEN_AP): one}, K)) == "M*A+"


# -- exp_matrix2 ----------------------------------------------------------------------

def test_exp_matrix_jordan_block():
    a1, a3 = sym("a1"), sym("a3")
    ap = gen(GEN_AP)
    zero = ParamPoly.zero(K)
    e = exp_matrix2(GEN_AP, [[a1, -a3], [zero, a1]])
    expo = exp_on(GEN_AP, a1)
    assert e[0][0] == expo
    assert e[1][1] == expo
    assert not e[1][0]
    assert e[0][1] == nc_mul(ap * -a3, expo)


def test_exp_matrix_diagonal():
    a2, b3 = sym("a2"), sym("b3")
    zero = ParamPoly.zero(K)
    e = exp_matrix2(GEN_M, [[a2, zero], [zero, b3]])
    assert e[0][0] == exp_on(GEN_M, a2)
    assert e[1][1] == exp_on(GEN_M, b3)
    assert not e[0][1] and not e[1][0]


def test_exp_matrix_determinant_identity():
    a2, a3, b2, b3 = (sym(n) for n in ("a2", "a3", "b2", "b3"))
    e = exp_matrix2(GEN_M, [[a2, a3], [b2, b3]])
    rs = RewriteSystem.undeformed(K)
    det = normal_form(nc_mul(e[0][0], e[1][1]) - nc_mul(e[0][1], e[1][0]), rs)
    assert det == exp_on(GEN_M, a2 + b3)


# -- rewrite systems -------------------------------------------------------------------

def test_termination_witness_enforced():
    one = ParamPoly.one(K)
    bad = {
        (GEN_AP, GEN_M): FreeElement({(GEN_M, GEN_AP): one}, K),
        (GEN_AM, GEN_M): FreeElement({(GEN_M, GEN_AM): one}, K),
        # constant-coefficient same-length garbage term breaks the witness
        (GEN_AM, GEN_AP): FreeElement({(GEN_AP, GEN_AM): one,
                                       (GEN_M, GEN_M): one}, K),
    }
    with pytest.raises(ValueError):
        RewriteSystem("bad", bad, K)


def test_rules_must_cover_redexes():
    one = ParamPoly.one(K)
    with pytest.raises(ValueError):
        RewriteSystem("partial", {
            (GEN_AP, GEN_M): FreeElement({(GEN_M, GEN_AP): one}, K)}, K)


@pytest.mark.parametrize("tag", [None, TYPE_I_PLUS, TYPE_II])
def test_confluence_all_families(tag):
    if tag is None:
        rs = RewriteSystem.undeformed(4)
    else:
        rs = family_rewrite(_Series(BialgebraClass.symbolic(tag, 4), 4))
    assert rs.check_confluence() == []


def test_confluence_catches_a_terminating_system_that_breaks_jacobi():
    # [A+,M] = A+, [A-,M] = 0, [A-,A+] = M meets the termination witness (the
    # extra A+ is a shorter word), but the Jacobi sum on A-, A+, M is M, not 0
    one = ParamPoly.one(K)
    rs = RewriteSystem("jacobi-breaking", {
        (GEN_AP, GEN_M): FreeElement({(GEN_M, GEN_AP): one, (GEN_AP,): one}, K),
        (GEN_AM, GEN_M): FreeElement({(GEN_M, GEN_AM): one}, K),
        (GEN_AM, GEN_AP): FreeElement({(GEN_AP, GEN_AM): one, (GEN_M,): one}, K),
    }, K)
    word = FreeElement.from_word((GEN_AM, GEN_AP, GEN_M), K)
    assert (GEN_AM, GEN_AP, GEN_M) in rs.check_confluence()
    assert normal_form(word, rs) - rightmost_normal_form(word, rs) == -gen(GEN_M)


def check_confluence_oracle(rs):
    """Every length-3 word reduced with both strategies: the sweep that the
    overlap check of ``RewriteSystem.check_confluence`` replaces."""
    bad = []
    for word in itertools.product(GENERATORS, repeat=3):
        elem = FreeElement.from_word(word, rs.order)
        if normal_form(elem, rs) != rightmost_normal_form(elem, rs):
            bad.append(word)
    return bad


def _perturbed(rs, pair, word, coeff):
    """rs with coeff * word added to the rule of pair."""
    rules = dict(rs.rules)
    rules[pair] = rules[pair] + FreeElement.from_word(word, rs.order, coeff=coeff)
    return RewriteSystem("perturbed", rules, rs.order)


def _confluence_systems():
    order = 4
    a1, a3 = sym("a1", order), sym("a3", order)
    flat = RewriteSystem.undeformed(order)
    plus = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_I_PLUS, order), order))
    one = ParamPoly.one(K)
    yield "undeformed", flat
    for tag in (TRIVIAL, TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II):
        yield tag, family_rewrite(_Series(BialgebraClass.symbolic(tag, order), order))
    yield "jacobi-breaking", RewriteSystem("jacobi-breaking", {
        (GEN_AP, GEN_M): FreeElement({(GEN_M, GEN_AP): one, (GEN_AP,): one}, K),
        (GEN_AM, GEN_M): FreeElement({(GEN_M, GEN_AM): one}, K),
        (GEN_AM, GEN_AP): FreeElement({(GEN_AP, GEN_AM): one, (GEN_M,): one}, K),
    }, K)
    # each rule term below passes the termination witness (degree >= 1)
    yield "M^2 in [A+,M]", _perturbed(flat, (GEN_AP, GEN_M), (GEN_M, GEN_M), a1)
    yield "A+ in [A-,M]", _perturbed(flat, (GEN_AM, GEN_M), (GEN_AP,), a1)
    yield "A+ in [A+,M]", _perturbed(flat, (GEN_AP, GEN_M), (GEN_AP,), a1)
    yield "I+ with M^3 in [A-,A+]", _perturbed(plus, (GEN_AM, GEN_AP), (GEN_M,) * 3, a3)
    yield "I+ with M^2 in [A+,M]", _perturbed(plus, (GEN_AP, GEN_M), (GEN_M, GEN_M), a3)


@pytest.mark.parametrize("name,rs", list(_confluence_systems()))
def test_overlap_check_agrees_with_the_length_three_sweep(name, rs):
    sweep = check_confluence_oracle(rs)
    overlaps = rs.check_confluence()
    assert bool(overlaps) == bool(sweep)
    assert overlaps in ([], [(GEN_AM, GEN_AP, GEN_M)])


def test_overlap_check_finds_non_confluent_perturbations():
    verdicts = {name: rs.check_confluence() for name, rs in _confluence_systems()}
    assert verdicts["undeformed"] == [] and verdicts[TYPE_I_PLUS] == []
    assert verdicts["jacobi-breaking"] == [(GEN_AM, GEN_AP, GEN_M)]
    assert verdicts["A+ in [A+,M]"] == [(GEN_AM, GEN_AP, GEN_M)]


@pytest.mark.parametrize("pair,word", [
    ((GEN_AP, GEN_M), (GEN_AP, GEN_AP, GEN_M)),
    ((GEN_AM, GEN_AP), (GEN_AM, GEN_AP)),
    ((GEN_AM, GEN_M), (GEN_AP, GEN_AP)),
])
def test_rule_terms_must_lower_the_rank(pair, word):
    # each term passes the termination witness (degree 1), but rewriting at
    # coefficient 1, as the memo fill does, would not end
    a1 = sym("a1", 4)
    with pytest.raises(ValueError, match="rank"):
        _perturbed(RewriteSystem.undeformed(4), pair, word, a1)


def _deep_words():
    order = 3
    plus = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_I_PLUS, order), order))
    two = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_II, order), order))
    m, ap, am = (GEN_M,), (GEN_AP,), (GEN_AM,)
    yield plus, ap * 2000 + m
    yield plus, am + m * 300
    yield plus, am + ap + m * 300 + am
    yield two, (am + m * 100 + ap) * 3
    yield two, (m * 100 + am + ap) * 3


@pytest.mark.parametrize("rs,word", list(_deep_words()),
                         ids=lambda v: v.name if isinstance(v, RewriteSystem) else str(len(v)))
def test_deep_words_normal_order_without_recursion(rs, word):
    # the memo fill must not recurse once per rewrite: these chains are far
    # deeper than the interpreter's default recursion limit
    x = FreeElement.from_word(word, rs.order)
    assert normal_form(x, rs) == rightmost_normal_form(x, rs)


@pytest.mark.parametrize("tag", [None, TYPE_I_PLUS, TYPE_II])
def test_associativity_short_words(tag):
    order = 4
    if tag is None:
        rs = RewriteSystem.undeformed(order)
    else:
        rs = family_rewrite(_Series(BialgebraClass.symbolic(tag, order), order))
    words = [()] + [(g,) for g in GENERATORS] \
        + [(g, h) for g in GENERATORS for h in GENERATORS]
    rng = random.Random(7)
    sample = rng.sample([(x, y, z) for x in words for y in words for z in words], 300)
    for wx, wy, wz in sample:
        x = FreeElement.from_word(wx, order)
        y = FreeElement.from_word(wy, order)
        z = FreeElement.from_word(wz, order)
        left = normal_form(nc_mul(normal_form(nc_mul(x, y), rs), z), rs)
        right = normal_form(nc_mul(x, normal_form(nc_mul(y, z), rs)), rs)
        assert left == right


def test_associativity_length_four_words():
    order = 4
    rs = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_I_PLUS, order), order))
    rng = random.Random(11)
    for _ in range(60):
        w = tuple(rng.choice(GENERATORS) for _ in range(4))
        for cut1 in range(1, 4):
            for cut2 in range(cut1, 4):
                x = FreeElement.from_word(w[:cut1], order)
                y = FreeElement.from_word(w[cut1:cut2], order)
                z = FreeElement.from_word(w[cut2:], order)
                left = normal_form(nc_mul(normal_form(nc_mul(x, y), rs), z), rs)
                right = normal_form(nc_mul(x, normal_form(nc_mul(y, z), rs)), rs)
                assert left == right


# -- truncation consistency --------------------------------------------------------------

def _random_element(rng, order, max_len=3):
    out = FreeElement.zero(order)
    for _ in range(4):
        word = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, max_len)))
        coeff = ParamPoly.const(rng.randint(-3, 3), order)
        for _ in range(rng.randint(0, 2)):
            coeff = coeff * ParamPoly.symbol(rng.choice(("a1", "a3", "b2")), order)
        out = out + FreeElement.from_word(word, order, coeff=coeff)
    return out


def test_truncation_consistency_mul_and_normal_form():
    rng = random.Random(99)
    rs6 = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_I_PLUS, 6), 6))
    rs3 = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_I_PLUS, 3), 3))
    for _ in range(25):
        x6, y6 = _random_element(rng, 6), _random_element(rng, 6)
        x3, y3 = truncated(x6, 3), truncated(y6, 3)
        assert truncated(nc_mul(x6, y6), 3) == nc_mul(x3, y3)
        assert truncated(normal_form(nc_mul(x6, y6), rs6), 3) \
            == normal_form(nc_mul(x3, y3), rs3)
        assert truncated(commutator(x6, y6, rs6), 3) == commutator(x3, y3, rs3)


def test_truncation_consistency_exp():
    a1 = sym("a1", 6)
    assert truncated(exp_on(GEN_AP, a1), 3) == exp_on(GEN_AP, cut(a1, 3))
    mat6 = [[a1, sym("a3", 6)], [ParamPoly.zero(6), a1]]
    e6 = exp_matrix2(GEN_AP, mat6)
    e3 = exp_matrix2(GEN_AP, [[cut(c, 3) for c in row] for row in mat6])
    for i in range(2):
        for j in range(2):
            assert truncated(e6[i][j], 3) == e3[i][j]


# -- rendering ------------------------------------------------------------------------------

def test_canonical_rendering():
    x = FreeElement.from_word((GEN_M, GEN_M, GEN_AM), K,
                              coeff=sym("a1") * Fraction(1, 2))
    assert str(x) == "(1/2)*a1*M^2*A-"
    assert str(FreeElement.one(K)) == "1"
    assert str(FreeElement.zero(K)) == "0"
    assert str(gen(GEN_AP) - gen(GEN_M)) == "-M + A+"
