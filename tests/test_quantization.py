import math
import random
import re
from fractions import Fraction

import pytest

from hweyl.params import PARAMS, ParamPoly
from hweyl.freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, FreeElement,
                           RewriteSystem, commutator, exp_element, exp_matrix2,
                           nc_mul, normal_form)
from hweyl.tensor import TensorElement, flip, outer, tensor_mul
from hweyl.bialgebra import (FAMILIES, INVALID, TRIVIAL, TYPE_I_MINUS, TYPE_I_PLUS,
                             TYPE_II, BialgebraClass, Cocommutator)
from hweyl.quantization import (HopfPresentation, VerificationError,
                                _Series, build_antipode,
                                build_coproduct, central_element,
                                check_realization, closed_forms, exprel_series,
                                family_rewrite, first_order_cocommutator,
                                first_order_residuals, quantize,
                                swap_transport, verify_all, verify_antipode,
                                verify_coassoc, verify_counit,
                                verify_homomorphism)

from engine_helpers import specialized

K = 3


def sym(name, order=K):
    return ParamPoly.symbol(name, order)


def gen(name, order=K):
    return FreeElement.generator(name, order)


def report_zero(report):
    for value in report.values():
        if isinstance(value, tuple):
            if any(v for v in value):
                return False
        elif value:
            return False
    return True


# -- matrix form ----------------------------------------------------------------

def test_matrix_delta_type_i_plus():
    series = _Series(BialgebraClass.symbolic(TYPE_I_PLUS, K), K)
    theta, vector = series.matrix, series.vector
    ap = gen(GEN_AP)
    assert vector == (GEN_AM, GEN_M)
    assert theta[0][0] == ap * -sym("a1")
    assert theta[0][1] == ap * sym("a3")
    assert not theta[1][0]
    assert theta[1][1] == ap * -sym("a1")


def test_matrix_delta_type_i_minus():
    series = _Series(BialgebraClass.symbolic(TYPE_I_MINUS, K), K)
    theta, vector = series.matrix, series.vector
    am = gen(GEN_AM)
    assert vector == (GEN_AP, GEN_M)
    assert theta[0][0] == am * sym("b1")
    assert theta[0][1] == am * sym("b2")
    assert not theta[1][0]
    assert theta[1][1] == am * sym("b1")


def test_matrix_delta_type_ii():
    series = _Series(BialgebraClass.symbolic(TYPE_II, K), K)
    theta, vector = series.matrix, series.vector
    m = gen(GEN_M)
    assert vector == (GEN_AM, GEN_AP)
    assert theta[0][0] == m * -sym("a2")
    assert theta[0][1] == m * -sym("a3")
    assert theta[1][0] == m * -sym("b2")
    assert theta[1][1] == m * -sym("b3")


def test_matrix_delta_type_ii_zero_params():
    cls = BialgebraClass(TYPE_II, normalized=Cocommutator())
    theta = _Series(cls, K).matrix
    assert not any(e for row in theta for e in row)


def test_matrix_delta_trivial_is_zero():
    series = _Series(BialgebraClass.symbolic(TRIVIAL, K), K)
    theta, vector = series.matrix, series.vector
    assert vector == (GEN_AM, GEN_AP)
    assert not any(e for row in theta for e in row)


def test_matrix_delta_rejects_unnormalized():
    cls = BialgebraClass(TYPE_I_PLUS, normalized=Cocommutator(a1=1, a2=1))
    with pytest.raises(ValueError):
        _Series(cls, K)


@pytest.mark.parametrize("tag,delta,message", [
    (TYPE_I_MINUS, Cocommutator(b1=1, b3=1), "delta(A+) contains a wedge without A-"),
    (TYPE_I_MINUS, Cocommutator(a1=1), "delta(A-) must vanish"),
    (TYPE_II, Cocommutator(a1=1, c3=0), "delta(A-) contains a wedge without M"),
    (TYPE_II, Cocommutator(b1=1), "delta(M) must vanish"),
])
def test_matrix_delta_rejects_unnormalized_i_minus_and_ii(tag, delta, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _Series(BialgebraClass(tag, normalized=delta), K)


def test_matrix_delta_rejects_invalid():
    with pytest.raises(ValueError, match="has no matrix form"):
        _Series(BialgebraClass(INVALID), K)


# -- coproducts -------------------------------------------------------------------

def test_coproduct_type_i_plus_closed_forms():
    cop = build_coproduct(BialgebraClass.symbolic(TYPE_I_PLUS, K), K)
    one = FreeElement.one(K)
    am, ap, m = gen(GEN_AM), gen(GEN_AP), gen(GEN_M)
    e = exp_element(ap * sym("a1"))
    assert cop[GEN_AP] == outer(one, ap) + outer(ap, one)
    assert cop[GEN_M] == outer(one, m) + outer(m, e)
    expected_am = outer(one, am) + outer(am, e) \
        + outer(m, nc_mul(ap, e)) * -sym("a3")
    assert cop[GEN_AM] == expected_am


def test_coproduct_type_ii_diagonal():
    # a3 = b2 = 0: independent series oracle for each slot
    cls = BialgebraClass(TYPE_II, normalized=Cocommutator(
        a2=sym("a2"), b3=sym("b3")))
    cop = build_coproduct(cls, K)
    one = FreeElement.one(K)
    am, ap, m = gen(GEN_AM), gen(GEN_AP), gen(GEN_M)

    def series(scale):
        out = FreeElement.one(K)
        power = FreeElement.one(K)
        fact = 1
        for n in range(1, K + 1):
            power = nc_mul(power, m * scale)
            fact *= n
            out = out + power * Fraction(1, fact)
        return out

    assert cop[GEN_M] == outer(one, m) + outer(m, one)
    assert cop[GEN_AM] == outer(one, am) + outer(am, series(sym("a2")))
    assert cop[GEN_AP] == outer(one, ap) + outer(ap, series(sym("b3")))


def test_coproduct_all_zero_parameters_primitive():
    cls = BialgebraClass(TYPE_II, normalized=Cocommutator())
    cop = build_coproduct(cls, K)
    one = FreeElement.one(K)
    for name in GENERATORS:
        x = gen(name)
        assert cop[name] == outer(one, x) + outer(x, one)


# -- rewrite systems ----------------------------------------------------------------

def test_family_rewrite_type_i_plus():
    rs = family_rewrite(BialgebraClass.symbolic(TYPE_I_PLUS, K), K)
    one = ParamPoly.one(K)
    assert rs.rules[(GEN_AM, GEN_AP)] == FreeElement(
        {(GEN_AP, GEN_AM): one, (GEN_M,): one}, K)
    assert rs.rules[(GEN_AM, GEN_M)] == FreeElement(
        {(GEN_M, GEN_AM): one,
         (GEN_M, GEN_M): sym("a1") * Fraction(1, 2)}, K)
    assert rs.rules[(GEN_AP, GEN_M)] == FreeElement({(GEN_M, GEN_AP): one}, K)


def test_family_rewrite_type_i_minus():
    rs = family_rewrite(BialgebraClass.symbolic(TYPE_I_MINUS, K), K)
    one = ParamPoly.one(K)
    assert rs.rules[(GEN_AM, GEN_AP)] == FreeElement(
        {(GEN_AP, GEN_AM): one, (GEN_M,): one}, K)
    assert rs.rules[(GEN_AP, GEN_M)] == FreeElement(
        {(GEN_M, GEN_AP): one,
         (GEN_M, GEN_M): sym("b1") * Fraction(1, 2)}, K)
    assert rs.rules[(GEN_AM, GEN_M)] == FreeElement({(GEN_M, GEN_AM): one}, K)


def test_family_rewrite_trivial_is_undeformed():
    rs = family_rewrite(BialgebraClass.symbolic(TRIVIAL, K), K)
    assert rs.rules == RewriteSystem.undeformed(K).rules


def test_family_rewrite_type_ii_series():
    rs = family_rewrite(BialgebraClass.symbolic(TYPE_II, 2), 2)
    s = sym("a2", 2) + sym("b3", 2)
    expected = FreeElement.from_word((GEN_AP, GEN_AM), 2) \
        + FreeElement.from_word((GEN_M,), 2) \
        + FreeElement.from_word((GEN_M, GEN_M), 2, coeff=s * Fraction(1, 2)) \
        + FreeElement.from_word((GEN_M,) * 3, 2, coeff=s * s * Fraction(1, 6))
    assert rs.rules[(GEN_AM, GEN_AP)] == expected


def test_family_rewrite_zero_parameters_undeformed():
    cls = BialgebraClass(TYPE_II, normalized=Cocommutator())
    rs = family_rewrite(cls, K)
    assert rs.rules == RewriteSystem.undeformed(K).rules


def test_exprel_series_degenerate_scale():
    assert exprel_series(ParamPoly.zero(K), K) == gen(GEN_M)


def test_series_have_one_word_per_power_up_to_the_order():
    # exp(a1 A+) has A+^0 .. A+^K; (exp(sM) - 1)/s has M^1 .. M^(K+1)
    assert len(exp_element(gen(GEN_AP) * sym("a1")).terms) == K + 1
    assert len(exprel_series(sym("a2") + sym("b3"), K).terms) == K + 1


# -- verification: positive and negative ------------------------------------------------

@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL])
def test_symbolic_families_verify(tag):
    hp = quantize(tag, order=K)
    assert report_zero(verify_homomorphism(hp))
    assert report_zero(verify_coassoc(hp))
    assert report_zero(verify_counit(hp))
    assert report_zero(verify_antipode(hp))
    assert verify_all(hp) == {k: True for k in
                              ("homomorphism", "coassociativity", "counit",
                               "antipode", "first-order")}


def test_homomorphism_fails_with_undeformed_rules():
    # the Type II coproduct is not an algebra map for [A-,A+] = M
    hp = quantize(TYPE_II, order=K, verify=False)
    broken = HopfPresentation(
        order=hp.order, values=hp.values,
        rewrite=RewriteSystem.undeformed(K), coproduct=hp.coproduct,
        counit=hp.counit, antipode=hp.antipode,
        bialgebra_class=hp.bialgebra_class)
    res = verify_homomorphism(broken)[f"{GEN_AM}*{GEN_AP}"]
    assert res
    assert res.homogeneous_part(1)


def test_quantize_raises_on_broken_verification(monkeypatch):
    import hweyl.quantization as qu
    monkeypatch.setattr(qu, "verify_all",
                        lambda hp: {"homomorphism": False})
    with pytest.raises(VerificationError):
        qu.quantize(TYPE_II, order=2)


# -- antipode -----------------------------------------------------------------------------

def test_antipode_type_i_plus_closed_form():
    order = 6
    hp = quantize(TYPE_I_PLUS, order=order)
    am, ap, m = gen(GEN_AM, order), gen(GEN_AP, order), gen(GEN_M, order)
    e_neg = exp_element(ap * -sym("a1", order))
    assert hp.antipode[GEN_AP] == -ap
    assert hp.antipode[GEN_M] == normal_form(-nc_mul(m, e_neg), hp.rewrite)
    expected = normal_form(
        -nc_mul(am, e_neg) - nc_mul(nc_mul(m, ap), e_neg) * sym("a3", order),
        hp.rewrite)
    assert hp.antipode[GEN_AM] == expected


def test_antipode_zero_parameters():
    hp = quantize(TRIVIAL, order=K)
    for name in GENERATORS:
        assert hp.antipode[name] == -gen(name)


def test_antipode_type_i_minus_closed_form():
    # swap image of the I+ closed form: A+ <-> A-, M -> -M, a1 -> -b1, a3 -> -b2
    order = 6
    hp = quantize(TYPE_I_MINUS, order=order)
    am, ap, m = gen(GEN_AM, order), gen(GEN_AP, order), gen(GEN_M, order)
    e_pos = exp_element(am * sym("b1", order))
    assert hp.antipode[GEN_AM] == -am
    assert hp.antipode[GEN_M] == normal_form(-nc_mul(m, e_pos), hp.rewrite)
    expected = normal_form(
        -nc_mul(ap, e_pos) - nc_mul(nc_mul(m, am), e_pos) * sym("b2", order),
        hp.rewrite)
    assert hp.antipode[GEN_AP] == expected


def test_antipode_type_ii_diagonal():
    cls = BialgebraClass(TYPE_II, normalized=Cocommutator(
        a2=sym("a2"), b3=sym("b3")))
    rs = family_rewrite(cls, K)
    gamma = build_antipode(cls, rs)
    m = gen(GEN_M)
    expected = normal_form(
        -nc_mul(gen(GEN_AM), exp_element(m * -sym("a2"))), rs)
    assert gamma[GEN_AM] == expected
    assert gamma[GEN_M] == -m


def test_inconsistent_coproduct_fails_the_antipode_gate():
    # a coproduct without the X (x) 1 part has no antipode: the gate must say so
    hp = quantize(TYPE_II, order=K, verify=False)
    broken = dict(hp.coproduct)
    broken[GEN_M] = outer(FreeElement.one(K), gen(GEN_M))
    bad = HopfPresentation(
        order=hp.order, values=hp.values,
        rewrite=hp.rewrite, coproduct=broken, counit=hp.counit,
        antipode=hp.antipode, bialgebra_class=hp.bialgebra_class)
    left, right = verify_antipode(bad)[GEN_M]
    assert left and right
    assert verify_all(bad)["antipode"] is False


def _with_delta_am_changed_at_degree_2(tag, order):
    """A presentation of the family whose Delta(A-) has one coefficient with
    its parameter-degree-2 part doubled."""
    hp = quantize(tag, order=order, verify=False)
    terms = dict(hp.coproduct[GEN_AM].terms)
    key = next(k for k, c in terms.items() if c.homogeneous_part(2))
    terms[key] = terms[key] + terms[key].homogeneous_part(2)
    broken = {**hp.coproduct, GEN_AM: TensorElement(2, terms, order)}
    return HopfPresentation(
        order=order, values=hp.values,
        rewrite=hp.rewrite, coproduct=broken, counit=hp.counit,
        antipode=hp.antipode, bialgebra_class=hp.bialgebra_class)


@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_II])
def test_a_degree_2_change_in_delta_am_fails_the_homomorphism_check(tag):
    bad = _with_delta_am_changed_at_degree_2(tag, 4)
    assert not report_zero(verify_homomorphism(bad))
    assert verify_all(bad)["homomorphism"] is False


@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_II])
def test_a_degree_2_change_in_delta_am_fails_the_coassociativity_check(tag):
    bad = _with_delta_am_changed_at_degree_2(tag, 4)
    assert not report_zero(verify_coassoc(bad))
    assert verify_all(bad)["coassociativity"] is False


def test_memos_do_not_leak_between_presentations():
    # a copy of a good presentation with a broken Delta(M) and the same
    # rewrite system; each is verified after the other has filled its memos
    order = 4
    good = quantize(TYPE_I_PLUS, order=order, verify=False)
    broken = dict(good.coproduct)
    broken[GEN_M] = outer(FreeElement.one(order), gen(GEN_M, order))
    bad = HopfPresentation(
        order=order, values=good.values,
        rewrite=good.rewrite, coproduct=broken, counit=good.counit,
        antipode=good.antipode, bialgebra_class=good.bialgebra_class)
    for _ in range(2):
        left, right = verify_antipode(bad)[GEN_M]
        assert left and right
        report = verify_all(bad)
        assert report == dict.fromkeys(report, False)
        assert all(verify_all(good).values())


def _left_residual(coproduct, rewrite, gamma, name):
    """m(gamma (x) id) Delta(X), letter by letter from the generator maps."""
    order = rewrite.order
    acc = FreeElement.zero(order)
    for (u, w), coeff in coproduct[name].terms.items():
        left = FreeElement.one(order)
        for letter in reversed(u):
            left = nc_mul(left, gamma[letter])
        acc = acc + nc_mul(left, FreeElement.from_word(w, order)) * coeff
    return normal_form(acc, rewrite)


def _solve_antipode(coproduct, rewrite):
    """Oracle: fix the antipode degree by degree from the left axiom,
    starting from gamma(X) = -X in parameter degree 0."""
    order = rewrite.order
    gamma = {name: -FreeElement.generator(name, order) for name in GENERATORS}
    for degree in range(1, order + 1):
        for name in GENERATORS:
            res = _left_residual(coproduct, rewrite, gamma, name)
            part = res.homogeneous_part(degree)
            if part:
                gamma[name] = gamma[name] - part
    for name in GENERATORS:
        assert not _left_residual(coproduct, rewrite, gamma, name)
    return gamma


_ORACLE_CASES = [
    (TYPE_I_PLUS, None),
    (TYPE_I_PLUS, {"a1": 1, "a3": 0}),
    (TYPE_I_PLUS, {"a1": 0, "a3": Fraction(-2, 3)}),
    (TYPE_I_MINUS, None),
    (TYPE_I_MINUS, {"b1": Fraction(1, 2), "b2": 1}),
    (TYPE_II, None),
    (TYPE_II, {"a2": 1, "a3": 0, "b2": Fraction(-1, 2), "b3": 1}),
    (TYPE_II, {"a2": 0, "a3": 1, "b2": 1, "b3": 0}),
    (TRIVIAL, None),
]


@pytest.mark.parametrize("tag,params", _ORACLE_CASES)
def test_build_antipode_matches_degree_by_degree_oracle(tag, params):
    for order in range(1, 7):
        hp = quantize(tag, order=order, params=params, verify=False)
        assert hp.antipode == _solve_antipode(hp.coproduct, hp.rewrite), order


# -- the shared series: F = exp(theta) read off E = exp(-theta) ---------------------

def _series_cases(tag, order, rng):
    """The symbolic family and two random rational points of it, drawn like
    the points of test_theta_oracle.py: |q| <= 5, denominators up to 6."""
    yield BialgebraClass.symbolic(tag, order)
    for _ in range(2):
        values = {}
        for name in FAMILIES[tag][0]:
            den = rng.randint(1, 6)
            values[name] = Fraction(rng.randint(-5 * den, 5 * den), den)
        yield BialgebraClass(tag, normalized=Cocommutator(**values))


_SERIES_TAGS = [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL]


@pytest.mark.parametrize("tag", _SERIES_TAGS)
def test_f_read_off_e_is_exp_theta_term_by_term(tag):
    rng = random.Random(97)
    for order in range(1, 9):
        for cls in _series_cases(tag, order, rng):
            series = _Series(cls, order)
            direct = exp_matrix2(series.matrix)
            for i in range(2):
                for j in range(2):
                    assert series.exp_pos[i][j].terms == direct[i][j].terms, (cls, order, i, j)


@pytest.mark.parametrize("tag", _SERIES_TAGS)
def test_e_times_f_normal_orders_to_the_identity(tag):
    rng = random.Random(98)
    for order in range(1, 9):
        for cls in _series_cases(tag, order, rng):
            rewrite = family_rewrite(cls, order)
            series = _Series(cls, order)
            exp_neg, exp_pos = series.exp_neg, series.exp_pos
            for i in range(2):
                for k in range(2):
                    prod = sum((nc_mul(exp_neg[i][j], exp_pos[j][k]) for j in range(2)),
                               FreeElement.zero(order))
                    assert normal_form(prod, rewrite) == int(i == k), (cls, order, i, k)


@pytest.mark.parametrize("tag", _SERIES_TAGS)
def test_standalone_maps_equal_the_maps_quantize_returns(tag):
    rng = random.Random(99)
    for order in range(1, 7):
        for cls in _series_cases(tag, order, rng):
            hp = quantize(cls, order=order, verify=False)
            assert family_rewrite(cls, order).rules == hp.rewrite.rules
            assert build_coproduct(cls, order) == hp.coproduct
            assert build_antipode(cls, hp.rewrite) == hp.antipode


# -- first order --------------------------------------------------------------------------

@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II])
def test_first_order_matches_cocommutator(tag):
    hp = quantize(tag, order=K)
    delta = hp.bialgebra_class.normalized
    got = first_order_cocommutator(hp)
    for name in GENERATORS:
        assert got[name] == delta.as_tensor(name, K)
    assert report_zero(first_order_residuals(hp))


@pytest.mark.parametrize("order", range(2, 7))
@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL])
def test_first_order_cocommutator_flips_only_the_degree_1_part(tag, order):
    # the projection to degree 1 is linear and commutes with the flip, so
    # projecting Delta - sigma Delta equals flipping the projection
    hp = quantize(tag, order=order, verify=False)
    got = first_order_cocommutator(hp)
    for name in GENERATORS:
        d = hp.coproduct[name]
        assert got[name] == (d - flip(d)).homogeneous_part(1)


# -- specialization ------------------------------------------------------------------------

def test_specialization_commutes():
    concrete = {"a1": Fraction(1, 2), "a3": Fraction(-3)}
    direct = quantize(TYPE_I_PLUS, order=K, params=concrete)
    symbolic = quantize(TYPE_I_PLUS, order=K)
    # a rational parameter q is graded as q*t
    scale = {name: ParamPoly.symbol("t", K) * val for name, val in concrete.items()}
    for name in GENERATORS:
        assert direct.coproduct[name] == specialized(symbolic.coproduct[name], scale)
        assert direct.antipode[name] == specialized(symbolic.antipode[name], scale)
    for pair, rhs in symbolic.rewrite.rules.items():
        assert direct.rewrite.rules[pair] == specialized(rhs, scale)


# -- central element -------------------------------------------------------------------------

def test_central_element_commutes_at_order_six():
    hp = quantize(TYPE_I_PLUS, order=6)
    c = central_element(hp)
    expected = nc_mul(gen(GEN_M, 6),
                      exp_element(gen(GEN_AP, 6) * (sym("a1", 6) * Fraction(-1, 2))))
    assert c == expected
    for name in GENERATORS:
        assert not commutator(c, gen(name, 6), hp.rewrite)


def test_central_element_undeformed_limit():
    hp = quantize(TYPE_I_PLUS, order=K, params={"a1": 0, "a3": 0})
    assert central_element(hp) == gen(GEN_M)


def test_central_element_relation_change():
    hp = quantize(TYPE_I_PLUS, order=5)
    c = central_element(hp)
    am, ap = gen(GEN_AM, 5), gen(GEN_AP, 5)
    rhs = normal_form(
        nc_mul(c, exp_element(ap * (sym("a1", 5) * Fraction(1, 2)))), hp.rewrite)
    assert commutator(am, ap, hp.rewrite) == rhs
    assert not commutator(ap, c, hp.rewrite)
    assert not commutator(am, c, hp.rewrite)


def test_central_element_only_for_i_plus():
    with pytest.raises(ValueError):
        central_element(quantize(TYPE_II, order=2))


# -- coassociativity details -------------------------------------------------------------------

def test_coproduct_extension_multiplicative():
    hp = quantize(TYPE_I_PLUS, order=K)
    x = nc_mul(gen(GEN_M), gen(GEN_M))
    direct = hp.coproduct_map.extend(x)
    square = tensor_mul(hp.coproduct[GEN_M], hp.coproduct[GEN_M], hp.rewrite)
    assert direct == square


def test_counit_residuals_shape():
    hp = quantize(TYPE_II, order=2)
    rep = verify_counit(hp)
    assert set(rep) == set(GENERATORS)
    for left, right in rep.values():
        assert not left and not right


# -- determinant identity -----------------------------------------------------------------------

@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_type_ii_determinant_identity(order):
    from hweyl.freealg import exp_matrix2
    cls = BialgebraClass.symbolic(TYPE_II, order)
    theta = _Series(cls, order).matrix
    e = exp_matrix2([[-x for x in row] for row in theta])
    rs = RewriteSystem.undeformed(order)
    det = normal_form(nc_mul(e[0][0], e[1][1]) - nc_mul(e[0][1], e[1][0]), rs)
    scale = sym("a2", order) + sym("b3", order)
    assert det == exp_element(gen(GEN_M, order) * scale)


# -- duality -------------------------------------------------------------------------------------

def test_swap_transport_equals_type_i_minus():
    source = quantize(BialgebraClass(TYPE_I_PLUS, normalized=Cocommutator(
        a1=-sym("b1"), a3=-sym("b2"))), order=K)
    transported = swap_transport(source)
    direct = quantize(TYPE_I_MINUS, order=K)
    assert transported.family == direct.family == TYPE_I_MINUS
    assert transported.rewrite.rules == direct.rewrite.rules
    for name in GENERATORS:
        assert transported.coproduct[name] == direct.coproduct[name]
        assert transported.antipode[name] == direct.antipode[name]
    assert transported.to_json() == direct.to_json()


def test_swap_transport_involution():
    hp = quantize(TYPE_I_PLUS, order=K)
    back = swap_transport(swap_transport(hp))
    assert back.family == TYPE_I_PLUS
    assert back.rewrite.rules == hp.rewrite.rules
    for name in GENERATORS:
        assert back.coproduct[name] == hp.coproduct[name]
        assert back.antipode[name] == hp.antipode[name]


def test_swap_transport_result_verifies():
    hp = swap_transport(quantize(TYPE_I_PLUS, order=K))
    assert all(verify_all(hp).values())


# -- realization ----------------------------------------------------------------------------------

def test_realization_symbolic():
    rep = check_realization(TYPE_I_PLUS, max_degree=4, order=K)
    assert all(rep.values())


def test_realization_classical_limit():
    cls = BialgebraClass(TYPE_I_PLUS, normalized=Cocommutator(a1=0, a3=0))
    rep = check_realization(cls, max_degree=4, order=2)
    assert all(rep.values())


def test_realization_refuses_an_empty_range():
    assert all(check_realization(TYPE_I_PLUS, max_degree=0, order=2).values())
    with pytest.raises(ValueError):
        check_realization(TYPE_I_PLUS, max_degree=-1, order=2)


def test_realization_bracket_on_constant():
    # [A-, A+] applied to 1 gives lambda e^{a1 x / 2}, letter by letter in
    # the oracle and through the engine's composed operator
    from hweyl.quantization import _X, _apply_operator, _realization
    from realization_oracle import apply_element, realization_ops
    order = 3
    a1 = sym("a1", order)
    ops = realization_ops(a1, order)
    am, ap = gen(GEN_AM, order), gen(GEN_AP, order)
    p0 = ParamPoly.one(math.inf, _X)
    bracket = nc_mul(am, ap) - nc_mul(ap, am)
    diff = apply_element(ops, bracket, p0)
    op = _realization(a1, order).extend(bracket)
    assert _apply_operator(op, [p0], 0) == diff
    lam = ParamPoly.symbol("lambda", order)
    half = a1 * Fraction(1, 2)
    x = ParamPoly.symbol("x", math.inf, _X)
    expected = ParamPoly.zero(math.inf, _X)
    power = lam
    fact = 1
    k = 0
    while power:
        expected = expected + x ** k * (power * Fraction(1, fact))
        k += 1
        fact *= k
        power = power * half
    assert diff == expected


# -- serialization ----------------------------------------------------------------------------------

def test_hopf_json_roundtrip_symbolic():
    hp = quantize(TYPE_I_PLUS, order=K)
    doc = hp.to_json()
    assert doc["parameters"] == {"a1": "a1", "a3": "a3"}
    rebuilt = HopfPresentation.from_json(doc)
    assert rebuilt.to_json() == doc


def test_hopf_json_roundtrip_concrete():
    hp = quantize(TYPE_II, order=K,
                  params={"a2": Fraction(-1), "a3": 0, "b2": 0, "b3": Fraction(-1)})
    doc = hp.to_json()
    assert doc["parameters"]["a2"] == "-1"
    assert doc["relations"]["[A-,A+]"] == "M - M^2 + (2/3)*M^3"
    rebuilt = HopfPresentation.from_json(doc)
    assert rebuilt.to_json() == doc


@pytest.mark.parametrize("tag, params", [
    (TYPE_II, {"a2": Fraction(-1, 2), "a3": Fraction(3, 7), "b2": -3, "b3": Fraction(1, 3)}),
    (TYPE_II, {"a2": 1, "a3": 0, "b2": 0, "b3": Fraction(-2, 5)}),
    (TYPE_I_PLUS, {"a1": Fraction(-9, 2), "a3": 1}),
    (TYPE_I_MINUS, {"b1": Fraction(5, 3), "b2": -2}),
])
def test_concrete_display_equals_every_parameter_set_to_one(tag, params):
    # a concrete presentation carries only the grading variable t, so setting
    # every parameter to 1 through the general ``subs`` is the oracle
    hp = quantize(tag, order=5, params=params, verify=False)
    ones = dict.fromkeys(PARAMS, 1)
    shown = [*hp.coproduct.values(), *hp.antipode.values(), *hp.relations().values()]
    if tag == TYPE_I_PLUS:
        shown.append(central_element(hp))
    shown += [c for x in shown for c in x.terms.values()]
    for x in shown:
        display = hp._display(x)
        want = x.subs(ones) if isinstance(x, ParamPoly) else specialized(x, ones)
        assert display == want
        assert str(display) == str(want)
    symbolic = quantize(tag, order=5, verify=False)
    assert symbolic._display(hp.coproduct[GEN_AM]) is hp.coproduct[GEN_AM]


def test_hopf_from_json_rejects_non_rational_parameters():
    # a display of exactly [-]<parameter name> is that signed symbol (the
    # swap-transport round trip below); any other non-rational display is
    # refused, naming its field
    b1, b2 = sym("b1"), sym("b2")
    cls = BialgebraClass(TYPE_I_PLUS, normalized=Cocommutator(a1=-b1, a3=-b2))
    doc = quantize(cls, order=K, verify=False).to_json()
    assert doc["parameters"] == {"a1": "-b1", "a3": "-b2"}
    for disp in ("2*b1", "b1^2", "--b1", "-b1 + b2", " b1", "-", "x", "t", "-t", "", 1):
        bad = {**doc, "parameters": {"a1": disp, "a3": "-b2"}}
        with pytest.raises(ValueError, match="field 'a1'"):
            HopfPresentation.from_json(bad)


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("source", [TYPE_I_PLUS, TYPE_I_MINUS])
def test_swap_transported_json_round_trips(source, order):
    # I+ -> I- shows {"b1": "-a1", "b2": "-a3"}, I- -> I+ {"a1": "-b1", "a3": "-b2"}
    original = quantize(source, order=order)
    doc = swap_transport(original).to_json()
    assert all(disp[0] == "-" for disp in doc["parameters"].values())
    rebuilt = HopfPresentation.from_json(doc)
    assert rebuilt.family != source
    assert rebuilt.to_json() == doc
    assert swap_transport(rebuilt).to_json() == original.to_json()


def test_quantize_rejects_parameters_the_family_lacks():
    with pytest.raises(ValueError, match="b1"):
        quantize(TYPE_I_PLUS, order=2, params={"b1": 3})


def test_quantize_refuses_params_beside_a_bialgebra_class():
    # a class carries its own parameter values, so params beside it would be
    # dropped without a word
    cls = BialgebraClass.symbolic(TYPE_I_PLUS, K)
    for params in ({"a1": 1, "zz": 5}, {"a1": 1}, {}):
        with pytest.raises(ValueError, match="not to a BialgebraClass"):
            quantize(cls, order=K, params=params)
    assert quantize(cls, order=K).param_display() == {"a1": "a1", "a3": "a3"}


def test_hopf_from_json_rejects_parameters_the_family_lacks():
    doc = {"family": TYPE_I_PLUS, "order": 2,
           "parameters": {"a1": "1", "a3": "2", "zz": "5"}}
    with pytest.raises(ValueError, match="zz"):
        HopfPresentation.from_json(doc)


def test_concrete_parameter_equal_to_one_is_not_symbolic():
    hp = quantize(TYPE_I_PLUS, params={"a1": 1, "a3": 2})
    assert hp.param_display() == {"a1": "1", "a3": "2"}
    assert hp.is_concrete
    rebuilt = HopfPresentation.from_json(hp.to_json())
    assert rebuilt.param_display() == {"a1": "1", "a3": "2"}
    assert rebuilt.is_concrete
    assert rebuilt.values == hp.values


def test_swap_transport_carries_concrete_values():
    source = quantize(TYPE_I_PLUS, order=K, params={"a1": 2, "a3": 1})
    transported = swap_transport(source)
    direct = quantize(TYPE_I_MINUS, order=K, params={"b1": -2, "b2": -1})
    assert source.param_display() == {"a1": "2", "a3": "1"}
    assert transported.param_display() == direct.param_display() == {"b1": "-2", "b2": "-1"}
    assert source.is_concrete and transported.is_concrete and direct.is_concrete
    assert transported.values == direct.values
    assert transported.to_json() == direct.to_json()


def test_concrete_type_ii_coefficients_are_single_terms():
    # every rational parameter is graded by the one variable t, so each
    # coefficient of a concrete TYPE_II presentation is a multiple of a power of t
    hp = quantize(TYPE_II, order=8, verify=False, params={
        "a2": Fraction(1, 2), "a3": -2, "b2": 3, "b3": Fraction(1, 3)})
    maps = [*hp.rewrite.rules.values(), *hp.coproduct.values(), *hp.antipode.values()]
    coeffs = [c for x in maps for c in x.terms.values()]
    assert len(coeffs) > 50
    assert max(len(c.terms) for c in coeffs) == 1


def test_mixed_presentation_grades_its_rational_parameter_by_t():
    hp = quantize(TYPE_I_PLUS, order=3, params={"a1": Fraction(1, 2)})
    assert hp.param_display() == {"a1": "1/2", "a3": "a3"}
    assert not hp.is_concrete
    doc = hp.to_json()
    assert "(1/2)*t*A- (x) A+" in doc["coproduct"][GEN_AM]
    rebuilt = HopfPresentation.from_json(doc)
    assert rebuilt.to_json() == doc
    assert rebuilt.values == hp.values


def test_closed_forms_mention_exponential():
    hp = quantize(TYPE_I_PLUS, order=2)
    lines = closed_forms(hp)["coproduct"]
    assert any("A- (x) exp(a1*A+)" in line for line in lines)


def test_closed_forms_drop_concrete_ones_and_zero_summands():
    plus = closed_forms(quantize(TYPE_I_PLUS, order=2, params={"a1": 1, "a3": 0}))
    assert plus == {
        "coproduct": ["Delta(A+) = 1 (x) A+ + A+ (x) 1",
                      "Delta(M) = 1 (x) M + M (x) exp(A+)",
                      "Delta(A-) = 1 (x) A- + A- (x) exp(A+)"],
        "relations": ["[A-,A+] = M", "[A-,M] = (1/2)*M^2", "[A+,M] = 0"],
        "antipode": ["gamma(A+) = -A+", "gamma(M) = -M*exp(-A+)",
                     "gamma(A-) = -A-*exp(-A+)"],
        "central_element": ["C = M*exp(-(1/2)*A+)"],
    }
    minus = closed_forms(quantize(TYPE_I_MINUS, order=2, params={"b1": 1, "b2": 1}))
    assert minus["coproduct"][2] == (
        "Delta(A+) = 1 (x) A+ + A+ (x) exp(-A-) - M (x) A-*exp(-A-)")
    assert minus["antipode"][2] == "gamma(A+) = -A+*exp(A-) - M*A-*exp(A-)"
    # every other concrete value is a coefficient as the engine writes it
    other = closed_forms(quantize(TYPE_I_PLUS, order=2, params={"a1": 2, "a3": -1}))
    assert other["coproduct"][2] == (
        "Delta(A-) = 1 (x) A- + A- (x) exp(2*A+) + M (x) A+*exp(2*A+)")
    zero = closed_forms(quantize(TYPE_I_PLUS, order=2, params={"a1": 0, "a3": 2}))
    assert zero["coproduct"][1:] == ["Delta(M) = 1 (x) M + M (x) 1",
                                     "Delta(A-) = 1 (x) A- + A- (x) 1 - 2*M (x) A+"]
    assert zero["relations"][1] == "[A-,M] = 0"
    assert zero["antipode"][2] == "gamma(A-) = -A- - 2*M*A+"
    assert zero["central_element"] == ["C = M"]


def test_closed_forms_of_a_diagonal_type_ii_are_explicit():
    hp = quantize(TYPE_II, order=2, params={"a2": 1, "a3": 0, "b2": 0, "b3": 1})
    assert closed_forms(hp) == {
        "coproduct": ["Delta(M) = 1 (x) M + M (x) 1",
                      "Delta(A+) = 1 (x) A+ + A+ (x) exp(M)",
                      "Delta(A-) = 1 (x) A- + A- (x) exp(M)"],
        "relations": ["[A-,A+] = (exp(s*M) - 1)/s with s = 2", "[A-,M] = 0",
                      "[A+,M] = 0"],
        "antipode": ["gamma(M) = -M", "gamma(A+) = -A+*exp(-M)",
                     "gamma(A-) = -A-*exp(-M)"],
    }
    traceless = quantize(TYPE_II, order=2, params={"a2": 1, "a3": 0, "b2": 0, "b3": -1})
    assert closed_forms(traceless)["relations"][0] == "[A-,A+] = M"


_RATIONAL = {TYPE_I_PLUS: {"a1": 1, "a3": 2},
             TYPE_I_MINUS: {"b1": Fraction(-1, 2), "b2": 3},
             TYPE_II: {"a2": Fraction(1, 2), "a3": -2, "b2": 3, "b3": Fraction(1, 3)}}


@pytest.mark.parametrize("tag", sorted(_RATIONAL))
def test_rational_output_at_order_k_is_every_term_of_at_most_k_letters(tag):
    # with every parameter rational, the order-K output drops the words of
    # more than K letters, and what it keeps is complete: the presentation
    # four orders deeper, cut at K letters, prints the same
    for k in (2, 3, 4):
        doc = quantize(tag, order=k, params=_RATIONAL[tag]).to_json()
        deep = quantize(tag, order=k + 4, params=_RATIONAL[tag])
        cut = lambda x: str(deep._display(x).truncate_words(k))
        assert doc["relations"] == {r: cut(x) for r, x in sorted(deep.relations().items())}
        assert doc["coproduct"] == {n: cut(deep.coproduct[n]) for n in GENERATORS}
        assert doc["antipode"] == {n: cut(deep.antipode[n]) for n in GENERATORS}
        if tag == TYPE_I_PLUS:
            assert doc["central_element"] == cut(central_element(deep))
