"""Acceptance suite: one test per criterion, exact checks, stated time budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its runtime.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from hweyl.params import ParamPoly
from hweyl.freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, FreeElement,
                           RewriteSystem, commutator, exp_matrix2, nc_mul, normal_form)
from hweyl.bialgebra import (INVALID, TRIVIAL, TYPE_I_MINUS, TYPE_I_PLUS,
                             TYPE_II, BialgebraClass, Cocommutator, RMatrix,
                             classify, coboundary_delta, dual_bracket_table,
                             mcybe_check, schouten)
from hweyl.poisson import (COORD_RING, GroupCoords, PoissonStructure,
                           group_compose, jacobi_check, linear_bracket_table,
                           poisson_homomorphism_check)
from hweyl.quantization import (_Series, central_element, check_realization,
                                first_order_cocommutator, quantize,
                                swap_transport, verify_antipode, verify_coassoc,
                                verify_counit, verify_homomorphism)

from engine_helpers import cocycle_residuals, cojacobi_residuals, exp_on
from symbolic_cocommutators import constrained_symbolic, generic_symbolic


def _zero_report(report):
    for value in report.values():
        if isinstance(value, tuple):
            if any(v for v in value):
                return False
        elif value:
            return False
    return True


def _finish(number, label, t0, limit):
    elapsed = time.time() - t0
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s "
          f"(limit {limit}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def sym(name, order):
    return ParamPoly.symbol(name, order)


def test_criterion_1_constraint_derivation():
    t0 = time.time()
    res = cocycle_residuals(generic_symbolic(4))
    expected = [sym("c1", 4), sym("c2", 4) - sym("b1", 4),
                sym("c3", 4) + sym("a1", 4)]
    seen = set()
    for tensor in res:
        for coeff in tensor.terms.values():
            hits = [i for i, e in enumerate(expected)
                    if coeff == e or coeff == -e]
            assert hits, f"unexpected constraint {coeff}"
            seen.add(hits[0])
    assert seen == {0, 1, 2}

    p1, p2 = cojacobi_residuals(constrained_symbolic(4))
    a1, a2, a3 = sym("a1", 4), sym("a2", 4), sym("a3", 4)
    b1, b2, b3 = sym("b1", 4), sym("b2", 4), sym("b3", 4)
    q1 = a1 * (b3 - a2) - 2 * b1 * a3
    q2 = b1 * (a2 - b3) - 2 * a1 * b2
    assert {0: p1, 1: p2} in ({0: q1, 1: q2}, {0: -q1, 1: -q2},
                              {0: q2, 1: q1}, {0: -q2, 1: -q1})
    _finish(1, "constraint derivation", t0, 1)


def test_criterion_2_classification_grid():
    t0 = time.time()
    vals = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    n_valid = 0
    n_coboundary = 0
    for tup in itertools.product(vals, repeat=6):
        delta = Cocommutator(*tup)
        cls = classify(delta)
        residuals_pass = (all(not t for t in cocycle_residuals(delta))
                          and not any(cojacobi_residuals(delta)))
        assert residuals_pass == (cls.tag != INVALID)
        if cls.tag == INVALID:
            continue
        n_valid += 1
        a1, a2, a3, b1, b2, b3 = tup
        expected = (TRIVIAL if not any(tup)
                    else TYPE_I_PLUS if a1
                    else TYPE_I_MINUS if b1
                    else TYPE_II)
        assert cls.tag == expected
        matches_coboundary_form = (not a1 and not a3 and not b1 and not b2
                                   and a2 == b3)
        assert cls.coboundary == matches_coboundary_form
        if cls.coboundary:
            n_coboundary += 1
            assert cls.rmatrix.xi == -a2
    assert n_valid == 969 and n_coboundary == 5
    _finish(2, f"classification grid ({n_valid} bialgebras)", t0, 30)


def test_criterion_3_coboundary_theorem():
    t0 = time.time()
    # [[r, r]] = xi^2 (A- ^ A+ ^ M), in untruncated symbols
    r = RMatrix.symbolic()
    xi = sym("xi", math.inf)
    bracket = schouten(r)
    assert bracket == xi * xi
    assert mcybe_check(bracket)
    delta = coboundary_delta(r)
    assert delta.a2 == -xi and delta.b3 == -xi
    for name in ("a1", "a3", "b1", "b2", "c1", "c2", "c3"):
        assert not getattr(delta, name)
    _finish(3, "coboundary theorem", t0, 1)


def test_criterion_4_hopf_type_i_plus():
    t0 = time.time()
    hp = quantize(TYPE_I_PLUS, order=4, verify=False)
    assert _zero_report(verify_homomorphism(hp))
    assert _zero_report(verify_coassoc(hp))
    assert _zero_report(verify_counit(hp))
    assert _zero_report(verify_antipode(hp))

    hp6 = quantize(TYPE_I_PLUS, order=6)
    a1, a3 = sym("a1", 6), sym("a3", 6)
    am = FreeElement.generator(GEN_AM, 6)
    ap = FreeElement.generator(GEN_AP, 6)
    m = FreeElement.generator(GEN_M, 6)
    e_neg = exp_on(GEN_AP, -a1)
    closed = normal_form(-nc_mul(am, e_neg) - nc_mul(nc_mul(m, ap), e_neg) * a3,
                         hp6.rewrite)
    assert hp6.antipode[GEN_AM] == closed
    assert hp6.antipode[GEN_M] == normal_form(-nc_mul(m, e_neg), hp6.rewrite)
    assert hp6.antipode[GEN_AP] == -ap
    _finish(4, "Hopf theorem for I+", t0, 60)


def test_criterion_5_hopf_type_ii():
    t0 = time.time()
    hp = quantize(TYPE_II, order=4, verify=False)
    assert _zero_report(verify_homomorphism(hp))
    assert _zero_report(verify_coassoc(hp))
    assert _zero_report(verify_counit(hp))
    assert _zero_report(verify_antipode(hp))

    order = 8
    theta = _Series(BialgebraClass.symbolic(TYPE_II, order), order).theta
    e = exp_matrix2(GEN_M, [[-x for x in row] for row in theta])
    rs = RewriteSystem.undeformed(order)
    det = normal_form(nc_mul(e[0][0], e[1][1]) - nc_mul(e[0][1], e[1][0]), rs)
    scale = sym("a2", order) + sym("b3", order)
    assert det == exp_on(GEN_M, scale)
    _finish(5, "Hopf theorem for II", t0, 120)


def test_criterion_6_first_order_limit():
    t0 = time.time()
    for tag in (TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II):
        hp = quantize(tag, order=4, verify=False)
        delta = hp.bialgebra_class.normalized
        asym = first_order_cocommutator(hp)
        for name in GENERATORS:
            assert asym[name] == delta.as_tensor(name, 4)
    _finish(6, "first-order limit", t0, 5)


def test_criterion_7_centrality_and_realization():
    t0 = time.time()
    hp = quantize(TYPE_I_PLUS, order=6, verify=False)
    c = central_element(hp)
    for name in GENERATORS:
        assert not commutator(c, FreeElement.generator(name, 6), hp.rewrite)
    report = check_realization(TYPE_I_PLUS, max_degree=6, order=4)
    assert report == {"[A-,A+] = M": True, "[A-,M] = (a1/2)*M^2": True,
                      "[A+,M] = 0": True, "C = lambda": True}
    _finish(7, "centrality and realization", t0, 10)


def test_criterion_8_poisson_side():
    t0 = time.time()
    for tag in (TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II):
        ps = PoissonStructure.symbolic(tag)
        assert not jacobi_check(ps)
        assert all(not r for r in poisson_homomorphism_check(ps).values())
        assert linear_bracket_table(ps) == dual_bracket_table(
            BialgebraClass.symbolic(tag).normalized)

    rng = random.Random(271828)

    def mat_mul(a, b):
        return tuple(tuple(
            sum((a[i][k] * b[k][j] for k in range(3)),
                ParamPoly.zero(math.inf, COORD_RING))
            for j in range(3)) for i in range(3))

    for _ in range(100):
        pick = lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        g1 = GroupCoords.point(pick(), pick(), pick())
        g2 = GroupCoords.point(pick(), pick(), pick())
        assert group_compose(g1, g2).matrix() == mat_mul(g2.matrix(),
                                                         g1.matrix())
    _finish(8, "Poisson side", t0, 10)


def test_criterion_9_duality_of_i_families():
    t0 = time.time()
    order = 4
    cls = BialgebraClass(TYPE_I_PLUS, normalized=Cocommutator(
        a1=-sym("b1", order), a3=-sym("b2", order)))
    source = quantize(cls, order=order, verify=False)
    transported = swap_transport(source)
    direct = quantize(TYPE_I_MINUS, order=order)
    assert transported.family == TYPE_I_MINUS
    assert transported.rewrite.rules == direct.rewrite.rules
    for name in GENERATORS:
        assert transported.coproduct[name] == direct.coproduct[name]
        assert transported.antipode[name] == direct.antipode[name]
        assert transported.counit[name] == direct.counit[name]
    assert transported.to_json() == direct.to_json()
    _finish(9, "duality of I+/I-", t0, 10)
