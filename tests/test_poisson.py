import itertools
import math
import random
from fractions import Fraction

import pytest

from hweyl.params import ParamPoly
from hweyl.bialgebra import (TYPE_I_MINUS, TYPE_I_PLUS, TYPE_II,
                             BialgebraClass, Cocommutator, cojacobi_residuals,
                             dual_bracket_table)
from hweyl.poisson import (CHART, COORDS, COORDS2, GroupCoords,
                           PoissonStructure, chart_change,
                           chart_change_inverse, group_compose,
                           group_pullback, jacobi_check, linear_bracket_table,
                           pl_bracket, poisson_homomorphism_check)


def var(name, names=COORDS):
    return ParamPoly.symbol(name, math.inf, names)


def sym(name):
    return ParamPoly.symbol(name)


# -- group law ---------------------------------------------------------------------

def test_group_compose_example():
    g1 = GroupCoords.point(0, 1, 0)
    g2 = GroupCoords.point(0, 0, 1)
    assert group_compose(g1, g2) == GroupCoords.point(-1, 1, 1)


def test_group_identity():
    g = GroupCoords.point(Fraction(1, 2), -2, 3)
    e = GroupCoords.identity()
    assert group_compose(e, g) == g
    assert group_compose(g, e) == g


def test_group_matrix_cross_check():
    rng = random.Random(271828)

    def mat_mul(a, b):
        return tuple(tuple(
            sum((a[i][k] * b[k][j] for k in range(3)),
                ParamPoly.zero(math.inf, COORDS))
            for j in range(3)) for i in range(3))

    for _ in range(100):
        pick = lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        g1 = GroupCoords.point(pick(), pick(), pick())
        g2 = GroupCoords.point(pick(), pick(), pick())
        assert group_compose(g1, g2).matrix() == mat_mul(g2.matrix(), g1.matrix())


def test_group_associativity_symbolic():
    names = tuple(f"{n}{i}" for i in (1, 2, 3) for n in COORDS)
    g1 = GroupCoords.generic(1, names)
    g2 = GroupCoords.generic(2, names)
    g3 = GroupCoords.generic(3, names)
    assert group_compose(group_compose(g1, g2), g3) \
        == group_compose(g1, group_compose(g2, g3))


def test_group_json():
    g = GroupCoords.from_json(["1/2", "-1", "0"])
    assert g == GroupCoords.point(Fraction(1, 2), -1, 0)
    assert g.to_json() == ["1/2", "-1", "0"]
    with pytest.raises(ValueError):
        GroupCoords.from_json(["1", "2"])
    with pytest.raises(ValueError):
        GroupCoords.from_json({"q": "1"})
    with pytest.raises(ValueError):
        GroupCoords.from_json([1, 2, 3])
    with pytest.raises(ValueError):
        GroupCoords.from_json(["0", "1/0", "0"])
    with pytest.raises(ValueError):
        GroupCoords.from_json({"m": "1/0"})


# -- bracket ------------------------------------------------------------------------

def test_bracket_on_generators():
    ps = PoissonStructure.symbolic()
    am, ap, m = var("a_minus"), var("a_plus"), var("m")
    assert pl_bracket(am, ap, ps) == am * sym("a1") + ap * sym("b1")
    expected_am_m = (am * sym("a2") + ap * sym("b2") + m * sym("b1")
                     - am * am * (sym("a1") * Fraction(1, 2)))
    assert pl_bracket(am, m, ps) == expected_am_m
    assert str(pl_bracket(am, m, ps)) == \
        "(a2)*a_minus + (b2)*a_plus + (b1)*m + (-(1/2)*a1)*a_minus^2"
    assert str(am * Fraction(-2, 3) + m * m - 1) == "-1 - (2/3)*a_minus + m^2"
    expected_ap_m = (am * sym("a3") + ap * sym("b3") - m * sym("a1")
                     + ap * ap * (sym("b1") * Fraction(1, 2)))
    assert pl_bracket(ap, m, ps) == expected_ap_m


def test_bracket_antisymmetry_and_self():
    ps = PoissonStructure(a1=1, a3=2, b1=-1)
    am, ap, m = var("a_minus"), var("a_plus"), var("m")
    f = am * ap + m * m * Fraction(1, 3) - ap
    assert not pl_bracket(f, f, ps)
    g = m * am - ap * ap
    assert pl_bracket(f, g, ps) == -pl_bracket(g, f, ps)


def test_bracket_leibniz():
    ps = PoissonStructure.symbolic(TYPE_I_PLUS)
    am, ap, m = var("a_minus"), var("a_plus"), var("m")
    f, g, h = am + m, ap * ap, m * am
    lhs = pl_bracket(f * g, h, ps)
    rhs = f * pl_bracket(g, h, ps) + pl_bracket(f, h, ps) * g
    assert lhs == rhs


def test_bracket_example_type_i_plus_values():
    ps = PoissonStructure(a1=1, a3=1)
    am, ap, m = var("a_minus"), var("a_plus"), var("m")
    assert pl_bracket(ap, m, ps) == am - m


# -- Jacobi -------------------------------------------------------------------------

@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II])
def test_jacobi_symbolic_families(tag):
    ps = PoissonStructure.symbolic(tag)
    assert not jacobi_check(ps)


def test_jacobi_zero_structure():
    assert not jacobi_check(PoissonStructure())


def test_jacobi_constraint_violation():
    bad = PoissonStructure(a1=1, a3=1, b1=1, b2=0, a2=0, b3=2)
    assert jacobi_check(bad)


def test_jacobi_iff_cojacobi_grid():
    vals = [Fraction(v) for v in (-1, 0, 1)]
    for tup in itertools.product(vals, repeat=6):
        delta = Cocommutator(*tup)
        ps = PoissonStructure(*tup)
        assert (not any(cojacobi_residuals(delta))) == (not jacobi_check(ps))


def test_jacobi_iff_cojacobi_random_wide():
    rng = random.Random(31415)
    for _ in range(200):
        tup = tuple(Fraction(rng.randint(-2, 2)) for _ in range(6))
        delta = Cocommutator(*tup)
        ps = PoissonStructure(*tup)
        assert (not any(cojacobi_residuals(delta))) == (not jacobi_check(ps))


# -- homomorphism ---------------------------------------------------------------------

@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II])
def test_homomorphism_symbolic_families(tag):
    report = poisson_homomorphism_check(PoissonStructure.symbolic(tag))
    assert all(not residual for residual in report.values())


def test_homomorphism_vanishes_on_the_generic_six_parameter_structure():
    """The homomorphism residual is zero for all six coefficients at once,
    on the bialgebra locus and off it, so it says nothing about the input.
    This guards the table code (``bracket_table`` on the base and doubled
    coordinates, the group-law pullback and the bracket it feeds), not the
    input; ``test_homomorphism_detects_perturbed_bracket`` shows that a
    wrong table makes it fail."""
    report = poisson_homomorphism_check(PoissonStructure.symbolic())
    assert len(report) == 3
    assert all(not residual for residual in report.values())


def test_homomorphism_zero_structure():
    report = poisson_homomorphism_check(PoissonStructure())
    assert all(not residual for residual in report.values())


class _PerturbedStructure(PoissonStructure):
    """Type I+ values with {a-, a+} polluted by an a_plus^2 term."""

    def bracket_table(self, names=COORDS):
        table = super().bracket_table(names)
        fixed = {}
        for key, poly in table.items():
            if key[1] == key[0] + 1 and key[0] % 3 == 0:
                ap = ParamPoly.symbol(names[key[0] + 1], math.inf, names)
                poly = poly + ap * ap
            fixed[key] = poly
        return fixed


def test_homomorphism_detects_perturbed_bracket():
    ps = _PerturbedStructure(a1=1, a3=1)
    report = poisson_homomorphism_check(ps)
    assert any(residual for residual in report.values())


def test_pullback_is_group_law():
    m = var("m")
    image = group_pullback(m)
    am = ParamPoly.symbol("a_minus", math.inf, COORDS2)
    app = ParamPoly.symbol("a_plus'", math.inf, COORDS2)
    mp = ParamPoly.symbol("m'", math.inf, COORDS2)
    m2 = ParamPoly.symbol("m", math.inf, COORDS2)
    assert image == m2 + mp - am * app


# -- chart change -----------------------------------------------------------------------

def test_chart_change_examples():
    m = var("m")
    x1 = ParamPoly.symbol("x1", math.inf, CHART)
    x2 = ParamPoly.symbol("x2", math.inf, CHART)
    x3 = ParamPoly.symbol("x3", math.inf, CHART)
    assert chart_change(m) == x3 - x1 * x2
    assert chart_change(var("a_minus")) == x1
    assert chart_change_inverse(x3) == m + var("a_minus") * var("a_plus")


def test_chart_roundtrip_random():
    rng = random.Random(63)
    for _ in range(20):
        p = ParamPoly.zero(math.inf, COORDS)
        for _ in range(5):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            p = p + ParamPoly({exps: Fraction(rng.randint(-4, 4))}, math.inf,
                              COORDS)
        assert chart_change_inverse(chart_change(p)) == p


# -- linear part ------------------------------------------------------------------------

@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II])
def test_linear_part_is_dual_bracket(tag):
    ps = PoissonStructure.symbolic(tag)
    delta = BialgebraClass.symbolic(tag).normalized
    assert linear_bracket_table(ps) == dual_bracket_table(delta)


def test_linear_part_full_symbolic():
    ps = PoissonStructure.symbolic()
    delta = Cocommutator.constrained_symbolic()
    assert linear_bracket_table(ps) == dual_bracket_table(delta)
