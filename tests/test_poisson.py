import itertools
import math
import random
from fractions import Fraction

import pytest

from hweyl.params import _BITS, MAX_ORDER, PARAMS, ParamPoly, _build, ring
from hweyl.bialgebra import (TYPE_I_MINUS, TYPE_I_PLUS, TYPE_II,
                             BialgebraClass, Cocommutator, apply_automorphism,
                             dual_bracket_table)
from hweyl.poisson import (COORD_RING, COORD_RING2, COORDS, GroupCoords,
                           PoissonStructure, _bracket, _partials, _plan, _pullback,
                           group_compose, jacobi_check, linear_bracket_table,
                           poisson_homomorphism_check)

from engine_helpers import cojacobi_residuals, degree, poly, structure_coefficients, subs
from symbolic_cocommutators import constrained_symbolic

#: A chart of the group, x1 = a-, x2 = a+, x3 = m + a- a+, and its ring.
CHART = ("x1", "x2", "x3")
CHART_RING = ring(CHART)


def var(name, names=COORD_RING):
    return ParamPoly.symbol(name, math.inf, names)


def monomial(exps, coeff):
    """coeff * a_minus^e0 a_plus^e1 m^e2 over COORD_RING."""
    return poly({(0,) * len(PARAMS) + tuple(exps): coeff}, math.inf, COORD_RING)


def sym(name):
    return ParamPoly.symbol(name)


def generic_structure():
    """The structure with its six coefficients a1 .. b3 as independent symbols."""
    return PoissonStructure(*(sym(n) for n in PoissonStructure._FIELDS))


# -- the generic bracket and the group-law pullback ----------------------------------
#
# No check calls either on a whole polynomial: ``jacobi_check`` is a closed
# form, and ``poisson_homomorphism_check`` sums plans and pullbacks built
# once.  Built here on the same loops (``_plan``, ``_bracket``, ``_partials``
# and ``_pullback``), they let the oracles below check those loops on any
# coordinate polynomial.

def pl_bracket(f, g, ps):
    """Bracket of two polynomials over one coordinate ring, extended from the
    generator table by bilinearity and Leibniz: the plan of f and g
    (``_plan``), summed by ``_bracket``."""
    names = f.names
    table = ps.bracket_table(names)
    check_field_limit(len(names), f._num, g._num, [k for e in table.values() for k in e._num])
    terms, den = _plan(_partials(f), _partials(g))
    table_den = math.lcm(*(e._den for e in table.values()))
    return _build(_bracket(terms, table, table_den), den * table_den, math.inf, names)


def check_field_limit(width, *key_sets):
    """Raise, as a product does, when a term of a product of one key from each
    set would carry out of an exponent field: the maxima per field sum past
    MAX_ORDER."""
    for i in range(width):
        pos = _BITS * (width - 1 - i)
        if sum(max(((k >> pos) & MAX_ORDER for k in keys), default=0)
               for keys in key_sets) > MAX_ORDER:
            raise ValueError(f"exponent above {MAX_ORDER}, the packed-key field limit")


def group_pullback(f):
    """Pull back a polynomial over COORD_RING along the group law
    (``_pullback``), landing in the doubled algebra.  The images have integer
    coefficients, so the result keeps the denominator of ``f``."""
    return _build(_pullback(f._num, 1), f._den, math.inf, COORD_RING2)


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
                ParamPoly.zero(math.inf, COORD_RING))
            for j in range(3)) for i in range(3))

    for _ in range(100):
        pick = lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        g1 = GroupCoords.point(pick(), pick(), pick())
        g2 = GroupCoords.point(pick(), pick(), pick())
        assert group_compose(g1, g2).matrix() == mat_mul(g2.matrix(), g1.matrix())


def test_group_associativity_symbolic():
    names = ring(f"{n}{i}" for i in (1, 2, 3) for n in COORDS)
    g1 = GroupCoords.generic(1, names)
    g2 = GroupCoords.generic(2, names)
    g3 = GroupCoords.generic(3, names)
    assert group_compose(group_compose(g1, g2), g3) \
        == group_compose(g1, group_compose(g2, g3))


# -- bracket ------------------------------------------------------------------------

def test_bracket_on_generators():
    ps = generic_structure()
    am, ap, m = var("a_minus"), var("a_plus"), var("m")
    assert pl_bracket(am, ap, ps) == am * sym("a1") + ap * sym("b1")
    expected_am_m = (am * sym("a2") + ap * sym("b2") + m * sym("b1")
                     - am * am * (sym("a1") * Fraction(1, 2)))
    assert pl_bracket(am, m, ps) == expected_am_m
    assert str(pl_bracket(am, m, ps)) == \
        "a2*a_minus + b1*m + b2*a_plus - (1/2)*a1*a_minus^2"
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
    report = poisson_homomorphism_check(generic_structure())
    assert len(report) == 3
    assert all(not residual for residual in report.values())


def test_homomorphism_zero_structure():
    report = poisson_homomorphism_check(PoissonStructure())
    assert all(not residual for residual in report.values())


class _PerturbedStructure(PoissonStructure):
    """Type I+ values with {a-, a+} polluted by an a_plus^2 term.  ``pollute``
    makes the change, so the oracles can make it to their own table too."""

    @staticmethod
    def pollute(table, names):
        fixed = {}
        for key, poly in table.items():
            if key[1] == key[0] + 1 and key[0] % 3 == 0:
                ap = ParamPoly.symbol(names[len(PARAMS) + key[0] + 1], math.inf, names)
                poly = poly + ap * ap
            fixed[key] = poly
        return fixed

    def bracket_table(self, names=COORD_RING):
        return self.pollute(super().bracket_table(names), names)


def test_homomorphism_detects_perturbed_bracket():
    ps = _PerturbedStructure(a1=1, a3=1)
    report = poisson_homomorphism_check(ps)
    assert any(residual for residual in report.values())


def test_pullback_is_group_law():
    m = var("m")
    image = group_pullback(m)
    am = ParamPoly.symbol("a_minus", math.inf, COORD_RING2)
    app = ParamPoly.symbol("a_plus'", math.inf, COORD_RING2)
    mp = ParamPoly.symbol("m'", math.inf, COORD_RING2)
    m2 = ParamPoly.symbol("m", math.inf, COORD_RING2)
    assert image == m2 + mp - am * app


# -- chart change -----------------------------------------------------------------------

def chart_change(p):
    """Rewrite a coordinate polynomial in the chart x1 = a-, x2 = a+,
    x3 = m + a- a+."""
    x1, x2, x3 = (var(n, CHART_RING) for n in CHART)
    return subs(p, {"a_minus": x1, "a_plus": x2, "m": x3 - x1 * x2})


def chart_change_inverse(p):
    am, ap, m = (var(n) for n in COORDS)
    return subs(p, {"x1": am, "x2": ap, "x3": m + am * ap})


def test_chart_change_examples():
    m = var("m")
    x1 = ParamPoly.symbol("x1", math.inf, CHART_RING)
    x2 = ParamPoly.symbol("x2", math.inf, CHART_RING)
    x3 = ParamPoly.symbol("x3", math.inf, CHART_RING)
    assert chart_change(m) == x3 - x1 * x2
    assert chart_change(var("a_minus")) == x1
    assert chart_change_inverse(x3) == m + var("a_minus") * var("a_plus")


def test_chart_roundtrip_random():
    rng = random.Random(63)
    for _ in range(20):
        p = ParamPoly.zero(math.inf, COORD_RING)
        for _ in range(5):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            p = p + monomial(exps, Fraction(rng.randint(-4, 4)))
        assert chart_change_inverse(chart_change(p)) == p


# -- linear part ------------------------------------------------------------------------

@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II])
def test_linear_part_is_dual_bracket(tag):
    ps = PoissonStructure.symbolic(tag)
    delta = BialgebraClass.symbolic(tag).normalized
    assert linear_bracket_table(ps) == dual_bracket_table(delta)


def test_linear_part_full_symbolic():
    ps = generic_structure()
    delta = constrained_symbolic()
    assert linear_bracket_table(ps) == dual_bracket_table(delta)


# -- oracles for the closed-form checks -----------------------------------------------
#
# ``jacobi_check`` is a closed form and ``poisson_homomorphism_check`` reuses
# group-law images built once; the generic computations they replaced are
# kept here as oracles.

def _coords(names):
    return tuple(ParamPoly.symbol(n, math.inf, names) for n in names[len(PARAMS):])


def oracle_bracket(f, g, ps):
    """sum over i < j of (df/dx_i dg/dx_j - df/dx_j dg/dx_i) {x_i, x_j}, with
    the table of ``table_by_arithmetic``, polluted by a perturbed structure's
    own ``pollute``: nothing here reads ``ps.bracket_table``."""
    names = f.names
    table = table_by_arithmetic(ps, names)
    if hasattr(ps, "pollute"):
        table = ps.pollute(table, names)
    out = ParamPoly.zero(math.inf, names)
    for (i, j), entry in table.items():
        i, j = len(PARAMS) + i, len(PARAMS) + j
        out = out + (f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i)) * entry
    return out


def cyclic_sum(ps):
    """{a-, {a+, m}} + {a+, {m, a-}} + {m, {a-, a+}} through ``oracle_bracket``."""
    am, ap, m = _coords(COORD_RING)
    return sum((oracle_bracket(f, oracle_bracket(g, h, ps), ps)
                for f, g, h in ((am, ap, m), (ap, m, am), (m, am, ap))),
               ParamPoly.zero(math.inf, COORD_RING))


def pullback_by_subs(f):
    am, ap, m, amp, app, mp = _coords(COORD_RING2)
    return subs(f, {"m": m + mp - am * app, "a_minus": am + amp, "a_plus": ap + app})


def homomorphism_oracle(ps):
    """Delta{u,v} - {Delta u, Delta v} with subs pullbacks and ``oracle_bracket``."""
    out = {}
    for u, v in (("a_minus", "a_plus"), ("a_minus", "m"), ("a_plus", "m")):
        fu, fv = var(u), var(v)
        lhs = pullback_by_subs(oracle_bracket(fu, fv, ps))
        rhs = oracle_bracket(pullback_by_subs(fu), pullback_by_subs(fv), ps)
        out[f"{{{u},{v}}}"] = lhs - rhs
    return out


def table_by_arithmetic(ps, names):
    """The generator table built by operator arithmetic on the coordinates."""
    gens = _coords(names)
    table = {}
    a1, a2, a3, b1, b2, b3 = structure_coefficients(ps)
    for off in range(0, len(names) - len(PARAMS), 3):
        am, ap, m = gens[off:off + 3]
        table[(off, off + 1)] = am * a1 + ap * b1
        table[(off, off + 2)] = (am * a2 + ap * b2 + m * b1
                                 - am * am * (a1 * Fraction(1, 2)))
        table[(off + 1, off + 2)] = (am * a3 + ap * b3 - m * a1
                                     + ap * ap * (b1 * Fraction(1, 2)))
    return table


def same_terms(p, q):
    return p.names == q.names and dict(p.terms) == dict(q.terms)


def symbolic_structures():
    return [generic_structure()] + [
        PoissonStructure.symbolic(tag) for tag in (TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II)]


def random_structures(seed, count):
    """Rational structures, a third each: a1 = b1 = 0 (on the co-Jacobi
    locus), points of the grid {-1, 0, 1}^6 (on it a fifth of the time) and
    random fractions (off it)."""
    rng = random.Random(seed)
    frac = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    out = []
    for n in range(count):
        if n % 3 == 0:
            tup = [0, frac(), frac(), 0, frac(), frac()]
        elif n % 3 == 1:
            tup = [rng.randint(-1, 1) for _ in range(6)]
        else:
            tup = [frac() for _ in range(6)]
        out.append(PoissonStructure(*tup))
    return out


def test_jacobi_closed_form_is_the_cyclic_sum_symbolically():
    """A polynomial identity in all six symbols: a_minus*J1 + a_plus*J2."""
    ps = generic_structure()
    closed = jacobi_check(ps)
    assert closed == cyclic_sum(ps)
    a1, a2, a3, b1, b2, b3 = (sym(n) for n in ("a1", "a2", "a3", "b1", "b2", "b3"))
    assert closed == (var("a_minus") * (-a1 * a2 + a1 * b3 - 2 * a3 * b1)
                      + var("a_plus") * (-2 * a1 * b2 + a2 * b1 - b1 * b3))


@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II])
def test_jacobi_closed_form_is_the_cyclic_sum_on_families(tag):
    ps = PoissonStructure.symbolic(tag)
    assert jacobi_check(ps) == cyclic_sum(ps)


def test_jacobi_closed_form_is_the_cyclic_sum_on_random_rationals():
    off_locus = 0
    for ps in random_structures(2718, 300):
        closed = jacobi_check(ps)
        assert same_terms(closed, cyclic_sum(ps))
        delta = Cocommutator(*structure_coefficients(ps))
        assert (not closed) == (not any(cojacobi_residuals(delta)))
        off_locus += bool(closed)
    assert 100 <= off_locus <= 200


def test_homomorphism_matches_the_subs_oracle_term_by_term():
    """Including the nonzero residual of a perturbed table."""
    structures = (symbolic_structures() + random_structures(1618, 40)
                  + [_PerturbedStructure(a1=1, a3=1)])
    nonzero = 0
    for ps in structures:
        new, old = poisson_homomorphism_check(ps), homomorphism_oracle(ps)
        assert new.keys() == old.keys()
        for key in new:
            assert same_terms(new[key], old[key]), key
            nonzero += bool(new[key])
    assert nonzero


def random_coordinate_poly(rng, coeff, names=COORD_RING):
    """Up to six terms of degree <= 4 in the coordinates of ``names``."""
    gens = _coords(names)
    p = ParamPoly.zero(math.inf, names)
    for _ in range(rng.randint(1, 6)):
        exps = [0] * len(gens)
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(len(gens))] += 1
        term = ParamPoly.one(math.inf, names)
        for x, e in zip(gens, exps):
            term = term * x ** e
        p = p + term * coeff()
    return p


def test_group_pullback_is_subs_up_to_degree_four():
    rng = random.Random(4242)
    rational = lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 5))
    symbolic = lambda: sym(rng.choice(("a1", "b2"))) * rng.randint(-3, 3) + rational()
    seen_degree = set()
    for n in range(150):
        f = random_coordinate_poly(rng, symbolic if n % 5 == 0 else rational)
        seen_degree.add(degree(f))
        assert same_terms(group_pullback(f), pullback_by_subs(f))
    assert 4 in seen_degree


def test_bracket_table_matches_operator_arithmetic():
    for ps in symbolic_structures() + random_structures(3141, 30):
        for names in (COORD_RING, COORD_RING2):
            new, old = ps.bracket_table(names), table_by_arithmetic(ps, names)
            assert new.keys() == old.keys()
            for key in new:
                assert same_terms(new[key], old[key]), (names, key)


# -- wider rational structures through the same oracles ---------------------------------

#: Six pairwise coprime denominators whose lcm is above 2^64.
COPRIME_DENOMINATORS = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)


def wide_structures(seed):
    """Rational structures past the small fractions of ``random_structures``:
    large pairwise coprime denominators, a single nonzero coefficient, only
    negative values, and inputs moved by a random automorphism (as the
    classify stream makes them), each kind drawn from ``seed``."""
    rng = random.Random(seed)
    out = []
    for _ in range(6):
        dens = list(COPRIME_DENOMINATORS)
        rng.shuffle(dens)
        out.append(PoissonStructure(*(Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**9), d)
                                      for d in dens)))
    for i in range(6):
        for value in (Fraction(-7, 3), Fraction(5), Fraction(1, 1000003)):
            tup = [0] * 6
            tup[i] = value
            out.append(PoissonStructure(*tup))
    for _ in range(6):
        out.append(PoissonStructure(*(-Fraction(rng.randint(1, 99), rng.randint(1, 97))
                                      for _ in range(6))))
    out += transported_structures(rng, 12)
    return out


def transported_structures(rng, count):
    """Family representatives with small random values, moved by a random
    automorphism B: columns the images of (A-, A+, M), M going to det * M."""
    pick = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    shapes = (("a1", "a3"), ("b1", "b2"), ("a2", "a3", "b2", "b3"))
    out = []
    for n in range(count):
        rep = Cocommutator(**{name: pick() for name in shapes[n % 3]})
        while True:
            al, be, ga, de, ep, ze = (Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                      for _ in range(6))
            det = al * ep - be * de
            if det:
                break
        moved = apply_automorphism(rep, ((al, de, 0), (be, ep, 0), (ga, ze, det)))
        out.append(PoissonStructure.from_cocommutator(moved))
    return out


def test_wide_structures_cover_each_kind():
    structures = wide_structures(7)
    for first in structures[:6]:
        dens = [c.denominator for c in structure_coefficients(first)]
        assert all(math.gcd(p, q) == 1 for p, q in itertools.combinations(dens, 2))
        assert math.lcm(*dens) > 2**64
    assert sum(sum(bool(c) for c in structure_coefficients(ps)) == 1 for ps in structures) == 18
    assert sum(all(c < 0 for c in structure_coefficients(ps)) for ps in structures) >= 6
    # the automorphisms bring in denominators past those of the representatives
    moved = structures[-12:]
    assert any(max(c.denominator for c in structure_coefficients(ps)) > 9 for ps in moved)


def test_numerators_read_back_as_the_coefficients():
    """Six constant int numerators over the lcm, in lowest terms, for
    rational coefficients; the coefficients' own int numerators, over 1, for
    the symbolic ones.  Either way they read back as the coefficients the
    constructor was given."""
    rng = random.Random(5)
    for _ in range(12):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(6)]
        assert structure_coefficients(PoissonStructure(*vals)) == vals
    terms = lambda c: dict(c.terms) if isinstance(c, ParamPoly) else c
    for tag in (TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II):
        vals = PoissonStructure._fields_of(BialgebraClass.symbolic(tag).normalized)
        assert ([terms(c) for c in structure_coefficients(PoissonStructure(*vals))]
                == [terms(c) for c in vals])
    for ps in wide_structures(11) + random_structures(5, 12):
        nums, den = ps.numerators()
        vals = structure_coefficients(ps)
        assert all(k == 0 and type(c) is int and c for n in nums for k, c in n)
        assert den == math.lcm(*(c.denominator for c in vals))
        assert [Fraction(dict(n).get(0, 0), den) for n in nums] == vals
    for ps in symbolic_structures():
        nums, den = ps.numerators()
        assert den == 1
        assert [dict(n) for n in nums] == [c._num if isinstance(c, ParamPoly)
                                           else ({0: int(c)} if c else {})
                                           for c in structure_coefficients(ps)]


def test_wide_structures_table_matches_operator_arithmetic():
    for ps in wide_structures(101):
        for names in (COORD_RING, COORD_RING2):
            new, old = ps.bracket_table(names), table_by_arithmetic(ps, names)
            assert new.keys() == old.keys()
            for key in new:
                assert same_terms(new[key], old[key]), (names, key)


def test_wide_structures_pullback_matches_subs():
    """The table entries (degree <= 2, through the image table) and their
    products with a coordinate (degree 3, imaged on the fly)."""
    m = var("m")
    for ps in wide_structures(202):
        for entry in ps.bracket_table(COORD_RING).values():
            for f in (entry, entry * m - entry * Fraction(3, 1000037)):
                assert same_terms(group_pullback(f), pullback_by_subs(f))


def test_wide_structures_homomorphism_matches_the_subs_oracle():
    for ps in wide_structures(303):
        new, old = poisson_homomorphism_check(ps), homomorphism_oracle(ps)
        assert new.keys() == old.keys()
        for key in new:
            assert same_terms(new[key], old[key]), key
            assert not new[key]


def test_wide_structures_jacobi_is_the_cyclic_sum():
    on_locus = off_locus = 0
    for ps in wide_structures(404):
        closed = jacobi_check(ps)
        assert same_terms(closed, cyclic_sum(ps))
        delta = Cocommutator(*structure_coefficients(ps))
        assert (not closed) == (not any(cojacobi_residuals(delta)))
        on_locus += not closed
        off_locus += bool(closed)
    assert on_locus and off_locus


class _PrimedPerturbedStructure(PoissonStructure):
    """Type I+ values with only the primed copy {a-', a+'} of the doubled
    table polluted by an a_plus'^2 term: the base table and the unprimed
    copy are right."""

    @staticmethod
    def pollute(table, names):
        table = dict(table)
        if names == COORD_RING2:
            app = ParamPoly.symbol("a_plus'", math.inf, COORD_RING2)
            table[(3, 4)] = table[(3, 4)] + app * app
        return table

    def bracket_table(self, names=COORD_RING):
        return self.pollute(super().bracket_table(names), names)


def test_homomorphism_detects_a_fault_in_the_primed_copy_only():
    """{Delta a-, Delta a+} reads {a-', a+'} once, and {Delta a-, Delta m}
    reads it through -a_minus * {a-', a+'}; {Delta a+, Delta m} never does."""
    ps = _PrimedPerturbedStructure(a1=1, a3=1)
    report = poisson_homomorphism_check(ps)
    am = ParamPoly.symbol("a_minus", math.inf, COORD_RING2)
    app = ParamPoly.symbol("a_plus'", math.inf, COORD_RING2)
    assert report["{a_minus,a_plus}"] == -(app * app)
    assert report["{a_minus,m}"] == am * app * app
    assert not report["{a_plus,m}"]
    old = homomorphism_oracle(ps)
    for key in report:
        assert same_terms(report[key], old[key]), key


class _OneTablePerturbed(PoissonStructure):
    """Type I+ values with {a-, a+} polluted by an a_plus^2 term in the table
    over ``RING`` only; the table over the other ring is right."""

    RING = None

    @classmethod
    def pollute(cls, table, names):
        table = dict(table)
        if names == cls.RING:
            table[(0, 1)] = table[(0, 1)] + var("a_plus", names) ** 2
        return table

    def bracket_table(self, names=COORD_RING):
        return self.pollute(super().bracket_table(names), names)


class _BaseTablePerturbed(_OneTablePerturbed):
    RING = COORD_RING


class _DoubledTablePerturbed(_OneTablePerturbed):
    RING = COORD_RING2


@pytest.mark.parametrize("cls", [_BaseTablePerturbed, _DoubledTablePerturbed])
def test_homomorphism_reads_both_tables_on_every_call(cls):
    """A fault in either table shows, between two calls on the same values
    with right tables: the check reads ``ps.bracket_table`` for both rings on
    every call and keeps nothing of its input."""
    plain = PoissonStructure(a1=1, a3=1)
    for ps in (plain, cls(a1=1, a3=1), plain):
        report, old = poisson_homomorphism_check(ps), homomorphism_oracle(ps)
        assert report.keys() == old.keys()
        for key in report:
            assert same_terms(report[key], old[key]), key
        assert any(report.values()) == (ps is not plain)


def test_pl_bracket_matches_the_oracle_on_multi_term_partials():
    """The fused bracket loop against ``oracle_bracket``, on random
    polynomials of degree <= 4 over both rings (the check itself only feeds
    it the linear partials of the group law), for rational, wide, symbolic
    and perturbed structures."""
    rng = random.Random(8128)
    rational = lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 5))
    symbolic = lambda: sym(rng.choice(("a1", "b2", "t"))) * rng.randint(-3, 3) + rational()
    structures = (random_structures(1729, 12) + wide_structures(606) + symbolic_structures()
                  + [_PerturbedStructure(a1=1, a3=1), _PrimedPerturbedStructure(a1=1, a3=1),
                     _BaseTablePerturbed(a1=2, b2=-1), _DoubledTablePerturbed(b1=1, a2=3)])
    longest = 0
    for n, ps in enumerate(structures):
        for names in (COORD_RING, COORD_RING2):
            coeff = symbolic if n % 4 == 0 else rational
            f, g = (random_coordinate_poly(rng, coeff, names) for _ in range(2))
            assert same_terms(pl_bracket(f, g, ps), oracle_bracket(f, g, ps)), (n, names)
            longest = max([longest] + [len(f.partial(i).terms)
                                       for i in range(len(PARAMS), len(names))])
    assert longest >= 4


def test_pl_bracket_keeps_the_field_limit():
    """An exponent past the packed-key field limit raises, as it does in a
    product; a total degree past it, each exponent within, is summed."""
    ps = PoissonStructure(a1=1, a2=2, b1=-1, b3=3)
    am, m = var("a_minus"), var("m")
    with pytest.raises(ValueError, match="field limit"):
        pl_bracket(am ** 200, am ** 100 * m, ps)
    f, g = am ** 200, m ** 100
    out = pl_bracket(f, g, ps)
    assert degree(out) > MAX_ORDER
    assert same_terms(out, oracle_bracket(f, g, ps))
