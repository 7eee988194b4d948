"""Heisenberg group law and the multiparametric Poisson-Lie bracket.

The coordinate functions (a_minus, a_plus, m) generate a commutative
polynomial algebra with parameter coefficients: ParamPoly over COORD_RING,
PARAMS followed by COORDS (``params.ring``), with ``order=math.inf``, so no
term is ever truncated; likewise COORD_RING2 for COORDS2.  The bracket
differentiates in the coordinates only (``_partials``).  The group law
composes coordinates, and the classified bialgebra coefficients induce a
Poisson bracket with two checks:

- Jacobi, in closed form.  The cyclic sum over the coordinate triple is
  a_minus*J1 + a_plus*J2, with J1 and J2 the co-Jacobi quadrics of
  ``bialgebra`` at the coefficients (c1, c2, c3) = (0, b1, -a1) that the
  cocycle condition fixes; so it vanishes exactly on the co-Jacobi locus
  (the bracket a cocommutator induces satisfies Jacobi iff co-Jacobi holds).
  The tests keep the cyclic sum through the generic bracket as its oracle,
  a bracket of any two coordinate polynomials summed over ``_plan``.
- The group-law homomorphism residual Delta{u,v} - {Delta u, Delta v}.  It
  vanishes for every six-coefficient structure, on the bialgebra locus and
  off it, so it guards the table code (``bracket_table`` on the base and the
  doubled coordinates, the pullback and the bracket loop), not the input.

Both checks work on ParamPoly's packed storage (``params``): the table
entries and the Jacobi form are put together from the numerators of a
``PoissonStructure`` and the packed keys of the coordinate monomials, one
code path for rational and symbolic coefficients.

A bracket is one sum over a plan (``_plan``), the (table pair, factor key,
int factor) terms from the partials of its arguments.  Built once, on first
use (``_group_law``), as they do not depend on the input: the group-law
images of the coordinates, the plans of their brackets, and the packed image
of every monomial of degree <= 2 (those a table entry has).  Built on every
call of ``poisson_homomorphism_check``: both tables (over COORD_RING and
COORD_RING2) and, per coordinate pair, two numerator sums, the pullback of
the base entry and the bracket of the images.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import attrgetter

from .params import (_BITS, PARAMS, ParamPoly, Record, ValueRecord, _build, _pack, as_scalar,
                     ring)

#: Coordinate functions on the group, dual to the basis (A-, A+, M).
COORDS = ("a_minus", "a_plus", "m")
#: Two tagged copies, for the group-law homomorphism check.
COORDS2 = COORDS + ("a_minus'", "a_plus'", "m'")
#: The rings of these coordinates, and the number of parameter fields before them.
COORD_RING, COORD_RING2 = ring(COORDS), ring(COORDS2)
_P = len(PARAMS)


def _coord(name, names=COORD_RING) -> ParamPoly:
    """The coordinate function ``name`` as a polynomial over ``names``."""
    return ParamPoly.symbol(name, math.inf, names)


def _coord_const(value, names=COORD_RING) -> ParamPoly:
    """A rational constant as a polynomial over ``names``."""
    return ParamPoly.const(value, math.inf, names)


class GroupCoords(ValueRecord):
    """A group element in the coordinates (m, a_minus, a_plus), its
    ``_FIELDS``: polynomials over one ring, a rational given as a constant."""

    _FIELDS = ("m", "a_minus", "a_plus")
    __slots__ = _FIELDS

    def __init__(self, m, a_minus, a_plus):
        names = m.names if isinstance(m, ParamPoly) else COORD_RING
        self._store(*(v if isinstance(v, ParamPoly) else _coord_const(v, names)
                      for v in (m, a_minus, a_plus)))

    @classmethod
    def identity(cls, names=COORD_RING):
        return cls.point(0, 0, 0, names)

    @classmethod
    def point(cls, m, a_minus, a_plus, names=COORD_RING):
        return cls(*(_coord_const(v, names) for v in (m, a_minus, a_plus)))

    @classmethod
    def generic(cls, suffix, names):
        """Element whose coordinates are the variables m<suffix>, etc."""
        return cls(*(_coord(f"{n}{suffix}", names) for n in cls._FIELDS))

    def matrix(self):
        """Upper-triangular 3x3 representation [[1, a-, m + a- a+], ...]."""
        names = self.m.names
        one = _coord_const(1, names)
        zero = _coord_const(0, names)
        return ((one, self.a_minus, self.m + self.a_minus * self.a_plus),
                (zero, one, self.a_plus),
                (zero, zero, one))


def group_compose(g1: GroupCoords, g2: GroupCoords) -> GroupCoords:
    """Coordinates of the product whose matrix is D(g2) * D(g1):
    m'' = m + m' - a_- a'_+,  a''_± = a_± + a'_±."""
    return GroupCoords(
        g1.m + g2.m - g1.a_minus * g2.a_plus,
        g2.a_minus + g1.a_minus,
        g2.a_plus + g1.a_plus)


class PoissonStructure(Record):
    """Poisson-Lie bracket coefficients (the six bialgebra coefficients),
    its ``_FIELDS`` a1, a2, a3, b1, b2, b3.

    They are held as numerators over one common denominator, as
    ``Cocommutator.numerators`` holds the nine: each the (packed key over
    PARAMS, int) pairs of a polynomial over PARAMS, one pair (0, n) for a
    rational.  ``bracket_table`` and ``jacobi_check`` shift the keys into the
    ring beside the coordinate monomials, so rational and symbolic
    coefficients run one code path.  No attribute reads a coefficient back,
    so ``copy`` and ``pickle`` rebuild from the numerators (``__reduce__``).
    """

    _FIELDS = ("a1", "a2", "a3", "b1", "b2", "b3")
    __slots__ = ("_ints",)
    _fields_of = attrgetter(*_FIELDS)

    def __init__(self, a1=0, a2=0, a3=0, b1=0, b2=0, b3=0):
        vals = [as_scalar(v) for v in (a1, a2, a3, b1, b2, b3)]
        den = math.lcm(*[v._den if isinstance(v, ParamPoly) else v.denominator
                         for v in vals])
        nums = tuple([tuple([(k, c * (den // v._den)) for k, c in v._num.items()])
                      if isinstance(v, ParamPoly)
                      else (((0, v.numerator * (den // v.denominator)),) if v else ())
                      for v in vals])
        object.__setattr__(self, "_ints", (nums, den))

    def __reduce__(self):
        """Each numerator as a polynomial over PARAMS, which the constructor
        reads back unchanged."""
        nums, den = self._ints
        return type(self), tuple(_build(dict(n), den, math.inf, PARAMS) for n in nums)

    def numerators(self):
        """(the six numerators, in the order a1, a2, a3, b1, b2, b3, and
        their common denominator)."""
        return self._ints

    @classmethod
    def symbolic(cls, tag):
        """The structure of the family ``tag`` with its parameters as symbols."""
        from .bialgebra import BialgebraClass
        return cls.from_cocommutator(BialgebraClass.symbolic(tag).normalized)

    @classmethod
    def from_cocommutator(cls, delta):
        return cls(*cls._fields_of(delta))

    def bracket_table(self, names=COORD_RING):
        """{x_i, x_j} for i < j over the coordinate triple (and its primed
        copy over COORD_RING2; cross brackets vanish), keyed by coordinate
        indices and put together by ``_entry``; the two entries with a half
        of a1 or b1 are taken over twice the denominator."""
        (a1, a2, a3, b1, b2, b3), den = self.numerators()
        table = {}
        for off, (am, ap, m, am2, ap2) in enumerate(_MONOMIALS[names]):
            i, j, k = 3 * off, 3 * off + 1, 3 * off + 2
            table[(i, j)] = _entry(((1, am, a1), (1, ap, b1)), den, names)
            table[(i, k)] = _entry(((2, am, a2), (2, ap, b2), (2, m, b1), (-1, am2, a1)),
                                   2 * den, names)
            table[(j, k)] = _entry(((2, am, a3), (2, ap, b3), (-2, m, a1), (1, ap2, b1)),
                                   2 * den, names)
        return table


def _entry(parts, den, names) -> ParamPoly:
    """The sum of f * n * x over ``den`` for the (int f, monomial key x,
    numerator n) of ``parts``, each key of n shifted into the ring as
    ``ParamPoly._lift`` shifts it.  The monomials x differ, so no keys meet."""
    shift = _BITS * (len(names) - _P)
    return _build({(k << shift) + x: c * f for f, x, n in parts for k, c in n},
                  den, math.inf, names)


def _exps(width, i, e=1):
    """The exponent tuple of x_i^e over ``width`` variables."""
    return tuple(e if k == i else 0 for k in range(width))


#: Per coordinate triple of COORD_RING or COORD_RING2, the packed keys of the
#: monomials a table entry has: a_minus, a_plus, m, a_minus^2 and a_plus^2.
_MONOMIALS = {names: [tuple(_pack(_exps(len(names), off + i, e))
                            for i, e in ((0, 1), (1, 1), (2, 1), (0, 2), (1, 2)))
                      for off in range(_P, len(names), 3)]
              for names in (COORD_RING, COORD_RING2)}


def _partials(f: ParamPoly) -> list:
    """The partial derivatives in the coordinates, the names after PARAMS."""
    return [f.partial(i) for i in range(_P, len(f.names))]


def _plan(fp, gp):
    """The bracket plan of f and g from their partial-derivative lists: the
    (table pair, factor key, signed int factor) terms of
    sum_{i != j} df/dx_i dg/dx_j {x_i, x_j}, like terms merged, and the
    common denominator of the factors."""
    fden, gden = math.lcm(*(p._den for p in fp)), math.lcm(*(p._den for p in gp))
    terms = {}
    for (i, fi), (j, gj) in itertools.product(enumerate(fp), enumerate(gp)):
        if i != j:
            pair, s = ((i, j), 1) if i < j else ((j, i), -1)
            s *= fden // fi._den * (gden // gj._den)
            for k1, c1 in fi._num.items():
                for k2, c2 in gj._num.items():
                    key = pair, k1 + k2
                    terms[key] = terms.get(key, 0) + s * c1 * c2
    return [(pair, k, c) for (pair, k), c in terms.items() if c], fden * gden


def _bracket(terms, table, den) -> dict:
    """The numerators of a plan's bracket (``_plan``): factor * {x_i, x_j}
    summed over ``terms`` into one dict, over ``den`` (a common multiple of
    the table's denominators) times the plan's denominator.  A pair with no
    table entry, a cross bracket of the doubled table, adds nothing."""
    num = {}
    get = num.get
    for pair, fk, fc in terms:
        entry = table.get(pair)
        if entry is None:
            continue
        fc *= den // entry._den
        for ek, ec in entry._num.items():
            k = fk + ek
            acc = get(k)
            num[k] = fc * ec if acc is None else acc + fc * ec
    return num


def jacobi_check(ps: PoissonStructure) -> ParamPoly:
    """Cyclic sum {a_minus, {a_plus, m}} + {a_plus, {m, a_minus}}
    + {m, {a_minus, a_plus}}, zero iff the bialgebra constraint equations hold.

    In closed form it is a_minus*J1 + a_plus*J2, with J1 = a1 b3 - a1 a2
    - 2 a3 b1 and J2 = a2 b1 - b1 b3 - 2 a1 b2, the two co-Jacobi quadrics
    at (c1, c2, c3) = (0, b1, -a1), the values the cocycle condition fixes.
    Each product of two numerator terms is keyed by the sum of their keys, so
    J1 and J2 sit over the square of the denominator."""
    (a1, a2, a3, b1, b2, b3), den = ps.numerators()
    am, ap = _MONOMIALS[COORD_RING][0][:2]
    shift = _BITS * (len(COORD_RING) - _P)
    num = {}
    for f, x, p, q in ((1, am, a1, b3), (-1, am, a1, a2), (-2, am, a3, b1),
                       (1, ap, a2, b1), (-1, ap, b1, b3), (-2, ap, a1, b2)):
        for k1, c1 in p:
            for k2, c2 in q:
                k = ((k1 + k2) << shift) + x
                num[k] = num.get(k, 0) + f * c1 * c2
    return _build(num, den * den, math.inf, COORD_RING)


@functools.cache
def _group_law():
    """The group-law images over COORD_RING2, keyed by coordinate (the
    ``group_compose`` of the generic elements with unprimed and with primed
    coordinates), the bracket plan (``_plan``, from their partials) of
    images i < j, and the packed image of every coordinate monomial of
    degree <= 2 (those a table entry has): its key over COORD_RING maps to
    the numerators of its image.  The images have integer coefficients, so
    the plans' denominator is 1.  Built on first use."""
    g = group_compose(*(GroupCoords.generic(s, COORD_RING2) for s in ("", "'")))
    images = {n: getattr(g, n) for n in COORDS}
    partials = [_partials(image) for image in images.values()]
    monomials = {}
    for exps in itertools.product(range(3), repeat=3):
        if sum(exps) <= 2:
            key = _pack((0,) * _P + exps)
            monomials[key] = _monomial_image(images, key)
    plans = {(i, j): _plan(partials[i], partials[j])[0] for i, j in ((0, 1), (0, 2), (1, 2))}
    return images, plans, monomials


def _monomial_image(images, key):
    """The numerators over COORD_RING2 of the image of the monomial with
    packed ``key`` over COORD_RING: its parameters stay, and each coordinate
    goes to its image."""
    return _build({key: 1}, 1, math.inf, COORD_RING).subs(images)._num


def _pullback(num, scale) -> dict:
    """The pullback of the numerators ``num`` over COORD_RING, times the int
    ``scale``, as numerators over COORD_RING2.  Each packed key goes through
    the image table of ``_group_law``; a monomial with parameters, or of
    degree above 2, has its image computed here."""
    images, _, monomials = _group_law()
    out = {}
    get = out.get
    for key, c in num.items():
        image = monomials.get(key) or _monomial_image(images, key)
        c *= scale
        for k, n in image.items():
            acc = get(k)
            out[k] = c * n if acc is None else acc + c * n
    return out


def poisson_homomorphism_check(ps: PoissonStructure) -> dict:
    """Residual Delta{u,v} - {Delta u, Delta v} per coordinate pair, where
    Delta is the group-law pullback and the doubled bracket acts copy-wise.

    Built on each call: ``ps.bracket_table`` over COORD_RING and over
    COORD_RING2, and per pair two numerator dicts over the lcm of both
    tables' denominators: the pullback of the base entry (``_pullback``) and
    the bracket of the coordinate images (``_bracket``).  Only where they
    differ is their difference summed; ``_build`` makes it canonical.  Read
    from ``_group_law``, built once: the image table and the plans."""
    table, table2 = ps.bracket_table(COORD_RING), ps.bracket_table(COORD_RING2)
    _, plans, _ = _group_law()
    den = math.lcm(*(e._den for e in table.values()), *(e._den for e in table2.values()))
    out = {}
    for (i, j), terms in plans.items():
        entry = table[(i, j)]
        lhs, rhs = _pullback(entry._num, den // entry._den), _bracket(terms, table2, den)
        diff = ({k: lhs.get(k, 0) - rhs.get(k, 0) for k in lhs.keys() | rhs.keys()}
                if lhs != rhs else {})
        out[f"{{{COORDS[i]},{COORDS[j]}}}"] = _build(diff, den, math.inf, COORD_RING2)
    return out


def linear_bracket_table(ps: PoissonStructure):
    """The coordinate-degree-1 part of the generator brackets, as coefficient
    vectors over (a_minus, a_plus, m): the coefficient of x_k is d/dx_k at
    the origin, a parameter polynomial in COORD_RING.  This is the dual Lie
    bracket."""
    origin = dict.fromkeys(COORDS, 0)
    return {pair: {k: c for k, c in enumerate(d.subs(origin) for d in _partials(poly))
                   if c._num}
            for pair, poly in ps.bracket_table(COORD_RING).items()}
