"""Heisenberg group law and the multiparametric Poisson-Lie bracket.

The coordinate functions (a_minus, a_plus, m) generate a commutative
polynomial algebra: ParamPoly over the variable list COORDS (or its doubled
copy COORDS2) with ``order=math.inf``, so no term is ever truncated.  Their
coefficients are rationals, or ParamPoly over the deformation parameters for
symbolic bracket coefficients.  The group law composes coordinates, and the
classified bialgebra coefficients induce a Poisson bracket with two checks:

- Jacobi, in closed form.  The cyclic sum over the coordinate triple is
  a_minus*J1 + a_plus*J2, with J1 and J2 the co-Jacobi quadrics of
  ``bialgebra`` at the coefficients (c1, c2, c3) = (0, b1, -a1) that the
  cocycle condition fixes; so it vanishes exactly on the co-Jacobi locus
  (the bracket a cocommutator induces satisfies Jacobi iff co-Jacobi holds).
  The cyclic sum through the generic bracket is kept as a test oracle.
- The group-law homomorphism residual Delta{u,v} - {Delta u, Delta v}.  It
  vanishes for every six-coefficient structure, on the bialgebra locus and
  off it, so it guards the table code (``bracket_table`` on the base and the
  doubled coordinates, the pullback and the bracket loop), not the input.

Both checks work on ParamPoly's packed storage (``params``): integer
numerators over one denominator, keyed by packed exponent monomials.  A
``PoissonStructure`` holds its coefficients as numerators over one
denominator, and each table entry and the Jacobi form are put together from
them and the packed keys of their monomials by ``params._build``; symbolic
coefficients take that function's ParamPoly-coefficient branch, so there is
one construction path.

What does not depend on the input is built once, on first use
(``_group_law``): the group-law images of the coordinates, the partial
derivatives of those images, and the packed image of every monomial of
degree <= 2 (the monomials a table entry has).  Every call of
``poisson_homomorphism_check`` builds from its input both tables (over COORDS
and over COORDS2), the pullback of each base entry through the image table,
and the bracket sums of ``_bracket``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .bialgebra import _cojacobi_forms, _integers
from .params import (DEFAULT_ORDER, ParamPoly, _build, _pack, _unpack, as_scalar,
                     parse_rational)

#: Coordinate functions on the group, dual to the basis (A-, A+, M).
COORDS = ("a_minus", "a_plus", "m")
#: Two tagged copies, for the group-law homomorphism check.
COORDS2 = COORDS + ("a_minus'", "a_plus'", "m'")
#: Target chart for the coordinate change.
CHART = ("x1", "x2", "x3")


def _coord(name, names=COORDS) -> ParamPoly:
    """The coordinate function ``name`` as a polynomial over ``names``."""
    return ParamPoly.symbol(name, math.inf, names)


def _coord_const(value, names=COORDS) -> ParamPoly:
    """A constant (rational or ParamPoly) as a polynomial over ``names``."""
    return ParamPoly.const(value, math.inf, names)


#: The coordinate functions over COORDS and over COORDS2, built once.
_GENS = {names: tuple(_coord(n, names) for n in names) for names in (COORDS, COORDS2)}


class GroupCoords:
    """A group element in the coordinates (m, a_minus, a_plus)."""

    __slots__ = ("m", "a_minus", "a_plus")

    def __init__(self, m, a_minus, a_plus):
        names = m.names if isinstance(m, ParamPoly) else COORDS
        conv = lambda v: v if isinstance(v, ParamPoly) else _coord_const(v, names)
        object.__setattr__(self, "m", conv(m))
        object.__setattr__(self, "a_minus", conv(a_minus))
        object.__setattr__(self, "a_plus", conv(a_plus))

    def __setattr__(self, name, value):
        raise AttributeError("GroupCoords is immutable")

    @classmethod
    def identity(cls, names=COORDS):
        zero = _coord_const(0, names)
        return cls(zero, zero, zero)

    @classmethod
    def point(cls, m, a_minus, a_plus, names=COORDS):
        return cls(_coord_const(m, names), _coord_const(a_minus, names),
                   _coord_const(a_plus, names))

    @classmethod
    def generic(cls, suffix, names):
        """Element whose coordinates are the variables m<suffix>, etc."""
        return cls(_coord(f"m{suffix}", names), _coord(f"a_minus{suffix}", names),
                   _coord(f"a_plus{suffix}", names))

    def matrix(self):
        """Upper-triangular 3x3 representation [[1, a-, m + a- a+], ...]."""
        names = self.m.names
        one = _coord_const(1, names)
        zero = _coord_const(0, names)
        return ((one, self.a_minus, self.m + self.a_minus * self.a_plus),
                (zero, one, self.a_plus),
                (zero, zero, one))

    def __eq__(self, other):
        if not isinstance(other, GroupCoords):
            return NotImplemented
        return (self.m == other.m and self.a_minus == other.a_minus
                and self.a_plus == other.a_plus)

    __hash__ = None

    def __str__(self):
        return f"(m={self.m}, a_minus={self.a_minus}, a_plus={self.a_plus})"

    @classmethod
    def from_json(cls, data):
        """Accept a JSON triple [m, a_minus, a_plus] of string rationals."""
        names = ("m", "a_minus", "a_plus")
        if isinstance(data, dict):
            unknown = set(data) - set(names)
            if unknown:
                raise ValueError(f"unknown coordinate fields: {sorted(unknown)}")
            vals = [data.get(name, "0") for name in names]
        elif isinstance(data, list) and len(data) == 3:
            vals = data
        else:
            raise ValueError("group element must be a [m, a_minus, a_plus] triple")
        return cls.point(*(parse_rational(n, v) for n, v in zip(names, vals)))

    def to_json(self):
        return [str(self.m.as_fraction()), str(self.a_minus.as_fraction()),
                str(self.a_plus.as_fraction())]


def group_compose(g1: GroupCoords, g2: GroupCoords) -> GroupCoords:
    """Coordinates of the product whose matrix is D(g2) * D(g1):
    m'' = m + m' - a_- a'_+,  a''_± = a_± + a'_±."""
    return GroupCoords(
        g1.m + g2.m - g1.a_minus * g2.a_plus,
        g2.a_minus + g1.a_minus,
        g2.a_plus + g1.a_plus)


def _coefficient(index):
    """The property reading coefficient ``index`` of a PoissonStructure off
    its numerators: a Fraction, or the ParamPoly itself."""
    def get(self):
        nums, den = self._ints
        n = nums[index]
        return n if isinstance(n, ParamPoly) else Fraction(n, den)
    return property(get)


class PoissonStructure:
    """Poisson-Lie bracket coefficients (the six bialgebra coefficients).

    They are held as numerators over one common denominator, as
    ``Cocommutator.numerators`` holds the nine: with every coefficient
    rational, six ints over the lcm of their denominators; with a ParamPoly
    among them, the coefficients themselves over 1.  ``bracket_table`` and
    ``jacobi_check`` build their polynomials from these by ``params._build``,
    whose ParamPoly-coefficient branch takes the symbolic case, so rational
    and symbolic coefficients run one code path.  ``a1`` .. ``b3`` read a
    coefficient back, as a Fraction or a ParamPoly.
    """

    __slots__ = ("_ints",)

    a1, a2, a3, b1, b2, b3 = map(_coefficient, range(6))

    def __init__(self, a1=0, a2=0, a3=0, b1=0, b2=0, b3=0):
        vals = [as_scalar(v) for v in (a1, a2, a3, b1, b2, b3)]
        if any(isinstance(v, ParamPoly) for v in vals):
            ints = (tuple(vals), 1)
        else:
            nums, den = _integers(vals)
            ints = (tuple(nums), den)
        object.__setattr__(self, "_ints", ints)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonStructure is immutable")

    def numerators(self):
        """(the six numerators, in the order a1, a2, a3, b1, b2, b3, and
        their common denominator)."""
        return self._ints

    @classmethod
    def symbolic(cls, tag=None, order=DEFAULT_ORDER):
        """Symbolic coefficients, optionally restricted to one family's shape."""
        from .bialgebra import BialgebraClass
        if tag is None:
            return cls(*(ParamPoly.symbol(n, order)
                         for n in ("a1", "a2", "a3", "b1", "b2", "b3")))
        sym = BialgebraClass.symbolic(tag, order).normalized
        return cls(sym.a1, sym.a2, sym.a3, sym.b1, sym.b2, sym.b3)

    @classmethod
    def from_cocommutator(cls, delta):
        return cls(delta.a1, delta.a2, delta.a3, delta.b1, delta.b2, delta.b3)

    def bracket_table(self, names=COORDS):
        """{x_i, x_j} for i < j over the coordinate triple (and its primed
        copy when ``names`` is the doubled list; cross brackets vanish).
        Each entry is built from the numerators by ``_build``; the two with
        a half of a1 or b1 are taken over twice the denominator."""
        (a1, a2, a3, b1, b2, b3), den = self.numerators()
        a1x, a2x, a3x, b1x, b2x, b3x = (2 * v for v in (a1, a2, a3, b1, b2, b3))
        table = {}
        for off, (am, ap, m, am2, ap2) in enumerate(_MONOMIALS[names]):
            i, j, k = 3 * off, 3 * off + 1, 3 * off + 2
            table[(i, j)] = _build({am: a1, ap: b1}, den, math.inf, names)
            table[(i, k)] = _build({am: a2x, ap: b2x, m: b1x, am2: -a1},
                                   2 * den, math.inf, names)
            table[(j, k)] = _build({am: a3x, ap: b3x, m: -a1x, ap2: b1},
                                   2 * den, math.inf, names)
        return table


def _exps(width, i, e=1):
    """The exponent tuple of x_i^e over ``width`` variables."""
    return tuple(e if k == i else 0 for k in range(width))


#: Per coordinate triple of COORDS or COORDS2, the packed keys of the
#: monomials a table entry has: a_minus, a_plus, m, a_minus^2 and a_plus^2.
_MONOMIALS = {names: [tuple(_pack(_exps(len(names), off + i, e))
                            for i, e in ((0, 1), (1, 1), (2, 1), (0, 2), (1, 2)))
                      for off in range(0, len(names), 3)]
              for names in (COORDS, COORDS2)}


def pl_bracket(f: ParamPoly, g: ParamPoly, ps: PoissonStructure) -> ParamPoly:
    """Bracket extended from the generator table by bilinearity and Leibniz."""
    if f.names != g.names:
        raise ValueError("polynomials live over different variable lists")
    names = f.names
    if names not in (COORDS, COORDS2):
        raise ValueError("the bracket is defined on the coordinate algebra")
    return _bracket(_partials(f), _partials(g), ps.bracket_table(names), names)


def _partials(f: ParamPoly) -> list:
    return [f.partial(i) for i in range(len(f.names))]


def _bracket(fp, gp, table, names) -> ParamPoly:
    """sum_{i != j} df/dx_i dg/dx_j {x_i, x_j}, from the partial-derivative
    lists of f and g and the generator table over ``names``.  Zero partials
    and entries are skipped by their storage, ``_num``."""
    out = ParamPoly.zero(math.inf, names)
    gs = [(j, gj) for j, gj in enumerate(gp) if gj._num]
    for i, fi in enumerate(fp):
        if not fi._num:
            continue
        for j, gj in gs:
            if i == j:
                continue
            entry = table.get((i, j) if i < j else (j, i))
            if entry is not None and entry._num:
                term = fi * gj * entry
                out = out + term if i < j else out - term
    return out


def jacobi_check(ps: PoissonStructure, names=COORDS) -> ParamPoly:
    """Cyclic sum {a_minus, {a_plus, m}} + {a_plus, {m, a_minus}}
    + {m, {a_minus, a_plus}}, zero iff the bialgebra constraint equations hold.

    In closed form it is a_minus*J1 + a_plus*J2, with (J1, J2) the two
    co-Jacobi quadrics at (c1, c2, c3) = (0, b1, -a1), the values the cocycle
    condition fixes.  J1 and J2 are formed from the numerators, so they sit
    over the square of their denominator."""
    (a1, a2, a3, b1, b2, b3), den = ps.numerators()
    j1, j2 = _cojacobi_forms(a1, a2, a3, b1, b2, b3, 0, b1, -a1)
    am, ap = _MONOMIALS[names][0][:2]
    return _build({am: j1, ap: j2}, den * den, math.inf, names)


@functools.cache
def _group_law():
    """The group-law images of (a_minus, a_plus, m) over COORDS2, the
    partial-derivative list of each, and the packed image of every monomial
    of degree <= 2 (those a table entry has): its key over COORDS maps to the
    numerators of its image, whose coefficients are integers.  Built on first
    use."""
    am, ap, m, amp, app, mp = _GENS[COORDS2]
    images = (am + amp, ap + app, m + mp - am * app)
    monomials = {_pack(exps): _monomial_image(images, exps)._num
                 for exps in itertools.product(range(3), repeat=3) if sum(exps) <= 2}
    return images, tuple(_partials(image) for image in images), monomials


def _monomial_image(images, exps):
    out = _coord_const(1, COORDS2)
    for image, e in zip(images, exps):
        if e:
            out = out * image ** e
    return out


def group_pullback(f: ParamPoly) -> ParamPoly:
    """Pull back a coordinate polynomial along the group law, landing in the
    doubled algebra (unprimed and primed copies).  Each packed key of ``f``
    goes through the image table of ``_group_law``; a monomial of degree
    above 2 has its image computed here.  The images have integer
    coefficients, so the result keeps the denominator of ``f``."""
    if f.names != COORDS:
        raise ValueError("expected a polynomial over the base coordinates")
    images, _, monomials = _group_law()
    num = {}
    get = num.get
    for key, c in f._num.items():
        image = monomials.get(key)
        if image is None:
            image = _monomial_image(images, _unpack(key, len(COORDS)))._num
        for k, n in image.items():
            acc = get(k)
            num[k] = c * n if acc is None else acc + c * n
    return _build(num, f._den, math.inf, COORDS2)


def poisson_homomorphism_check(ps: PoissonStructure) -> dict:
    """Residual Delta{u,v} - {Delta u, Delta v} per coordinate pair, where
    Delta is the group-law pullback and the doubled bracket acts copy-wise.

    Built on each call: ``ps.bracket_table`` over COORDS and over COORDS2,
    the pullback of each base entry (through the packed monomial images) and
    the bracket of the coordinate images (``_bracket`` over the doubled
    table).  Read from ``_group_law``, built once: the packed monomial images
    and the partial derivatives of the coordinate images."""
    table, table2 = ps.bracket_table(COORDS), ps.bracket_table(COORDS2)
    _, partials, _ = _group_law()
    out = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        lhs = group_pullback(table[(i, j)])
        rhs = _bracket(partials[i], partials[j], table2, COORDS2)
        out[f"{{{COORDS[i]},{COORDS[j]}}}"] = lhs - rhs
    return out


def chart_change(p: ParamPoly) -> ParamPoly:
    """Rewrite a coordinate polynomial in the chart x1 = a-, x2 = a+,
    x3 = m + a- a+."""
    x1, x2, x3 = (_coord(n, CHART) for n in CHART)
    return p.subs({"a_minus": x1, "a_plus": x2, "m": x3 - x1 * x2})


def chart_change_inverse(p: ParamPoly) -> ParamPoly:
    am, ap, m = _GENS[COORDS]
    return p.subs({"x1": am, "x2": ap, "x3": m + am * ap})


def linear_bracket_table(ps: PoissonStructure):
    """Degree-1 truncation of the generator brackets, as coefficient vectors
    over (a_minus, a_plus, m); this is the dual Lie bracket."""
    table = {}
    for (i, j), poly in ps.bracket_table(COORDS).items():
        vec = {}
        for exps, coeff in poly.homogeneous_part(1).terms.items():
            vec[exps.index(1)] = coeff
        table[(i, j)] = vec
    return table
