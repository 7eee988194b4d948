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
  It is computed from ``bracket_table`` on every call; the input-independent
  parts (the images of the coordinates and of the monomials of degree <= 2
  under Delta, and the partial derivatives of the coordinate images) are
  built once, on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .bialgebra import _cojacobi_forms
from .params import DEFAULT_ORDER, ParamPoly, as_scalar, parse_rational

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


class PoissonStructure:
    """Poisson-Lie bracket coefficients (the six bialgebra coefficients)."""

    __slots__ = ("a1", "a2", "a3", "b1", "b2", "b3")

    def __init__(self, a1=0, a2=0, a3=0, b1=0, b2=0, b3=0):
        for name, val in (("a1", a1), ("a2", a2), ("a3", a3),
                          ("b1", b1), ("b2", b2), ("b3", b3)):
            object.__setattr__(self, name, as_scalar(val))

    def __setattr__(self, name, value):
        raise AttributeError("PoissonStructure is immutable")

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
        copy when ``names`` is the doubled list; cross brackets vanish)."""
        half_a1, half_b1 = self.a1 * Fraction(1, 2), self.b1 * Fraction(1, 2)
        table = {}
        for off, (am, ap, m, am2, ap2) in enumerate(_MONOMIALS[names]):
            i, j, k = 3 * off, 3 * off + 1, 3 * off + 2
            table[(i, j)] = ParamPoly({am: self.a1, ap: self.b1}, math.inf, names)
            table[(i, k)] = ParamPoly({am: self.a2, ap: self.b2, m: self.b1,
                                       am2: -half_a1}, math.inf, names)
            table[(j, k)] = ParamPoly({am: self.a3, ap: self.b3, m: -self.a1,
                                       ap2: half_b1}, math.inf, names)
        return table


def _exps(width, i, e=1):
    """The exponent tuple of x_i^e over ``width`` variables."""
    return tuple(e if k == i else 0 for k in range(width))


#: Per coordinate triple of COORDS or COORDS2, the monomials a table entry
#: has: a_minus, a_plus, m, a_minus^2 and a_plus^2, as exponent tuples.
_MONOMIALS = {names: [tuple(_exps(len(names), off + i, e)
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
    lists of f and g and the generator table over ``names``."""
    out = ParamPoly.zero(math.inf, names)
    for i, fi in enumerate(fp):
        if not fi:
            continue
        for j, gj in enumerate(gp):
            if i == j or not gj:
                continue
            entry = table.get((i, j) if i < j else (j, i))
            if entry:
                term = fi * gj * entry
                out = out + term if i < j else out - term
    return out


def jacobi_check(ps: PoissonStructure, names=COORDS) -> ParamPoly:
    """Cyclic sum {a_minus, {a_plus, m}} + {a_plus, {m, a_minus}}
    + {m, {a_minus, a_plus}}, zero iff the bialgebra constraint equations hold.

    In closed form it is a_minus*J1 + a_plus*J2, with (J1, J2) the two
    co-Jacobi quadrics at (c1, c2, c3) = (0, b1, -a1), the values the cocycle
    condition fixes."""
    j1, j2 = _cojacobi_forms(ps.a1, ps.a2, ps.a3, ps.b1, ps.b2, ps.b3,
                             0, ps.b1, -ps.a1)
    am, ap = _GENS[names][:2]
    return am * j1 + ap * j2


@functools.cache
def _group_law():
    """The group-law images of (a_minus, a_plus, m) over COORDS2, the
    partial-derivative list of each, and the image of every monomial of
    degree <= 2 (those a table entry has); built on first use."""
    am, ap, m, amp, app, mp = _GENS[COORDS2]
    images = (am + amp, ap + app, m + mp - am * app)
    monomials = {exps: _monomial_image(images, exps)
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
    doubled algebra (unprimed and primed copies)."""
    if f.names != COORDS:
        raise ValueError("expected a polynomial over the base coordinates")
    images, _, monomials = _group_law()
    out = ParamPoly.zero(math.inf, COORDS2)
    for exps, c in f.terms.items():
        image = monomials.get(exps)
        if image is None:
            image = _monomial_image(images, exps)
        out = out + image * c
    return out


def poisson_homomorphism_check(ps: PoissonStructure) -> dict:
    """Residual Delta{u,v} - {Delta u, Delta v} per coordinate pair, where
    Delta is the group-law pullback and the doubled bracket acts copy-wise."""
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
