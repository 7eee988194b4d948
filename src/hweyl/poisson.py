"""Heisenberg group law and the multiparametric Poisson-Lie bracket.

The coordinate functions (a_minus, a_plus, m) generate an exact-rational
commutative polynomial algebra; the group law composes coordinates, and the
classified bialgebra coefficients induce a Poisson bracket whose Jacobi and
homomorphism properties are verified polynomially (no truncation needed).
"""

from __future__ import annotations

from fractions import Fraction

from .params import DEFAULT_ORDER, ParamPoly, as_fraction, parse_rational

#: Coordinate functions on the group, dual to the basis (A-, A+, M).
COORDS = ("a_minus", "a_plus", "m")
#: Two tagged copies, for the group-law homomorphism check.
COORDS2 = COORDS + ("a_minus'", "a_plus'", "m'")
#: Target chart for the coordinate change.
CHART = ("x1", "x2", "x3")


def _coerce(value):
    if isinstance(value, ParamPoly):
        return value
    return as_fraction(value)


class CoordPoly:
    """Sparse commutative polynomial over named variables.

    Coefficients are exact rationals or ParamPoly (for symbolic bracket
    coefficients); no degree truncation is applied.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names, terms):
        names = tuple(names)
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != len(names):
                raise ValueError("exponent vector does not match the variable list")
            if coeff:
                clean[tuple(exps)] = coeff
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CoordPoly is immutable")

    @classmethod
    def zero(cls, names):
        return cls(names, {})

    @classmethod
    def const(cls, value, names):
        value = _coerce(value)
        if not value:
            return cls(names, {})
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def var(cls, name, names):
        exps = [0] * len(names)
        exps[names.index(name)] = 1
        return cls(names, {tuple(exps): Fraction(1)})

    def _promote(self, other):
        if isinstance(other, CoordPoly):
            if other.names != self.names:
                raise ValueError("polynomials live over different variable lists")
            return other
        if isinstance(other, (int, Fraction, ParamPoly)):
            return CoordPoly.const(other, self.names)
        return None

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            terms[exps] = coeff if acc is None else acc + coeff
        return CoordPoly(self.names, terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CoordPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return CoordPoly(self.names,
                             {e: c * other for e, c in self.terms.items()})
        other = self._promote(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                coeff = c1 * c2
                if not coeff:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(key)
                terms[key] = coeff if acc is None else acc + coeff
        return CoordPoly(self.names, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return CoordPoly(self.names,
                             {e: other * c for e, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, n):
        out = CoordPoly.const(1, self.names)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def partial(self, index):
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if not e:
                continue
            key = exps[:index] + (e - 1,) + exps[index + 1:]
            add = coeff * e
            acc = terms.get(key)
            terms[key] = add if acc is None else acc + add
        return CoordPoly(self.names, terms)

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def linear_part(self):
        return CoordPoly(self.names,
                         {e: c for e, c in self.terms.items() if sum(e) == 1})

    def constant_value(self):
        if any(sum(e) for e in self.terms):
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.names), Fraction(0))

    def subs_vars(self, images):
        """Map every variable through ``images`` (name -> CoordPoly) into the
        target algebra; unmapped variables are not allowed."""
        target = next(iter(images.values())).names
        out = CoordPoly.zero(target)
        for exps, coeff in self.terms.items():
            factor = CoordPoly.const(coeff, target)
            for name, e in zip(self.names, exps):
                if not e:
                    continue
                if name not in images:
                    raise ValueError(f"no image for variable {name!r}")
                factor = factor * images[name] ** e
            out = out + factor
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))
        parts = []
        for exps, coeff in items:
            factors = []
            for name, e in zip(self.names, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if isinstance(coeff, ParamPoly):
                cs = str(coeff)
                piece = f"({cs})*{mono}" if mono else f"({cs})"
                parts.append(f" + {piece}" if parts else piece)
                continue
            piece = mono or None
            if coeff < 0:
                c = -coeff
                body = (f"{c}" if not piece else
                        piece if c == 1 else
                        f"{c}*{piece}" if c.denominator == 1 else f"({c})*{piece}")
                parts.append(f" - {body}" if parts else f"-{body}")
            else:
                body = (f"{coeff}" if not piece else
                        piece if coeff == 1 else
                        f"{coeff}*{piece}" if coeff.denominator == 1 else f"({coeff})*{piece}")
                parts.append(f" + {body}" if parts else body)
        return "".join(parts)

    def __repr__(self):
        return f"CoordPoly({self})"


class GroupCoords:
    """A group element in the coordinates (m, a_minus, a_plus)."""

    __slots__ = ("m", "a_minus", "a_plus")

    def __init__(self, m, a_minus, a_plus):
        names = m.names if isinstance(m, CoordPoly) else COORDS
        conv = (lambda v: v if isinstance(v, CoordPoly)
                else CoordPoly.const(v, names))
        object.__setattr__(self, "m", conv(m))
        object.__setattr__(self, "a_minus", conv(a_minus))
        object.__setattr__(self, "a_plus", conv(a_plus))

    def __setattr__(self, name, value):
        raise AttributeError("GroupCoords is immutable")

    @classmethod
    def identity(cls, names=COORDS):
        zero = CoordPoly.zero(names)
        return cls(zero, zero, zero)

    @classmethod
    def point(cls, m, a_minus, a_plus, names=COORDS):
        return cls(CoordPoly.const(m, names),
                   CoordPoly.const(a_minus, names),
                   CoordPoly.const(a_plus, names))

    @classmethod
    def generic(cls, suffix, names):
        """Element whose coordinates are the variables m<suffix>, etc."""
        return cls(CoordPoly.var(f"m{suffix}", names),
                   CoordPoly.var(f"a_minus{suffix}", names),
                   CoordPoly.var(f"a_plus{suffix}", names))

    def matrix(self):
        """Upper-triangular 3x3 representation [[1, a-, m + a- a+], ...]."""
        names = self.m.names
        one = CoordPoly.const(1, names)
        zero = CoordPoly.zero(names)
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
        return [str(self.m.constant_value()),
                str(self.a_minus.constant_value()),
                str(self.a_plus.constant_value())]


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
            object.__setattr__(self, name, _coerce(val))

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
        table = {}
        for block in (0, 1) if len(names) == 6 else (0,):
            off = 3 * block
            am = CoordPoly.var(names[off + 0], names)
            ap = CoordPoly.var(names[off + 1], names)
            m = CoordPoly.var(names[off + 2], names)
            table[(off, off + 1)] = am * self.a1 + ap * self.b1
            table[(off, off + 2)] = (am * self.a2 + ap * self.b2 + m * self.b1
                                     - am * am * (self.a1 * Fraction(1, 2)))
            table[(off + 1, off + 2)] = (am * self.a3 + ap * self.b3 - m * self.a1
                                         + ap * ap * (self.b1 * Fraction(1, 2)))
        return table


def pl_bracket(f: CoordPoly, g: CoordPoly, ps: PoissonStructure) -> CoordPoly:
    """Bracket extended from the generator table by bilinearity and Leibniz."""
    if f.names != g.names:
        raise ValueError("polynomials live over different variable lists")
    names = f.names
    if names not in (COORDS, COORDS2):
        raise ValueError("the bracket is defined on the coordinate algebra")
    table = ps.bracket_table(names)
    out = CoordPoly.zero(names)
    for i in range(len(names)):
        fi = f.partial(i)
        if not fi:
            continue
        for j in range(len(names)):
            if i == j:
                continue
            gj = g.partial(j)
            if not gj:
                continue
            if i < j:
                entry = table.get((i, j))
                if entry:
                    out = out + fi * gj * entry
            else:
                entry = table.get((j, i))
                if entry:
                    out = out - fi * gj * entry
    return out


def jacobi_check(ps: PoissonStructure, names=COORDS) -> CoordPoly:
    """Cyclic sum {f, {g, h}} over the coordinate triple; zero iff the
    bialgebra constraint equations hold."""
    am, ap, m = (CoordPoly.var(n, names) for n in names[:3])
    acc = CoordPoly.zero(names)
    for f, g, h in ((am, ap, m), (ap, m, am), (m, am, ap)):
        acc = acc + pl_bracket(f, pl_bracket(g, h, ps), ps)
    return acc


def group_pullback(f: CoordPoly) -> CoordPoly:
    """Pull back a coordinate polynomial along the group law, landing in the
    doubled algebra (unprimed and primed copies)."""
    if f.names != COORDS:
        raise ValueError("expected a polynomial over the base coordinates")
    am = CoordPoly.var("a_minus", COORDS2)
    ap = CoordPoly.var("a_plus", COORDS2)
    m = CoordPoly.var("m", COORDS2)
    amp = CoordPoly.var("a_minus'", COORDS2)
    app = CoordPoly.var("a_plus'", COORDS2)
    mp = CoordPoly.var("m'", COORDS2)
    images = {
        "m": m + mp - am * app,
        "a_minus": am + amp,
        "a_plus": ap + app,
    }
    return f.subs_vars(images)


def poisson_homomorphism_check(ps: PoissonStructure) -> dict:
    """Residual Delta{u,v} - {Delta u, Delta v} per coordinate pair, where
    Delta is the group-law pullback and the doubled bracket acts copy-wise."""
    base = {n: CoordPoly.var(n, COORDS) for n in COORDS}
    out = {}
    for u, v in (("a_minus", "a_plus"), ("a_minus", "m"), ("a_plus", "m")):
        lhs = group_pullback(pl_bracket(base[u], base[v], ps))
        rhs = pl_bracket(group_pullback(base[u]), group_pullback(base[v]), ps)
        out[f"{{{u},{v}}}"] = lhs - rhs
    return out


def chart_change(p: CoordPoly) -> CoordPoly:
    """Rewrite a coordinate polynomial in the chart x1 = a-, x2 = a+,
    x3 = m + a- a+."""
    x1 = CoordPoly.var("x1", CHART)
    x2 = CoordPoly.var("x2", CHART)
    x3 = CoordPoly.var("x3", CHART)
    return p.subs_vars({"a_minus": x1, "a_plus": x2, "m": x3 - x1 * x2})


def chart_change_inverse(p: CoordPoly) -> CoordPoly:
    am = CoordPoly.var("a_minus", COORDS)
    ap = CoordPoly.var("a_plus", COORDS)
    m = CoordPoly.var("m", COORDS)
    return p.subs_vars({"x1": am, "x2": ap, "x3": m + am * ap})


def linear_bracket_table(ps: PoissonStructure):
    """Degree-1 truncation of the generator brackets, as coefficient vectors
    over (a_minus, a_plus, m); this is the dual Lie bracket."""
    table = {}
    for (i, j), poly in ps.bracket_table(COORDS).items():
        vec = {}
        lin = poly.linear_part()
        for exps, coeff in lin.terms.items():
            vec[exps.index(1)] = coeff
        table[(i, j)] = vec
    return table
