"""Exact sparse commutative polynomials over named variables.

``ParamPoly`` is the one polynomial class of the engine.  Over the
deformation parameters PARAMS, truncated at a total degree K, it is the
coefficient ring of every formal series (free-algebra elements, tensors,
Hopf structure maps).  Over the group coordinates (``poisson.COORDS``), or
the variable x of the I+ differential realization, with ``order=math.inf``
nothing is truncated, and the coefficients may themselves be parameter
polynomials.  The module also holds the strict rational parser
and the signed-sum renderer shared by all printed output.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

#: Parameter names, fixing the exponent-vector layout and the rendering order.
PARAMS = ("a1", "a2", "a3", "b1", "b2", "b3",
          "c1", "c2", "c3", "xi", "beta_plus", "beta_minus", "lambda")

#: Default truncation order for deformation series.
DEFAULT_ORDER = 6


def as_fraction(value) -> Fraction:
    """Coerce an int, a string like ``"-2/3"``, or a Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def parse_rational(field, raw) -> Fraction:
    """Strict parse of one JSON input field: a string rational like ``"-2/3"``.

    Anything else, a zero denominator included, raises ``ValueError`` naming
    the field.
    """
    if not isinstance(raw, str):
        raise ValueError(f"field {field!r}: must be a string rational, got {raw!r}")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"field {field!r}: {exc}") from None


def as_scalar(value):
    """A coefficient as given when it is a ParamPoly, else as a Fraction."""
    if isinstance(value, ParamPoly):
        return value
    return as_fraction(value)


def monomial_factors(exps, names=PARAMS) -> list:
    out = []
    for name, e in zip(names, exps):
        if e == 1:
            out.append(name)
        elif e:
            out.append(f"{name}^{e}")
    return out


def monomial_key(exps):
    # graded, then lex with earlier variables first
    return (sum(exps), tuple(-e for e in exps))


def coeff_prefix(coeff: Fraction, body: str) -> str:
    """Attach a positive rational coefficient to a rendered monomial body."""
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff.denominator == 1:
        return f"{coeff}*{body}"
    return f"({coeff})*{body}"


def join_signed(items) -> str:
    """Render ``(coeff, body)`` pairs as a sum with `` + ``/`` - `` separators.

    A ParamPoly coefficient has no sign of its own: it is bracketed and
    always joined with `` + ``.
    """
    parts = []
    for coeff, body in items:
        if not coeff:
            continue
        if isinstance(coeff, ParamPoly):
            piece, negative = (f"({coeff})*{body}" if body else f"({coeff})"), False
        else:
            piece, negative = coeff_prefix(abs(coeff), body), coeff < 0
        if not parts:
            parts.append(f"-{piece}" if negative else piece)
        else:
            parts.append(f" - {piece}" if negative else f" + {piece}")
    return "".join(parts) if parts else "0"


class ParamPoly:
    """Sparse commutative polynomial over a tuple of named variables.

    Terms map exponent vectors (one entry per name in ``names``) to nonzero
    coefficients.  Terms of total degree above ``order`` are discarded;
    ``order=math.inf`` keeps every term.  Coefficients are Fractions, or,
    over variables other than PARAMS, may be ParamPoly over PARAMS (the
    coefficient ring of the symbolic coordinate polynomials).

    Instances are immutable; arithmetic between polynomials over the same
    variables requires equal orders, and every result is re-truncated and
    stripped of zero terms, so representations are canonical.  A rational,
    or a parameter polynomial times a polynomial over other variables, acts
    coefficient-wise.
    """

    __slots__ = ("terms", "order", "names")

    def __init__(self, terms, order, names=PARAMS):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        clean = {}
        for exps, coeff in terms.items():
            if coeff and sum(exps) <= order:
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order=DEFAULT_ORDER, names=PARAMS):
        return cls({}, order, names)

    @classmethod
    def one(cls, order=DEFAULT_ORDER, names=PARAMS):
        return cls.const(1, order, names)

    @classmethod
    def const(cls, value, order=DEFAULT_ORDER, names=PARAMS):
        return cls({(0,) * len(names): as_scalar(value)}, order, names)

    @classmethod
    def symbol(cls, name, order=DEFAULT_ORDER, names=PARAMS):
        if name not in names:
            raise ValueError(f"unknown variable {name!r}")
        exps = [0] * len(names)
        exps[names.index(name)] = 1
        return cls({tuple(exps): Fraction(1)}, order, names)

    # -- helpers -----------------------------------------------------------

    def _like(self, terms):
        """A polynomial in self's ring from terms already within its order;
        only zero coefficients are dropped."""
        out = object.__new__(ParamPoly)
        object.__setattr__(out, "terms", {e: c for e, c in terms.items() if c})
        object.__setattr__(out, "order", self.order)
        object.__setattr__(out, "names", self.names)
        return out

    def _is_coefficient(self, other):
        """True when ``other`` scales self term by term."""
        if isinstance(other, (int, Fraction)):
            return True
        return (isinstance(other, ParamPoly) and other.names == PARAMS
                and self.names != PARAMS)

    def _promote(self, other):
        """``other`` as a polynomial over self's variables; None (for
        NotImplemented) when it is no polynomial or rational at all."""
        if isinstance(other, ParamPoly) and other.names == self.names:
            if other.order != self.order:
                raise ValueError(
                    f"mismatched truncation orders: {self.order} vs {other.order}")
            return other
        if self._is_coefficient(other):
            return ParamPoly.const(other, self.order, self.names)
        if isinstance(other, ParamPoly):
            raise ValueError("polynomials live over different variable lists")
        return None

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.names), Fraction(0))

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.constant_term()

    def degree(self):
        """Maximal total degree among stored terms (-1 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=-1)

    def min_degree(self):
        """Minimal total degree among stored terms (None for zero)."""
        return min((sum(e) for e in self.terms), default=None)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not (isinstance(other, ParamPoly) and other.names is self.names
                and other.order == self.order):
            if isinstance(other, ParamPoly) and other._is_coefficient(self):
                return other + self
            other = self._promote(other)
            if other is None:
                return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            terms[exps] = coeff if acc is None else acc + coeff
        return self._like(terms)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (ParamPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not (isinstance(other, ParamPoly) and other.names is self.names
                and other.order == self.order):
            if self._is_coefficient(other):
                return self._like({e: c * other for e, c in self.terms.items()})
            if isinstance(other, ParamPoly) and other._is_coefficient(self):
                return other * self
            other = self._promote(other)
            if other is None:
                return NotImplemented
        order = self.order
        right = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        terms = {}
        for e1, c1 in self.terms.items():
            room = order - sum(e1)
            for e2, d2, c2 in right:
                if d2 > room:
                    continue
                key = tuple(map(add, e1, e2))
                coeff = c1 * c2
                acc = terms.get(key)
                terms[key] = coeff if acc is None else acc + coeff
        return self._like(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return ParamPoly.one(self.order, self.names)
        out = self
        for _ in range(n - 1):
            out = out * self
            if not out:
                break
        return out

    def __eq__(self, other):
        if self._is_coefficient(other):
            other = ParamPoly.const(other, self.order, self.names)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return (self.order == other.order and self.names == other.names
                and self.terms == other.terms)

    __hash__ = None

    # -- structural operations ----------------------------------------------

    def truncate(self, order):
        """Copy of self in the ring truncated at ``order`` (may be lower or higher)."""
        return ParamPoly(self.terms, order, self.names)

    def homogeneous_part(self, degree):
        return self._like({e: c for e, c in self.terms.items() if sum(e) == degree})

    def partial(self, index):
        """Derivative in the variable ``names[index]``."""
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                terms[exps[:index] + (e - 1,) + exps[index + 1:]] = coeff * e
        return self._like(terms)

    def subs(self, values):
        """Substitute variables by rationals or polynomials.

        When every value is a rational or a polynomial over self's variables,
        variables not named in ``values`` are left alone.  A polynomial value
        over other variables moves the result into its ring; then every
        variable of self needs a value.
        """
        unknown = set(values) - set(self.names)
        if unknown:
            raise ValueError(f"unknown variable {sorted(unknown)[0]!r}")
        ring = next((v for v in values.values()
                     if isinstance(v, ParamPoly) and v.names != self.names), self)
        order, names = ring.order, ring.names
        images = {name: val if isinstance(val, ParamPoly)
                  else ParamPoly.const(val, order, names)
                  for name, val in values.items()}
        out = ParamPoly.zero(order, names)
        for exps, coeff in self.terms.items():
            factor = ParamPoly.const(coeff, order, names)
            for name, e in zip(self.names, exps):
                if not e:
                    continue
                image = images.get(name)
                if image is None:
                    if ring is not self:
                        raise ValueError(f"no image for variable {name!r}")
                    image = ParamPoly.symbol(name, order, names)
                factor = factor * image ** e
                if not factor:
                    break
            out = out + factor
        return out

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))

    def __str__(self):
        return join_signed(
            (coeff, "*".join(monomial_factors(exps, self.names)))
            for exps, coeff in self.sorted_terms())

    def __repr__(self):
        return f"ParamPoly({self}, order={self.order})"
