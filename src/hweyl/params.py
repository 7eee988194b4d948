"""Exact polynomials in the deformation parameters, truncated by total degree.

Every formal series in the engine has coefficients in this ring: multivariate
polynomials over Fraction in the named deformation parameters, with all terms
of total degree above a fixed truncation order discarded.
"""

from __future__ import annotations

from fractions import Fraction

#: Parameter names, fixing the exponent-vector layout and the rendering order.
PARAMS = ("a1", "a2", "a3", "b1", "b2", "b3",
          "c1", "c2", "c3", "xi", "beta_plus", "beta_minus", "lambda")

_INDEX = {name: i for i, name in enumerate(PARAMS)}
_NVARS = len(PARAMS)
_UNIT = (0,) * _NVARS

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


def monomial_factors(exps) -> list:
    out = []
    for name, e in zip(PARAMS, exps):
        if e == 1:
            out.append(name)
        elif e:
            out.append(f"{name}^{e}")
    return out


def monomial_key(exps):
    # graded, then lex with earlier parameters first
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
    """Render ``(coeff, body)`` pairs as a sum with `` + ``/`` - `` separators."""
    parts = []
    for coeff, body in items:
        if not coeff:
            continue
        piece = coeff_prefix(abs(coeff), body)
        if not parts:
            parts.append(f"-{piece}" if coeff < 0 else piece)
        else:
            parts.append(f" - {piece}" if coeff < 0 else f" + {piece}")
    return "".join(parts) if parts else "0"


class ParamPoly:
    """Truncated polynomial in the deformation parameters.

    Instances are immutable; arithmetic between polynomials requires equal
    truncation orders, and every result is re-truncated and stripped of zero
    terms, so representations are canonical.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms, order):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        clean = {}
        for exps, coeff in terms.items():
            if sum(exps) > order or not coeff:
                continue
            clean[exps] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order=DEFAULT_ORDER):
        return cls({}, order)

    @classmethod
    def one(cls, order=DEFAULT_ORDER):
        return cls({_UNIT: Fraction(1)}, order)

    @classmethod
    def const(cls, value, order=DEFAULT_ORDER):
        return cls({_UNIT: as_fraction(value)}, order)

    @classmethod
    def symbol(cls, name, order=DEFAULT_ORDER):
        if name not in _INDEX:
            raise ValueError(f"unknown parameter {name!r}")
        exps = [0] * _NVARS
        exps[_INDEX[name]] = 1
        return cls({tuple(exps): Fraction(1)}, order)

    # -- helpers -----------------------------------------------------------

    def _promote(self, other):
        if isinstance(other, ParamPoly):
            if other.order != self.order:
                raise ValueError(
                    f"mismatched truncation orders: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other, self.order)
        return None

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(e == _UNIT for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(_UNIT, Fraction(0))

    def as_fraction(self) -> Fraction:
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
        other = self._promote(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return ParamPoly(terms, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ParamPoly({e: -c for e, c in self.terms.items()}, self.order)

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        order = self.order
        terms = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > order:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return ParamPoly(terms, order)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = ParamPoly.one(self.order)
        for _ in range(n):
            out = out * self
            if not out:
                break
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other, self.order)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    __hash__ = None

    # -- structural operations ----------------------------------------------

    def truncate(self, order):
        """Copy of self in the ring truncated at ``order`` (may be lower or higher)."""
        return ParamPoly(self.terms, order)

    def homogeneous_part(self, degree):
        return ParamPoly(
            {e: c for e, c in self.terms.items() if sum(e) == degree}, self.order)

    def subs(self, values):
        """Substitute parameters; values may be rationals or ParamPoly of this ring.

        Parameters not named in ``values`` are left alone.
        """
        resolved = {}
        for name, val in values.items():
            if name not in _INDEX:
                raise ValueError(f"unknown parameter {name!r}")
            if isinstance(val, ParamPoly):
                if val.order != self.order:
                    raise ValueError("substitution value has a different truncation order")
                resolved[_INDEX[name]] = val
            else:
                resolved[_INDEX[name]] = ParamPoly.const(val, self.order)
        out = ParamPoly.zero(self.order)
        for exps, coeff in self.terms.items():
            factor = ParamPoly.const(coeff, self.order)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i in resolved:
                    factor = factor * resolved[i] ** e
                else:
                    key = [0] * _NVARS
                    key[i] = e
                    factor = factor * ParamPoly({tuple(key): Fraction(1)}, self.order)
                if not factor:
                    break
            out = out + factor
        return out

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))

    def __str__(self):
        return join_signed(
            (coeff, "*".join(monomial_factors(exps)))
            for exps, coeff in self.sorted_terms())

    def __repr__(self):
        return f"ParamPoly({self}, order={self.order})"
