"""Exact sparse commutative polynomials over named variables.

``ParamPoly`` is the one polynomial class of the engine.  Over the
deformation parameters PARAMS, truncated at a total degree K, it is the
coefficient ring of every formal series (free-algebra elements, tensors,
Hopf structure maps).  A coordinate ring (the group coordinates of
``poisson``, the x of the I+ differential realization) is PARAMS followed by
the coordinates (``ring``), with ``order=math.inf``: nothing is truncated,
and a parameter coefficient is part of each monomial.  The module also holds
the strict rational parser, the signed-sum renderer of all printed output and
``Record``, the immutable base of the value classes, which all modules share.

PARAMS ends with the grading variable t: a quantized presentation stores a
rational parameter value q as q*t, so a concrete one is a series in t alone.
t is last so that every monomial without t prints where it did without the
name: the print order (``ParamPoly``) compares the fields in name order.

Storage follows two known layouts, so that series arithmetic is int
arithmetic with no Fraction in the inner loops:

- Integer numerators over one common denominator per polynomial, as in
  FLINT's ``fmpq_poly``.  A product multiplies ints and then makes one gcd
  pass against the product of the denominators; a sum scales both sides to
  the lcm of their denominators.  It copies the first side's numerators,
  scaled, and scales each of the second side's as it merges it in, so no
  scaled copy of that side is built; one gcd pass then brings the sum into
  lowest terms.
- Packed exponent monomials (M. Monagan and R. Pearce, "Sparse polynomial
  division using a heap", J. Symb. Comp. 46 (2011) 807-822).  Over n
  variables a monomial is one int: the exponent of ``names[i]`` sits in
  the ``_BITS``-bit field at bit ``_BITS * (n - 1 - i)``, and the total
  degree in the top field, at bit ``_BITS * n``.  Adding two keys
  multiplies the monomials, keys compare by total degree first, and the
  truncation test of a product at order K is one compare,
  ``k1 + k2 < (K + 1) << (_BITS * n)``.  A polynomial over a prefix of a
  ring's names (PARAMS, in a coordinate ring) enters the ring when each of
  its keys shifts left by ``_BITS`` per further name (``_lift``).

Most operands of the series arithmetic have one term, and many are the
constant 1.  So a product with the unit 1 returns the other operand (instances
are immutable), and a sum with zero returns the other operand or its negation.
A product of two single terms, or a sum of two on the same monomial, builds
its one term directly: one key add (and the truncation compare), then one
``gcd`` of the new numerator against the new denominator, in place of the
sorted pair loop and the gcd pass over all numerators.

Every zero result is shared: ``_zero`` keeps one zero per ring and order, and
it carries the operands' very ``names`` tuple.  ``zero()``, a product with an
empty side or cut off entirely by the truncation, a sum that cancels and an
empty ``_build`` all return it; only copy and pickle build a zero of their
own, without the caches.  The series layers skip a zero product before they
add it into a sum.

The tests run cheapest first, as most calls leave at one of them.  ``*``,
``+`` and ``-`` first ask ``type(other) is ParamPoly`` with the very same
``names`` tuple and an equal order; a scalar, or a polynomial over other
variables, goes through ``_promote``.  A product then returns the shared zero
when a side has no term.  Its unit test reads the term count first, so a
multi-term operand leaves after one compare; then the denominator and the
constant numerator.  The single-term path comes next, ahead of the general
loop's set-up: its truncation test reads the total degree of the summed key,
and at ``order=math.inf`` a degree past MAX_ORDER calls the field check.  Only
then does the general loop compute its limit and sort its operands.  Copy and
pickle map a names tuple back to its ring's one tuple (``ring``), so a
restored polynomial meets the same tests.  The series layers
test ``p._num`` where they drop zero coefficients, not ``bool(p)``, which
would be one more Python-level call.

The general loop is degree-aware.  Each polynomial keeps its (key, numerator)
pairs sorted by key, built on first use and cached, so its first key has the
lowest total degree.  With ``low`` the lowest key of the inner (longer)
operand, a product whose two lowest keys already reach the truncation limit is
zero at once; the outer operand is walked in key order and stops at the first
key ``k1`` with ``k1 + low`` at the limit, and each inner row stops at the
first pair past it.  Only pairs that the truncation drops are skipped: the
kept pairs are the same, and they are summed in exact integers, so every
result is the same canonical polynomial.

A field holds exponents up to MAX_ORDER.  A finite truncation order above
it raises ``ValueError``, which names the limit, and so does any exponent
above it in an untruncated polynomial (``order=math.inf``): a product never
wraps into the next field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from operator import attrgetter
from types import MappingProxyType, MemberDescriptorType

#: Parameter names, fixing the exponent-vector layout and the rendering order;
#: the last, t, grades the rational parameter values (module docstring).
PARAMS = ("a1", "a2", "a3", "b1", "b2", "b3",
          "c1", "c2", "c3", "xi", "beta_plus", "beta_minus", "lambda", "t")

#: Default truncation order for deformation series.
DEFAULT_ORDER = 6

#: Width in bits of one exponent field of a packed monomial key.
_BITS = 8
#: The largest exponent a field holds, so the largest finite truncation order.
MAX_ORDER = (1 << _BITS) - 1


def as_fraction(value) -> Fraction:
    """Coerce an int, a string like ``"-2/3"``, or a Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


#: The most digits an input rational may carry, counting its exponent
#: magnitude as digits: Python's limit for int <-> str conversion, so every
#: accepted value can also be printed.
MAX_INPUT_DIGITS = 4300


def _input_size(raw):
    """Digits of a rational string plus the magnitude of its exponent; None
    when the exponent is no plain number (``Fraction`` then rejects it)."""
    cut = max(raw.rfind("e"), raw.rfind("E"))
    if cut < 0:
        return sum(map(str.isdecimal, raw))
    exp = raw[cut + 1:].rstrip().lstrip("+-").replace("_", "")
    if not exp.isdecimal():
        return None
    if len(exp) > MAX_INPUT_DIGITS:
        return MAX_INPUT_DIGITS + 1
    return sum(map(str.isdecimal, raw[:cut])) + int(exp)


def parse_rational(field, raw) -> Fraction:
    """Strict parse of one JSON input field: a string rational like ``"-2/3"``.

    The string forms are those of ``Fraction(str)``.  Plain integers and
    ``p/q`` in decimal digits are read as ints directly; every other form goes
    to ``Fraction`` once its digits plus its exponent magnitude are checked
    against MAX_INPUT_DIGITS.  Anything else, a zero denominator and a value
    past that bound included, raises ``ValueError`` naming the field and the fault.
    """
    if not isinstance(raw, str):
        raise ValueError(f"field {field!r}: must be a string rational, got {raw!r}")
    num, slash, den = raw.partition("/")
    try:
        if (len(raw) <= MAX_INPUT_DIGITS
                and (num[1:] if num[:1] == "-" else num).isdecimal()
                and (not slash or den.isdecimal())):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        size = _input_size(raw)
        if size is None or size <= MAX_INPUT_DIGITS:
            return Fraction(raw)
        fault = f"more than {MAX_INPUT_DIGITS} digits, counting the exponent magnitude"
    except ZeroDivisionError:
        fault = "zero denominator"
    except ValueError:
        fault = (f"{raw!r} is not a rational: write an integer, p/q or a decimal"
                 " such as -2/3 or 1.5e-3")
    raise ValueError(f"field {field!r}: {fault}")


def parse_fields(what, data, names) -> dict:
    """Strict parse of a JSON object whose keys are among ``names``, each value
    by ``parse_rational``; else ``ValueError``, with ``what`` naming the object."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} input must be a JSON object")
    unknown = set(data) - set(names)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    return {key: parse_rational(key, raw) for key, raw in data.items()}


def as_scalar(value):
    """A coefficient as given when it is a ParamPoly, else as a Fraction."""
    if isinstance(value, ParamPoly):
        return value
    return as_fraction(value)


#: One names tuple per ring, which the fast paths test with ``is``.
_RINGS = {PARAMS: PARAMS}


def ring(coords) -> tuple:
    """PARAMS followed by ``coords``, the same tuple object on every call."""
    names = PARAMS + tuple(coords)
    return _RINGS.setdefault(names, names)


def signed_sum(rows) -> str:
    """``(sort key, numerator, denominator, body)`` rows, sorted, as a sum, each
    coefficient in lowest terms by one ``gcd``."""
    out = []
    for _, n, den, body in rows:
        if n < 0:
            out.append(" - " if out else "-")
            n = -n
        elif out:
            out.append(" + ")
        g = gcd(n, den)
        n, den = n // g, den // g
        if not body:
            out.append(str(n) if den == 1 else f"{n}/{den}")
        elif den != 1:
            out.append(f"({n}/{den})*{body}")
        else:
            out.append(body if n == 1 else f"{n}*{body}")
    return "".join(out) or "0"


class Record:
    """Immutable base of the engine's value classes.

    ``_FIELDS`` names the constructor's arguments in order, each read back by
    the attribute of that name; a constructor stores them with ``_store``.
    ``copy`` and ``pickle`` call the constructor on the fields
    (``__reduce__``), so a cache in a further slot starts empty.  Equality
    and hashing are by identity; ``ValueRecord`` compares field by field.

    Each subclass gets the slot setters of its ``_FIELDS`` once, when it is
    defined (``_setters``); a class with a field that is not a slot, such as
    a property, gets None, and its ``_store`` raises.
    """

    __slots__ = ()
    _FIELDS = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [getattr(cls, name, None) for name in cls._FIELDS]
        cls._setters = (tuple(slot.__set__ for slot in slots)
                        if all(isinstance(slot, MemberDescriptorType) for slot in slots)
                        else None)

    def _store(self, *values):
        """Store ``values`` in the slots named by ``_FIELDS``, in order."""
        setters = self._setters
        if setters is None:
            raise TypeError(f"{type(self).__name__} has fields that are not slots")
        for setter, value in zip(setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._FIELDS)


class ValueRecord(Record):
    """A ``Record`` equal to one of its class with equal fields; unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._FIELDS)

    __hash__ = None


def _refuse(poly, value):
    """The setter of ``ParamPoly.order`` and ``ParamPoly.names``."""
    raise AttributeError("ParamPoly is immutable")


class ParamPoly:
    """Sparse commutative polynomial over a tuple of named variables.

    Terms of total degree above ``order`` are discarded; ``order=math.inf``
    keeps every term.  Coefficients are rationals; in a coordinate ring
    (``ring``) the parameters are variables like the coordinates.

    Storage (``_num``, ``_den``):

    - A monomial is one packed int key (module docstring): the sum of two
      keys is the key of the product, and keys order by total degree first.
    - ``_num`` maps keys to nonzero int numerators and ``_den`` is one
      positive int denominator, in lowest terms: the gcd of ``_den`` and all
      numerators is 1.  A polynomial therefore has exactly one
      representation, and ``==`` is a dict compare.

    ``terms`` is the same polynomial as a read-only mapping from exponent
    tuples (one entry per name in ``names``) to Fractions, built on first
    use and cached.  Hot loops, ``__str__`` and the renderers built on
    ``_rows`` do not read it: they use the packed form.
    ``_sorted_terms()`` is the packed form as a list of (key, numerator) pairs
    in key order, also built once; a product reads it to stop where the
    truncation starts: when the two lowest keys reach the limit, and along the
    outer operand once its key plus the inner lowest key does (module
    docstring).  Neither cache can go stale, as instances are immutable, and
    neither is carried by ``copy`` or ``pickle``, which rebuild from
    ``_num`` and ``_den``.

    Terms print graded, then lex with earlier variables first: by ascending
    ``k ^ mask``, ``mask`` the exponent fields of the key ``k``.  The degree
    field above ``mask`` compares first; the xor maps each exponent e to
    MAX_ORDER - e within its field, so ``names[0]``, ``names[1]``, ... follow,
    each in reverse.

    Instances are immutable, as ``Fraction`` is: ``order`` and ``names`` are
    read-only properties over the private slots ``_order`` and ``_names``,
    and assigning either raises ``AttributeError``.  Only ``_make`` and the
    two caches store into the private slots, by plain slot stores; this
    module reads ``_order`` and ``_names`` directly.  The zero
    results of one ring and order are one shared instance (module
    docstring).  Arithmetic between polynomials over the same variables
    requires equal orders.  A rational acts coefficient-wise, and
    a polynomial over a prefix of the other's names is lifted (``_lift``).
    """

    __slots__ = ("_num", "_den", "_order", "_names", "_terms", "_sorted")

    def __new__(cls, terms, order, names=PARAMS):
        _check_order(order)
        width = len(names)
        num = {}
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps!r} does not match {names!r}")
            coeff = as_fraction(coeff)
            if coeff and sum(exps) <= order:
                num[_pack(exps)] = coeff
        if not num:
            return _zero(order, names)
        # over the lcm of denominators in lowest terms, the numerators share
        # no factor with it: this is already canonical
        den = lcm(*(c.denominator for c in num.values()))
        return _make({k: c.numerator * (den // c.denominator) for k, c in num.items()},
                     den, order, names)

    order = property(attrgetter("_order"), _refuse,
                     doc="The truncation order; ``math.inf`` keeps every term.")
    names = property(attrgetter("_names"), _refuse,
                     doc="The variable names: one tuple per ring (``ring``).")

    def __reduce__(self):
        """Rebuild from the canonical storage, without the caches."""
        return _restore, (dict(self._num), self._den, self._order, self._names)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order=DEFAULT_ORDER, names=PARAMS):
        _check_order(order)
        return _zero(order, names)

    @classmethod
    def one(cls, order=DEFAULT_ORDER, names=PARAMS):
        return cls.const(1, order, names)

    @classmethod
    def const(cls, value, order=DEFAULT_ORDER, names=PARAMS):
        _check_order(order)
        if type(value) is not int:
            value = as_fraction(value)
        if not value:
            return _zero(order, names)
        return _make({0: value.numerator}, value.denominator, order, names)

    @classmethod
    def symbol(cls, name, order=DEFAULT_ORDER, names=PARAMS):
        _check_order(order)
        if name not in names:
            raise ValueError(f"unknown variable {name!r}")
        if order < 1:
            return _zero(order, names)
        width = len(names)
        key = (1 << (_BITS * width)) | (1 << (_BITS * (width - 1 - names.index(name))))
        return _make({key: 1}, 1, order, names)

    # -- helpers -----------------------------------------------------------

    def _promote(self, other):
        """(self, other) in one ring, the wider of the two; None (for
        NotImplemented) when ``other`` is no polynomial or rational."""
        if isinstance(other, ParamPoly):
            names, width = other._names, len(other._names)
            if names == self._names:
                if other._order != self._order:
                    raise ValueError(
                        f"mismatched truncation orders: {self._order} vs {other._order}")
                return self, other
            if self._names[:width] == names:
                return self, self._lift(other)
            if names[:len(self._names)] == self._names:
                return other._lift(self), other
            raise ValueError("polynomials live over different variable lists")
        if isinstance(other, (int, Fraction)):
            return self, ParamPoly.const(other, self._order, self._names)
        return None

    def _lift(self, other):
        """``other``, over a prefix of self's names, in self's ring: each key
        shifted left past the further fields, then cut at self's order."""
        shift = _BITS * (len(self._names) - len(other._names))
        lifted = _make({k << shift: c for k, c in other._num.items()},
                       other._den, inf, self._names)
        return lifted if self._order == inf else lifted.truncate(self._order)

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient} view, built once."""
        try:
            return self._terms
        except AttributeError:
            width, den = len(self._names), self._den
            view = self._terms = MappingProxyType(
                {_unpack(k, width): Fraction(c, den) for k, c in self._num.items()})
            return view

    def _sorted_terms(self):
        """The (key, numerator) pairs sorted by key, so by total degree
        first: built once, as ``terms`` is."""
        try:
            return self._sorted
        except AttributeError:
            pairs = self._sorted = sorted(self._num.items())
            return pairs

    def __bool__(self):
        return bool(self._num)

    def is_constant(self):
        return not self._num or (len(self._num) == 1 and 0 in self._num)

    def constant_term(self):
        return Fraction(self._num.get(0, 0), self._den)

    def min_degree(self):
        """Minimal total degree among stored terms (None for zero)."""
        return min(self._num) >> _BITS * len(self._names) if self._num else None

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign*other for ``other`` in self's ring: both sides are
        scaled to the lcm of the two denominators, ``other``'s numerators as
        they are merged (module docstring)."""
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other if sign == 1 else -other
        d1, d2 = self._den, other._den
        if len(a) == 1 == len(b):
            (k, c1), = a.items()
            (k2, c2), = b.items()
            if k == k2:
                c, den = c1 * d2 + sign * c2 * d1, d1 * d2
                if not c:
                    return _zero(self._order, self._names)
                g = gcd(c, den)
                return _make({k: c // g}, den // g, self._order, self._names)
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g * sign
        num = dict(a) if s1 == 1 else {k: c * s1 for k, c in a.items()}
        get = num.get
        for k, c in b.items():
            acc = get(k)
            num[k] = c * s2 if acc is None else acc + c * s2
        return _build(num, d1 * s1, self._order, self._names)

    def __add__(self, other):
        if not (type(other) is ParamPoly and other._names is self._names
                and other._order == self._order):
            pair = self._promote(other)
            if pair is None:
                return NotImplemented
            self, other = pair
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if not (type(other) is ParamPoly and other._names is self._names
                and other._order == self._order):
            pair = self._promote(other)
            if pair is None:
                return NotImplemented
            self, other = pair
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if not self._num:
            return self
        return _make({k: -c for k, c in self._num.items()}, self._den,
                     self._order, self._names)

    def _scale(self, s):
        """self times the rational ``s``."""
        if s == 1:
            return self
        n = s.numerator
        return _build({k: c * n for k, c in self._num.items()}, self._den * s.denominator,
                      self._order, self._names)

    def __mul__(self, other):
        if not (type(other) is ParamPoly and other._names is self._names
                and other._order == self._order):
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            pair = self._promote(other)
            if pair is None:
                return NotImplemented
            self, other = pair
        a, b = self._num, other._num
        order, names = self._order, self._names
        if not a or not b:
            return _zero(order, names)
        if len(b) == 1 and other._den == 1 and b.get(0) == 1:
            return self
        if len(a) == 1 and self._den == 1 and a.get(0) == 1:
            return other
        shift = _BITS * len(names)
        if len(a) == 1 == len(b):
            (k, c1), = a.items()
            (k2, c2), = b.items()
            k += k2
            top = k >> shift
            if top > order:
                return _zero(order, names)
            if top > MAX_ORDER:  # only at order=inf: a finite order is at most MAX_ORDER
                _check_fields(a, b, len(names))
            c, den = c1 * c2, self._den * other._den
            g = gcd(c, den)
            return _make({k: c // g}, den // g, order, names)
        if order == inf:
            top = (max(a) >> shift) + (max(b) >> shift)
            if top > MAX_ORDER:
                _check_fields(a, b, len(names))
            limit = (top + 1) << shift
        else:
            limit = (order + 1) << shift
        left, right = self._sorted_terms(), other._sorted_terms()
        if len(left) > len(right):
            left, right = right, left
        low = right[0][0]
        if left[0][0] + low >= limit:
            return _zero(order, names)
        num = {}
        get = num.get
        for k1, c1 in left:
            if k1 + low >= limit:
                break
            for k2, c2 in right:
                k = k1 + k2
                if k >= limit:
                    break
                c = c1 * c2
                acc = get(k)
                num[k] = c if acc is None else acc + c
        return _build(num, self._den * other._den, order, names)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return ParamPoly.one(self._order, self._names)
        out = self
        for _ in range(n - 1):
            out = out * self
            if not out:
                break
        return out

    def __eq__(self, other):
        """Equal storage in one ring (``_promote``) at one order."""
        if not (isinstance(other, ParamPoly) and other._names == self._names):
            try:
                pair = self._promote(other)
            except ValueError:  # no ring holds both
                return False
            if pair is None:
                return NotImplemented
            self, other = pair
        return (self._order == other._order and self._den == other._den
                and self._num == other._num)

    __hash__ = None

    # -- structural operations ----------------------------------------------

    def truncate(self, order):
        """Copy of self in the ring truncated at ``order`` (may be lower or higher)."""
        _check_order(order)
        num = self._num
        if order < self._order:
            limit = (order + 1) << _BITS * len(self._names)
            num = {k: c for k, c in num.items() if k < limit}
        return _build(num, self._den, order, self._names)

    def homogeneous_part(self, degree):
        shift = _BITS * len(self._names)
        return _build({k: c for k, c in self._num.items() if k >> shift == degree},
                      self._den, self._order, self._names)

    def partial(self, index):
        """Derivative in the variable ``names[index]``."""
        width = len(self._names)
        pos = _BITS * (width - 1 - index)
        step = (1 << pos) + (1 << (_BITS * width))
        num = {}
        for k, c in self._num.items():
            e = (k >> pos) & MAX_ORDER
            if e:
                num[k - step] = c * e
        return _build(num, self._den, self._order, self._names)

    def subs(self, values):
        """Substitute variables by rationals or polynomials.

        When every value is a rational or a polynomial over self's variables,
        variables not named in ``values`` are left alone.  A polynomial value
        over other variables moves the result into its ring.  Then the
        variables without a value must be among the names both rings begin
        with (PARAMS, for two coordinate rings): each key keeps those fields
        and moves to the target ring as ``_lift`` moves a key.
        """
        unknown = set(values) - set(self._names)
        if unknown:
            raise ValueError(f"unknown variable {sorted(unknown)[0]!r}")
        ring = next((v for v in values.values()
                     if isinstance(v, ParamPoly) and v._names != self._names), self)
        order, names = ring._order, ring._names
        width = len(self._names)
        shift = _BITS * width
        common = next((i for i, (x, y) in enumerate(zip(self._names, names)) if x != y),
                      min(width, len(names)))
        drop, add = _BITS * (width - common), _BITS * (len(names) - common)
        own, top = (1 << drop) - 1, _BITS * len(names)
        images = [(_BITS * (width - 1 - i),
                   val if isinstance(val, ParamPoly) else ParamPoly.const(val, order, names))
                  for i, val in ((self._names.index(n), v) for n, v in values.items())]
        powers = {}
        out = ParamPoly.zero(order, names)
        for key, c in self._num.items():
            rest = key
            factor = None
            for pos, image in images:
                e = (key >> pos) & MAX_ORDER
                if not e:
                    continue
                rest -= (e << pos) + (e << shift)
                power = powers.get((pos, e))
                if power is None:
                    power = powers[(pos, e)] = image ** e
                factor = power if factor is None else factor * power
                if not factor:
                    break
            if factor is not None and not factor:
                continue
            if rest & own:
                missing = next(n for n, e in zip(self._names[common:],
                                                 _unpack(rest, width)[common:]) if e)
                raise ValueError(f"no image for variable {missing!r}")
            rest = rest >> drop << add
            if rest >> top > order:
                continue
            term = _make({rest: c}, 1, order, names)
            out = out + (term if factor is None else term * factor)
        return out if self._den == 1 else out * Fraction(1, self._den)

    def at_one(self, names):
        """self with each variable of ``names`` set to 1, in one pass over the
        keys: the fields of those variables are cleared (and their exponents
        taken off the total degree), and the numerators of keys that then
        coincide are summed.  Equal to ``subs(dict.fromkeys(names, 1))``."""
        unknown = set(names) - set(self._names)
        if unknown:
            raise ValueError(f"unknown variable {sorted(unknown)[0]!r}")
        width = len(self._names)
        shift = _BITS * width
        mask = 0
        for name in names:
            mask |= MAX_ORDER << _BITS * (width - 1 - self._names.index(name))
        num = {}
        get = num.get
        for k, c in self._num.items():
            cleared = k & mask
            if cleared:
                # one byte per exponent field, as _BITS is 8
                k -= cleared + (sum(cleared.to_bytes(width, "big")) << shift)
            acc = get(k)
            num[k] = c if acc is None else acc + c
        return _build(num, self._den, self._order, self._names)

    # -- rendering -----------------------------------------------------------

    def _rows(self, texts, body=""):
        """The ``signed_sum`` rows of the terms, keyed and sorted by the print
        order (class docstring); each monomial is joined to ``body`` by ``*``.

        ``texts`` is the printer's table (``freealg.LinearSum``): under the
        names tuple it keeps the text of each monomial key met so far, so a
        monomial is formatted once per table."""
        names, width, den = self._names, len(self._names), self._den
        mask = (1 << _BITS * width) - 1
        monos = texts.get(names)
        if monos is None:
            monos = texts[names] = {}
        rows = []
        for k, n in self._num.items():
            mono = monos.get(k)
            if mono is None:
                mono = monos[k] = "*".join([name if e == 1 else f"{name}^{e}"
                                            for name, e in zip(names, _unpack(k, width))
                                            if e])
            rows.append((k ^ mask, n, den, f"{mono}*{body}" if mono and body
                         else mono or body))
        rows.sort()  # first entries are unique: no coefficient is compared
        return rows

    def __str__(self):
        return signed_sum(self._rows({}))

    def __repr__(self):
        return f"ParamPoly({self}, order={self._order})"


_new = object.__new__


def _make(num, den, order, names):
    """A ParamPoly from storage that is already canonical."""
    out = _new(ParamPoly)
    out._num = num
    out._den = den
    out._order = order
    out._names = names
    return out


#: The zero of each ring and order, keyed by the id of the names tuple: the
#: zero holds its tuple, so no other object takes that id while the entry lives.
_ZEROS = {}


def _zero(order, names):
    """The one zero polynomial over the very tuple ``names`` at ``order``."""
    key = (id(names), order)
    zero = _ZEROS.get(key)
    if zero is None:
        zero = _ZEROS[key] = _make({}, 1, order, names)
    return zero


def _restore(num, den, order, names):
    """``_make`` for ``copy`` and ``pickle``: the names tuple becomes its
    ring's one shared tuple (``ring``), so that the fast paths, which test
    ``names is``, apply to a polynomial restored by ``pickle`` too."""
    return _make(num, den, order, _RINGS.setdefault(names, names))


def _build(num, den, order, names):
    """The polynomial num/den, from int numerators of terms within ``order``,
    in canonical storage: zero terms dropped and one gcd pass into lowest
    terms."""
    if not all(num.values()):
        num = {k: c for k, c in num.items() if c}
    if not num:
        return _zero(order, names)
    g = gcd(den, *num.values())
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    return _make(num, den, order, names)


def _check_order(order):
    """Raise unless ``order`` is a valid truncation order for packed keys."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if order != inf and order > MAX_ORDER:
        raise ValueError(
            f"truncation order {order} is above {MAX_ORDER}, the packed-key field limit")


def _check_fields(a, b, width):
    """Raise when a product of keys from ``a`` and ``b`` would carry out of
    an exponent field."""
    for i in range(width):
        pos = _BITS * (width - 1 - i)
        if sum(max(((k >> pos) & MAX_ORDER for k in keys), default=0)
               for keys in (a, b)) > MAX_ORDER:
            raise ValueError(
                f"exponent above {MAX_ORDER}, the packed-key field limit")


def _pack(exps):
    """The packed key of an exponent tuple (module docstring); an exponent
    outside 0..MAX_ORDER raises ``ValueError``, naming the field limit."""
    try:
        # one byte per exponent field, as _BITS is 8
        return (sum(exps) << (_BITS * len(exps))) | int.from_bytes(bytes(exps), "big")
    except ValueError:
        e = next(e for e in exps if not 0 <= e <= MAX_ORDER)
        raise ValueError(
            f"exponent {e} outside 0..{MAX_ORDER}, the packed-key field limit") from None


def _unpack(key, width):
    """The exponent tuple of a packed key over ``width`` variables."""
    # one byte per exponent field, as _BITS is 8
    return tuple((key & ((1 << _BITS * width) - 1)).to_bytes(width, "big"))
