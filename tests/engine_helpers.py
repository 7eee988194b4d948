"""Helpers the tests build on the engine's own pieces, kept out of
``src/hweyl`` because no command and no benchmark workload calls them.

- The cocycle residuals as rank-2 tensors, put together from the three
  linear forms that ``classify`` evaluates (``bialgebra._cocycle_forms``),
  and the two co-Jacobi residuals, its two quadrics
  (``bialgebra._cojacobi_forms``).
- The full wedge of three elements, the shape of a Schouten bracket, and the
  six slot orders with their permutation signs that it sums over.
- The exponential of one parameter series times one generator, the 1x1 case
  of ``freealg.exp_matrix2``.
- A naive substitution of rationals or polynomials for the variables of a
  polynomial, term by term through ``ParamPoly`` arithmetic: the oracle of
  the engine's closed forms, the group-law pullback of ``poisson`` and
  ``ParamPoly.at_one``.  The engine has no general substitution.
- A series element cut to a lower truncation order or with values
  substituted into its coefficients, and the total degree of a polynomial
  read off its ``terms`` view.
- A polynomial written as {exponent tuple: rational}, and one cut to another
  truncation order, built on the packed storage of ``params``.
- The six coefficients of a ``PoissonStructure``, read off its numerators.
- The basis change that normalizes an I+ or I- bialgebra, in Fractions, an
  oracle for ``bialgebra._normalizing_matrix``, which works on integers.
"""

import math
from fractions import Fraction

from hweyl.bialgebra import (_COEFF_NAMES, TYPE_I_PLUS, _cocycle_forms, _cojacobi_forms, _skew,
                             _to_tensor)
from hweyl.freealg import exp_matrix2
from hweyl.params import (_BITS, DEFAULT_ORDER, PARAMS, ParamPoly, _build, _check_order,
                          _pack, as_fraction)
from hweyl.tensor import TensorElement, outer

#: The six slot orders of a rank-3 tensor and their permutation signs.
PERM_SIGN = {perm: sign for perm, sign in zip(
    ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)),
    (1, -1, -1, 1, 1, -1))}


def order_of(*scalars):
    """The order of the first ParamPoly among ``scalars``, else DEFAULT_ORDER."""
    for s in scalars:
        if isinstance(s, ParamPoly):
            return s.order
    return DEFAULT_ORDER


def cocycle_raw(delta):
    """Residual of the 1-cocycle identity for each basis pair, as index tensors.

    Pair (A-, A+) carries c1, c2 - b1 and a1 + c3 on A-^A+, A-^M and A+^M;
    pairs (A-, M) and (A+, M) each carry -c1 on their own wedge.
    """
    f1, f2, f3 = _cocycle_forms(*(getattr(delta, n) for n in _COEFF_NAMES))
    return [_skew((((0, 1), f1), ((0, 2), f2), ((1, 2), f3))),
            _skew((((0, 2), -f1),)),
            _skew((((1, 2), -f1),))]


def cocycle_residuals(delta, order=None):
    """delta([X,Y]) - [delta(X), 1(x)Y + Y(x)1] - [1(x)X + X(x)1, delta(Y)]
    for the basis pairs (A-,A+), (A-,M), (A+,M), as rank-2 tensors at
    ``order``: by default the order of a symbolic coefficient, else
    DEFAULT_ORDER."""
    order = order or order_of(*(getattr(delta, n) for n in _COEFF_NAMES))
    return [_to_tensor(raw, order) for raw in cocycle_raw(delta)]


def cojacobi_residuals(delta):
    """The two Jacobi residuals of the dual bracket (components on a-, a+).

    For all nine coefficients these are a1*b3 + a2*c3 - a3*b1 - a3*c2 and
    a2*b1 - a1*b2 + b2*c3 - b3*c2.  With the cocycle constraints imposed they
    are a1*(b3-a2) - 2*b1*a3 and b1*(a2-b3) - 2*a1*b2, and the component on m
    vanishes identically.
    """
    return list(_cojacobi_forms(*(getattr(delta, n) for n in _COEFF_NAMES)))


def wedge3(x, y, z):
    """Full alternating sum over the six slot orders, unit coefficients."""
    factors = (x, y, z)
    acc = TensorElement(3, {}, x.order)
    for perm, sign in PERM_SIGN.items():
        term = outer(*(factors[p] for p in perm))
        acc = acc + (term if sign == 1 else -term)
    return acc


def exp_on(letter, c):
    """exp(c g) = sum_n c^n/n! g^n for the generator g named ``letter`` and a
    ParamPoly c of parameter degree >= 1."""
    return exp_matrix2(letter, [[c]])[0][0]


def truncated(x, order):
    """A free-algebra element or a tensor with every coefficient cut to
    parameter degree ``order``, at that order."""
    return x._like({k: cut(c, order) for k, c in x.terms.items()}, order)


def subs(p, values):
    """The polynomial ``p`` with each variable named in ``values`` replaced
    by its value, a rational or a polynomial, summed term by term over
    ``p.terms``.  The result lives in the ring and at the order of the first
    polynomial value over other names than ``p``'s, else in ``p``'s; a
    variable without a value must be a name of that ring too."""
    unknown = set(values) - set(p.names)
    if unknown:
        raise ValueError(f"unknown variable {sorted(unknown)[0]!r}")
    target = next((v for v in values.values()
                   if isinstance(v, ParamPoly) and v.names != p.names), p)
    order, names = target.order, target.names
    out = ParamPoly.zero(order, names)
    for exps, coeff in p.terms.items():
        term = ParamPoly.const(coeff, order, names)
        for name, e in zip(p.names, exps):
            if not e:
                continue
            if name in values:
                value = values[name]
            elif name in names:
                value = ParamPoly.symbol(name, order, names)
            else:
                raise ValueError(f"no image for variable {name!r}")
            term = term * value ** e
        out = out + term
    return out


def specialized(x, values):
    """A free-algebra element or a tensor with ``values`` substituted into
    every coefficient (``subs``)."""
    return x.map_coeffs(lambda c: subs(c, values))


def degree(p):
    """The largest total degree of a term of the polynomial ``p``, -1 for 0."""
    return max((sum(exps) for exps in p.terms), default=-1)


def poly(terms, order, names=PARAMS):
    """The polynomial over ``names`` truncated at ``order`` with the
    {exponent tuple: rational} ``terms``; terms above the order are dropped.
    An order or an exponent past the packed-key field limit, or a tuple not
    as long as ``names``, raises ``ValueError``."""
    _check_order(order)
    num = {}
    for exps, coeff in terms.items():
        if len(exps) != len(names):
            raise ValueError(f"exponent vector {exps!r} does not match {names!r}")
        coeff = as_fraction(coeff)
        if coeff and sum(exps) <= order:
            num[_pack(exps)] = coeff
    den = math.lcm(*(c.denominator for c in num.values()))
    return _build({k: c.numerator * (den // c.denominator) for k, c in num.items()},
                  den, order, names)


def cut(p, order):
    """The polynomial ``p`` in its ring truncated at ``order``, which may be
    lower or higher than its own."""
    _check_order(order)
    num = p._num
    if order < p.order:
        limit = (order + 1) << _BITS * len(p.names)
        num = {k: c for k, c in num.items() if k < limit}
    return _build(num, p._den, order, p.names)


def structure_coefficients(ps):
    """The coefficients a1, a2, a3, b1, b2, b3 of the PoissonStructure ``ps``:
    each a Fraction, or a polynomial over PARAMS when it has a parameter."""
    nums, den = ps.numerators()
    out = []
    for num in nums:
        p = _build(dict(num), den, math.inf, PARAMS)
        out.append(Fraction(p._num.get(0, 0), p._den) if p.is_constant() else p)
    return out


def normalizing_matrix_oracle(tag, a1, a2, a3, b1, b3):
    """The basis change that normalizes a TYPE_I_PLUS bialgebra (a1 != 0) or a
    TYPE_I_MINUS one (a1 = 0, b1 != 0) with these coefficients, each entry a
    Fraction formula in them; the columns are the images of (A-, A+, M).  For
    I+, phi(A+) = A+ - b1/a1 A- + (b1 a3 / a1^2 + a2 / a1) M; for I-,
    phi(A-) = A- - b3/b1 M."""
    one, zero = Fraction(1), Fraction(0)
    if tag == TYPE_I_PLUS:
        shift = b1 * a3 / a1 ** 2 + a2 / a1
        return ((one, -b1 / a1, zero), (zero, one, zero), (zero, shift, one))
    return ((one, zero, zero), (zero, one, zero), (-b3 / b1, zero, one))
