"""Helpers the tests build on the engine's own pieces, kept out of
``src/hweyl`` because no command and no benchmark workload calls them.

- The cocycle residuals as rank-2 tensors, put together from the three
  linear forms that ``classify`` evaluates (``bialgebra._cocycle_forms``).
- The full wedge of three elements, the shape of a Schouten bracket.
- A series element cut to a lower truncation order or with values
  substituted into its coefficients, and the total degree of a polynomial
  read off its ``terms`` view.
"""

from hweyl.bialgebra import (_COEFF_NAMES, _PERM_SIGN, _cocycle_forms, _order_of, _skew,
                             _to_tensor)
from hweyl.tensor import TensorElement, outer


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
    order = order or _order_of(*(getattr(delta, n) for n in _COEFF_NAMES))
    return [_to_tensor(raw, 2, order) for raw in cocycle_raw(delta)]


def wedge3(x, y, z):
    """Full alternating sum over the six slot orders, unit coefficients."""
    factors = (x, y, z)
    acc = TensorElement(3, {}, x.order)
    for perm, sign in _PERM_SIGN.items():
        term = outer(*(factors[p] for p in perm))
        acc = acc + (term if sign == 1 else -term)
    return acc


def truncated(x, order):
    """A free-algebra element or a tensor with every coefficient cut to
    parameter degree ``order``, at that order."""
    return x._like({k: c.truncate(order) for k, c in x.terms.items()}, order)


def specialized(x, values):
    """A free-algebra element or a tensor with ``values`` substituted into
    every coefficient (``ParamPoly.subs``)."""
    return x.map_coeffs(lambda c: c.subs(values))


def degree(p):
    """The largest total degree of a term of the polynomial ``p``, -1 for 0."""
    return max((sum(exps) for exps in p.terms), default=-1)
