"""The differential realization of I+ applied letter by letter: a test oracle
for the composed operators of ``check_realization``.

A+ = x, A- = s d/dx and M = s, with s = lambda e^{a1 x/2} cut at parameter
degree K, act on a polynomial in x and the parameters one letter at a time,
the rightmost letter first.  Their ring has no truncation of its own, so
each letter's result, and each word's times its coefficient, is cut at
parameter degree K here.  s is summed here from powers of a1/2, not read
from the engine, the cut reads the ``terms`` view, not the packed keys, and
no operator is composed.
"""

import math
from fractions import Fraction

from hweyl.freealg import GEN_AM, GEN_AP, GEN_M, FreeElement
from hweyl.params import ParamPoly
from hweyl.quantization import _X

from engine_helpers import poly

X_POLY = ParamPoly.symbol("x", math.inf, _X)


def cut(p, order):
    """``p`` without its terms of parameter degree (every exponent but the
    last, which is x's) above ``order``."""
    return poly({e: c for e, c in p.terms.items() if sum(e[:-1]) <= order}, math.inf, _X)


def realization_ops(a1, order):
    """The three letters as maps on polynomials in x."""
    half = a1 * Fraction(1, 2)
    s = ParamPoly.zero(math.inf, _X)
    power = ParamPoly.symbol("lambda", order)
    k = 0
    while power:
        s = s + X_POLY ** k * (power * Fraction(1, math.factorial(k)))
        power = power * half
        k += 1
    x = len(_X) - 1
    return {GEN_AP: lambda p: p * X_POLY, GEN_AM: lambda p: p.partial(x) * s,
            GEN_M: lambda p: p * s}


def apply_element(ops, elem: FreeElement, p):
    """The operator of ``elem`` applied to the x-polynomial ``p``, cut at
    parameter degree K, the element's order, after every step."""
    out = ParamPoly.zero(math.inf, _X)
    for word, coeff in elem.terms.items():
        cur = p
        for letter in reversed(word):
            cur = cut(ops[letter](cur), elem.order)
        out = out + cut(cur * coeff, elem.order)
    return out
