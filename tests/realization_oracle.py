"""The differential realization of I+ applied letter by letter: a test oracle
for the composed operators of ``check_realization``.

A+ = x, A- = s d/dx and M = s, with s = lambda e^{a1 x/2} cut at parameter
degree K, act on a polynomial in x one letter at a time, the rightmost
letter first.  s is summed here from powers of a1/2, not read from the
engine, and no operator is composed.
"""

import math
from fractions import Fraction

from hweyl.freealg import GEN_AM, GEN_AP, GEN_M, FreeElement
from hweyl.params import ParamPoly
from hweyl.quantization import _X

X_POLY = ParamPoly.symbol("x", math.inf, _X)


def realization_ops(a1, order):
    """The three letters as maps on polynomials in x."""
    half = a1 * Fraction(1, 2)
    terms = {}
    power = ParamPoly.symbol("lambda", order)
    k = 0
    while power:
        terms[(k,)] = power * Fraction(1, math.factorial(k))
        power = power * half
        k += 1
    s = ParamPoly(terms, math.inf, _X)
    return {GEN_AP: lambda p: p * X_POLY, GEN_AM: lambda p: p.partial(0) * s,
            GEN_M: lambda p: p * s}


def apply_element(ops, elem: FreeElement, p):
    """The operator of ``elem`` applied to the x-polynomial ``p``."""
    out = ParamPoly.zero(math.inf, _X)
    for word, coeff in elem.terms.items():
        cur = p
        for letter in reversed(word):
            cur = ops[letter](cur)
        out = out + cur * coeff
    return out
