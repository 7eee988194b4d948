"""Printing from the ``terms`` view: a second renderer, kept as a test oracle.

The engine prints straight from the packed storage of ``ParamPoly`` (``_num``
over ``_den``, in the order of ``k ^ mask`` on the packed keys).  This prints
from the public ``terms`` view, Fractions keyed by exponent tuples, sorted by
an explicit (total degree, negated exponents) key, and renders words and
tensor slots itself, so it shares no code path with the engine's renderer.
"""

from fractions import Fraction

from hweyl.freealg import GENERATORS, FreeElement
from hweyl.params import PARAMS, ParamPoly

_ORD = {g: i for i, g in enumerate(GENERATORS)}


def monomial_factors(exps, names=PARAMS) -> list:
    return [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]


def monomial_key(exps):
    """Graded, then lex with earlier variables first."""
    return (sum(exps), tuple(-e for e in exps))


def coeff_prefix(coeff: Fraction, body: str) -> str:
    """A positive rational coefficient attached to a monomial body."""
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff.denominator == 1:
        return f"{coeff}*{body}"
    return f"({coeff})*{body}"


def join_signed(items) -> str:
    """``(rational coeff, body)`` pairs as a sum."""
    parts = []
    for coeff, body in items:
        if not coeff:
            continue
        piece, negative = coeff_prefix(abs(coeff), body), coeff < 0
        if not parts:
            parts.append(f"-{piece}" if negative else piece)
        else:
            parts.append(f" - {piece}" if negative else f" + {piece}")
    return "".join(parts) if parts else "0"


def sorted_terms(p: ParamPoly):
    return sorted(p.terms.items(), key=lambda kv: monomial_key(kv[0]))


def poly_str(p: ParamPoly) -> str:
    return join_signed((c, "*".join(monomial_factors(exps, p.names)))
                       for exps, c in sorted_terms(p))


def _word_factors(word) -> list:
    out = []
    for letter in word:
        if out and out[-1][0] == letter:
            out[-1][1] += 1
        else:
            out.append([letter, 1])
    return [g if n == 1 else f"{g}^{n}" for g, n in out]


def _word_key(word):
    return (len(word), tuple(_ORD[x] for x in word))


def sum_str(x) -> str:
    """A FreeElement or a TensorElement: terms ordered by the parameter
    monomial, then the word (or the words slot by slot)."""
    items = []
    for key, poly in x.terms.items():
        if isinstance(x, FreeElement):
            sort_key, head, tail = _word_key(key), _word_factors(key), ""
        else:
            strs = ["*".join(_word_factors(w)) or "1" for w in key]
            sort_key = tuple(_word_key(w) for w in key)
            head, tail = strs[:1], "".join(" (x) " + s for s in strs[1:])
        for exps, coeff in poly.terms.items():
            body = "*".join(monomial_factors(exps) + head) + tail
            items.append(((monomial_key(exps), sort_key), coeff, body))
    items.sort(key=lambda t: t[0])
    return join_signed((c, body) for _, c, body in items)


def spread_sum(items) -> str:
    """(ParamPoly scalar, body) pairs as one sum, each scalar spread over its
    monomials: the closed-form renderer of ``quantization._signed_sum``."""
    return join_signed((c, "*".join(monomial_factors(exps, s.names) + [body]))
                       for s, body in items for exps, c in sorted_terms(s))
