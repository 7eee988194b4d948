"""Rank-2 and rank-3 tensors over the free algebra.

Terms are tuples of words with ParamPoly coefficients; the product law is
slotwise, with each slot normal-ordered under a rewrite system.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .params import DEFAULT_ORDER, ParamPoly, join_signed, monomial_factors, monomial_key
from .freealg import FreeElement, RewriteSystem, word_factors, word_key, word_str

_PERM_SIGN = {perm: sign for perm, sign in zip(
    ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)),
    (1, -1, -1, 1, 1, -1))}


class TensorElement:
    """Linear combination of word tuples (rank 2 or 3) with ParamPoly coefficients."""

    __slots__ = ("rank", "terms", "order")

    def __init__(self, rank, terms, order):
        if rank not in (2, 3):
            raise ValueError("rank must be 2 or 3")
        clean = {}
        for slots, coeff in terms.items():
            if len(slots) != rank:
                raise ValueError(f"term {slots} does not have rank {rank}")
            if coeff.order != order:
                raise ValueError("coefficient truncation order does not match element")
            if coeff:
                clean[tuple(tuple(w) for w in slots)] = coeff
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    @classmethod
    def zero(cls, rank, order=DEFAULT_ORDER):
        return cls(rank, {}, order)

    def _scalar(self, other):
        if isinstance(other, ParamPoly):
            if other.order != self.order:
                raise ValueError("mismatched truncation orders")
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other, self.order)
        return None

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if other.rank != self.rank or other.order != self.order:
            raise ValueError("rank or truncation order mismatch")
        terms = dict(self.terms)
        for slots, coeff in other.terms.items():
            acc = terms.get(slots)
            terms[slots] = coeff if acc is None else acc + coeff
        return TensorElement(self.rank, terms, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElement(
            self.rank, {s: -c for s, c in self.terms.items()}, self.order)

    def __mul__(self, other):
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return TensorElement(
            self.rank, {k: c * s for k, c in self.terms.items()}, self.order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.rank == other.rank and self.order == other.order
                and self.terms == other.terms)

    __hash__ = None

    # -- structural operations ----------------------------------------------

    def map_coeffs(self, fn):
        out = {}
        for slots, coeff in self.terms.items():
            new = fn(coeff)
            if new:
                out[slots] = new
        order = next(iter(out.values())).order if out else self.order
        return TensorElement(self.rank, out, order)

    def subs(self, values):
        return self.map_coeffs(lambda c: c.subs(values))

    def truncate(self, order):
        return TensorElement(
            self.rank, {s: c.truncate(order) for s, c in self.terms.items()}, order)

    def truncate_words(self, max_total_len):
        return TensorElement(
            self.rank,
            {s: c for s, c in self.terms.items()
             if sum(len(w) for w in s) <= max_total_len},
            self.order)

    def homogeneous_part(self, degree):
        return self.map_coeffs(lambda c: c.homogeneous_part(degree))

    def is_alternating(self):
        """True when coefficients flip by permutation sign across slot orbits (rank 3)."""
        if self.rank != 3:
            raise ValueError("alternation is defined for rank-3 tensors")
        zero = ParamPoly.zero(self.order)
        for slots, coeff in self.terms.items():
            for perm, sign in _PERM_SIGN.items():
                image = tuple(slots[p] for p in perm)
                expected = coeff if sign == 1 else -coeff
                if self.terms.get(image, zero) != expected:
                    return False
        return True

    # -- rendering -------------------------------------------------------------

    def expanded_terms(self):
        items = []
        for slots, poly in self.terms.items():
            slot_strs = [word_str(w) for w in slots]
            sk = tuple(word_key(w) for w in slots)
            for exps, coeff in poly.terms.items():
                head = "*".join(monomial_factors(exps) + [slot_strs[0]])
                body = " (x) ".join([head] + slot_strs[1:])
                items.append(((monomial_key(exps), sk), coeff, body))
        items.sort(key=lambda t: t[0])
        return items

    def __str__(self):
        return join_signed((c, body) for _, c, body in self.expanded_terms())

    def __repr__(self):
        return f"TensorElement(rank={self.rank}, {self}, order={self.order})"


def _slot_product(elems, coeff, into):
    """Add coeff * elems[0] (x) elems[1] (x) ... to ``into``, a dict from word
    tuples to coefficients, and return it."""
    partial = {(): coeff}
    last = len(elems) - 1
    for n, elem in enumerate(elems):
        out = into if n == last else {}
        for slots, c in partial.items():
            for word, wc in elem.terms.items():
                prod = c * wc
                if not prod:
                    continue
                key = slots + (word,)
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
        partial = out
    return into


def outer(*factors: FreeElement) -> TensorElement:
    """Tensor product of 2 or 3 free-algebra elements."""
    order = factors[0].order
    if any(f.order != order for f in factors):
        raise ValueError("mismatched truncation orders")
    return TensorElement(len(factors), _slot_product(factors, ParamPoly.one(order), {}),
                         order)


def tensor_mul(u: TensorElement, v: TensorElement, rs: RewriteSystem) -> TensorElement:
    """Slotwise product; every slot of the result is normal-ordered under rs."""
    if u.rank != v.rank:
        raise ValueError(f"rank mismatch: {u.rank} vs {v.rank}")
    if u.order != v.order or u.order != rs.order:
        raise ValueError("mismatched truncation orders")
    terms = {}
    for s1, c1 in u.terms.items():
        for s2, c2 in v.terms.items():
            coeff = c1 * c2
            if coeff:
                _slot_product([rs._form(w1 + w2) for w1, w2 in zip(s1, s2)],
                              coeff, terms)
    return TensorElement(u.rank, terms, u.order)


def flip(u: TensorElement) -> TensorElement:
    """Swap the two slots of a rank-2 tensor."""
    if u.rank != 2:
        raise ValueError("flip is defined for rank-2 tensors")
    terms = {}
    for (w1, w2), coeff in u.terms.items():
        key = (w2, w1)
        acc = terms.get(key)
        terms[key] = coeff if acc is None else acc + coeff
    return TensorElement(2, terms, u.order)


def wedge2(x: FreeElement, y: FreeElement) -> TensorElement:
    """x ^ y = x (x) y - y (x) x (no 1/2 normalization)."""
    return outer(x, y) - outer(y, x)


def wedge3(x: FreeElement, y: FreeElement, z: FreeElement) -> TensorElement:
    """Full alternating sum over the six slot orders, unit coefficients."""
    factors = (x, y, z)
    acc = TensorElement.zero(3, x.order)
    for perm, sign in _PERM_SIGN.items():
        term = outer(*(factors[p] for p in perm))
        acc = acc + (term if sign == 1 else -term)
    return acc
