"""Rank-2 and rank-3 tensors over the free algebra.

Terms are tuples of words with ParamPoly coefficients; the linear structure
is ``LinearSum``, shared with ``FreeElement``.  The product, of rank-2
tensors only, is slotwise, with each slot normal-ordered under a rewrite system.
"""

from __future__ import annotations

from .params import ParamPoly
from .freealg import FreeElement, LinearSum, RewriteSystem, _word, word_key, word_str

class TensorElement(LinearSum):
    """Linear combination of word tuples (rank 2 or 3) with ParamPoly coefficients."""

    __slots__ = ("rank",)

    def __init__(self, rank, terms, order):
        if rank not in (2, 3):
            raise ValueError("rank must be 2 or 3")
        object.__setattr__(self, "rank", rank)
        super().__init__(terms, order)

    @classmethod
    def _clean(cls, terms, order, rank):
        """The rank-``rank`` sum of trusted ``terms`` (see ``LinearSum``)."""
        out = super()._clean(terms, order)
        object.__setattr__(out, "rank", rank)
        return out

    def __reduce__(self):
        return TensorElement._clean, (dict(self.terms), self.order, self.rank)

    def _key(self, slots):
        if len(slots) != self.rank:
            raise ValueError(f"term {slots} does not have rank {self.rank}")
        return tuple(map(_word, slots))

    def _like(self, terms, order):
        return self._clean(terms, order, self.rank)

    def _ring(self):
        return self.rank, self.order

    # -- structural operations ----------------------------------------------

    def truncate_words(self, max_total_len):
        return TensorElement._clean(
            {s: c for s, c in self.terms.items()
             if sum(len(w) for w in s) <= max_total_len},
            self.order, self.rank)

    # -- rendering -------------------------------------------------------------

    def _key_parts(self, slots):
        strs = [word_str(w) for w in slots]
        return (tuple(word_key(w) for w in slots), strs[0],
                "".join(" (x) " + s for s in strs[1:]))

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
    """Slotwise product of two rank-2 tensors; both slots of the result are
    normal-ordered under rs."""
    if u.rank != 2 or v.rank != 2:
        raise ValueError(f"tensor_mul takes rank-2 tensors, not {u.rank} and {v.rank}")
    if u.order != v.order or u.order != rs.order:
        raise ValueError("mismatched truncation orders")
    terms = {}
    form = rs._form
    get = terms.get
    for (a1, b1), c1 in u.terms.items():
        for (a2, b2), c2 in v.terms.items():
            coeff = c1 * c2
            if not coeff._num:
                continue
            right = form(b1 + b2).terms.items()
            for wa, ca in form(a1 + a2).terms.items():
                ca = coeff * ca
                if not ca._num:
                    continue
                for wb, cb in right:
                    prod = ca * cb
                    if not prod._num:
                        continue
                    key = (wa, wb)
                    acc = get(key)
                    terms[key] = prod if acc is None else acc + prod
    return TensorElement._clean(terms, u.order, 2)


def flip(u: TensorElement) -> TensorElement:
    """Swap the two slots of a rank-2 tensor."""
    if u.rank != 2:
        raise ValueError("flip is defined for rank-2 tensors")
    return TensorElement._clean({(w2, w1): c for (w1, w2), c in u.terms.items()},
                                u.order, 2)
