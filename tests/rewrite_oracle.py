"""Rightmost rewriting: a second normal-ordering strategy, kept as a test oracle.

The engine normal-orders by leftmost rewriting through the word memo of
``RewriteSystem._form``.  This rewrites every term afresh at its rightmost
inversion, reading only the rules of the system and the PBW order of the
generators, so it shares no code path with the memo.
"""

from hweyl.freealg import GENERATORS, FreeElement

_ORD = {g: i for i, g in enumerate(GENERATORS)}


def rightmost_normal_form(x: FreeElement, rs) -> FreeElement:
    """x normal-ordered by rewriting each word at its rightmost inversion."""
    if x.order != rs.order:
        raise ValueError("element and rewrite system have different truncation orders")
    out = {}
    stack = list(x.terms.items())
    while stack:
        word, coeff = stack.pop()
        if not coeff:
            continue
        i = next((i for i in range(len(word) - 2, -1, -1)
                  if _ORD[word[i]] > _ORD[word[i + 1]]), None)
        if i is None:
            acc = out.get(word)
            out[word] = coeff if acc is None else acc + coeff
            continue
        prefix, suffix = word[:i], word[i + 2:]
        for rw, rc in rs.rules[word[i], word[i + 1]].terms.items():
            stack.append((prefix + rw + suffix, coeff * rc))
    return FreeElement._clean(out, x.order)
