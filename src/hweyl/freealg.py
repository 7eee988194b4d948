"""Free noncommutative algebra on the generators M, A+, A-.

Elements are finite sums of words with ParamPoly coefficients.  A rewrite
system turns out-of-order adjacent letter pairs into their normal-form
expansion, giving the ordered-monomial basis M^i * A+^j * A-^k (generator
order M < A+ < A-).  Each system has one strategy, leftmost rewriting, and
keeps the normal form of every word met on the way, so a word shared by many
rewritings is normal-ordered once; it checks confluence by finishing the two
one-step reductions of the one overlap A-*A+*M of two rules.  The linear
structure of such sums lives in ``LinearSum``, which the tensors of
``hweyl.tensor`` share.  ``_word_image`` extends a map given on the letters
to words, one product per letter, for every structure map given on
generators: the coproduct, the antipode, the I+/I- swap and the
differential realization.  An exponential is built on its named letter g:
exp(C g) for a matrix C of parameter series is the scalar powers C^n/n! of
``_exp_terms`` placed on the powers g^n (``exp_matrix2``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .params import DEFAULT_ORDER, ParamPoly, Record, signed_sum

GEN_M = "M"
GEN_AP = "A+"
GEN_AM = "A-"

#: Generators in PBW order: letters of a normal word are sorted by this.
GENERATORS = (GEN_M, GEN_AP, GEN_AM)
_ORD = {GEN_M: 0, GEN_AP: 1, GEN_AM: 2}

#: The out-of-order letter pairs a rewrite system must cover.
REDEXES = ((GEN_AP, GEN_M), (GEN_AM, GEN_M), (GEN_AM, GEN_AP))


def _word(letters):
    """``letters`` as a word; a letter that is no generator raises
    ``ValueError`` naming it."""
    word = tuple(letters)
    for x in word:
        if x not in _ORD:
            raise ValueError(f"unknown generator {x!r}")
    return word


def word_key(word):
    return (len(word), tuple(_ORD[x] for x in word))


def word_str(word) -> str:
    runs = [(g, len(list(run))) for g, run in groupby(word)]
    return "*".join(g if n == 1 else f"{g}^{n}" for g, n in runs) or "1"


class LinearSum:
    """Immutable finite sum of keys with ParamPoly coefficients of one
    truncation order: the linear structure shared by free-algebra elements
    (keys are words) and tensors (keys are tuples of words).

    There are two constructors.  The public one, ``FreeElement(terms, order)``
    or ``TensorElement(rank, terms, order)``, checks that every coefficient is
    a ParamPoly of the element's order, normalizes every key to a tuple (of
    words) and refuses a letter that is no generator; use it for terms from
    outside the engine.  The private classmethod ``_clean`` checks
    nothing and only drops zero coefficients; use it only for terms built
    from sums of the same kind and order, whose keys are already tuples (of
    words) and whose coefficients are already ParamPoly of that order.

    A subclass gives ``_key`` (normalizes one key of the input), ``_like``
    (a sum of self's kind and ring through ``_clean``), ``_ring`` (what two
    summands must share) and ``_key_parts`` (sort key, text before and after
    the first ``(x)``).

    There is one printer, ``_text(texts)``: it prints from each coefficient's
    ``_num`` and ``_den``, not ``terms``, in the print order of ``ParamPoly``
    and then by key.  ``texts`` is a table of the text already formatted: the
    ``_key_parts`` of each key under the class, and the text of each
    monomial key under its names tuple (``ParamPoly._rows``).  ``__str__``
    passes a fresh table, so ``str()`` keeps no state; a ``HopfPresentation``
    passes its own, so each word and monomial of its output is formatted
    once.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms, order):
        clean = {}
        for key, coeff in terms.items():
            if not isinstance(coeff, ParamPoly):
                raise TypeError("coefficients must be ParamPoly")
            if coeff.order != order:
                raise ValueError("coefficient truncation order does not match element")
            if coeff:
                clean[self._key(key)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    @classmethod
    def _clean(cls, terms, order):
        """The sum of trusted ``terms`` (see the class docstring)."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", {k: c for k, c in terms.items() if c._num})
        object.__setattr__(out, "order", order)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        """Rebuild from the terms through ``_clean`` (``copy`` and ``pickle``)."""
        return type(self)._clean, (dict(self.terms), self.order)

    def _like(self, terms, order):
        return self._clean(terms, order)

    def _ring(self):
        return self.order

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

    # -- linear structure ----------------------------------------------------

    def _combine(self, other, sign):
        """self + other (``sign`` 1) or self - other (``sign`` -1), term by term."""
        if type(other) is not type(self):
            return NotImplemented
        if other._ring() != self._ring():
            raise ValueError("summands differ in truncation order or rank")
        terms = dict(self.terms)
        get = terms.get
        for key, coeff in other.terms.items():
            acc = get(key)
            if sign == 1:
                terms[key] = coeff if acc is None else acc + coeff
            else:
                terms[key] = -coeff if acc is None else acc - coeff
        return self._like(terms, self.order)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()}, self.order)

    def __mul__(self, other):
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return self._like({k: c * s for k, c in self.terms.items()}, self.order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._ring() == other._ring() and self.terms == other.terms

    __hash__ = None

    # -- structural operations -------------------------------------------------

    def map_coeffs(self, fn):
        """``fn`` applied to each coefficient must give ParamPoly of one order."""
        out = {}
        for key, coeff in self.terms.items():
            new = fn(coeff)
            if new:
                out[key] = new
        order = next(iter(out.values())).order if out else self.order
        return self._like(out, order)

    def homogeneous_part(self, degree):
        return self.map_coeffs(lambda c: c.homogeneous_part(degree))

    # -- rendering --------------------------------------------------------------

    def _text(self, texts):
        """The printed sum, formatting through the table ``texts``: under the
        class it keeps the ``_key_parts`` of each key met so far, and
        ``ParamPoly._rows`` keeps the monomial texts in it."""
        parts = texts.get(type(self))
        if parts is None:
            parts = texts[type(self)] = {}
        rows = []
        for key, poly in self.terms.items():
            part = parts.get(key)
            if part is None:
                part = parts[key] = self._key_parts(key)
            sort_key, head, tail = part
            rows += [((k, sort_key), n, den, text + tail)
                     for k, n, den, text in poly._rows(texts, head)]
        rows.sort()  # first entries are unique: no coefficient is compared
        return signed_sum(rows)

    def __str__(self):
        return self._text({})


class FreeElement(LinearSum):
    """Linear combination of noncommutative words with ParamPoly coefficients."""

    __slots__ = ()

    _key = staticmethod(_word)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order=DEFAULT_ORDER):
        return cls({}, order)

    @classmethod
    def one(cls, order=DEFAULT_ORDER):
        return cls({(): ParamPoly.one(order)}, order)

    @classmethod
    def generator(cls, name, order=DEFAULT_ORDER):
        return cls({(name,): ParamPoly.one(order)}, order)

    @classmethod
    def from_word(cls, word, order=DEFAULT_ORDER, coeff=1):
        c = coeff if isinstance(coeff, ParamPoly) else ParamPoly.const(coeff, order)
        return cls({tuple(word): c}, order)

    # -- algebra structure ------------------------------------------------------

    def _lift(self, other):
        """A scalar as a multiple of the empty word; anything else as given."""
        s = self._scalar(other)
        return other if s is None else FreeElement({(): s}, self.order)

    def __add__(self, other):
        return self._combine(self._lift(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(self._lift(other), -1)

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            return nc_mul(self, other)
        return LinearSum.__mul__(self, other)

    def __eq__(self, other):
        return LinearSum.__eq__(self, self._lift(other))

    # -- structural operations -------------------------------------------------

    def truncate_words(self, max_len):
        return FreeElement._clean(
            {w: c for w, c in self.terms.items() if len(w) <= max_len}, self.order)

    # -- rendering --------------------------------------------------------------

    def _key_parts(self, word):
        return word_key(word), word_str(word) if word else "", ""

    def __repr__(self):
        return f"FreeElement({self}, order={self.order})"


def nc_mul(x: FreeElement, y: FreeElement) -> FreeElement:
    """Concatenation product; the result is not normal-ordered."""
    if x.order != y.order:
        raise ValueError("mismatched truncation orders")
    terms = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            coeff = c1 * c2
            word = w1 + w2
            acc = terms.get(word)
            terms[word] = coeff if acc is None else acc + coeff
    return FreeElement._clean(terms, x.order)


class RewriteSystem(Record):
    """Normal-form expansions of the out-of-order generator pairs; ``_FIELDS``
    are name, rules and order.

    Each rule maps a pair (g, h) with g > h to the normal form of the product
    g*h.  Construction checks the termination witness: everything in the rule
    beyond the reordered word h*g must either be a shorter word or carry
    parameter degree >= 1, so rewriting always terminates under truncation.
    It also checks that every such term has a lower ``_rank`` than g*h, so
    that rewriting ends at coefficient 1 too, which the memo fill needs.

    The one strategy is leftmost rewriting: the normal form of each word, and
    of every word met on the way, is rewritten once and kept (see ``_form``).
    """

    _FIELDS = ("name", "rules", "order")
    __slots__ = _FIELDS + ("_forms",)

    def __init__(self, name, rules, order):
        if set(rules) != set(REDEXES):
            raise ValueError(f"rules must cover exactly the pairs {REDEXES}")
        for (g, h), rhs in rules.items():
            if rhs.order != order:
                raise ValueError("rule truncation order does not match system")
            rest = rhs - FreeElement.from_word((h, g), order)
            for word, coeff in rest.terms.items():
                if word != (h, g) and _rank(word) >= _rank((g, h)):
                    raise ValueError(
                        f"rule {g}*{h} has a term {word} that does not lower the rank")
                if len(word) < 2:
                    continue
                d = coeff.min_degree()
                if d is None or d >= 1:
                    continue
                raise ValueError(
                    f"rule {g}*{h} violates the termination witness on word {word}")
        self._store(name, dict(rules), order)
        object.__setattr__(self, "_forms", {})

    def _form(self, word) -> FreeElement:
        """Normal form of the word with coefficient 1 by leftmost rewriting:
        the sum of rc * form(prefix + rw + suffix) over the terms rw, rc of the
        rule at the first inversion, each such form filled into the memo from
        a work stack.  This ends since every rule term is the swapped pair or
        of lower ``_rank``."""
        forms, order = self._forms, self.order
        form = forms.get(word)
        if form is not None:
            return form
        one = ParamPoly.one(order)
        stack = [(word, None)]
        while stack:
            w, kids = stack.pop()
            if w in forms:
                continue
            if kids is not None:
                forms[w] = FreeElement._clean(
                    _linear_extension(forms.__getitem__, kids), order)
                continue
            i = _first_inversion(w)
            if i is None:
                forms[w] = FreeElement._clean({w: one}, order)
                continue
            kids = [(w[:i] + rw + w[i + 2:], rc)
                    for rw, rc in self.rules[w[i], w[i + 1]].terms.items()]
            stack.append((w, kids))
            stack.extend((k, None) for k, _ in kids)
        return forms[word]

    @classmethod
    def undeformed(cls, order=DEFAULT_ORDER):
        """Heisenberg-Weyl relations: [A-,A+] = M with M central."""
        one = ParamPoly.one(order)
        return cls("undeformed", {
            (GEN_AP, GEN_M): FreeElement({(GEN_M, GEN_AP): one}, order),
            (GEN_AM, GEN_M): FreeElement({(GEN_M, GEN_AM): one}, order),
            (GEN_AM, GEN_AP): FreeElement(
                {(GEN_AP, GEN_AM): one, (GEN_M,): one}, order),
        }, order)

    def commutation_rules(self):
        """The commutators [g, h] = g*h - h*g encoded by the rules."""
        out = {}
        for (g, h), rhs in self.rules.items():
            out[(g, h)] = rhs - FreeElement.from_word((h, g), self.order)
        return out

    def check_confluence(self):
        """The overlaps of two rules whose two one-step reductions reach
        different normal forms.

        The construction's rank check makes every rewriting end, so by
        Bergman's diamond lemma (Adv. Math. 29 (1978) 178-218) the system is
        confluent, and every word has one normal form, exactly when every
        ambiguity resolves.  Each rule's left side is a pair of letters, so
        none lies inside another: the only ambiguities are the overlaps
        g*h*k of two rules (g, h) and (h, k), here the one word A-*A+*M.  Its
        two one-step reductions rewrite g*h or h*k, and ``_form`` finishes
        both.  Equal forms resolve the ambiguity; unequal forms are two
        normal forms of one word, which a confluent system cannot have.
        """
        bad = []
        for g, h, k in [(g, h, k) for g, h in REDEXES for h2, k in REDEXES if h == h2]:
            left = FreeElement._clean(
                {rw + (k,): rc for rw, rc in self.rules[g, h].terms.items()}, self.order)
            right = FreeElement._clean(
                {(g,) + rw: rc for rw, rc in self.rules[h, k].terms.items()}, self.order)
            if normal_form(left, self) != normal_form(right, self):
                bad.append((g, h, k))
        return bad


def _rank(word):
    """(letters other than M, length): each rule term lowers it, or is the
    swapped pair, which keeps it and lowers the inversions."""
    return len(word) - word.count(GEN_M), len(word)


def _first_inversion(word):
    for i in range(len(word) - 1):
        if _ORD[word[i]] > _ORD[word[i + 1]]:
            return i
    return None


def normal_form(x: FreeElement, rs: RewriteSystem) -> FreeElement:
    """Rewrite x into the ordered-word basis, reading each word's normal form
    from the rewrite system's memo (see ``RewriteSystem._form``)."""
    if x.order != rs.order:
        raise ValueError("element and rewrite system have different truncation orders")
    return FreeElement._clean(_linear_extension(rs._form, x.terms.items()), x.order)


def _linear_extension(image, pairs):
    """The terms of the sum of image(word) * coeff over the (word, coeff)
    pairs, each product added into one dict."""
    terms = {}
    get = terms.get
    for word, coeff in pairs:
        for key, c in image(word).terms.items():
            prod = c * coeff
            if not prod._num:
                continue
            acc = get(key)
            terms[key] = prod if acc is None else acc + prod
    return terms


def _word_image(word, letters, mul, memo):
    """The image of ``word`` under the algebra map that sends each letter g
    to ``letters[g]``, ``mul`` being the target's product.

    ``memo`` maps words to their images and holds the unit at the empty word.
    The image starts from the longest prefix held there, takes one ``mul``
    per remaining letter and stores each new prefix.  It loops and does not
    recurse, so no word is too long for the interpreter's recursion limit.
    """
    n = len(word)
    while word[:n] not in memo:
        n -= 1
    image = memo[word[:n]]
    for n in range(n + 1, len(word) + 1):
        image = memo[word[:n]] = mul(image, letters[word[n - 1]])
    return image


def commutator(x: FreeElement, y: FreeElement, rs: RewriteSystem) -> FreeElement:
    return normal_form(nc_mul(x, y) - nc_mul(y, x), rs)


def _exp_terms(mat):
    """The scalar terms C^n/n!, n = 0, 1, ..., of exp(C) for a square matrix C
    of ParamPoly, up to the last nonzero one; a 1x1 matrix is one series.

    Every entry must carry parameter degree >= 1, so that C^n vanishes once n
    passes the truncation order.
    """
    if any(c and c.min_degree() < 1 for row in mat for c in row):
        raise ValueError(
            "exp requires every term to carry parameter degree >= 1 "
            "(series would not terminate at the truncation order)")
    size = range(len(mat))
    power = [[ParamPoly.const(int(i == j), mat[0][0].order) for j in size] for i in size]
    out = []
    while any(c for row in power for c in row):
        out.append(power)
        scale = Fraction(1, len(out))
        power = [[sum(power[i][k] * mat[k][j] for k in size) * scale for j in size]
                 for i in size]
    return out


def exp_matrix2(letter, mat):
    """exp(C g) for the generator g named ``letter`` and a square matrix C of
    ParamPoly, each entry of parameter degree >= 1: entry (i, j) is the sum of
    (C^n/n!)_ij g^n (``_exp_terms``)."""
    terms = _exp_terms(mat)
    order = mat[0][0].order
    size = range(len(mat))
    return [[FreeElement({(letter,) * n: t[i][j] for n, t in enumerate(terms)}, order)
             for j in size] for i in size]
