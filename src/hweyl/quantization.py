"""Quantization of the classified bialgebra families into Hopf algebras.

A family is its primitive generator p plus the 2x2 matrix Theta read off its
cocommutator: delta(v_i) = sum_j theta_ij ^ v_j on the non-primitive vector
v, with theta = p * Theta.  From Theta alone this module builds the deformed
commutation rules, the coproduct (exp(-theta)), the antipode (exp(theta)) and
the closed forms, attaches the counit, and machine-verifies every Hopf axiom
by exact truncated series; the zero cocommutator (TRIVIAL) is Theta = 0.  The
differential realization of the I+ family acts on polynomials in x and the
parameters, ParamPoly over ``ring(("x",))`` with ``order=math.inf``.  Each
exponential (exp(-theta), the [A-,A+] series, the realization's e^{a1 x/2}
and the exp(-a1 A+/2) of the I+ central element) is built directly on its
one letter, p, M, x or A+, from the scalar powers C^n/n! of
``freealg._exp_terms``.  ``quantize`` reads Theta once and sums one series
E = exp(-theta) for the coproduct, and the antipode's F = exp(theta) = E^-1
is read off E's terms (``_Series``).  That is exact, not an approximation:
every entry of theta is a multiple C p of the one letter p, so
(-C)^n/n! = (-1)^n C^n/n! and the coefficient of p^n in F is (-1)^n times
its coefficient in E.

Every map the engine checks is given on generators and is one ``WordMap``:
the letter images, the target product, and a prefix memo seeded with the
unit, through which ``_word_image`` extends the map to words.  Delta, gamma,
the I+/I- swap and the I+ realization are instances, and each Hopf check is
its ``respects``, ``agrees`` or slot application.  gamma is an anti-map: it
reads each word reversed, so its memo is keyed by the reversed word.  The
counit (``_Counit``) keeps no memo: a memo would share the prefixes of its
product chains, which cuts ``quantize(TYPE_I_PLUS, order=3)`` to 990
multiplies, under perfbench's floor of 1,000 (ROADMAP item 2b).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .params import (_BITS, DEFAULT_ORDER, MAX_ORDER, PARAMS, ParamPoly, Record, _build,
                     parse_rational, ring, signed_sum)
from .freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, REDEXES, FreeElement, LinearSum,
                      RewriteSystem, _exp_terms, _linear_extension, _word_image,
                      commutator, exp_matrix2, nc_mul, normal_form)
from .tensor import TensorElement, _slot_product, flip, outer, tensor_mul
from .bialgebra import (_IDX, BASIS, BRACKET, FAMILIES, SWAP_AUTOMORPHISM, TYPE_I_MINUS,
                        TYPE_I_PLUS, BialgebraClass, Cocommutator)


class VerificationError(RuntimeError):
    """A Hopf axiom, the confluence of the rewrite rules or the centrality of
    the central element failed to verify."""


class _Series(Record):
    """One reading of a family at one order.  ``_FIELDS`` are bialgebra_class
    and order.  Building a series checks the shape of the class and reads,
    once, its graded parameter ``values``, the graded ``cocommutator`` and
    Theta (``theta``): Theta[i][j] is the coefficient of p ^ v_j in
    delta(v_i).  With theta = p * Theta, E = exp(-theta) (``exp_neg``, built
    on the letter p from -Theta) and F = exp(theta) (``exp_pos``) are
    computed at most once and only when asked for: E is the one exponential
    series, and F is read off E (module docstring).  ``quantize`` builds one,
    every builder of a presentation reads it, and the presentation keeps it.

    A rational parameter q becomes q*t, so every rational value shares the
    one grading variable t and the series stays graded; symbolic parameters
    are used as given.  The normalized cocommutator must vanish on p and send
    each v_i into v ^ p.
    """

    _FIELDS = ("bialgebra_class", "order")
    __slots__ = _FIELDS + ("__dict__",)

    def __init__(self, bialgebra_class, order):
        self._store(bialgebra_class, order)
        tag, delta = bialgebra_class.tag, bialgebra_class.normalized
        if tag not in FAMILIES:
            raise ValueError(f"{tag} has no matrix form")
        _, prim, vector = FAMILIES[tag]
        p = _IDX[prim]
        if delta.wedge_row(p):
            raise ValueError(f"{tag}: delta({prim}) must vanish")
        for v in vector:
            if any(p not in pair for pair in delta.wedge_row(_IDX[v])):
                raise ValueError(f"{tag}: delta({v}) contains a wedge without {prim}")
        values = {name: val if isinstance(val, ParamPoly) else ParamPoly.symbol("t", order) * val
                  for name, val in bialgebra_class.family_params().items()}
        graded = Cocommutator(**values)
        rows = [graded.full_row(_IDX[v]) for v in vector]
        zero = ParamPoly.zero(order)
        # the computed fields live in the instance dict, beside the caches
        # of the properties below; copy and pickle start it afresh
        self.__dict__.update(prim=prim, vector=vector, values=values, cocommutator=graded,
                             theta=[[row.get((p, _IDX[v]), zero) for v in vector]
                                    for row in rows])

    @functools.cached_property
    def exp_neg(self):
        return exp_matrix2(self.prim, [[-t for t in row] for row in self.theta])

    @functools.cached_property
    def exp_pos(self):
        """F: the sign of each odd power of p in E flips."""
        return [[FreeElement._clean({w: -c if len(w) % 2 else c for w, c in e.terms.items()},
                                    e.order) for e in row] for row in self.exp_neg]


def build_coproduct(series):
    """Deformed coproduct: primitive on the primitive generator, and
    1 (x) v + sigma(exp(-theta) (x) v) on the non-primitive vector."""
    order, prim, vector, exp_neg = series.order, series.prim, series.vector, series.exp_neg
    one = FreeElement.one(order)
    x = FreeElement.generator(prim, order)
    cop = {prim: outer(one, x) + outer(x, one)}
    for i, vi in enumerate(vector):
        acc = outer(one, FreeElement.generator(vi, order))
        for j, vj in enumerate(vector):
            if exp_neg[i][j]:
                acc = acc + outer(FreeElement.generator(vj, order), exp_neg[i][j])
        cop[vi] = acc
    return cop


def build_antipode(series, rewrite):
    """Antipode of the deformed coproduct: -prim on the primitive generator,
    and gamma(v_j) = -sum_k v_k exp(theta)[j][k] on the non-primitive vector.

    With E = exp(-theta), the left axiom is m(gamma (x) id) Delta(v_i) =
    v_i + sum_j gamma(v_j) E_ij = 0.  The entries of E commute, so E^-1 =
    exp(theta) solves it; an antipode is unique, so this is the antipode.
    F = exp(theta) is not summed on its own but read off the coproduct's
    series E: every entry of theta is a multiple of the one letter p, so
    (-C)^n/n! = (-1)^n C^n/n! term by term, exactly.
    """
    order, prim, vector, exp_pos = series.order, series.prim, series.vector, series.exp_pos
    gamma = {prim: -FreeElement.generator(prim, order)}
    for j, vj in enumerate(vector):
        acc = FreeElement.zero(order)
        for k, vk in enumerate(vector):
            acc = acc + nc_mul(FreeElement.generator(vk, order), exp_pos[j][k])
        gamma[vj] = -normal_form(acc, rewrite)
    return gamma


def exprel_series(scale, order):
    """(exp(scale*M) - 1)/scale as the everywhere-defined series
    sum_{n>=1} scale^(n-1) M^n / n!, from the terms scale^n/n! of exp."""
    return FreeElement({(GEN_M,) * n: t[0][0] * Fraction(1, n)
                        for n, t in enumerate(_exp_terms([[scale]]), 1)}, order)


def family_rewrite(series):
    """The family's deformed commutation rules as a rewrite system.

    One undeformed rule changes, and Theta gives the change.  For the central
    primitive M, [A-,A+] = (exp(s M) - 1)/s with s = -tr Theta.  For a ladder
    primitive p with [v_0, p] = eps M, [v_0, M] = -(eps Theta_00 / 2) M^2.
    """
    order, prim, vector, theta = series.order, series.prim, series.vector, series.theta
    rules = dict(RewriteSystem.undeformed(order).rules)
    if prim == GEN_M:
        s = -(theta[0][0] + theta[1][1])
        rules[(GEN_AM, GEN_AP)] = (FreeElement.from_word((GEN_AP, GEN_AM), order)
                                   + exprel_series(s, order))
    else:
        v = vector[0]
        eps = BRACKET[(_IDX[v], _IDX[prim])][_IDX[GEN_M]]
        rules[(v, GEN_M)] = rules[(v, GEN_M)] + FreeElement.from_word(
            (GEN_M, GEN_M), order, coeff=theta[0][0] * (-eps / 2))
    return RewriteSystem(series.bialgebra_class.tag.lower(), rules, order)


# -- maps given on generators ------------------------------------------------------

def _residual(lhs, rhs):
    """lhs - rhs, built only when the sides differ: with canonical coefficients
    and no zero terms, ``lhs == rhs`` exactly when the difference is zero."""
    return lhs._like({}, lhs.order) if lhs == rhs else lhs - rhs


def _normal_product(rewrite):
    """The product of the algebra ``rewrite`` presents; like every map's
    product it names the traced functions, so they are looked up per call."""
    return lambda x, y: normal_form(nc_mul(x, y), rewrite)


class WordMap(Record):
    """An algebra map given on generators (module docstring); ``_FIELDS`` are
    letters (each generator's image), mul (the target's product), unit (the
    target's unit) and anti.  A composite from ``then`` is known on the
    generators only, for ``agrees``: it has no product.  The product is a
    closure, so a map is not pickled; a presentation builds its own."""

    _FIELDS = ("letters", "mul", "unit", "anti")
    __slots__ = _FIELDS + ("_memo",)

    def __init__(self, letters, mul=None, unit=None, anti=False):
        self._store(letters, mul, unit, anti)
        object.__setattr__(self, "_memo", {(): unit})

    def image(self, word):
        return _word_image(word[::-1] if self.anti else word, self.letters, self.mul,
                           self._memo)

    def extend(self, x):
        """The linear extension to an element, or phi (x) phi on a tensor: each
        term's image times its coefficient, added into one dict."""
        if isinstance(x, TensorElement):
            terms = {}
            for slots, coeff in x.terms.items():
                _slot_product([self.image(w) for w in slots], coeff, terms)
            return TensorElement._clean(terms, x.order, x.rank)
        return self.unit._like(_linear_extension(self.image, x.terms.items()), x.order)

    def apply(self, t, slot):
        """(phi (x) id) t at slot 0, (id (x) phi) t at slot 1, for a rank-2
        tensor t.  Each key of an image is joined to the other slot's word: as
        further slots when the images are tensors, and as one word (the
        product m) when they are elements, so that m(gamma (x) id) is merged
        before one normal-ordering."""
        tensor = isinstance(self.unit, TensorElement)
        terms = {}
        get = terms.get
        for (u, w), coeff in t.terms.items():
            own, other = (u, w) if slot == 0 else (w, u)
            if tensor:
                other = (other,)
            for key, c in self.image(own).terms.items():
                key = key + other if slot == 0 else other + key
                prod = c * coeff
                if not prod._num:
                    continue
                acc = get(key)
                terms[key] = prod if acc is None else acc + prod
        return TensorElement._clean(terms, t.order, 3) if tensor else FreeElement._clean(
            terms, t.order)

    def then(self, outer, slot):
        """(outer (x) id) after self at slot 0, (id (x) outer) at slot 1."""
        return WordMap({g: outer.apply(x, slot) for g, x in self.letters.items()})

    def respects(self, rules):
        """phi(g)phi(h) - phi(rhs) per rule g*h -> rhs, built only when the two
        differ; phi(g)phi(h) is one product of the two images.  The map factors
        through the relations exactly when every residual is zero."""
        out = {}
        for (g, h), rhs in rules.items():
            x, y = self.letters[g], self.letters[h]
            out[g, h] = _residual(self.mul(y, x) if self.anti else self.mul(x, y),
                                  self.extend(rhs))
        return out

    def agrees(self, other, generators):
        """self(g) - other(g) per generator g, built only when the two differ.
        Algebra maps that agree on the generators agree everywhere."""
        return {g: _residual(self.letters[g], other.letters[g]) for g in generators}


class _Counit(WordMap):
    """The counit, with images on the empty word and no memo: the image of a
    word is the product chain of its letters' counits (module docstring)."""

    __slots__ = ()

    def image(self, word):
        acc = self.unit
        for letter in word:
            acc = acc * self.letters[letter]
            if not acc:
                break
        return FreeElement._clean({(): acc}, acc.order)


# -- the Hopf presentation -------------------------------------------------------

class HopfPresentation(Record):
    """A quantized family: rewrite rules, coproduct, counit and antipode.
    ``_FIELDS`` are series, rewrite, coproduct, counit and antipode; order,
    values and bialgebra_class are read off the series (``_Series``), and
    ``family`` is the tag of ``bialgebra_class``.

    Deformation parameters are carried as degree-1 ParamPoly values so the
    series grading stays intact: a rational choice q of a parameter is the
    value q*t, t the one grading variable, and a symbolic parameter is its
    own series.  The series' ``values`` are the only graded copy of the
    parameters: setting t to 1 in them gives each rational q back.
    ``is_concrete``, read off ``values`` once, says that every parameter is
    rational; then rendering sets t to 1.

    Delta and gamma are ``WordMap``s, ``coproduct_map`` and the anti-map
    ``antipode_map``, so the image of each word is computed once and kept
    with the presentation whose maps it extends.

    A third memo, ``_texts``, is the printer's table (``LinearSum._text``)
    for everything the presentation renders: ``_render``, so ``to_json`` and
    ``closed_forms``, write through it, and each monomial and each word or
    slot tuple of the output is formatted once.  Like the maps' memos it
    lives and dies with the presentation; ``copy`` and ``pickle`` start all
    three afresh.
    """

    _FIELDS = ("series", "rewrite", "coproduct", "counit", "antipode")
    __slots__ = _FIELDS + ("is_concrete", "coproduct_map", "antipode_map", "_texts")

    def __init__(self, series, rewrite, coproduct, counit, antipode):
        self._store(series, rewrite, coproduct, counit, antipode)
        object.__setattr__(self, "is_concrete", bool(series.values) and all(
            val.at_one().is_constant() for val in series.values.values()))
        one = FreeElement.one(series.order)
        object.__setattr__(self, "coproduct_map", WordMap(
            coproduct, lambda u, v: tensor_mul(u, v, rewrite), outer(one, one)))
        object.__setattr__(self, "antipode_map", WordMap(
            antipode, _normal_product(rewrite), one, anti=True))
        object.__setattr__(self, "_texts", {})

    @property
    def order(self):
        return self.series.order

    @property
    def values(self):
        return self.series.values

    @property
    def bialgebra_class(self):
        return self.series.bialgebra_class

    @property
    def family(self):
        return self.bialgebra_class.tag

    def param_display(self):
        """Parameter values with t set to 1: rationals (concrete) or series."""
        return {name: str(val.at_one()) for name, val in self.values.items()}

    def _display(self, obj):
        """``obj`` with t set to 1 when every parameter is concrete, as the
        output shows it (``ParamPoly.at_one``)."""
        if not self.is_concrete:
            return obj
        if isinstance(obj, ParamPoly):
            return obj.at_one()
        return obj.map_coeffs(lambda c: c.at_one())

    def _render(self, obj):
        """``obj`` as printed: series to parameter degree K or, with every parameter
        concrete, t set to 1 and the terms of at most K letters (all
        slots together), complete as no term has more parameter degree than letters;
        formatted through the presentation's text memo (class docstring)."""
        obj = self._display(obj)
        return (obj.truncate_words(self.order) if self.is_concrete else obj)._text(self._texts)

    def relations(self):
        """Commutators [g, h] encoded by the rewrite rules, as elements."""
        return {f"[{g},{h}]": rhs
                for (g, h), rhs in self.rewrite.commutation_rules().items()}

    def to_json(self):
        doc = {
            "family": self.family,
            "order": self.order,
            "parameters": self.param_display(),
            "relations": {k: self._render(v) for k, v in sorted(self.relations().items())},
            "coproduct": {n: self._render(self.coproduct[n]) for n in GENERATORS},
            "counit": {n: str(self.counit[n]) for n in GENERATORS},
            "antipode": {n: self._render(self.antipode[n]) for n in GENERATORS},
        }
        if self.family == TYPE_I_PLUS:
            doc["central_element"] = self._render(central_element(self))
        return doc

    @classmethod
    def from_json(cls, doc):
        """Rebuild from the serialized family, parameters and order.  A display
        ``[-]<name in PARAMS>``, t aside, is that signed symbol (the transport of
        I+ shows b1 as -a1); any other must be a rational, or ``ValueError``
        names it."""
        family = doc["family"]
        order = int(doc["order"])
        params = {}
        for name, disp in doc.get("parameters", {}).items():
            base = disp.removeprefix("-") if isinstance(disp, str) else None
            params[name] = (ParamPoly.symbol(base, order) * (1 if base == disp else -1)
                            if base in PARAMS[:-1] else parse_rational(name, disp))
        return quantize(family, order=order, params=params)

    def __repr__(self):
        return f"HopfPresentation({self.family}, order={self.order})"


def _resolve_class(family, order, params):
    if isinstance(family, BialgebraClass):
        if params is not None:
            raise ValueError("params apply to a family tag, not to a BialgebraClass")
        return family
    if family not in FAMILIES:
        raise ValueError(f"not a quantizable family: {family!r}")
    if params is None:
        return BialgebraClass.symbolic(family, order)
    unknown = sorted(set(params) - set(FAMILIES[family][0]))
    if unknown:
        raise ValueError(f"{family} has no parameters {', '.join(unknown)}")
    kwargs = {n: ParamPoly.symbol(n, order) if params.get(n) is None else params[n]
              for n in FAMILIES[family][0]}
    return BialgebraClass(family, normalized=Cocommutator(**kwargs))


def quantize(family, order=DEFAULT_ORDER, params=None, verify=True):
    """Quantize a family (tag or BialgebraClass) at the given truncation order.

    ``params`` maps parameter names to rationals or ParamPoly values (None
    entries stay symbolic), as a BialgebraClass may carry them; it is
    refused with a BialgebraClass, which carries its own values.  With
    ``verify`` the four Hopf axioms are machine-checked before returning;
    with ``verify=False`` nothing checks the antipode (``verify_all`` does).
    """
    cls = _resolve_class(family, order, params)
    if cls.tag not in FAMILIES:
        raise ValueError(f"cannot quantize class {cls.tag}")
    series = _Series(cls, order)
    rewrite = family_rewrite(series)
    bad = rewrite.check_confluence()
    if bad:
        raise VerificationError(f"rewrite rules are not confluent on {bad}")
    hp = HopfPresentation(
        series=series, rewrite=rewrite, coproduct=build_coproduct(series),
        counit={name: ParamPoly.zero(order) for name in GENERATORS},
        antipode=build_antipode(series, rewrite))
    if verify:
        failed = [name for name, ok in verify_all(hp).items() if not ok]
        if failed:
            raise VerificationError(f"Hopf axioms failed: {', '.join(failed)}")
    return hp


# -- verification suite ------------------------------------------------------------

def verify_homomorphism(hp) -> dict:
    """Residual Delta(g)Delta(h) - Delta(g*h as rewritten) per defining
    relation; the difference is built only when the two sides differ."""
    return {f"{g}*{h}": r for (g, h), r in hp.coproduct_map.respects(hp.rewrite.rules).items()}


def verify_coassoc(hp) -> dict:
    """(Delta (x) id) Delta(X) - (id (x) Delta) Delta(X) per generator; the
    difference is built only when the two sides differ."""
    delta = hp.coproduct_map
    return delta.then(delta, 0).agrees(delta.then(delta, 1), GENERATORS)


def verify_counit(hp) -> dict:
    """((eps (x) id) Delta(X) - X,  (id (x) eps) Delta(X) - X) per generator."""
    eps = _Counit(hp.counit, unit=ParamPoly.one(hp.order))
    identity = WordMap({g: FreeElement.generator(g, hp.order) for g in GENERATORS})
    left, right = (hp.coproduct_map.then(eps, slot).agrees(identity, GENERATORS)
                   for slot in (0, 1))
    return {name: (left[name], right[name]) for name in GENERATORS}


def verify_antipode(hp) -> dict:
    """(m(gamma (x) id) Delta(X) - eps(X)1, m(id (x) gamma) Delta(X) - eps(X)1)
    per generator; each difference is built only when the two sides differ.
    The words are merged first and normal-ordered once.  Generators suffice:
    gamma is an anti-map and Delta an algebra map, so the elements on which
    both sides agree with eta eps form a subalgebra (Kassel, Quantum Groups,
    GTM 155, ch. III)."""
    sides = [hp.coproduct_map.then(hp.antipode_map, slot).letters for slot in (0, 1)]
    unit = {name: FreeElement._clean({(): eps}, hp.order) for name, eps in hp.counit.items()}
    return {name: tuple(_residual(normal_form(side[name], hp.rewrite), unit[name])
                        for side in sides)
            for name in GENERATORS}


def _report_ok(report):
    """True when every residual, or pair of residuals, of a report is zero."""
    return not any(any(v) if isinstance(v, tuple) else v for v in report.values())


def verify_all(hp) -> dict:
    """PASS/FAIL of the four Hopf axioms plus the first-order consistency.

    Every series is truncated at parameter degree K = ``hp.order``, so a PASS
    says that each axiom holds modulo parameter degree K+1, not that it holds
    in the Hopf algebra itself."""
    return {
        "homomorphism": _report_ok(verify_homomorphism(hp)),
        "coassociativity": _report_ok(verify_coassoc(hp)),
        "counit": _report_ok(verify_counit(hp)),
        "antipode": _report_ok(verify_antipode(hp)),
        "first-order": _report_ok(first_order_residuals(hp)),
    }


def first_order_cocommutator(hp) -> dict:
    """Degree-1 part of Delta - sigma Delta per generator: the flip of the
    degree-1 part, as the projection is linear and commutes with the flip."""
    parts = {name: hp.coproduct[name].homogeneous_part(1) for name in GENERATORS}
    return {name: d - flip(d) for name, d in parts.items()}


def first_order_residuals(hp) -> dict:
    """Difference between the coproduct's first-order asymmetry and the
    cocommutator the family was built from."""
    delta = hp.series.cocommutator
    got = first_order_cocommutator(hp)
    return {name: got[name] - delta.as_tensor(name, hp.order) for name in GENERATORS}


# -- central element and differential realization ----------------------------------

def _central(a1, order) -> FreeElement:
    """C = M exp(-a1 A+ / 2), the central element of I+ at the value ``a1``:
    the sum of (-a1/2)^n/n! M A+^n, from the terms of ``_exp_terms``."""
    return FreeElement({(GEN_M,) + (GEN_AP,) * n: t[0][0]
                        for n, t in enumerate(_exp_terms([[a1 * Fraction(-1, 2)]]))}, order)


def central_element(hp) -> FreeElement:
    """C = M exp(-a1 A+ / 2) for the I+ family; centrality is verified."""
    if hp.family != TYPE_I_PLUS:
        raise ValueError("the central element is defined for the I+ family")
    c = _central(hp.values["a1"], hp.order)
    for name in GENERATORS:
        if commutator(c, FreeElement.generator(name, hp.order), hp.rewrite):
            raise VerificationError(f"central element fails to commute with {name}")
    return c


#: The ring of the polynomials the differential realization acts on, PARAMS
#: followed by x, and the polynomial x itself.
_X = ring(("x",))
_X_POLY = ParamPoly.symbol("x", math.inf, _X)


def _cut(p, order):
    """``p`` without its terms above parameter degree ``order``: the total
    degree (top field) less the exponent of x (last field)."""
    top = _BITS * len(_X)
    num = {k: c for k, c in p._num.items() if (k >> top) - (k & MAX_ORDER) <= order}
    return p if len(num) == len(p._num) else _build(num, p._den, math.inf, _X)


class _Operator(LinearSum):
    """An operator, the sum of c_k (d/dx)^k keyed by k: each c_k is a
    polynomial over _X, cut at parameter degree ``order`` (``_cut``)."""

    __slots__ = ()

    @classmethod
    def _clean(cls, terms, order):
        return super()._clean({k: _cut(c, order) for k, c in terms.items()}, order)


def _realization(a1, order):
    """The realization as a ``WordMap`` into operators cut at parameter
    degree ``order``: A+ = x, A- = s d/dx and M = s, s = lambda e^{a1 x/2}."""
    lam = ParamPoly.symbol("lambda", order)
    s = sum((_X_POLY ** k * (lam * t[0][0])
             for k, t in enumerate(_exp_terms([[a1 * Fraction(1, 2)]]))),
            ParamPoly.zero(math.inf, _X))
    letters = {GEN_AP: {0: _X_POLY}, GEN_AM: {1: s}, GEN_M: {0: s}}
    return WordMap({g: _Operator._clean(op, order) for g, op in letters.items()}, _compose,
                   _Operator._clean({0: ParamPoly.one(math.inf, _X)}, order))


def _compose(left, right):
    """The operator ``left`` after ``right``, by the Leibniz rule
    (a d^i)(b d^j) = sum over m <= i of C(i, m) a b^(m) d^(i-m+j), each
    coefficient cut at ``left``'s parameter degree (``_Operator``)."""
    out = {}
    for j, b in right.terms.items():
        for i, a in left.terms.items():
            deriv = b
            for m in range(i + 1):
                if not deriv._num:
                    break
                term = a * deriv * math.comb(i, m)
                k = i - m + j
                acc = out.get(k)
                out[k] = term if acc is None else acc + term
                deriv = deriv.partial(len(PARAMS))
    return _Operator._clean(out, left.order)


def _realization_residuals(series) -> dict:
    """The four relations of the realization of the I+ family read by
    ``series``, as elements that must act as 0: for each rule of the engine
    (``family_rewrite``) the word g*h less its rewrite, g*h - h*g - [g, h],
    and C - lambda for the central element of ``_central``."""
    order = series.order
    rules = family_rewrite(series).rules
    words = {"[A-,A+] = M": (GEN_AM, GEN_AP), "[A-,M] = (a1/2)*M^2": (GEN_AM, GEN_M),
             "[A+,M] = 0": (GEN_AP, GEN_M)}
    out = {label: FreeElement.from_word(w, order) - rules[w] for label, w in words.items()}
    out["C = lambda"] = _central(series.values["a1"], order) - ParamPoly.symbol("lambda", order)
    return out


def check_realization(cls, max_degree=6, order=4) -> dict:
    """Check the single-variable differential realization of the I+ family.

    Reports, for [A-,A+] - M, [A-,M] - (a1/2) M^2, [A+,M], and C - lambda,
    whether it acts as 0 on every monomial x^n, n <= max_degree.  A negative
    ``max_degree`` would check nothing, so it raises ValueError.

    Each residual is made one operator, the sum of c_k (d/dx)^k: every word
    is composed by the Leibniz rule, and words share the operators of their
    prefixes.  This is the operator that applying the word letter by letter
    gives.  The ring of x and the parameters is not truncated, so ``_cut``
    drops the terms above parameter degree K from each composed coefficient.
    That cut maps the parameter polynomials onto their quotient ring, so it
    respects every sum and product, and it commutes with d/dx, which acts on
    x alone.  x itself is never cut.  So it does not matter whether the cut
    falls after each letter or after each composed word.

    The verdict is read off the orders k of the operator.  It sends x^n to
    the sum of c_k n!/(n-k)! x^(n-k) over k <= n, a triangular system: if
    c_0 .. c_(n-1) vanish, the image of x^n is n! c_n.  So the operator
    kills x^0 .. x^D exactly when c_0 .. c_D all vanish, and a residual
    passes when its operator has no term of order at most ``max_degree``.
    Any ``max_degree`` costs the same.  The composition raises the packed-key
    field-limit ``ValueError`` above K = 128, where the word M A+^K of C
    reaches x^(2K-1).
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if isinstance(cls, str):
        cls = BialgebraClass.symbolic(cls, order)
    if cls.tag != TYPE_I_PLUS:
        raise ValueError("the differential realization is defined for the I+ family")
    series = _Series(cls, order)
    rho = _realization(series.values["a1"], order)
    return {label: all(k > max_degree for k in rho.extend(res).terms)
            for label, res in _realization_residuals(series).items()}


# -- swap transport I+ <-> I- ---------------------------------------------------------

def swap_transport(hp) -> HopfPresentation:
    """Transport a quantized I+ (or I-) presentation along the swap s:
    A+ <-> A-, M -> -M, an involution.  Each map of the new presentation is
    s, then the old map, then s again."""
    if hp.family not in (TYPE_I_PLUS, TYPE_I_MINUS):
        raise ValueError("swap transport applies to the I+ / I- families")
    order = hp.order
    target_tag = TYPE_I_MINUS if hp.family == TYPE_I_PLUS else TYPE_I_PLUS
    # the target class holds the source class's own parameters, negated, in
    # the form quantize gives a class: rationals as rationals
    source = hp.bialgebra_class.family_params()
    renames = zip(FAMILIES[hp.family][0], FAMILIES[target_tag][0])
    cls = BialgebraClass(target_tag, normalized=Cocommutator(
        **{new: -source[old] for old, new in renames}))

    # s on the generators, read off the columns of SWAP_AUTOMORPHISM
    letters = {g: FreeElement({(h,): ParamPoly.const(row[j], order)
                               for h, row in zip(BASIS, SWAP_AUTOMORPHISM)}, order)
               for j, g in enumerate(BASIS)}
    one = FreeElement.one(order)
    # transported commutation rules first: [g, h] = s[s(g), s(h)], whose
    # right-hand sides are series in M, so their images under s into the
    # free algebra (product nc_mul, named per call) are normal words
    free_swap = WordMap(letters, lambda x, y: nc_mul(x, y), one)
    rules = {(g, h): FreeElement.from_word((h, g), order)
             + free_swap.extend(commutator(letters[g], letters[h], hp.rewrite))
             for g, h in REDEXES}
    rewrite = RewriteSystem(f"swap({hp.rewrite.name})", rules, order)
    # then s into the new presentation, normal-ordered there
    swap = WordMap(letters, _normal_product(rewrite), one)
    coproduct = {g: swap.extend(hp.coproduct_map.extend(x)) for g, x in letters.items()}
    antipode = {g: swap.extend(hp.antipode_map.extend(x)) for g, x in letters.items()}

    return HopfPresentation(
        series=_Series(cls, order), rewrite=rewrite, coproduct=coproduct,
        counit={n: ParamPoly.zero(order) for n in GENERATORS}, antipode=antipode)


# -- closed-form display ----------------------------------------------------------------

def _signed_sum(items, texts):
    """(ParamPoly scalar, body) pairs as one sum, each scalar spread over its
    monomials the way the engine renders a coefficient, through the printer's
    table ``texts`` (``LinearSum._text``)."""
    return signed_sum(row for s, body in items for row in s._rows(texts, body))


def _times(*factors):
    return "*".join(f for f in factors if f)


def closed_forms(hp) -> dict:
    """Closed forms of the structure maps, rendered from the family's Theta.

    A family is its primitive generator p plus Theta read off delta.  With
    theta = p * Theta, E = exp(-theta) and F = exp(theta): Delta(p) is
    primitive, gamma(p) = -p, Delta(v_i) = 1 (x) v_i + sum_j v_j (x) E_ij and
    gamma(v_i) = -sum_j v_j F_ij.  When Theta is upper triangular with one
    diagonal value l (I+, I-, TRIVIAL), E = exp(-l p) (1 - Theta_01 p e_01)
    is written out; otherwise E is shown as exp([[...]]).  The brackets are
    the rules of ``family_rewrite``; its one series, for the central
    primitive M, is shown as (exp(s*M) - 1)/s with s = -tr Theta.  Scalars
    are the engine's own text after the substitution of ``_render``.
    """
    prim, (v0, v1) = hp.series.prim, hp.series.vector
    theta = [[hp._display(t) for t in row] for row in hp.series.theta]
    (t00, t01), (t10, t11) = theta
    p = FreeElement.generator(prim, hp.order)
    one = ParamPoly.one(hp.order)

    def exp_of(scale):
        """exp(scale * p) as a factor, empty for exp(0) = 1."""
        return f"exp({hp._render(p * scale)})" if scale else ""

    coproduct = [f"Delta({prim}) = 1 (x) {prim} + {prim} (x) 1"]
    antipode = [f"gamma({prim}) = -{prim}"]
    if not t10 and t00 == t11:
        e, f = exp_of(-t00), exp_of(t00)
        # E_01 = -Theta_01 p exp(-l p) and F_01 = Theta_01 p exp(l p); only
        # v0 has an off-diagonal term, so the lines of v1 come first
        for v, off in ((v1, []), (v0, [(-t01, v1)])):
            coproduct.append(f"Delta({v}) = " + _signed_sum(
                [(one, f"1 (x) {v}"), (one, f"{v} (x) {e or 1}")]
                + [(c, f"{w} (x) {_times(prim, e)}") for c, w in off], hp._texts))
            antipode.append(f"gamma({v}) = " + _signed_sum(
                [(-one, _times(v, f))] + [(c, _times(w, prim, f)) for c, w in off],
                hp._texts))
    else:
        for i, v in enumerate((v0, v1), 1):
            coproduct.append(f"Delta({v}) = 1 (x) {v} + {v0} (x) E{i}1({prim})"
                             f" + {v1} (x) E{i}2({prim})")
            antipode.append(f"gamma({v}) = -(F{i}1({prim})*{v0}"
                            f" + F{i}2({prim})*{v1})")
        rows = ", ".join("[" + ", ".join(hp._render(p * -t) for t in row) + "]"
                         for row in theta)
        coproduct.append(f"with E = exp([{rows}])")
        antipode.append(f"with F = E(-{prim})")

    brackets = {pair: hp._render(rhs)
                for pair, rhs in hp.rewrite.commutation_rules().items()}
    s = -(t00 + t11)
    if prim == GEN_M and s:
        brackets[(GEN_AM, GEN_AP)] = f"(exp(s*M) - 1)/s with s = {s}"
    relations = [f"[{g},{h}] = {brackets[(g, h)]}" for g, h in reversed(REDEXES)]
    forms = {"coproduct": coproduct, "relations": relations, "antipode": antipode}
    if hp.family == TYPE_I_PLUS:
        # C = M exp(Theta_00 A+ / 2), Theta_00 = -a1
        half = exp_of(t00 * Fraction(1, 2))
        forms["central_element"] = [f"C = {_times(GEN_M, half)}"]
    return forms
