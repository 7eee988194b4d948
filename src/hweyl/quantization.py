"""Quantization of the classified bialgebra families into Hopf algebras.

A family is its primitive generator p plus the 2x2 matrix Theta read off its
cocommutator: delta(v_i) = sum_j theta_ij ^ v_j on the non-primitive vector
v, with theta = p * Theta.  From Theta alone this module builds the deformed
commutation rules, the coproduct (exp(-theta)), the antipode (exp(theta)) and
the closed forms, attaches the counit, and machine-verifies every Hopf axiom
by exact truncated series; the zero cocommutator (TRIVIAL) is Theta = 0.  The
differential realization of the I+ family acts on polynomials in x and the
parameters, ParamPoly over ``ring(("x",))`` with ``order=math.inf``.  Each
exponential (exp(-theta), the [A-,A+] series and the realization's
e^{a1 x/2}) is the scalar powers C^n/n! of
``freealg._exp_terms`` placed on one letter: p, M or x.  ``quantize`` reads
Theta once and sums one series E = exp(-theta) for the coproduct, and the
antipode's F = exp(theta) = E^-1 is read off E's terms (``_Series``).  That
is exact, not an approximation: every entry of theta is a multiple C p of
the one letter p, so (-C)^n/n! = (-1)^n C^n/n! and the coefficient of p^n
in F is (-1)^n times its coefficient in E.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .params import (_BITS, DEFAULT_ORDER, MAX_ORDER, PARAMS, ParamPoly, Record, _build,
                     parse_rational, ring, signed_sum)
from .freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, REDEXES, FreeElement,
                      RewriteSystem, _exp_terms, _linear_extension, _word_image,
                      commutator, exp_element, exp_matrix2, nc_mul, normal_form)
from .tensor import TensorElement, _slot_product, flip, outer, tensor_mul
from .bialgebra import (_IDX, BASIS, BRACKET, FAMILIES, SWAP_AUTOMORPHISM, TYPE_I_MINUS,
                        TYPE_I_PLUS, BialgebraClass, Cocommutator)


class VerificationError(RuntimeError):
    """A Hopf axiom, the confluence of the rewrite rules or the centrality of
    the central element failed to verify."""


def _family_values(cls, order):
    """Deformation parameter values as degree-1 ParamPoly, keyed by name.

    A rational parameter q becomes q*t, so every rational value shares the
    one grading variable t and the series stays graded; symbolic parameters
    are used as given.  These values are a presentation's only copy of its
    parameters (``HopfPresentation``).
    """
    values = {}
    for name, val in cls.family_params().items():
        if isinstance(val, ParamPoly):
            if val.order != order:
                val = val.truncate(order)
            values[name] = val
        else:
            values[name] = ParamPoly.symbol("t", order) * val
    return values


def _theta(cls, order):
    """(p, v, Theta, values): Theta[i][j] is the coefficient of p ^ v_j in
    delta(v_i), read off the family's graded parameter ``values``.

    The normalized cocommutator must vanish on p and send each v_i into v ^ p.
    """
    if cls.tag not in FAMILIES:
        raise ValueError(f"{cls.tag} has no matrix form")
    _, prim, vector = FAMILIES[cls.tag]
    p = _IDX[prim]
    if cls.normalized.wedge_row(p):
        raise ValueError(f"{cls.tag}: delta({prim}) must vanish")
    for v in vector:
        if any(p not in pair for pair in cls.normalized.wedge_row(_IDX[v])):
            raise ValueError(f"{cls.tag}: delta({v}) contains a wedge without {prim}")
    values = _family_values(cls, order)
    graded = Cocommutator(**values)
    rows = [graded.full_row(_IDX[v]) for v in vector]
    zero = ParamPoly.zero(order)
    return (prim, vector, [[row.get((p, _IDX[v]), zero) for v in vector] for row in rows],
            values)


class _Series:
    """Theta, theta = p * Theta, E = exp(-theta) and F = exp(theta) of one
    family at one order, each computed at most once and only when asked for.
    Theta is read once, E is the one exponential series, and F is read off E
    (module docstring).  ``quantize`` builds one, hands it to
    ``family_rewrite``, ``build_coproduct`` and ``build_antipode``, and keeps
    its graded parameter values; called alone, each of those builds its own."""

    def __init__(self, cls, order):
        self.order = order
        self.prim, self.vector, self.theta, self.values = _theta(cls, order)

    @functools.cached_property
    def matrix(self):
        gen = FreeElement.generator(self.prim, self.order)
        return [[gen * t for t in row] for row in self.theta]

    @functools.cached_property
    def exp_neg(self):
        return exp_matrix2([[-e for e in row] for row in self.matrix])

    @functools.cached_property
    def exp_pos(self):
        """F: the sign of each odd power of p in E flips."""
        return [[FreeElement._clean({w: -c if len(w) % 2 else c for w, c in e.terms.items()},
                                    e.order) for e in row] for row in self.exp_neg]


def build_coproduct(cls, order=DEFAULT_ORDER, *, _series=None):
    """Deformed coproduct: primitive on the primitive generator, and
    1 (x) v + sigma(exp(-theta) (x) v) on the non-primitive vector."""
    series = _series or _Series(cls, order)
    prim, vector, exp_neg = series.prim, series.vector, series.exp_neg
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


def build_antipode(cls, rewrite, *, _series=None):
    """Antipode of the deformed coproduct: -prim on the primitive generator,
    and gamma(v_j) = -sum_k v_k exp(theta)[j][k] on the non-primitive vector.

    With E = exp(-theta), the left axiom is m(gamma (x) id) Delta(v_i) =
    v_i + sum_j gamma(v_j) E_ij = 0.  The entries of E commute, so E^-1 =
    exp(theta) solves it; an antipode is unique, so this is the antipode.
    F = exp(theta) is not summed on its own but read off the coproduct's
    series E: every entry of theta is a multiple of the one letter p, so
    (-C)^n/n! = (-1)^n C^n/n! term by term, exactly.
    """
    order = rewrite.order
    series = _series or _Series(cls, order)
    prim, vector, exp_pos = series.prim, series.vector, series.exp_pos
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


def family_rewrite(cls, order=DEFAULT_ORDER, *, _series=None):
    """The family's deformed commutation rules as a rewrite system.

    One undeformed rule changes, and Theta gives the change.  For the central
    primitive M, [A-,A+] = (exp(s M) - 1)/s with s = -tr Theta.  For a ladder
    primitive p with [v_0, p] = eps M, [v_0, M] = -(eps Theta_00 / 2) M^2.
    """
    series = _series or _Series(cls, order)
    prim, vector, theta = series.prim, series.vector, series.theta
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
    return RewriteSystem(cls.tag.lower(), rules, order)


# -- coproduct / counit / antipode extension to arbitrary elements -------------

def coproduct_of_element(hp, x: FreeElement) -> TensorElement:
    """Algebra-map extension of the presentation's coproduct to a free-algebra
    element."""
    return TensorElement._clean(_linear_extension(hp._delta, x.terms.items()), x.order, 2)


def counit_of_word(counit, word, order):
    acc = ParamPoly.one(order)
    for letter in word:
        acc = acc * counit[letter]
        if not acc:
            break
    return acc


def _antipode_residual(hp, name, side="left"):
    """m(gamma (x) id) Delta(X)  or  m(id (x) gamma) Delta(X); the counit term
    vanishes on generators.  The words are merged first and normal-ordered
    once."""
    left = side == "left"
    terms = {}
    get = terms.get
    for (u, w), coeff in hp.coproduct[name].terms.items():
        for g, c in hp._gamma(u if left else w).terms.items():
            word = g + w if left else u + g
            prod = c * coeff
            if not prod._num:
                continue
            acc = get(word)
            terms[word] = prod if acc is None else acc + prod
    return normal_form(FreeElement._clean(terms, hp.order), hp.rewrite)


# -- the Hopf presentation -------------------------------------------------------

class HopfPresentation(Record):
    """A quantized family: rewrite rules, coproduct, counit and antipode.
    ``_FIELDS`` are order, values, rewrite, coproduct, counit, antipode and
    bialgebra_class; ``family`` is the tag of ``bialgebra_class``.

    Deformation parameters are carried as degree-1 ParamPoly values so the
    series grading stays intact: a rational choice q of a parameter is the
    value q*t, t the one grading variable (``_family_values``), and a
    symbolic parameter is its own series.  ``values`` is the only copy of the
    parameters: setting t to 1 in it gives each rational q back.
    ``is_concrete``, read off ``values`` once, says that every parameter is
    rational; then rendering sets t to 1.

    Delta and gamma of each word are computed once by ``_word_image`` and
    kept with the presentation whose maps they extend, in memos seeded with
    the unit.  gamma is an anti-map, so its memo is keyed by the reversed
    word: gamma(w) is the image of w reversed under the algebra map with the
    letters' antipodes as images.

    A third memo, ``_texts``, is the printer's table (``LinearSum._text``)
    for everything the presentation renders: ``_render``, so ``to_json`` and
    ``closed_forms``, write through it, and each monomial and each word or
    slot tuple of the output is formatted once.  Like the other two it lives
    and dies with the presentation; ``copy`` and ``pickle`` start all three
    afresh.
    """

    _FIELDS = ("order", "values", "rewrite", "coproduct", "counit", "antipode",
               "bialgebra_class")
    __slots__ = _FIELDS + ("is_concrete", "_deltas", "_gammas", "_texts")

    def __init__(self, order, values, rewrite, coproduct, counit, antipode,
                 bialgebra_class):
        self._store(order, values, rewrite, coproduct, counit, antipode, bialgebra_class)
        object.__setattr__(self, "is_concrete", bool(values) and all(
            val.at_one(("t",)).is_constant() for val in values.values()))
        one = FreeElement.one(order)
        object.__setattr__(self, "_deltas", {(): outer(one, one)})
        object.__setattr__(self, "_gammas", {(): one})
        object.__setattr__(self, "_texts", {})

    @property
    def family(self):
        return self.bialgebra_class.tag

    def _delta(self, word) -> TensorElement:
        """Delta(word) = Delta(word[:-1]) * Delta(word[-1]), prefix by prefix."""
        return _word_image(word, self.coproduct, self._tensor_product, self._deltas)

    def _gamma(self, word) -> FreeElement:
        """gamma(word): the letters' antipodes multiplied in reverse order,
        normal-ordered after each product."""
        return _word_image(word[::-1], self.antipode, self._normal_product, self._gammas)

    def _tensor_product(self, u, v):
        return tensor_mul(u, v, self.rewrite)

    def _normal_product(self, x, y):
        return normal_form(nc_mul(x, y), self.rewrite)

    def param_display(self):
        """Parameter values with t set to 1: rationals (concrete) or series."""
        return {name: str(val.at_one(("t",))) for name, val in self.values.items()}

    def _display(self, obj):
        """``obj`` with t set to 1 when every parameter is concrete, as the
        output shows it (``ParamPoly.at_one``)."""
        if not self.is_concrete:
            return obj
        if isinstance(obj, ParamPoly):
            return obj.at_one(("t",))
        return obj.map_coeffs(lambda c: c.at_one(("t",)))

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
    rewrite = family_rewrite(cls, order, _series=series)
    bad = rewrite.check_confluence()
    if bad:
        raise VerificationError(f"rewrite rules are not confluent on {bad}")
    coproduct = build_coproduct(cls, order, _series=series)
    antipode = build_antipode(cls, rewrite, _series=series)
    counit = {name: ParamPoly.zero(order) for name in GENERATORS}
    hp = HopfPresentation(
        order=order, values=series.values,
        rewrite=rewrite, coproduct=coproduct, counit=counit,
        antipode=antipode, bialgebra_class=cls)
    if verify:
        failed = [name for name, ok in verify_all(hp).items() if not ok]
        if failed:
            raise VerificationError(f"Hopf axioms failed: {', '.join(failed)}")
    return hp


# -- verification suite ------------------------------------------------------------

def _residual(lhs, rhs):
    """lhs - rhs, built only when the sides differ: with canonical coefficients
    and no zero terms, ``lhs == rhs`` exactly when the difference is zero."""
    return lhs._like({}, lhs.order) if lhs == rhs else lhs - rhs


def verify_homomorphism(hp) -> dict:
    """Residual Delta(g)Delta(h) - Delta(g*h as rewritten) per defining
    relation; the difference is built only when the two sides differ."""
    out = {}
    for (g, h), rhs in hp.rewrite.rules.items():
        lhs = tensor_mul(hp.coproduct[g], hp.coproduct[h], hp.rewrite)
        out[f"{g}*{h}"] = _residual(lhs, coproduct_of_element(hp, rhs))
    return out


def _extend_slot(hp, t: TensorElement, slot: int) -> TensorElement:
    order = t.order
    terms = {}
    for (u, w), coeff in t.terms.items():
        inner = hp._delta(u if slot == 0 else w)
        for (p, q), c in inner.terms.items():
            key = (p, q, w) if slot == 0 else (u, p, q)
            prod = coeff * c
            if not prod._num:
                continue
            acc = terms.get(key)
            terms[key] = prod if acc is None else acc + prod
    return TensorElement._clean(terms, order, 3)


def verify_coassoc(hp) -> dict:
    """(Delta (x) id) Delta(X) - (id (x) Delta) Delta(X) per generator; the
    difference is built only when the two sides differ."""
    out = {}
    for name in GENERATORS:
        d = hp.coproduct[name]
        out[name] = _residual(_extend_slot(hp, d, 0), _extend_slot(hp, d, 1))
    return out


def verify_counit(hp) -> dict:
    """((eps (x) id) Delta(X) - X,  (id (x) eps) Delta(X) - X) per generator."""
    order = hp.order
    out = {}
    for name in GENERATORS:
        left = FreeElement.zero(order)
        right = FreeElement.zero(order)
        for (u, w), coeff in hp.coproduct[name].terms.items():
            s = counit_of_word(hp.counit, u, order)
            if s:
                left = left + FreeElement.from_word(w, order, coeff=coeff * s)
            s = counit_of_word(hp.counit, w, order)
            if s:
                right = right + FreeElement.from_word(u, order, coeff=coeff * s)
        x = FreeElement.generator(name, order)
        out[name] = (left - x, right - x)
    return out


def verify_antipode(hp) -> dict:
    """(m(gamma (x) id) Delta(X), m(id (x) gamma) Delta(X)) per generator;
    both must equal eps(X) = 0."""
    out = {}
    for name in GENERATORS:
        out[name] = (
            _antipode_residual(hp, name, "left"), _antipode_residual(hp, name, "right"))
    return out


def _report_ok(report):
    """True when every residual, or pair of residuals, of a report is zero."""
    return not any(any(v) if isinstance(v, tuple) else v for v in report.values())


def verify_all(hp) -> dict:
    """PASS/FAIL of the four Hopf axioms plus the first-order consistency."""
    return {
        "homomorphism": _report_ok(verify_homomorphism(hp)),
        "coassociativity": _report_ok(verify_coassoc(hp)),
        "counit": _report_ok(verify_counit(hp)),
        "antipode": _report_ok(verify_antipode(hp)),
        "first-order": _report_ok(first_order_residuals(hp)),
    }


def first_order_cocommutator(hp) -> dict:
    """Degree-1 part of Delta - sigma Delta per generator."""
    return {name: (hp.coproduct[name] - flip(hp.coproduct[name])).homogeneous_part(1)
            for name in GENERATORS}


def first_order_residuals(hp) -> dict:
    """Difference between the coproduct's first-order asymmetry and the
    cocommutator the family was built from."""
    delta = Cocommutator(**hp.values)
    got = first_order_cocommutator(hp)
    return {name: got[name] - delta.as_tensor(name, hp.order) for name in GENERATORS}


# -- central element and differential realization ----------------------------------

def _central(a1, order) -> FreeElement:
    """C = M exp(-a1 A+ / 2), the central element of I+ at the value ``a1``."""
    return nc_mul(FreeElement.generator(GEN_M, order),
                  exp_element(FreeElement.generator(GEN_AP, order) * (a1 * Fraction(-1, 2))))


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


def _realization_letters(a1, order):
    """The letters A+ = x, A- = s d/dx and M = s, s = lambda e^{a1 x/2}, as
    operators {k: c_k}, meaning the sum of c_k (d/dx)^k: each c_k is a
    polynomial over _X, and s is cut at parameter degree ``order``."""
    lam = ParamPoly.symbol("lambda", order)
    s = sum((_X_POLY ** k * (lam * t[0][0])
             for k, t in enumerate(_exp_terms([[a1 * Fraction(1, 2)]]))),
            ParamPoly.zero(math.inf, _X))
    return {GEN_AP: {0: _X_POLY}, GEN_AM: {1: s}, GEN_M: {0: s}}


def _compose(left, right, order):
    """The operator ``left`` after ``right``, by the Leibniz rule
    (a d^i)(b d^j) = sum over m <= i of C(i, m) a b^(m) d^(i-m+j), each
    coefficient cut at parameter degree ``order``."""
    out = {}
    for j, b in right.items():
        for i, a in left.items():
            deriv = b
            for m in range(i + 1):
                if not deriv._num:
                    break
                term = a * deriv * math.comb(i, m)
                k = i - m + j
                acc = out.get(k)
                out[k] = term if acc is None else acc + term
                deriv = deriv.partial(len(PARAMS))
    return {k: _cut(c, order) for k, c in out.items()}


def _element_operator(letters, elem: FreeElement, memo):
    """The operator of ``elem``: the sum of its words' operators, each times
    the word's coefficient, cut at parameter degree K, the element's order.
    A word's operator is its prefix's, from the prefix ``memo`` (seeded here
    with the identity), composed with its last letter (``_word_image``)."""
    memo.setdefault((), {0: ParamPoly.one(math.inf, _X)})
    compose = functools.partial(_compose, order=elem.order)
    out = {}
    for word, coeff in elem.terms.items():
        for k, c in _word_image(word, letters, compose, memo).items():
            term = c * coeff
            acc = out.get(k)
            out[k] = term if acc is None else acc + term
    return {k: _cut(c, elem.order) for k, c in out.items()}


def _apply_operator(op, powers, n):
    """The operator ``op`` applied to x^n = ``powers[n]``: the sum of
    c_k n!/(n-k)! x^(n-k) over k <= n."""
    out = ParamPoly.zero(math.inf, _X)
    for k, c in op.items():
        if k <= n and c._num:
            out = out + c * (powers[n - k] * math.perm(n, k))
    return out


def _realization_residuals(cls, order, *, _series=None) -> dict:
    """The four relations of the realization of the I+ class ``cls``, as
    elements that must act as 0: for each rule of the engine
    (``family_rewrite``) the word g*h less its rewrite, g*h - h*g - [g, h],
    and C - lambda for the central element of ``_central``."""
    series = _series or _Series(cls, order)
    rules = family_rewrite(cls, order, _series=series).rules
    words = {"[A-,A+] = M": (GEN_AM, GEN_AP), "[A-,M] = (a1/2)*M^2": (GEN_AM, GEN_M),
             "[A+,M] = 0": (GEN_AP, GEN_M)}
    out = {label: FreeElement.from_word(w, order) - rules[w] for label, w in words.items()}
    out["C = lambda"] = _central(series.values["a1"], order) - ParamPoly.symbol("lambda", order)
    return out


def realization_degree_limit(order):
    """The largest ``max_degree`` of ``check_realization`` at ``order``."""
    return MAX_ORDER + 1 - 2 * order


def check_realization(cls, max_degree=6, order=4) -> dict:
    """Check the single-variable differential realization of the I+ family.

    Applies [A-,A+] - M, [A-,M] - (a1/2) M^2, [A+,M], and C - lambda to every
    monomial x^n, n <= max_degree; reports True where all residuals vanish.
    A negative ``max_degree`` would check nothing, so it raises ValueError.

    Each residual is first made one operator, the sum of c_k (d/dx)^k:
    every word is composed by the Leibniz rule, and words share the
    operators of their prefixes.  The operator is then applied to each x^n.
    This gives the same polynomials as applying the words letter by letter.
    The ring of x and the parameters is not truncated, so ``_cut`` drops
    the terms above parameter degree K from each composed coefficient.
    That cut maps the parameter polynomials onto their quotient ring, so it
    respects every sum and product, and it commutes with d/dx, which acts on
    x alone.  x itself is never cut.  So it does not matter whether the cut
    falls after each letter or after each composed word.

    The products of the letter-by-letter application raise x^n by up to
    2K - 1 (the word M A+^K of C), so ``max_degree`` above
    ``realization_degree_limit(K)`` raises the packed-key field-limit
    ``ValueError``.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if isinstance(cls, str):
        cls = BialgebraClass.symbolic(cls, order)
    if cls.tag != TYPE_I_PLUS:
        raise ValueError("the differential realization is defined for the I+ family")
    if max_degree > realization_degree_limit(order):
        raise ValueError(f"exponent above {MAX_ORDER}, the packed-key field limit")
    series = _Series(cls, order)
    letters = _realization_letters(series.values["a1"], order)
    memo = {}
    powers = [ParamPoly.one(math.inf, _X)]
    for _ in range(max_degree):
        powers.append(powers[-1] * _X_POLY)
    report = {}
    for label, res in _realization_residuals(cls, order, _series=series).items():
        op = _element_operator(letters, res, memo)
        report[label] = not any(_apply_operator(op, powers, n)
                                for n in range(max_degree + 1))
    return report


# -- swap transport I+ <-> I- ---------------------------------------------------------

def _swap_letters(order):
    """The swap image of each generator, read off the columns of
    ``SWAP_AUTOMORPHISM``."""
    return {g: FreeElement({(h,): ParamPoly.const(row[j], order)
                            for h, row in zip(BASIS, SWAP_AUTOMORPHISM)}, order)
            for j, g in enumerate(BASIS)}


def _swap(x, rewrite=None):
    """The swap image of an element or a tensor, each word's image
    normal-ordered under ``rewrite`` when one is given."""
    order = x.order
    letters = _swap_letters(order)
    memo = {(): FreeElement.one(order)}

    def image(word):
        img = _word_image(word, letters, nc_mul, memo)
        return img if rewrite is None else normal_form(img, rewrite)

    if isinstance(x, FreeElement):
        return FreeElement._clean(_linear_extension(image, x.terms.items()), order)
    terms = {}
    for slots, coeff in x.terms.items():
        _slot_product([image(w) for w in slots], coeff, terms)
    return TensorElement._clean(terms, order, x.rank)


def swap_transport(hp) -> HopfPresentation:
    """Transport a quantized I+ (or I-) presentation along the swap s:
    A+ <-> A-, M -> -M, an involution.  Each map of the new presentation is
    s, then the old map, then s again."""
    if hp.family not in (TYPE_I_PLUS, TYPE_I_MINUS):
        raise ValueError("swap transport applies to the I+ / I- families")
    order = hp.order
    target_tag = TYPE_I_MINUS if hp.family == TYPE_I_PLUS else TYPE_I_PLUS
    renames = zip(FAMILIES[hp.family][0], FAMILIES[target_tag][0])
    new_values = {new: -hp.values[old] for old, new in renames}

    # transported commutation rules first: [g, h] = s[s(g), s(h)], whose
    # right-hand sides are series in M, so their swap images are normal words
    letters = _swap_letters(order)
    rules = {(g, h): FreeElement.from_word((h, g), order)
             + _swap(commutator(letters[g], letters[h], hp.rewrite))
             for g, h in REDEXES}
    rewrite = RewriteSystem(f"swap({hp.rewrite.name})", rules, order)

    coproduct, antipode = {}, {}
    for name, image in letters.items():
        coproduct[name] = _swap(coproduct_of_element(hp, image), rewrite)
        antipode[name] = _swap(FreeElement._clean(
            _linear_extension(hp._gamma, image.terms.items()), order), rewrite)

    cls = BialgebraClass(target_tag, normalized=Cocommutator(**new_values))
    return HopfPresentation(
        order=order, values=new_values, rewrite=rewrite,
        coproduct=coproduct, counit={n: ParamPoly.zero(order) for n in GENERATORS},
        antipode=antipode, bialgebra_class=cls)


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
    prim, (v0, v1), theta, _ = _theta(hp.bialgebra_class, hp.order)
    theta = [[hp._display(t) for t in row] for row in theta]
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
