"""Quantization of the classified bialgebra families into Hopf algebras.

Builds the matrix form theta of each family's cocommutator, exponentiates it
into the deformed coproduct (exp(-theta)) and the antipode (exp(theta)),
attaches the compatible commutation rules and counit, and machine-verifies
every Hopf axiom by exact truncated series.  The differential realization of
the I+ family acts on polynomials in x, held as ParamPoly over ("x",) with
``order=math.inf`` and parameter-polynomial coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .params import DEFAULT_ORDER, ParamPoly, as_fraction, parse_rational
from .freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, REDEXES, FreeElement,
                      RewriteSystem, commutator, exp_element, exp_matrix2,
                      nc_mul, normal_form)
from .tensor import TensorElement, _slot_product, flip, outer, tensor_mul
from .bialgebra import (_IDX, TRIVIAL, TYPE_I_MINUS, TYPE_I_PLUS, TYPE_II,
                        BialgebraClass, Cocommutator)


class VerificationError(RuntimeError):
    """A Hopf axiom, the confluence of the rewrite rules or the centrality of
    the central element failed to verify."""


#: Primitive generator and non-primitive vector of each quantizable family.
_FAMILY_SHAPE = {
    TYPE_I_PLUS: (GEN_AP, (GEN_AM, GEN_M)),
    TYPE_I_MINUS: (GEN_AM, (GEN_AP, GEN_M)),
    TYPE_II: (GEN_M, (GEN_AM, GEN_AP)),
}


def primitive_generator(tag):
    return _FAMILY_SHAPE[tag][0]


def _family_values(cls, order):
    """Deformation parameter values as degree-1 ParamPoly, keyed by name.

    Rational parameters q become q * <symbol>, keeping the series grading;
    symbolic parameters are used as given.
    """
    values = {}
    for name, val in cls.family_params().items():
        if isinstance(val, ParamPoly):
            if val.order != order:
                val = val.truncate(order)
            values[name] = val
        else:
            values[name] = ParamPoly.symbol(name, order) * val
    return values


def _check_quantizable(cls):
    """The family must have a primitive generator and delta(X) in X ^ primitive."""
    prim, vector = _FAMILY_SHAPE[cls.tag]
    p = _IDX[prim]
    delta = cls.normalized
    if delta.wedge_row(p):
        raise ValueError(f"{cls.tag}: delta({prim}) must vanish")
    for v in vector:
        for (i, j) in delta.wedge_row(_IDX[v]):
            if p not in (i, j):
                raise ValueError(
                    f"{cls.tag}: delta({v}) contains a wedge without {prim}")


def matrix_delta(cls, order=DEFAULT_ORDER):
    """Matrix form of the cocommutator on the non-primitive generator vector.

    Returns (theta, vector) with delta(v_i) = sum_j theta[i][j] ^ v_j and
    every entry linear in the primitive generator.
    """
    if cls.tag not in _FAMILY_SHAPE:
        raise ValueError(f"{cls.tag} has no matrix form")
    _check_quantizable(cls)
    v = _family_values(cls, order)
    prim, vector = _FAMILY_SHAPE[cls.tag]
    gen = FreeElement.generator(prim, order)
    zero = FreeElement.zero(order)
    if cls.tag == TYPE_I_PLUS:
        theta = [[gen * -v["a1"], gen * v["a3"]],
                 [zero, gen * -v["a1"]]]
    elif cls.tag == TYPE_I_MINUS:
        theta = [[gen * v["b1"], gen * v["b2"]],
                 [zero, gen * v["b1"]]]
    else:
        theta = [[gen * -v["a2"], gen * -v["a3"]],
                 [gen * -v["b2"], gen * -v["b3"]]]
    return theta, vector


def build_coproduct(cls, order=DEFAULT_ORDER):
    """Deformed coproduct: primitive on the primitive generator, and
    1 (x) v + sigma(exp(-theta) (x) v) on the non-primitive vector."""
    one = FreeElement.one(order)
    cop = {}
    if cls.tag == TRIVIAL:
        for name in GENERATORS:
            x = FreeElement.generator(name, order)
            cop[name] = outer(one, x) + outer(x, one)
        return cop
    theta, vector = matrix_delta(cls, order)
    prim = primitive_generator(cls.tag)
    x = FreeElement.generator(prim, order)
    cop[prim] = outer(one, x) + outer(x, one)
    exp_neg = exp_matrix2([[-e for e in row] for row in theta])
    for i, vi in enumerate(vector):
        acc = outer(one, FreeElement.generator(vi, order))
        for j, vj in enumerate(vector):
            if exp_neg[i][j]:
                acc = acc + outer(FreeElement.generator(vj, order), exp_neg[i][j])
        cop[vi] = acc
    return cop


def build_antipode(cls, rewrite):
    """Antipode of the deformed coproduct: -prim on the primitive generator,
    and gamma(v_j) = -sum_k v_k exp(theta)[j][k] on the non-primitive vector.

    With E = exp(-theta), the left axiom is m(gamma (x) id) Delta(v_i) =
    v_i + sum_j gamma(v_j) E_ij = 0.  The entries of E commute, so E^-1 =
    exp(theta) solves it; an antipode is unique, so this is the antipode.
    """
    order = rewrite.order
    if cls.tag == TRIVIAL:
        return {name: -FreeElement.generator(name, order) for name in GENERATORS}
    theta, vector = matrix_delta(cls, order)
    prim = primitive_generator(cls.tag)
    gamma = {prim: -FreeElement.generator(prim, order)}
    exp_pos = exp_matrix2(theta)
    for j, vj in enumerate(vector):
        acc = FreeElement.zero(order)
        for k, vk in enumerate(vector):
            acc = acc + nc_mul(FreeElement.generator(vk, order), exp_pos[j][k])
        gamma[vj] = -normal_form(acc, rewrite)
    return gamma


def exprel_series(scale, order):
    """(exp(scale*M) - 1)/scale as the everywhere-defined series
    sum_{n>=1} scale^(n-1) M^n / n!."""
    if scale and (scale.min_degree() or 0) < 1:
        raise ValueError("series scale must carry parameter degree >= 1")
    out = FreeElement.zero(order)
    power = ParamPoly.one(order)
    fact = 1
    n = 0
    while True:
        n += 1
        fact *= n
        term = power * Fraction(1, fact)
        if not term:
            break
        out = out + FreeElement.from_word((GEN_M,) * n, order, coeff=term)
        power = power * scale
        if not power:
            break
    return out


def family_rewrite(cls, order=DEFAULT_ORDER):
    """The family's deformed commutation rules as a rewrite system."""
    if cls.tag == TRIVIAL:
        return RewriteSystem.undeformed(order)
    if cls.tag not in _FAMILY_SHAPE:
        raise ValueError(f"{cls.tag} has no commutation rules")
    v = _family_values(cls, order)
    one = ParamPoly.one(order)
    m_am = FreeElement({(GEN_M, GEN_AM): one}, order)
    m_ap = FreeElement({(GEN_M, GEN_AP): one}, order)
    ap_am = FreeElement({(GEN_AP, GEN_AM): one}, order)
    mm = FreeElement.from_word((GEN_M, GEN_M), order)
    if cls.tag == TYPE_I_PLUS:
        # [A-,A+] = M, [A-,M] = (a1/2) M^2, [A+,M] = 0
        rules = {
            (GEN_AM, GEN_AP): ap_am + FreeElement.generator(GEN_M, order),
            (GEN_AM, GEN_M): m_am + mm * (v["a1"] * Fraction(1, 2)),
            (GEN_AP, GEN_M): m_ap,
        }
        name = "type_i_plus"
    elif cls.tag == TYPE_I_MINUS:
        # swap image of the I+ rules: [A+,M] = (b1/2) M^2, [A-,M] = 0
        rules = {
            (GEN_AM, GEN_AP): ap_am + FreeElement.generator(GEN_M, order),
            (GEN_AP, GEN_M): m_ap + mm * (v["b1"] * Fraction(1, 2)),
            (GEN_AM, GEN_M): m_am,
        }
        name = "type_i_minus"
    else:
        # [A-,A+] = (exp((a2+b3)M) - 1)/(a2+b3), M central
        rules = {
            (GEN_AM, GEN_AP): ap_am + exprel_series(v["a2"] + v["b3"], order),
            (GEN_AM, GEN_M): m_am,
            (GEN_AP, GEN_M): m_ap,
        }
        name = "type_ii"
    return RewriteSystem(name, rules, order)


# -- coproduct / counit / antipode extension to arbitrary elements -------------

def coproduct_of_element(hp, x: FreeElement) -> TensorElement:
    """Algebra-map extension of the presentation's coproduct to a free-algebra
    element."""
    out = TensorElement.zero(2, x.order)
    for word, coeff in x.terms.items():
        out = out + hp._delta(word) * coeff
    return out


def counit_of_word(counit, word, order):
    acc = ParamPoly.one(order)
    for letter in word:
        acc = acc * counit[letter]
        if not acc:
            break
    return acc


def antipode_of_element(hp, x: FreeElement) -> FreeElement:
    """Anti-multiplicative extension of the presentation's antipode, in
    normal form."""
    out = FreeElement.zero(x.order)
    for word, coeff in x.terms.items():
        out = out + hp._gamma(word) * coeff
    return out


def _antipode_residual(hp, name, side="left"):
    """m(gamma (x) id) Delta(X)  or  m(id (x) gamma) Delta(X); the counit term
    vanishes on generators."""
    order = hp.order
    acc = FreeElement.zero(order)
    for (u, w), coeff in hp.coproduct[name].terms.items():
        if side == "left":
            elem = nc_mul(hp._gamma(u), FreeElement.from_word(w, order))
        else:
            elem = nc_mul(FreeElement.from_word(u, order), hp._gamma(w))
        acc = acc + elem * coeff
    return normal_form(acc, hp.rewrite)


# -- the Hopf presentation -------------------------------------------------------

class HopfPresentation:
    """A quantized family: rewrite rules, coproduct, counit and antipode.

    Deformation parameters are carried as degree-1 ParamPoly values so the
    series grading stays intact: a rational choice q of a parameter is the
    value q * <symbol>, and ``concrete`` maps the names chosen that way to q.
    When every parameter is concrete, rendering substitutes the symbols away.

    Delta and gamma of each word are computed once and kept with the
    presentation whose maps they extend.
    """

    __slots__ = ("family", "order", "values", "concrete", "rewrite",
                 "coproduct", "counit", "antipode", "bialgebra_class",
                 "_deltas", "_gammas")

    def __init__(self, family, order, values, rewrite, coproduct, counit,
                 antipode, bialgebra_class, concrete=None):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "concrete", concrete or {})
        object.__setattr__(self, "rewrite", rewrite)
        object.__setattr__(self, "coproduct", coproduct)
        object.__setattr__(self, "counit", counit)
        object.__setattr__(self, "antipode", antipode)
        object.__setattr__(self, "bialgebra_class", bialgebra_class)
        object.__setattr__(self, "_deltas", {})
        object.__setattr__(self, "_gammas", {})

    def __setattr__(self, name, value):
        raise AttributeError("HopfPresentation is immutable")

    def _delta(self, word) -> TensorElement:
        """Delta(word), built by prefix: Delta(word[:-1]) * Delta(word[-1])."""
        delta = self._deltas.get(word)
        if delta is None:
            if word:
                delta = tensor_mul(self._delta(word[:-1]), self.coproduct[word[-1]],
                                   self.rewrite)
            else:
                one = FreeElement.one(self.order)
                delta = outer(one, one)
            self._deltas[word] = delta
        return delta

    def _gamma(self, word) -> FreeElement:
        """gamma(word): the letters' antipodes multiplied in reverse order,
        in normal form."""
        gamma = self._gammas.get(word)
        if gamma is None:
            acc = FreeElement.one(self.order)
            for letter in reversed(word):
                acc = nc_mul(acc, self.antipode[letter])
            gamma = normal_form(acc, self.rewrite)
            self._gammas[word] = gamma
        return gamma

    def param_display(self):
        """Parameter values as rational strings (concrete) or series."""
        return {name: str(self.concrete.get(name, val))
                for name, val in self.values.items()}

    @property
    def is_concrete(self):
        return bool(self.values) and self.concrete.keys() == self.values.keys()

    def _render(self, obj):
        if self.is_concrete:
            grading = {name for val in self.values.values() for exps in val.terms
                       for name, e in zip(val.names, exps) if e}
            obj = obj.subs(dict.fromkeys(grading, 1))
            obj = obj.truncate_words(self.order)
        return str(obj)

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
        """Rebuild from the serialized family, parameters and order."""
        family = doc["family"]
        order = int(doc["order"])
        params = {}
        for name, disp in doc.get("parameters", {}).items():
            params[name] = None if disp == name else parse_rational(name, disp)
        return quantize(family, order=order, params=params)

    def __repr__(self):
        return f"HopfPresentation({self.family}, order={self.order})"


def _resolve_class(family, order, params):
    if isinstance(family, BialgebraClass):
        return family
    if family not in (TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL):
        raise ValueError(f"not a quantizable family: {family!r}")
    if family == TRIVIAL or params is None:
        return BialgebraClass.symbolic(family, order)
    kwargs = {}
    for name in BialgebraClass.FAMILY_PARAMS[family]:
        if params.get(name) is not None:
            kwargs[name] = as_fraction(params[name])
        else:
            kwargs[name] = ParamPoly.symbol(name, order)
    return BialgebraClass(family, normalized=Cocommutator(**kwargs))


def quantize(family, order=DEFAULT_ORDER, params=None, verify=True):
    """Quantize a family (tag or BialgebraClass) at the given truncation order.

    ``params`` maps parameter names to rationals (None entries stay symbolic);
    a BialgebraClass may carry ParamPoly parameters of its own.  With
    ``verify`` the four Hopf axioms are machine-checked before returning;
    with ``verify=False`` nothing checks the antipode (``verify_all`` does).
    """
    cls = _resolve_class(family, order, params)
    if cls.tag not in (TYPE_I_PLUS, TYPE_I_MINUS, TYPE_II, TRIVIAL):
        raise ValueError(f"cannot quantize class {cls.tag}")
    rewrite = family_rewrite(cls, order)
    bad = rewrite.check_confluence()
    if bad:
        raise VerificationError(f"rewrite rules are not confluent on {bad}")
    coproduct = build_coproduct(cls, order)
    antipode = build_antipode(cls, rewrite)
    counit = {name: ParamPoly.zero(order) for name in GENERATORS}
    hp = HopfPresentation(
        family=cls.tag, order=order, values=_family_values(cls, order),
        rewrite=rewrite, coproduct=coproduct, counit=counit,
        antipode=antipode, bialgebra_class=cls,
        concrete={n: v for n, v in cls.family_params().items()
                  if not isinstance(v, ParamPoly)})
    if verify:
        failed = [name for name, ok in verify_all(hp).items() if not ok]
        if failed:
            raise VerificationError(f"Hopf axioms failed: {', '.join(failed)}")
    return hp


# -- verification suite ------------------------------------------------------------

def verify_homomorphism(hp) -> dict:
    """Residual Delta(g)Delta(h) - Delta(g*h as rewritten) per defining relation."""
    out = {}
    for (g, h), rhs in hp.rewrite.rules.items():
        lhs = tensor_mul(hp.coproduct[g], hp.coproduct[h], hp.rewrite)
        out[f"{g}*{h}"] = lhs - coproduct_of_element(hp, rhs)
    return out


def _extend_slot(hp, t: TensorElement, slot: int) -> TensorElement:
    order = t.order
    terms = {}
    for (u, w), coeff in t.terms.items():
        inner = hp._delta(u if slot == 0 else w)
        for (p, q), c in inner.terms.items():
            key = (p, q, w) if slot == 0 else (u, p, q)
            prod = coeff * c
            if not prod:
                continue
            acc = terms.get(key)
            terms[key] = prod if acc is None else acc + prod
    return TensorElement(3, terms, order)


def verify_coassoc(hp) -> dict:
    """(Delta (x) id) Delta(X) - (id (x) Delta) Delta(X) per generator."""
    out = {}
    for name in GENERATORS:
        d = hp.coproduct[name]
        out[name] = _extend_slot(hp, d, 0) - _extend_slot(hp, d, 1)
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
    for value in report.values():
        if isinstance(value, tuple):
            if any(v for v in value):
                return False
        elif value:
            return False
    return True


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
    shape = {name: val for name, val in hp.values.items()}
    delta = Cocommutator(**shape) if shape else Cocommutator()
    got = first_order_cocommutator(hp)
    out = {}
    for name in GENERATORS:
        expected = delta.as_tensor(name, hp.order) if shape \
            else TensorElement.zero(2, hp.order)
        out[name] = got[name] - expected
    return out


# -- central element and differential realization ----------------------------------

def central_element(hp) -> FreeElement:
    """C = M exp(-a1 A+ / 2) for the I+ family; centrality is verified."""
    if hp.family != TYPE_I_PLUS:
        raise ValueError("the central element is defined for the I+ family")
    order = hp.order
    a1 = hp.values["a1"]
    c = nc_mul(FreeElement.generator(GEN_M, order),
               exp_element(FreeElement.generator(GEN_AP, order) * (a1 * Fraction(-1, 2))))
    for name in GENERATORS:
        if commutator(c, FreeElement.generator(name, order), hp.rewrite):
            raise VerificationError(f"central element fails to commute with {name}")
    return c


#: The variable list of the polynomials the differential realization acts
#: on, and the polynomial x itself.
_X = ("x",)
_X_POLY = ParamPoly.symbol("x", math.inf, _X)


def _realization_ops(a1, order):
    """Operators for A+ = x, A- = lambda e^{a1 x/2} d/dx, M = lambda e^{a1 x/2}
    on polynomials in x (ParamPoly over ("x",) with parameter coefficients)."""
    half = a1 * Fraction(1, 2)
    series = {}
    power = ParamPoly.symbol("lambda", order)
    k = 0
    while power:
        series[(k,)] = power
        k += 1
        power = power * half * Fraction(1, k)
    s = ParamPoly(series, math.inf, _X)
    return {GEN_AP: lambda p: p * _X_POLY, GEN_AM: lambda p: p.partial(0) * s,
            GEN_M: lambda p: p * s}


def _apply_element(ops, elem: FreeElement, p):
    """The operator of ``elem`` applied to the x-polynomial ``p``."""
    out = ParamPoly.zero(math.inf, _X)
    for word, coeff in elem.terms.items():
        cur = p
        for letter in reversed(word):
            cur = ops[letter](cur)
        out = out + cur * coeff
    return out


def check_realization(cls, max_degree=6, order=4) -> dict:
    """Check the single-variable differential realization of the I+ family.

    Applies [A-,A+] - M, [A-,M] - (a1/2) M^2, [A+,M], and C - lambda to every
    monomial x^n, n <= max_degree; reports True where all residuals vanish.
    A negative ``max_degree`` would check nothing, so it raises ValueError.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if isinstance(cls, str):
        cls = BialgebraClass.symbolic(cls, order)
    if cls.tag != TYPE_I_PLUS:
        raise ValueError("the differential realization is defined for the I+ family")
    a1 = _family_values(cls, order)["a1"]
    ops = _realization_ops(a1, order)
    ap, am, m = (FreeElement.generator(n, order) for n in (GEN_AP, GEN_AM, GEN_M))
    residuals = {
        "[A-,A+] = M": am * ap - ap * am - m,
        "[A-,M] = (a1/2)*M^2": am * m - m * am - m * m * (a1 * Fraction(1, 2)),
        "[A+,M] = 0": ap * m - m * ap,
        "C = lambda": (m * exp_element(ap * (a1 * Fraction(-1, 2)))
                       - ParamPoly.symbol("lambda", order)),
    }
    return {label: not any(_apply_element(ops, res, _X_POLY ** n)
                           for n in range(max_degree + 1))
            for label, res in residuals.items()}


# -- swap transport I+ <-> I- ---------------------------------------------------------

_SWAP = {GEN_AP: (GEN_AM, 1), GEN_AM: (GEN_AP, 1), GEN_M: (GEN_M, -1)}


def _swap_word(word):
    sign = 1
    letters = []
    for x in word:
        image, s = _SWAP[x]
        letters.append(image)
        sign *= s
    return tuple(letters), sign


def _swap_elem(x: FreeElement, target_rs) -> FreeElement:
    out = FreeElement.zero(x.order)
    for word, coeff in x.terms.items():
        image, sign = _swap_word(word)
        out = out + FreeElement.from_word(image, x.order, coeff=coeff * sign)
    return normal_form(out, target_rs)


def _swap_tensor(t: TensorElement, target_rs) -> TensorElement:
    terms = {}
    for slots, coeff in t.terms.items():
        elems = []
        sign = 1
        for w in slots:
            image, s = _swap_word(w)
            sign *= s
            elems.append(target_rs._form(image))
        _slot_product(elems, coeff * sign, terms)
    return TensorElement(t.rank, terms, t.order)


def swap_transport(hp) -> HopfPresentation:
    """Transport a quantized I+ (or I-) presentation along A+ <-> A-, M -> -M."""
    if hp.family not in (TYPE_I_PLUS, TYPE_I_MINUS):
        raise ValueError("swap transport applies to the I+ / I- families")
    order = hp.order
    target_tag = TYPE_I_MINUS if hp.family == TYPE_I_PLUS else TYPE_I_PLUS
    renames = ({"a1": "b1", "a3": "b2"} if hp.family == TYPE_I_PLUS
               else {"b1": "a1", "b2": "a3"})
    new_values = {new: -hp.values[old] for old, new in renames.items()}
    concrete = {new: -hp.concrete[old] for old, new in renames.items()
                if old in hp.concrete}

    # transported commutation rules first (their right-hand sides are series
    # in M, whose swap images are already normal words)
    brackets = hp.rewrite.commutation_rules()

    def bracket_image(g, h):
        (gi, sg), (hi, sh) = _SWAP[g], _SWAP[h]
        if (gi, hi) in brackets:
            src, flip_sign = brackets[(gi, hi)], 1
        else:
            src, flip_sign = brackets[(hi, gi)], -1
        out = FreeElement.zero(order)
        for word, coeff in src.terms.items():
            image, s = _swap_word(word)
            out = out + FreeElement.from_word(
                image, order, coeff=coeff * (s * sg * sh * flip_sign))
        return out

    rules = {}
    for (g, h) in REDEXES:
        rules[(g, h)] = FreeElement.from_word((h, g), order) + bracket_image(g, h)
    rewrite = RewriteSystem(f"swap({hp.rewrite.name})", rules, order)

    coproduct = {}
    antipode = {}
    for name in GENERATORS:
        source, _ = _swap_word((name,))
        src_letter = source[0]
        sign = _SWAP[name][1]
        cop = _swap_tensor(hp.coproduct[src_letter], rewrite)
        coproduct[name] = cop if sign == 1 else -cop
        gam = _swap_elem(hp.antipode[src_letter], rewrite)
        antipode[name] = gam if sign == 1 else -gam

    cls = BialgebraClass(target_tag, normalized=Cocommutator(**new_values))
    return HopfPresentation(
        family=target_tag, order=order, values=new_values, rewrite=rewrite,
        coproduct=coproduct, counit={n: ParamPoly.zero(order) for n in GENERATORS},
        antipode=antipode, bialgebra_class=cls, concrete=concrete)


# -- closed-form display ----------------------------------------------------------------

def closed_forms(hp) -> dict:
    """Human-readable closed forms of the family's structure maps."""
    disp = hp.param_display()

    def v(name):
        d = disp.get(name, name)
        return d if d == name else f"({d})"

    def times(name):
        """The parameter as a leading factor; a concrete 1 is no factor."""
        return "" if disp[name] == "1" else f"{v(name)}*"

    def minus(name, body):
        """The summand - name*body, left out for a concrete 0."""
        return "" if disp[name] == "0" else f" - {times(name)}{body}"

    def half(name):
        return "1/2" if disp[name] == "1" else f"{v(name)}/2"

    if hp.family == TRIVIAL:
        return {
            "coproduct": [f"Delta({x}) = 1 (x) {x} + {x} (x) 1" for x in GENERATORS],
            "relations": ["[A-,A+] = M", "[A-,M] = 0", "[A+,M] = 0"],
            "antipode": [f"gamma({x}) = -{x}" for x in GENERATORS],
        }
    if hp.family == TYPE_I_PLUS:
        a1 = times("a1")
        return {
            "coproduct": [
                "Delta(A+) = 1 (x) A+ + A+ (x) 1",
                f"Delta(M) = 1 (x) M + M (x) exp({a1}A+)",
                f"Delta(A-) = 1 (x) A- + A- (x) exp({a1}A+)"
                + minus("a3", f"M (x) A+*exp({a1}A+)"),
            ],
            "relations": [
                "[A-,A+] = M", f"[A-,M] = ({half('a1')})*M^2", "[A+,M] = 0"],
            "antipode": [
                "gamma(A+) = -A+",
                f"gamma(M) = -M*exp(-{a1}A+)",
                f"gamma(A-) = -A-*exp(-{a1}A+)" + minus("a3", f"M*A+*exp(-{a1}A+)"),
            ],
            "central_element": [f"C = M*exp(-{a1}A+/2)"],
        }
    if hp.family == TYPE_I_MINUS:
        b1 = times("b1")
        return {
            "coproduct": [
                "Delta(A-) = 1 (x) A- + A- (x) 1",
                f"Delta(M) = 1 (x) M + M (x) exp(-{b1}A-)",
                f"Delta(A+) = 1 (x) A+ + A+ (x) exp(-{b1}A-)"
                + minus("b2", f"M (x) A-*exp(-{b1}A-)"),
            ],
            "relations": [
                "[A-,A+] = M", f"[A+,M] = ({half('b1')})*M^2", "[A-,M] = 0"],
            "antipode": [
                "gamma(A-) = -A-",
                f"gamma(M) = -M*exp({b1}A-)",
                f"gamma(A+) = -A+*exp({b1}A-)" + minus("b2", f"M*A-*exp({b1}A-)"),
            ],
        }
    a2, a3, b2, b3 = v("a2"), v("a3"), v("b2"), v("b3")
    return {
        "coproduct": [
            "Delta(M) = 1 (x) M + M (x) 1",
            "Delta(A-) = 1 (x) A- + A- (x) E11(M) + A+ (x) E12(M)",
            "Delta(A+) = 1 (x) A+ + A- (x) E21(M) + A+ (x) E22(M)",
            f"with E = exp([[{a2}*M, {a3}*M], [{b2}*M, {b3}*M]])",
        ],
        "relations": [
            f"[A-,A+] = (exp(({a2}+{b3})*M) - 1)/({a2}+{b3})",
            "[A-,M] = 0", "[A+,M] = 0"],
        "antipode": [
            "gamma(M) = -M",
            "gamma(A-) = -(F11(M)*A- + F12(M)*A+)",
            "gamma(A+) = -(F21(M)*A- + F22(M)*A+)",
            "with F = E(-M)",
        ],
    }
