"""Exact oracles for job outputs, independent of ``hweyl``.

Each check takes the job's ``expect`` facts and the output the worker
recorded, and returns None when the output is right or a one-line reason.
The hopf checks go beyond the engine's exit code: the coproduct of each
symbolic family is compared, term by term to truncation order K, with the
closed forms of the paper computed here from scratch.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial

from jobs import (COEFFS, FAMILY_PARAMS, INVALID, TRIVIAL, TYPE_I_MINUS,
                  TYPE_I_PLUS, TYPE_II, cojacobi, is_automorphism, transport)

GENS = ("M", "A+", "A-")
AXIOMS = ("homomorphism", "coassociativity", "counit", "antipode", "first-order")
REALIZE_CHECKS = ("[A-,A+] = M", "[A-,M] = (a1/2)*M^2", "[A+,M] = 0", "C = lambda")

#: Zero pattern of each normal form (the parameters a family keeps are free).
NORMAL_ZEROS = {
    TRIVIAL: COEFFS,
    TYPE_I_PLUS: ("a2", "b1", "b2", "b3", "c1", "c2"),
    TYPE_I_MINUS: ("a1", "a2", "a3", "b3", "c1", "c3"),
    TYPE_II: ("a1", "b1", "c1", "c2", "c3"),
}


# -- rendered series: parsing -------------------------------------------------

_FACTOR = re.compile(r"^(?P<base>[A-Za-z_][A-Za-z_0-9]*|A\+|A-)(?:\^(?P<exp>\d+))?$")


def _parse_slot_factors(factors, with_params):
    params, word = [], []
    for f in factors:
        if f == "1":
            continue
        m = _FACTOR.match(f)
        if not m:
            raise ValueError(f"unparsable factor {f!r}")
        base, exp = m.group("base"), int(m.group("exp") or 1)
        if base in GENS:
            word.extend([base] * exp)
        elif with_params and not word:
            params.append((base, exp))
        else:
            raise ValueError(f"misplaced factor {f!r}")
    return tuple(sorted(params)), tuple(word)


def parse_series(text):
    """A rendered element or rank-2 tensor as {(monomial, slots...): Fraction}."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for sign, body in _split_signed(text):
        slots = body.split(" (x) ")
        head = slots[0].split("*")
        coeff = Fraction(1)
        if head[0].startswith("(") or (head[0].isdigit() and len(head) > 1):
            coeff = Fraction(head.pop(0).strip("()"))
        params, first = _parse_slot_factors(head, True)
        rest = tuple(_parse_slot_factors(s.split("*"), False)[1] for s in slots[1:])
        key = (params, first) + rest
        if key in out:
            raise ValueError(f"repeated term {body!r}")
        out[key] = sign * coeff
    return out


def _split_signed(text):
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    yield sign, pieces[0]
    for op, body in zip(pieces[1::2], pieces[2::2]):
        yield (1 if op == "+" else -1), body


# -- closed forms --------------------------------------------------------------

def _mono(**exps):
    return tuple(sorted((n, e) for n, e in exps.items() if e))


def _pmul(p, q, order):
    out = {}
    for m1, c1 in p.items():
        d1 = sum(e for _, e in m1)
        for m2, c2 in q.items():
            if d1 + sum(e for _, e in m2) > order:
                continue
            merged = dict(m1)
            for n, e in m2:
                merged[n] = merged.get(n, 0) + e
            key = _mono(**merged)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _padd(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _place(poly, *slots):
    return {(m,) + slots: c for m, c in poly.items()}


def _exp_line(name, sign, order):
    """sum_n (sign*name)^n / n! as {n: poly}, n <= order."""
    return {n: {_mono(**{name: n}): Fraction(sign ** n, factorial(n))}
            for n in range(order + 1)}


def _exp_matrix(order):
    """E = exp(M P), P = [[a2, a3], [b2, b3]]: {n: 2x2 of polys}, E_n = P^n/n!."""
    p = [[{_mono(a2=1): Fraction(1)}, {_mono(a3=1): Fraction(1)}],
         [{_mono(b2=1): Fraction(1)}, {_mono(b3=1): Fraction(1)}]]
    power = [[{(): Fraction(1)}, {}], [{}, {(): Fraction(1)}]]
    out = {}
    for n in range(order + 1):
        out[n] = [[{m: c / factorial(n) for m, c in power[i][j].items()}
                   for j in range(2)] for i in range(2)]
        power = [[_padd(_pmul(power[i][0], p[0][j], order),
                        _pmul(power[i][1], p[1][j], order))
                  for j in range(2)] for i in range(2)]
    return out


def expected_coproduct(tag, order):
    """Closed-form coproducts of the symbolic family, truncated at ``order``."""
    one = {(): Fraction(1)}

    def primitive(x):
        return _padd(_place(one, (), (x,)), _place(one, (x,), ()))

    if tag in (TYPE_I_PLUS, TYPE_I_MINUS):
        # I+: Delta(M) = 1(x)M + M(x)e^{a1 A+},
        #     Delta(A-) = 1(x)A- + A-(x)e^{a1 A+} - a3 M(x)A+ e^{a1 A+};
        # I- is its swap image with a1 -> -b1, a3 -> -b2.
        prim, other, lead, shift, sign = (
            ("A+", "A-", "a1", "a3", 1) if tag == TYPE_I_PLUS
            else ("A-", "A+", "b1", "b2", -1))
        minus_shift = {_mono(**{shift: 1}): Fraction(-1)}
        line = _exp_line(lead, sign, order)
        dm = _place(one, (), ("M",))
        dv = _place(one, (), (other,))
        for n, poly in line.items():
            dm = _padd(dm, _place(poly, ("M",), (prim,) * n))
            dv = _padd(dv, _place(poly, (other,), (prim,) * n))
            if n < order:
                tail = _pmul(poly, minus_shift, order)
                dv = _padd(dv, _place(tail, ("M",), (prim,) * (n + 1)))
        return {prim: primitive(prim), "M": dm, other: dv}
    # II: Delta(v_i) = 1(x)v_i + sum_j v_j (x) E_ij(M), v = (A-, A+).
    vec = ("A-", "A+")
    e = _exp_matrix(order)
    out = {"M": primitive("M")}
    for i, vi in enumerate(vec):
        acc = _place(one, (), (vi,))
        for j, vj in enumerate(vec):
            for n, mat in e.items():
                acc = _padd(acc, _place(mat[i][j], (vj,), ("M",) * n))
        out[vi] = acc
    return out


def expected_relations(tag, order):
    half = Fraction(1, 2)
    if tag == TYPE_I_PLUS:
        return {"[A+,M]": {}, "[A-,A+]": {((), ("M",)): Fraction(1)},
                "[A-,M]": {(_mono(a1=1), ("M", "M")): half}}
    if tag == TYPE_I_MINUS:
        return {"[A-,M]": {}, "[A-,A+]": {((), ("M",)): Fraction(1)},
                "[A+,M]": {(_mono(b1=1), ("M", "M")): half}}
    # [A-,A+] = sum_{n>=1} (a2+b3)^{n-1} M^n / n!
    exprel = {}
    s = {_mono(a2=1): Fraction(1), _mono(b3=1): Fraction(1)}
    power = {(): Fraction(1)}
    for n in range(1, order + 2):
        if not power:
            break
        exprel = _padd(exprel, _place({m: c / factorial(n) for m, c in power.items()},
                                      ("M",) * n))
        power = _pmul(power, s, order)
    return {"[A+,M]": {}, "[A-,M]": {}, "[A-,A+]": exprel}


# -- the checks ------------------------------------------------------------------

def _cli(output):
    doc = json.loads(output)
    if doc["rc"] != 0:
        raise AssertionError(f"exit code {doc['rc']}: {doc['err'].strip()[:200]}")
    return doc["out"]


def check_quantize_json(expect, output):
    doc = json.loads(_cli(output))
    tag, order = expect["family"], expect["order"]
    if doc["family"] != tag or doc["order"] != order:
        return f"family/order {doc['family']}/{doc['order']}"
    names = FAMILY_PARAMS[tag]
    if doc["parameters"] != {n: n for n in names}:
        return f"parameters {doc['parameters']}"
    if doc["counit"] != {g: "0" for g in GENS}:
        return "counit is not zero"
    for rel, want in expected_relations(tag, order).items():
        if parse_series(doc["relations"][rel]) != want:
            return f"relation {rel} differs from the closed form"
    for gen, want in expected_coproduct(tag, order).items():
        if parse_series(doc["coproduct"][gen]) != want:
            return f"coproduct of {gen} differs from the closed form"
    prim = {TYPE_I_PLUS: "A+", TYPE_I_MINUS: "A-", TYPE_II: "M"}[tag]
    if doc["antipode"][prim] != f"-{prim}":
        return f"antipode of the primitive {prim}: {doc['antipode'][prim]}"
    return None


def check_quantize_text(expect, output):
    lines = _cli(output).splitlines()
    family = lines[0].removeprefix("family: ") if lines else ""
    if family not in expect["orbit"]:
        return f"family {family!r}, expected one of {expect['orbit']}"
    return None


def check_verify(expect, output):
    doc = json.loads(_cli(output))
    want = {tag: {a: True for a in AXIOMS} for tag in expect["families"]}
    if doc != {"order": expect["order"], "results": want, "pass": True}:
        return "verify did not pass every axiom"
    return None


def check_realize(expect, output):
    doc = json.loads(_cli(output))
    want = {"order": expect["order"], "max_degree": expect["degree"],
            "results": {c: True for c in REALIZE_CHECKS}, "pass": True}
    if doc != want:
        return "realization checks did not all pass"
    return None


def check_classify(expect, output):
    doc = json.loads(output)
    tag = doc["class"]
    if tag not in expect["orbit"]:
        return f"class {tag}, expected one of {expect['orbit']}"
    delta = {k: Fraction(v) for k, v in expect["input"].items()}
    if tag == INVALID:
        failures = doc["failures"]
        if expect["invalid"] == "cocycle":
            return None if failures.get("cocycle") else "no cocycle failure"
        if failures.get("cocycle"):
            return "a cocycle failure on a cocycle"
        if [Fraction(v) for v in failures.get("cojacobi", ())] != list(cojacobi(delta)):
            return "co-Jacobi residuals differ"
        return None
    b = tuple(tuple(Fraction(v) for v in row) for row in doc["automorphism"])
    if not is_automorphism(b):
        return "returned basis change is not an automorphism"
    normalized = {k: Fraction(v) for k, v in doc["normalized"].items()}
    if normalized != transport(delta, b):
        return "normalized form is not the transport of the input"
    if any(normalized[n] for n in NORMAL_ZEROS[tag]):
        return f"normalized form is not a {tag} normal form"
    if doc["coboundary"] != expect["coboundary"]:
        return f"coboundary flag {doc['coboundary']}"
    if expect["coboundary"]:
        r = doc["rmatrix"]
        if Fraction(r["xi"]) != -normalized["a2"]:
            return f"r-matrix xi={r['xi']} does not induce the input"
        if doc["mcybe"] is not True:
            return "mCYBE did not pass"
    if expect["poisson"]:
        if doc["jacobi"] != "0" or set(doc["homomorphism"].values()) != {"0"}:
            return "nonzero Poisson residuals"
    return None


CHECKS = {"quantize_json": check_quantize_json, "quantize_text": check_quantize_text,
          "verify": check_verify, "realize": check_realize,
          "classify": check_classify}


def check(expect, output):
    """None when ``output`` is right for a job with these ``expect`` facts."""
    try:
        return CHECKS[expect["check"]](expect, output)
    except Exception as exc:  # output the checks cannot read is wrong output
        return f"{type(exc).__name__}: {exc}"
