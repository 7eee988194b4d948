"""Seeded job lists for the three benchmark workloads.

Nothing here imports ``hweyl``.  Every input is built from the seed with the
benchmark's own exact arithmetic, and each job carries, beside what is sent to
the program (``run``), the facts the oracle checks its output against
(``expect``).  The program only ever sees ``run``.

Cocommutators are nine rational coefficients (a1..c3) in the basis
(A-, A+, M); row i holds the coefficients of delta(e_i) on the wedge pairs
A-^A+, A-^M, A+^M.  Automorphism matrices B have as columns the images of
(A-, A+, M).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("hopf-type2", "hopf-type1", "classify-stream")

COEFFS = ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3")
PAIRS = ((0, 1), (0, 2), (1, 2))

TRIVIAL = "TRIVIAL"
TYPE_I_PLUS = "TYPE_I_PLUS"
TYPE_I_MINUS = "TYPE_I_MINUS"
TYPE_II = "TYPE_II"
INVALID = "INVALID"
#: I+ and I- are one orbit under the swap automorphism.
TYPE_I = (TYPE_I_PLUS, TYPE_I_MINUS)

#: Family parameters of each normalized representative.
FAMILY_PARAMS = {
    TYPE_I_PLUS: ("a1", "a3"),
    TYPE_I_MINUS: ("b1", "b2"),
    TYPE_II: ("a2", "a3", "b2", "b3"),
}

#: classify-stream composition: how many jobs of each input kind.
STREAM_MIX = (("trivial", 100), ("type1plus", 600), ("type1minus", 600),
              ("type2", 600), ("coboundary", 400), ("cocycle-fail", 350),
              ("cojacobi-fail", 350))
#: Every POISSON_EVERY-th valid input of the stream also runs the Poisson checks.
POISSON_EVERY = 20


def draw(rng):
    """A rational p/q with |p| <= 9 and 1 <= q <= 9; 0 and 1 are kept."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


# -- cocommutator arithmetic ---------------------------------------------------

def delta_of(**values):
    """Nine coefficients with the cocycle-forced defaults c1=0, c2=b1, c3=-a1."""
    d = {n: Fraction(values.get(n, 0)) for n in COEFFS[:6]}
    d["c1"] = Fraction(values.get("c1", 0))
    d["c2"] = Fraction(values.get("c2", d["b1"]))
    d["c3"] = Fraction(values.get("c3", -d["a1"]))
    return d


def mat_inv(b):
    (a, bb, c), (d, e, f), (g, h, i) = b
    det = a * (e * i - f * h) - bb * (d * i - f * g) + c * (d * h - e * g)
    if not det:
        raise ValueError("singular matrix")
    adj = ((e * i - f * h, c * h - bb * i, bb * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, bb * g - a * h, a * e - bb * d))
    return tuple(tuple(v / det for v in row) for row in adj)


def transport(delta, b):
    """delta' = (phi (x) phi)^-1 o delta o phi for phi with matrix b.

    The new delta(e_j) is Binv (sum_i B[i][j] D_i) Binv^T, where D_i is the
    antisymmetric matrix of delta(e_i).  On the wedge components of an
    antisymmetric X, X -> Binv X Binv^T acts by the 2x2 minors of Binv.
    """
    binv = mat_inv(b)
    minors = [[binv[p][r] * binv[q][s] - binv[p][s] * binv[q][r]
               for (r, s) in PAIRS] for (p, q) in PAIRS]
    rows = [[delta[COEFFS[3 * i + n]] for n in range(3)] for i in range(3)]
    out = {}
    for j in range(3):
        col = [(b[i][j], rows[i]) for i in range(3) if b[i][j]]
        mixed = [sum(c * row[n] for c, row in col if row[n]) for n in range(3)]
        for n in range(3):
            out[COEFFS[3 * j + n]] = Fraction(
                sum(m * x for m, x in zip(minors[n], mixed) if m and x))
    return out


def is_automorphism(b):
    """Columns images of (A-, A+, M): M must go to det * M and stay central."""
    (x00, x01, x02), (x10, x11, x12), (x20, x21, x22) = b
    det = x00 * x11 - x10 * x01
    return bool(det) and x02 == 0 and x12 == 0 and x22 == det


def random_automorphism(rng):
    """phi(A-) = al A- + be A+ + ga M, phi(A+) = de A- + ep A+ + ze M,
    phi(M) = (al ep - be de) M; singular draws are not automorphisms."""
    pick = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    while True:
        al, be, ga, de, ep, ze = (pick() for _ in range(6))
        det = al * ep - be * de
        if det:
            return ((al, de, Fraction(0)), (be, ep, Fraction(0)),
                    (ga, ze, det))


def cojacobi(delta):
    """The two co-Jacobi residuals of a cocycle (paper's constraint equations)."""
    a1, a2, a3, b1, b2, b3 = (delta[n] for n in COEFFS[:6])
    return (a1 * (b3 - a2) - 2 * b1 * a3, b1 * (a2 - b3) - 2 * a1 * b2)


def orbit_of(rep):
    """Classes a valid normalized representative may be reported as."""
    if not any(rep.values()):
        return [TRIVIAL]
    if rep["a1"] or rep["b1"]:
        return list(TYPE_I)
    return [TYPE_II]


def is_coboundary(rep):
    """delta = d r for r = xi A+^A-: zero, or type II with a3=b2=0, a2=b3."""
    return (not rep["a1"] and not rep["b1"] and not rep["a3"]
            and not rep["b2"] and rep["a2"] == rep["b3"])


def to_json_text(delta, keys=COEFFS):
    return json.dumps({k: str(delta[k]) for k in keys})


# -- hopf workloads ------------------------------------------------------------

def _cli_json(family, order, tag):
    return {"run": {"cli": ["quantize", "--family", family, "--order", str(order),
                            "--format", "json"]},
            "expect": {"check": "quantize_json", "family": tag, "order": order}}


def _cli_verify(family, order, tag):
    return {"run": {"cli": ["verify", "--family", family, "--order", str(order),
                            "--format", "json"]},
            "expect": {"check": "verify", "families": [tag], "order": order}}


def _cli_seeded(rng, tag, order):
    names = FAMILY_PARAMS[tag]
    rep = delta_of(**{n: draw(rng) for n in names})
    return {"run": {"cli": ["quantize", to_json_text(rep, names),
                            "--order", str(order)]},
            "expect": {"check": "quantize_text", "orbit": orbit_of(rep)}}


# Job lists are kept to about five seconds per pass, so that a 40 s run times
# every job several times and a job's time can be its median over the passes.
# Seeded jobs use a low K so that, whatever the drawn values, they sort below
# the median job and job_p50_s stays on a fixed job.

def hopf_type2(rng):
    jobs = [_cli_json("type2", k, TYPE_II) for k in range(4, 9)]
    jobs += [_cli_verify("type2", k, TYPE_II) for k in (4, 5)]
    jobs.append(_cli_seeded(rng, TYPE_II, 4))
    return jobs


def hopf_type1(rng):
    jobs = []
    for family, tag in (("type1plus", TYPE_I_PLUS), ("type1minus", TYPE_I_MINUS)):
        jobs += [_cli_json(family, k, tag) for k in (6, 8, 10, 12)]
        jobs.append(_cli_verify(family, 8, tag))
        jobs.append(_cli_seeded(rng, tag, 6))
    jobs.append({"run": {"cli": ["realize", "--degree", "8", "--order", "8",
                                 "--format", "json"]},
                 "expect": {"check": "realize", "degree": 8, "order": 8}})
    return jobs


# -- classify-stream -----------------------------------------------------------

def _stream_input(rng, kind):
    """(representative, expect) for one input kind, before transport."""
    invalid = None
    if kind == "trivial":
        rep = delta_of()
    elif kind == "type1plus":
        rep = delta_of(a1=draw(rng), a3=draw(rng))
    elif kind == "type1minus":
        rep = delta_of(b1=draw(rng), b2=draw(rng))
    elif kind == "type2":
        rep = delta_of(a2=draw(rng), a3=draw(rng), b2=draw(rng), b3=draw(rng))
    elif kind == "coboundary":
        t = draw(rng)
        rep = delta_of(a2=t, b3=t)
    elif kind == "cocycle-fail":
        base = delta_of(a1=draw(rng), a3=draw(rng), b1=draw(rng), b2=draw(rng))
        key = rng.choice(("c1", "c2", "c3"))
        bump = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        rep = dict(base, **{key: base[key] + bump})
        invalid = "cocycle"
    else:
        while True:
            rep = delta_of(**{n: draw(rng) for n in COEFFS[:6]})
            if any(cojacobi(rep)):
                break
        invalid = "cojacobi"
    if invalid:
        return rep, {"orbit": [INVALID], "invalid": invalid, "coboundary": False}
    return rep, {"orbit": orbit_of(rep), "invalid": None,
                 "coboundary": is_coboundary(rep)}


def classify_stream(rng):
    kinds = [kind for kind, count in STREAM_MIX for _ in range(count)]
    rng.shuffle(kinds)
    jobs = []
    valid = 0
    for kind in kinds:
        rep, expect = _stream_input(rng, kind)
        delta = transport(rep, random_automorphism(rng))
        poisson = False
        if expect["invalid"] is None:
            valid += 1
            poisson = valid % POISSON_EVERY == 0
        expect.update(check="classify", input={k: str(v) for k, v in delta.items()},
                      poisson=poisson)
        jobs.append({"run": {"delta": to_json_text(delta), "poisson": poisson},
                     "expect": expect})
    return jobs


_BUILDERS = {"hopf-type2": hopf_type2, "hopf-type1": hopf_type1,
             "classify-stream": classify_stream}


def make_jobs(workload, seed):
    """The job list of a workload; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
