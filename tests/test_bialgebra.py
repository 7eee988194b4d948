import itertools
import math
import random
from fractions import Fraction

import pytest

from hweyl import bialgebra
from hweyl.params import ParamPoly
from hweyl.freealg import FreeElement, RewriteSystem, commutator
from hweyl.tensor import TensorElement, outer, tensor_mul
from hweyl.bialgebra import (BASIS, BRACKET, INVALID, TRIVIAL, TYPE_I_MINUS,
                             TYPE_I_PLUS, TYPE_II, SWAP_AUTOMORPHISM, WEDGE_PAIRS,
                             _COEFF_NAMES, Cocommutator, RMatrix, _skew,
                             apply_automorphism, check_automorphism, classify,
                             coboundary_delta, dual_bracket_table, find_rmatrix,
                             mcybe_check, rmatrix_gauge, schouten)

from engine_helpers import PERM_SIGN, cocycle_raw, cocycle_residuals, cojacobi_residuals
from symbolic_cocommutators import constrained_symbolic, generic_symbolic

K = 4


def sym(name, order=K):
    return ParamPoly.symbol(name, order)


def gen(name, order=K):
    return FreeElement.generator(name, order)


# -- independent oracles ------------------------------------------------------

def cocycle_oracle(delta, order=K):
    """Brute-force cocycle residuals in the enveloping tensor algebra."""
    rs = RewriteSystem.undeformed(order)
    gens = {n: gen(n, order) for n in BASIS}
    one = FreeElement.one(order)
    out = []
    for X, Y in (("A-", "A+"), ("A-", "M"), ("A+", "M")):
        br = commutator(gens[X], gens[Y], rs)
        d_bracket = TensorElement(2, {}, order)
        for word, coeff in br.terms.items():
            assert len(word) == 1
            d_bracket = d_bracket + delta.as_tensor(word[0], order) * coeff
        adx = outer(one, gens[X]) + outer(gens[X], one)
        ady = outer(one, gens[Y]) + outer(gens[Y], one)
        dx = delta.as_tensor(X, order)
        dy = delta.as_tensor(Y, order)
        term1 = tensor_mul(dx, ady, rs) - tensor_mul(ady, dx, rs)
        term2 = tensor_mul(adx, dy, rs) - tensor_mul(dy, adx, rs)
        out.append(d_bracket - term1 - term2)
    return out


def cojacobi_oracle_is_zero(delta, order=K):
    """Co-Jacobi via the cyclic alternation of (delta (x) id) delta."""
    def rotate(t):
        return TensorElement(
            3, {(c, a, b): v for (a, b, c), v in t.terms.items()}, t.order)

    for X in BASIS:
        t = delta.as_tensor(X, order)
        ext = TensorElement(3, {}, order)
        for (u, w), coeff in t.terms.items():
            assert len(u) == 1
            inner = delta.as_tensor(u[0], order)
            for (p, q), c in inner.terms.items():
                ext = ext + TensorElement(3, {(p, q, w): coeff * c}, order)
        total = ext + rotate(ext) + rotate(rotate(ext))
        if total:
            return False
    return True


# -- generic index-tensor loops: oracles for the closed forms -------------------
#
# Index tensors are dicts {(i, j, ...): coefficient} over BASIS; each loop reads
# only BRACKET, so it holds for any bracket and any coefficient ring.

def _addin(d, key, val):
    total = d.get(key, 0) + val
    if total:
        d[key] = total
    else:
        d.pop(key, None)


def ad_oracle(x, t):
    """ad_{e_x} on an index tensor: [e_x, -] on each slot in turn."""
    out = {}
    for key, c in t.items():
        for n, i in enumerate(key):
            for k, f in BRACKET.get((x, i), {}).items():
                _addin(out, key[:n] + (k,) + key[n + 1:], f * c)
    return out


def cocycle_raw_oracle(delta):
    """delta([e_i, e_j]) + ad_{e_j} delta(e_i) - ad_{e_i} delta(e_j) per wedge pair."""
    rows = [delta.full_row(i) for i in range(3)]
    residuals = []
    for i, j in WEDGE_PAIRS:
        acc = {}
        for k, f in BRACKET.get((i, j), {}).items():
            for key, c in rows[k].items():
                _addin(acc, key, f * c)
        for key, c in ad_oracle(j, rows[i]).items():
            _addin(acc, key, c)
        for key, c in ad_oracle(i, rows[j]).items():
            _addin(acc, key, -c)
        residuals.append(acc)
    return residuals


def cojacobi_oracle(delta):
    """Components on a-, a+ of the cyclic Jacobiator of the dual bracket,
    [f_i, f_j]* = sum_k (e_i (x) e_j component of delta(e_k)) f_k."""
    table = dual_bracket_table(delta)

    def dual(i, vec):
        out = {}
        for k, c in vec.items():
            if i != k:
                entry, sign = (table[(i, k)], 1) if i < k else (table[(k, i)], -1)
                for m, f in entry.items():
                    _addin(out, m, sign * f * c)
        return out

    acc = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for m, v in dual(i, dual(j, {k: Fraction(1)})).items():
            _addin(acc, m, v)
    return [acc.get(0, Fraction(0)), acc.get(1, Fraction(0))]


def transport_oracle(delta, B):
    """delta' = (phi (x) phi)^-1 o delta o phi: delta(phi(e_j)) with both slots
    pulled back through B^-1 (adjugate over det), for any coefficient field."""
    (a, b, c), (d, e, f), (g, h, i) = B
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    Binv = [[v / det for v in row] for row in adj]
    rows = [delta.full_row(k) for k in range(3)]
    new = []
    for j in range(3):
        full = {}
        for k in range(3):
            for key, v in rows[k].items():
                _addin(full, key, B[k][j] * v)
        moved = {}
        for (r, s), v in full.items():
            for p in range(3):
                for q in range(3):
                    _addin(moved, (p, q), Binv[p][r] * Binv[q][s] * v)
        new += [moved.get(pair, 0) for pair in WEDGE_PAIRS]
    return new


def broken_bracket_oracle(B):
    """The first wedge pair (i, j) with [B e_i, B e_j] != B [e_i, e_j], or None."""
    cols = [[B[p][j] for p in range(3)] for j in range(3)]
    for i, j in WEDGE_PAIRS:
        diff = {}
        for p, x in enumerate(cols[i]):
            for q, y in enumerate(cols[j]):
                for k, f in BRACKET.get((p, q), {}).items():
                    _addin(diff, k, f * x * y)
        for k, f in BRACKET.get((i, j), {}).items():
            for p in range(3):
                _addin(diff, p, -f * cols[k][p])
        if diff:
            return i, j
    return None


def unit_wedge3(c):
    """c (A- ^ A+ ^ M) as an index tensor: c times the sign of each of the six
    slot orders of (A-, A+, M); no terms when c is zero."""
    return {perm: c * sign for perm, sign in PERM_SIGN.items()} if c else {}


def rmatrix_components(r):
    """r = xi A+ ^ A- + beta_plus A+ ^ M + beta_minus A- ^ M as a full rank-2
    dict over basis-index pairs."""
    return _skew((((1, 0), r.xi), ((1, 2), r.beta_plus), ((0, 2), r.beta_minus)))


def schouten_oracle(r):
    """[[r, r]] by the triple loop over the components of r and BRACKET."""
    comps = rmatrix_components(r)
    out = {}
    for (a, b), c1 in comps.items():
        for (c, d), c2 in comps.items():
            coeff = c1 * c2
            for k, f in BRACKET.get((a, c), {}).items():
                _addin(out, (k, b, d), f * coeff)
            for k, f in BRACKET.get((b, c), {}).items():
                _addin(out, (a, k, d), f * coeff)
            for k, f in BRACKET.get((b, d), {}).items():
                _addin(out, (a, c, k), f * coeff)
    return out


def coboundary_delta_oracle(r):
    """delta(e_x) = ad_{e_x} r, read off on the wedge pairs."""
    comps = rmatrix_components(r)
    rows = [[ad_oracle(x, comps).get(pair, Fraction(0)) for pair in WEDGE_PAIRS]
            for x in range(3)]
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
    return Cocommutator(a1, a2, a3, b1, b2, b3, c1=c1, c2=c2, c3=c3)


def find_rmatrix_oracle(delta):
    """delta = xi * coboundary_delta(RMatrix(1, 0, 0)), solved on the first
    nonzero component of that unit; None when no xi fits every component."""
    unit = list(coboundary_delta_oracle(RMatrix(1, 0, 0)).coefficients().values())
    target = list(delta.coefficients().values())
    pivot = next(n for n, u in enumerate(unit) if u)
    xi = target[pivot] * (1 / unit[pivot])
    if any(xi * u - t for t, u in zip(target, unit)):
        return None
    return RMatrix(xi)


def rmatrix_gauge_oracle():
    """The r-matrix coefficients whose unit r-matrix induces zero."""
    names = ("xi", "beta_plus", "beta_minus")
    basis = (RMatrix(1, 0, 0), RMatrix(0, 1, 0), RMatrix(0, 0, 1))
    return tuple(n for n, r in zip(names, basis)
                 if coboundary_delta_oracle(r) == Cocommutator())


def _free_c_delta(rng):
    """Nine small random rationals: the c's are free, so most fail the cocycle."""
    v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(9)]
    return Cocommutator(*v[:6], c1=v[6], c2=v[7], c3=v[8])


def _fractional_automorphism(rng):
    """phi(A-), phi(A+) random with non-integer entries, phi(M) = det * M."""
    pick = lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 5))
    while True:
        p, q, s, t, r, u = (pick() for _ in range(6))
        det = p * t - q * s
        if det:
            return ((p, s, Fraction(0)), (q, t, Fraction(0)), (r, u, det))


def test_closed_cocycle_matches_ad_oracle():
    rng = random.Random(51)
    deltas = [generic_symbolic(K)]
    deltas += [_free_c_delta(rng) for _ in range(200)]
    for delta in deltas:
        assert cocycle_raw(delta) == cocycle_raw_oracle(delta)


def test_closed_cojacobi_matches_dual_jacobiator():
    rng = random.Random(52)
    deltas = [generic_symbolic(K), constrained_symbolic(K)]
    deltas += [_free_c_delta(rng) for _ in range(200)]
    for delta in deltas:
        assert cojacobi_residuals(delta) == cojacobi_oracle(delta)


def test_closed_transport_matches_pullback_oracle():
    rng = random.Random(53)
    fractional = 0
    for _ in range(200):
        delta = _free_c_delta(rng)
        B = _fractional_automorphism(rng)
        fractional += any(v.denominator != 1 for row in B for v in row)
        moved = apply_automorphism(delta, B)
        assert list(moved.coefficients().values()) == transport_oracle(delta, B)
    assert fractional > 150


def test_closed_automorphism_check_matches_bracket_oracle():
    rng = random.Random(54)
    accepted = rejected = 0
    for n in range(300):
        B = [list(row) for row in _fractional_automorphism(rng)]
        if n % 2:
            # one entry moved: mostly not an automorphism any more
            p, q = rng.randrange(3), rng.randrange(3)
            B[p][q] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
        broken = broken_bracket_oracle(B)
        if broken is None:
            accepted += 1
            assert check_automorphism(B) == tuple(map(tuple, B))
        else:
            rejected += 1
            assert broken == (0, 1)
            with pytest.raises(ValueError, match=r"bracket \[A-, A\+\]"):
                check_automorphism(B)
    assert accepted > 100 and rejected > 100


def _random_rmatrix(rng):
    return RMatrix(*(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)))


def _random_symbolic_rmatrix(rng, order):
    """Each coefficient a random rational plus a random multiple of its own
    symbol, at ``order``."""
    return RMatrix(*(sym(name, order) * Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     + Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     for name in RMatrix._FIELDS))


def test_schouten_is_the_coordinate_of_the_loop_oracle():
    rng = random.Random(58)
    rs = [_random_rmatrix(rng) for _ in range(50)]
    rs += [_random_symbolic_rmatrix(rng, order) for order in (K, math.inf) * 25]
    for r in rs:
        assert schouten_oracle(r) == unit_wedge3(schouten(r))
    assert sum(not schouten(r) for r in rs) < 10


def test_closed_coboundary_side_matches_loop_oracles():
    rng = random.Random(55)
    rs = [RMatrix.symbolic(), RMatrix(), RMatrix(0, 3, -2)]
    rs += [_random_rmatrix(rng) for _ in range(100)]
    for r in rs:
        assert schouten_oracle(r) == unit_wedge3(schouten(r))
        delta = coboundary_delta(r)
        assert delta == coboundary_delta_oracle(r)
        assert find_rmatrix(delta) == find_rmatrix_oracle(delta) == RMatrix(r.xi)
    assert rmatrix_gauge() == rmatrix_gauge_oracle()


def test_find_rmatrix_matches_unit_oracle_off_the_coboundaries():
    rng = random.Random(56)
    deltas = [generic_symbolic(K), constrained_symbolic(K)]
    for _ in range(200):
        coeffs = coboundary_delta(_random_rmatrix(rng)).coefficients()
        coeffs[rng.choice(_COEFF_NAMES)] += Fraction(rng.choice((-1, 1)), rng.randint(1, 5))
        deltas.append(Cocommutator(**coeffs))
    symbolic = coboundary_delta(RMatrix.symbolic()).coefficients()
    for name in _COEFF_NAMES:
        deltas.append(Cocommutator(**dict(symbolic, **{name: symbolic[name]
                                                       + sym("a1", math.inf)})))
    for delta in deltas:
        assert find_rmatrix(delta) is None
        assert find_rmatrix_oracle(delta) is None


def test_mcybe_matches_ad_loop_on_alternating_tensors():
    rng = random.Random(57)
    coeffs = [sym("xi") * sym("xi"), sym("a1") - 3 * sym("b2") * sym("c1"),
              ParamPoly.zero(K), Fraction(0)]
    coeffs += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(100)]
    for c in coeffs:
        kills = all(not ad_oracle(x, unit_wedge3(c)) for x in range(3))
        assert mcybe_check(c) is kills is True


def test_mcybe_fails_under_a_non_unimodular_bracket(monkeypatch):
    # [A-, M] = M keeps the Jacobi identity and gives tr(ad_A-) = 1, so ad_A-
    # is the identity on Lambda^3 g
    monkeypatch.setitem(BRACKET, (0, 2), {2: Fraction(1)})
    monkeypatch.setitem(BRACKET, (2, 0), {2: Fraction(-1)})
    for c in (Fraction(1), Fraction(-2, 3), sym("xi") * sym("xi"), sym("a1") + 1):
        assert mcybe_check(c) is False
        assert ad_oracle(0, unit_wedge3(c)) == unit_wedge3(c)
    assert mcybe_check(Fraction(0)) is True
    assert mcybe_check(ParamPoly.zero(K)) is True


def _big(rng):
    return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))


def _integer_classify_input(rng, kind):
    """A rational delta with large denominators: nine free coefficients, one
    of the three cocycle breaks, forced c's (mostly breaking co-Jacobi, some
    with a zero row), or a transported family point."""
    v = [_big(rng) for _ in range(6)]
    if kind == "free":
        return Cocommutator(*v, c1=_big(rng), c2=_big(rng), c3=_big(rng))
    if kind == "c1":
        return Cocommutator(*v, c1=_big(rng))
    if kind == "c2":
        return Cocommutator(*v, c2=v[3] + _big(rng))
    if kind == "c3":
        return Cocommutator(*v, c3=-v[0] + _big(rng))
    if kind == "zero_row":
        row = rng.randrange(2)
        v[3 * row:3 * row + 3] = [Fraction(0)] * 3
        return Cocommutator(*v)
    if kind == "forced":
        return Cocommutator(*v)
    family = rng.choice(((v[0], 0, v[2], 0, 0, 0), (0, 0, 0, v[3], v[4], 0),
                         (0, v[1], v[2], 0, v[4], v[5]), (0, v[1], 0, 0, 0, v[1])))
    return apply_automorphism(Cocommutator(*family), _fractional_automorphism(rng))


def test_integer_classify_failures_match_fraction_residuals():
    rng = random.Random(58)
    kinds = ("free", "c1", "c2", "c3", "zero_row", "forced", "family")
    seen = {"all pairs": 0, "first pair": 0, "cojacobi": 0, "valid": 0}
    for n in range(700):
        delta = _integer_classify_input(rng, kinds[n % len(kinds)])
        pairs = [(BASIS[i], BASIS[j])
                 for (i, j), raw in zip(WEDGE_PAIRS, cocycle_raw(delta)) if raw]
        jac = cojacobi_residuals(delta)
        if pairs:
            expected = {"cocycle": pairs}
            seen["all pairs" if len(pairs) == 3 else "first pair"] += 1
        elif any(jac):
            expected = {"cojacobi": tuple(jac)}
            seen["cojacobi"] += 1
        else:
            expected = {}
            seen["valid"] += 1
        c = classify(delta)
        assert c.failures == expected
        assert (c.tag == INVALID) == bool(expected)
    assert min(seen.values()) >= 50, seen


def test_transport_rejects_symbolic_delta():
    with pytest.raises(TypeError, match="rational"):
        apply_automorphism(constrained_symbolic(K), SWAP_AUTOMORPHISM)


@pytest.mark.parametrize("entry, value", [((0, 2), 1), ((1, 2), Fraction(-1, 2)),
                                         ((2, 2), 3)])
def test_each_broken_automorphism_condition_is_rejected(entry, value):
    # B02, B12 must vanish and B22 must be the determinant (here 2)
    B = [[Fraction(1), Fraction(1), Fraction(0)],
         [Fraction(-1), Fraction(1), Fraction(0)],
         [Fraction(5), Fraction(0), Fraction(2)]]
    check_automorphism(B)
    B[entry[0]][entry[1]] = Fraction(value)
    with pytest.raises(ValueError, match=r"\[A-, A\+\]"):
        apply_automorphism(Cocommutator(a1=1), B)


def test_singular_basis_change_rejected():
    zero = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="singular"):
        apply_automorphism(Cocommutator(a1=1), zero)


# -- Lie structure ---------------------------------------------------------------

def test_heisenberg_weyl_brackets():
    # [A-, A+] = M; every ordered pair agrees with the undeformed PBW rules
    assert BRACKET[(0, 1)] == {2: Fraction(1)}
    rs = RewriteSystem.undeformed(K)
    gens = [FreeElement.generator(name, K) for name in BASIS]
    for i, j in itertools.product(range(3), repeat=2):
        expected = FreeElement.zero(K)
        for k, f in BRACKET.get((i, j), {}).items():
            expected = expected + gens[k] * f
        assert commutator(gens[i], gens[j], rs) == expected


# -- cocycle condition --------------------------------------------------------------

def test_cocycle_symbolic_constraints():
    res = cocycle_residuals(generic_symbolic(K))
    expected = [sym("c1"), sym("c2") - sym("b1"), sym("c3") + sym("a1")]
    # every residual coefficient is one of the three constraints (up to sign),
    # and all three occur
    seen = set()
    for t in res:
        for coeff in t.terms.values():
            hits = [i for i, e in enumerate(expected) if coeff == e or coeff == -e]
            assert hits, f"unexpected residual coefficient {coeff}"
            seen.add(hits[0])
    assert seen == {0, 1, 2}


def test_cocycle_zero_delta():
    assert all(not t for t in cocycle_residuals(Cocommutator()))


def test_cocycle_c1_only_fails_on_first_pair():
    res = cocycle_residuals(Cocommutator(c1=1))
    assert res[0]          # pair (A-, A+)
    assert res[1] and res[2]   # c1 also breaks the central pairs


def test_cocycle_forced_c_defaults_pass():
    rng = random.Random(3)
    for _ in range(25):
        delta = Cocommutator(*(Fraction(rng.randint(-3, 3)) for _ in range(6)))
        assert all(not t for t in cocycle_residuals(delta))


def test_cocycle_matches_bruteforce_oracle():
    rng = random.Random(4)
    deltas = [generic_symbolic(K), Cocommutator(c1=1),
              Cocommutator(a1=1, c3=0)]
    for _ in range(10):
        deltas.append(Cocommutator(
            *(Fraction(rng.randint(-2, 2)) for _ in range(6)),
            c1=Fraction(rng.randint(-2, 2)), c2=Fraction(rng.randint(-2, 2)),
            c3=Fraction(rng.randint(-2, 2))))
    for delta in deltas:
        assert cocycle_residuals(delta, order=K) == cocycle_oracle(delta, order=K)


# -- co-Jacobi ------------------------------------------------------------------------

def test_cojacobi_polynomials():
    p1, p2 = cojacobi_residuals(constrained_symbolic(K))
    a1, a2, a3, b1, b2, b3 = (sym(n) for n in ("a1", "a2", "a3", "b1", "b2", "b3"))
    assert p1 == a1 * (b3 - a2) - 2 * b1 * a3
    assert p2 == b1 * (a2 - b3) - 2 * a1 * b2


def test_cojacobi_examples():
    assert cojacobi_residuals(Cocommutator(a1=1)) == [0, 0]
    bad = Cocommutator(a1=1, a3=1, b1=1, b3=2)
    assert cojacobi_residuals(bad) == [0, -2]
    assert cojacobi_residuals(Cocommutator()) == [0, 0]


def test_cojacobi_matches_tensor_oracle():
    rng = random.Random(8)
    for _ in range(60):
        delta = Cocommutator(*(Fraction(rng.randint(-2, 2)) for _ in range(6)))
        ours = not any(cojacobi_residuals(delta))
        assert ours == cojacobi_oracle_is_zero(delta)


# -- classification ----------------------------------------------------------------------

def test_classify_coboundary_point():
    c = classify(Cocommutator(a2=-1, b3=-1))
    assert c.tag == TYPE_II
    assert c.coboundary
    assert c.rmatrix == RMatrix(1, 0, 0)


def test_classify_type_i_plus_example():
    c = classify(Cocommutator(a1=1, b1=1))
    assert c.tag == TYPE_I_PLUS
    assert c.normalized.a1 == 1 and c.normalized.a3 == 0
    assert not c.normalized.b1 and not c.normalized.a2
    # automorphism column for A+ encodes A+' = A+ - A-
    col = [c.automorphism[i][1] for i in range(3)]
    assert col == [Fraction(-1), Fraction(1), Fraction(0)]


def test_classify_invalid_example():
    c = classify(Cocommutator(a1=1, a3=1, b1=1, b3=2))
    assert c.tag == INVALID
    assert c.failures["cojacobi"] == (Fraction(0), Fraction(-2))


def test_classify_trivial():
    c = classify(Cocommutator())
    assert c.tag == TRIVIAL
    assert c.coboundary and c.rmatrix == RMatrix()


def test_classify_type_i_minus():
    # a1=0, b1 != 0 forces a3=0, a2=b3
    c = classify(Cocommutator(a2=2, b1=3, b2=5, b3=2))
    assert c.tag == TYPE_I_MINUS
    assert c.normalized.b1 == 3 and c.normalized.b2 == 5
    assert not c.normalized.b3 and not c.normalized.a2


def test_classify_raises_when_normalization_fails(monkeypatch):
    # an exact check that stays under python -O, so it must be able to fail
    monkeypatch.setattr(bialgebra, "apply_automorphism", lambda delta, B: delta)
    with pytest.raises(RuntimeError, match=f"normalization failed for {TYPE_I_PLUS}"):
        classify(Cocommutator(a1=1, b1=1))


def test_classify_rejects_symbolic():
    with pytest.raises(TypeError):
        classify(constrained_symbolic())


def test_classification_grid_small():
    vals = [Fraction(v) for v in (-1, 0, 1)]
    count = {TRIVIAL: 0, TYPE_I_PLUS: 0, TYPE_I_MINUS: 0, TYPE_II: 0, INVALID: 0}
    for tup in itertools.product(vals, repeat=6):
        delta = Cocommutator(*tup)
        ok = (all(not t for t in cocycle_residuals(delta))
              and not any(cojacobi_residuals(delta)))
        c = classify(delta)
        assert (c.tag != INVALID) == ok
        count[c.tag] += 1
        if c.tag != INVALID:
            a1, a2, a3, b1, b2, b3 = tup
            if all(not v for v in tup):
                assert c.tag == TRIVIAL
            elif a1:
                assert c.tag == TYPE_I_PLUS
            elif b1:
                assert c.tag == TYPE_I_MINUS
            else:
                assert c.tag == TYPE_II
            expected_cob = (not a1 and not a3 and not b1 and not b2 and a2 == b3)
            assert c.coboundary == expected_cob
    assert count[TRIVIAL] == 1 and count[TYPE_II] == 3 ** 4 - 1


# -- automorphisms ----------------------------------------------------------------------

def test_identity_automorphism():
    delta = Cocommutator(a1=1, a3=2)
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert apply_automorphism(delta, eye) == delta


def test_swap_maps_i_plus_onto_i_minus_form():
    delta = Cocommutator(a1=2, a3=3)     # normalized I+ shape
    swapped = apply_automorphism(delta, SWAP_AUTOMORPHISM)
    c = classify(swapped)
    assert c.tag == TYPE_I_MINUS
    assert swapped.b1 == -2 and swapped.b2 == -3
    assert not swapped.a1 and not swapped.a2 and not swapped.a3 and not swapped.b3


def test_normalizing_automorphism_kills_superfluous_parameters():
    # full I+ family point: b2, b3 determined by (a1, a2, a3, b1)
    a1, a2, a3, b1 = Fraction(1), Fraction(2), Fraction(3), Fraction(4)
    b2 = -a3 * b1 ** 2 / a1 ** 2
    b3 = a2 + 2 * b1 * a3 / a1
    delta = Cocommutator(a1, a2, a3, b1, b2, b3)
    c = classify(delta)
    assert c.tag == TYPE_I_PLUS
    moved = apply_automorphism(delta, c.automorphism)
    assert not moved.b1 and not moved.a2 and not moved.b2 and not moved.b3
    assert moved.a1 == a1 and moved.a3 == a3
    assert moved == c.normalized


def test_non_automorphism_rejected_with_bracket_name():
    bad = ((1, 0, 0), (0, 1, 0), (0, 0, 2))   # scales M only: breaks [A-, A+]
    with pytest.raises(ValueError, match=r"\[A-, A\+\]"):
        apply_automorphism(Cocommutator(a1=1), bad)


def _random_automorphism(rng):
    while True:
        p, q, s, t = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        det = p * t - q * s
        if det:
            break
    r, u = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
    return ((p, s, 0), (q, t, 0), (r, u, det))


def test_automorphism_preserves_residual_checks():
    rng = random.Random(21)
    for _ in range(40):
        delta = Cocommutator(*(Fraction(rng.randint(-2, 2)) for _ in range(6)))
        B = _random_automorphism(rng)
        moved = apply_automorphism(delta, B)
        assert (not any(cojacobi_residuals(delta))) == \
            (not any(cojacobi_residuals(moved)))
        assert all(not t for t in cocycle_residuals(moved))
        assert (classify(delta).tag == INVALID) == (classify(moved).tag == INVALID)


# -- r-matrices -------------------------------------------------------------------------

def test_schouten_symbolic():
    # the symbols are untruncated, so xi^2 survives every order K
    xi = sym("xi", math.inf)
    assert schouten(RMatrix.symbolic()) == xi * xi


def test_schouten_examples():
    # rational coefficients give a rational coordinate
    assert schouten(RMatrix(1, 0, 0)) == 1
    assert schouten(RMatrix(Fraction(-3, 2), 1)) == Fraction(9, 4)
    assert not schouten(RMatrix(0, 5, -2))
    assert not schouten(RMatrix())


def test_mcybe():
    assert mcybe_check(Fraction(1)) is True
    assert mcybe_check(Fraction(0)) is True
    assert mcybe_check(schouten(RMatrix.symbolic())) is True


def test_coboundary_delta_examples():
    assert coboundary_delta(RMatrix(1, 0, 0)) == Cocommutator(a2=-1, b3=-1)
    assert coboundary_delta(RMatrix(0, 3, 7)) == Cocommutator()
    assert coboundary_delta(RMatrix()) == Cocommutator()


def test_coboundary_delta_symbolic():
    delta = coboundary_delta(RMatrix.symbolic())
    xi = sym("xi", math.inf)
    assert delta.a2 == -xi and delta.b3 == -xi
    assert not delta.a1 and not delta.a3 and not delta.b1 and not delta.b2
    assert not delta.c1 and not delta.c2 and not delta.c3


def test_coboundary_always_bialgebra():
    rng = random.Random(31)
    for _ in range(30):
        r = RMatrix(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(3)))
        delta = coboundary_delta(r)
        assert all(not t for t in cocycle_residuals(delta))
        assert not any(cojacobi_residuals(delta))
        assert mcybe_check(schouten(r))


def test_find_rmatrix_examples():
    assert find_rmatrix(Cocommutator(a2=-2, b3=-2)) == RMatrix(2, 0, 0)
    normalized_i_plus = Cocommutator(a1=1)
    assert find_rmatrix(normalized_i_plus) is None
    assert find_rmatrix(Cocommutator()) == RMatrix()


def test_find_rmatrix_roundtrip():
    rng = random.Random(41)
    for _ in range(30):
        r = RMatrix(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(3)))
        fit = find_rmatrix(coboundary_delta(r))
        assert fit is not None and fit.xi == r.xi


def test_rmatrix_gauge():
    assert rmatrix_gauge() == ("beta_plus", "beta_minus")


# -- dual bracket table -------------------------------------------------------------------

def test_dual_bracket_table_constrained():
    table = dual_bracket_table(constrained_symbolic(K))
    a1, a2, a3, b1, b2, b3 = (sym(n) for n in ("a1", "a2", "a3", "b1", "b2", "b3"))
    assert table[(0, 1)] == {0: a1, 1: b1}
    assert table[(0, 2)] == {0: a2, 1: b2, 2: b1}
    assert table[(1, 2)] == {0: a3, 1: b3, 2: -a1}


# -- JSON schema ------------------------------------------------------------------------

def test_cocommutator_json_roundtrip():
    delta = Cocommutator(a1="1/2", b3=-2)
    doc = delta.to_json()
    assert doc["a1"] == "1/2" and doc["c3"] == "-1/2"
    assert Cocommutator.from_json(doc) == delta


def test_cocommutator_json_defaults_and_strictness():
    d = Cocommutator.from_json({"a2": "-1", "b3": "-1"})
    assert d == Cocommutator(a2=-1, b3=-1)
    with pytest.raises(ValueError):
        Cocommutator.from_json({"a9": "1"})
    with pytest.raises(ValueError):
        Cocommutator.from_json({"a1": 1})
    with pytest.raises(ValueError):
        Cocommutator.from_json({"a1": "x"})
    with pytest.raises(ValueError):
        Cocommutator.from_json({"a1": "1/0"})
    with pytest.raises(ValueError):
        Cocommutator.from_json(["1"])


def test_rmatrix_json():
    r = RMatrix.from_json({"xi": "1"})
    assert r == RMatrix(1, 0, 0)
    with pytest.raises(ValueError):
        RMatrix.from_json({"x": "1"})
    with pytest.raises(ValueError):
        RMatrix.from_json({"xi": "1/0"})
    assert r.to_json() == {"xi": "1", "beta_plus": "0", "beta_minus": "0"}
