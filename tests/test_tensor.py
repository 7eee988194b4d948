import copy
import pickle
import random
from fractions import Fraction

import pytest

from hweyl.params import ParamPoly
from hweyl.freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, FreeElement,
                           RewriteSystem, nc_mul, normal_form)
from hweyl.tensor import TensorElement, flip, outer, tensor_mul
from hweyl.bialgebra import TYPE_I_PLUS, TYPE_II, BialgebraClass
from hweyl.quantization import _Series, family_rewrite, quantize

from engine_helpers import truncated, wedge3
from rewrite_oracle import rightmost_normal_form

K = 4


def gen(name):
    return FreeElement.generator(name, K)


def one():
    return FreeElement.one(K)


def test_outer_and_tensor_mul_slotwise():
    rs = RewriteSystem.undeformed(K)
    u = outer(gen(GEN_AP), one())
    v = outer(one(), gen(GEN_AP))
    assert tensor_mul(u, v, rs) == outer(gen(GEN_AP), gen(GEN_AP))


def test_tensor_mul_rewrites_slots():
    rs = RewriteSystem.undeformed(K)
    u = outer(gen(GEN_AM), one())
    v = outer(gen(GEN_AP), one())
    prod = tensor_mul(u, v, rs)
    expected = outer(FreeElement.from_word((GEN_AP, GEN_AM), K) + gen(GEN_M), one())
    assert prod == expected


def test_tensor_mul_m_slots():
    rs = RewriteSystem.undeformed(K)
    u = outer(one(), gen(GEN_M))
    v = outer(gen(GEN_M), one())
    assert tensor_mul(u, v, rs) == outer(gen(GEN_M), gen(GEN_M))


def test_constructor_refuses_a_letter_that_is_no_generator():
    # a slot given as the string "A+" is read letter by letter
    c = ParamPoly.one(K)
    for terms in ({("A+", (GEN_M,)): c}, {((GEN_M,), (GEN_AP, "x"), ()): c}):
        with pytest.raises(ValueError, match="unknown generator"):
            TensorElement(len(next(iter(terms))), terms, K)
    assert str(TensorElement(2, {((GEN_AP,), (GEN_M, GEN_M)): c}, K)) == "A+ (x) M^2"


def test_tensor_mul_rank_mismatch():
    rs = RewriteSystem.undeformed(K)
    with pytest.raises(ValueError):
        tensor_mul(outer(one(), one()), outer(one(), one(), one()), rs)
    # rank 3 is refused too: nothing in the engine multiplies rank-3 tensors
    with pytest.raises(ValueError, match="rank-2"):
        tensor_mul(outer(one(), one(), one()), outer(one(), one(), one()), rs)


def test_flip_examples():
    t = outer(gen(GEN_AP), gen(GEN_M))
    assert flip(t) == outer(gen(GEN_M), gen(GEN_AP))
    u = outer(gen(GEN_AP), one()) + outer(one(), gen(GEN_M))
    assert flip(u) == outer(one(), gen(GEN_AP)) + outer(gen(GEN_M), one())


def test_flip_involution_random():
    rng = random.Random(5)
    for _ in range(20):
        t = TensorElement(2, {}, K)
        for _ in range(4):
            w1 = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 2)))
            w2 = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 2)))
            c = ParamPoly.const(rng.randint(-3, 3), K)
            t = t + TensorElement(2, {(w1, w2): c}, K)
        assert flip(flip(t)) == t


def test_flip_rejects_rank3():
    with pytest.raises(ValueError):
        flip(outer(one(), one(), one()))


def wedge2(x, y):
    """x ^ y = x (x) y - y (x) x (no 1/2 normalization)."""
    return outer(x, y) - outer(y, x)


def test_wedge2_skew():
    w = wedge2(gen(GEN_AP), gen(GEN_M))
    assert w == outer(gen(GEN_AP), gen(GEN_M)) - outer(gen(GEN_M), gen(GEN_AP))
    assert flip(w) == -w


def test_wedge3_alternating():
    w = wedge3(gen(GEN_M), gen(GEN_AP), gen(GEN_AM))
    assert six_permutation_alternating(w)
    assert len(w.terms) == 6
    assert w.terms[((GEN_M,), (GEN_AP,), (GEN_AM,))] == ParamPoly.one(K)
    assert w.terms[((GEN_AP,), (GEN_M,), (GEN_AM,))] == -ParamPoly.one(K)


_PERMUTATIONS = {(0, 1, 2): 1, (0, 2, 1): -1, (1, 0, 2): -1,
                 (1, 2, 0): 1, (2, 0, 1): 1, (2, 1, 0): -1}


def six_permutation_alternating(t):
    """Oracle: every term's image under each of the six slot permutations
    carries the coefficient times the permutation's sign."""
    zero = ParamPoly.zero(t.order)
    for slots, coeff in t.terms.items():
        for perm, sign in _PERMUTATIONS.items():
            image = tuple(slots[p] for p in perm)
            if t.terms.get(image, zero) != coeff * sign:
                return False
    return True


def test_truncation_consistency():
    rng = random.Random(17)
    rs6 = RewriteSystem.undeformed(6)
    rs3 = RewriteSystem.undeformed(3)
    syms = ("a1", "b2", "xi")
    for _ in range(15):
        def rand_tensor(order):
            t = TensorElement(2, {}, order)
            for _ in range(3):
                w1 = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 2)))
                w2 = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 2)))
                c = ParamPoly.const(rng.randint(-2, 2), order)
                for _ in range(rng.randint(0, 2)):
                    c = c * ParamPoly.symbol(rng.choice(syms), order)
                t = t + TensorElement(2, {(w1, w2): c}, order)
            return t
        rng_state = rng.getstate()
        u6, v6 = rand_tensor(6), rand_tensor(6)
        rng.setstate(rng_state)
        u3, v3 = rand_tensor(3), rand_tensor(3)
        assert truncated(u6, 3) == u3
        assert truncated(tensor_mul(u6, v6, rs6), 3) == tensor_mul(u3, v3, rs3)
        assert truncated(flip(u6), 3) == flip(u3)


def test_rendering():
    t = outer(one(), gen(GEN_AM)) + outer(gen(GEN_AM), one())
    assert str(t) == "1 (x) A- + A- (x) 1"
    s = outer(gen(GEN_M), gen(GEN_AP)) * ParamPoly.symbol("a1", K)
    assert str(s) == "a1*M (x) A+"


# -- internal sums ----------------------------------------------------------------

#: A low order, so that many products of coefficients truncate to zero.
IK = 2


def _sum_coeff(rng):
    c = ParamPoly.const(Fraction(rng.randint(1, 3) * rng.choice((-1, 1)),
                                 rng.randint(1, 3)), IK)
    for _ in range(rng.randint(0, 2)):
        c = c * ParamPoly.symbol(rng.choice(("a1", "a3")), IK)
    return c


def _random_sum(rng, rank, base=None):
    """A random FreeElement (``rank`` None) or TensorElement; about half the
    terms of ``base`` come back negated, so that a sum with it cancels."""
    def word():
        return tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 3)))
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = word() if rank is None else tuple(word() for _ in range(rank))
        terms[key] = _sum_coeff(rng)
    for key, c in (base.terms.items() if base is not None else ()):
        if rng.random() < 0.5:
            terms[key] = -c
    return FreeElement(terms, IK) if rank is None else TensorElement(rank, terms, IK)


def assert_checked(result, rank=None):
    """``result`` equals its rebuild through the public checking constructor,
    holds no zero coefficient, keys every term by a tuple (of tuples) and
    keeps its rank."""
    terms = dict(result.terms)
    if rank is None:
        assert type(result) is FreeElement
        assert result == FreeElement(terms, IK)
    else:
        assert type(result) is TensorElement and result.rank == rank
        assert result == TensorElement(rank, terms, IK)
        assert all(len(key) == rank and all(type(w) is tuple for w in key)
                   for key in terms)
    assert result.order == IK
    assert all(type(key) is tuple for key in terms)
    assert all(terms.values())


def test_internal_sums_equal_their_checked_rebuild():
    rng = random.Random(71)
    rs = family_rewrite(_Series(BialgebraClass.symbolic(TYPE_I_PLUS, IK), IK))
    cancelled = truncated = 0
    for _ in range(120):
        for rank in (None, 2, 3):
            x = _random_sum(rng, rank)
            y = _random_sum(rng, rank, base=x)
            s = _sum_coeff(rng)
            results = [x + y, x - y, y - x, -x, x * s, s * x, x * 3, x * 0, x - x]
            if rank is None:
                results += [nc_mul(x, y), normal_form(x, rs),
                            normal_form(nc_mul(y, x), rs),
                            rightmost_normal_form(x, rs)]
            if rank == 2:
                results += [tensor_mul(x, y, rs), flip(x)]
            for result in results:
                assert_checked(result, rank)
            assert (x - y) + y == x and -(-x) == x and x + y == y + x
            cancelled += len((x + y).terms) < len(x.terms.keys() | y.terms.keys())
            truncated += len((x * s).terms) < len(x.terms)
    assert cancelled > 50 and truncated > 50


def test_free_and_tensor_elements_copy_and_pickle_round_trip():
    hp = quantize(TYPE_II, order=3)
    values = [FreeElement.zero(K), one(), hp.antipode[GEN_AM], TensorElement(2, {}, K),
              hp.coproduct[GEN_AM], wedge3(gen(GEN_M), gen(GEN_AP), gen(GEN_AM))]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x)
            assert y == x and str(y) == str(x) and y.order == x.order
            assert getattr(y, "rank", None) == getattr(x, "rank", None)
            assert y - x == x - x
            with pytest.raises(AttributeError, match="immutable"):
                y.order = 5
