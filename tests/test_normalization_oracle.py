"""``classify``'s normalization of I+ and I- inputs against independent
oracles, on Hypothesis-drawn input.

A normalized representative of either family, its numerators and
denominators up to 10^40, is moved by random automorphisms of the benchmark
(``perfbench/jobs.py``: ``random_automorphism`` and ``transport``, which do
not import ``hweyl``), drawn until the moved input lies on the branch under
test: a1 != 0 for TYPE_I_PLUS, a1 = 0 and b1 != 0 for TYPE_I_MINUS.  Then:

- the reported tag lies in the orbit of the representative;
- ``check_automorphism`` accepts the reported basis change B;
- the benchmark's transport of the input by B is the normalized form;
- B is the Fraction formula of ``engine_helpers.normalizing_matrix_oracle``.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hweyl.bialgebra import (TYPE_I_MINUS, TYPE_I_PLUS, Cocommutator,  # noqa: E402
                             check_automorphism, classify)

from engine_helpers import normalizing_matrix_oracle  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import jobs  # noqa: E402

examples = settings(max_examples=200, derandomize=True, database=None, deadline=None)

BIG = 10 ** 40


def rationals(nonzero=False):
    numerators = st.integers(-BIG, BIG)
    return st.builds(Fraction, numerators.filter(bool) if nonzero else numerators,
                     st.integers(1, BIG))


def on_branch(tag, delta):
    if tag == TYPE_I_PLUS:
        return delta["a1"] != 0
    return delta["a1"] == 0 and delta["b1"] != 0


@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS])
@examples
@given(family=st.sampled_from([TYPE_I_PLUS, TYPE_I_MINUS]),
       kept=st.tuples(rationals(nonzero=True), rationals()),
       seed=st.integers(0, 2 ** 32))
def test_normalization_matches_the_oracles(tag, family, kept, seed):
    rep = jobs.delta_of(**dict(zip(jobs.FAMILY_PARAMS[family], kept)))
    rng = random.Random(seed)
    moved = jobs.transport(rep, jobs.random_automorphism(rng))
    while not on_branch(tag, moved):
        moved = jobs.transport(rep, jobs.random_automorphism(rng))
    result = classify(Cocommutator(**moved))
    assert result.tag == tag and tag in jobs.orbit_of(rep)
    B = result.automorphism
    check_automorphism(B)
    assert jobs.transport(moved, B) == result.normalized.coefficients()
    coefficients = (moved[n] for n in ("a1", "a2", "a3", "b1", "b3"))
    assert B == normalizing_matrix_oracle(tag, *coefficients)
