"""A certificate for ``classify``: on each of its branches, every coefficient
that it asserts to be zero after normalization lies in the ideal of the
co-Jacobi quadrics plus the branch condition.

A nonzero a1 is the generator 1 - a1*t (t a fresh variable, so a1 is
invertible modulo the ideal), a1 = 0 with b1 nonzero is a1, 1 - b1*t, and
a1 = b1 = 0 is a1, b1.  The cocycle constraints c1 = 0, c2 = b1, c3 = -a1 hold
on every input that reaches normalization, so they are substituted.  The
basis change is the engine's own (``_normalizing_matrix`` fed with sympy
symbols); the transport is independent of the engine's.  A normalized
coefficient is a rational function whose denominator is a power of the
inverted coefficient, so it vanishes on the branch exactly when its numerator
reduces to 0 modulo a Groebner basis of the ideal.
"""

import pytest

sympy = pytest.importorskip("sympy")

from hweyl.bialgebra import (FAMILIES, TYPE_I_MINUS, TYPE_I_PLUS,  # noqa: E402
                             TYPE_II, WEDGE_PAIRS, _COEFF_NAMES,
                             _normalizing_matrix)

a1, a2, a3, b1, b2, b3, t = sympy.symbols("a1 a2 a3 b1 b2 b3 t")
GENS = (t, a1, a2, a3, b1, b2, b3)
ROWS = ((a1, a2, a3), (b1, b2, b3), (0, b1, -a1))
QUADRICS = [a1 * (b3 - a2) - 2 * b1 * a3, b1 * (a2 - b3) - 2 * a1 * b2]

#: Per branch: its extra ideal generators and the coefficient it inverts.
BRANCHES = {TYPE_I_PLUS: ([1 - a1 * t], a1),
            TYPE_I_MINUS: ([a1, 1 - b1 * t], b1),
            TYPE_II: ([a1, b1], None)}


def transport(B):
    """delta'(e_j) = B^-1 (sum_i B[i][j] D_i) B^-T, with D_i the antisymmetric
    matrix of delta(e_i), as the nine new coefficients by name."""
    B = sympy.Matrix(B)
    Binv = B.inv()
    D = []
    for row in ROWS:
        m = sympy.zeros(3, 3)
        for (p, q), v in zip(WEDGE_PAIRS, row):
            m[p, q], m[q, p] = v, -v
        D.append(m)
    out = []
    for j in range(3):
        mixed = sum((B[i, j] * D[i] for i in range(3)), sympy.zeros(3, 3))
        moved = Binv * mixed * Binv.T
        out += [moved[p, q] for p, q in WEDGE_PAIRS]
    return dict(zip(_COEFF_NAMES, out))


def remainders(tag, names):
    """Remainder of each named normalized coefficient's numerator modulo the
    branch ideal."""
    extra, inverted = BRANCHES[tag]
    basis = sympy.groebner(QUADRICS + extra, *GENS, order="grevlex")
    normalized = transport(_normalizing_matrix(tag, a1, a2, a3, b1, b3))
    out = {}
    for name in names:
        num, den = sympy.fraction(sympy.cancel(normalized[name]))
        allowed = {inverted} if inverted is not None else set()
        assert den.free_symbols <= allowed
        assert not den.free_symbols or sympy.Poly(den, inverted).is_monomial
        out[name] = basis.reduce(sympy.expand(num))[1]
    return out


@pytest.mark.parametrize("tag", list(BRANCHES))
def test_classify_zeros_lie_in_the_branch_ideal(tag):
    killed = [n for n in _COEFF_NAMES[:6] if n not in FAMILIES[tag][0]]
    assert len(killed) == (4 if tag != TYPE_II else 2)
    assert remainders(tag, killed) == {n: 0 for n in killed}


@pytest.mark.parametrize("tag", [TYPE_I_PLUS, TYPE_I_MINUS])
def test_kept_parameters_are_not_in_the_branch_ideal(tag):
    # the certificate can fail: the family's own parameters stay free
    kept = FAMILIES[tag][0]
    assert all(rem != 0 for rem in remainders(tag, kept).values())
