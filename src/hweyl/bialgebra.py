"""Lie bialgebra structures on the Heisenberg-Weyl algebra.

Covers the cocycle and co-Jacobi constraints on the nine-coefficient
cocommutator, the TYPE_I_PLUS / TYPE_I_MINUS / TYPE_II taxonomy with its
normalizing automorphisms and its one table of per-family facts
(``FAMILIES``), and coboundary detection through r-matrices, the Schouten
bracket and the modified classical Yang-Baxter equation.

The only nonzero bracket is [A-, A+] = M, so the checks on the path of
``classify`` are closed forms in the nine coefficients rather than loops over
index tensors:

- the cocycle residuals are three linear forms (``_cocycle_forms``);
- the co-Jacobi residuals are two quadrics (``_cojacobi_forms``);
- a basis change B = N / D is an automorphism exactly when the image of M
  is det(B restricted to A-, A+) times M, an integer test on N, and it is
  then singular exactly when N22 = 0 (``check_automorphism``);
- the transport of delta by B needs the 2x2 minors of B^-1, which Jacobi's
  complementary-minor identity gives as signed entries of B over det B, so
  each new coefficient is one integer sum over one denominator
  (``apply_automorphism``).

``classify`` evaluates the cocycle forms, the co-Jacobi quadrics and the
normalizing basis change N / d (``_normalizing_matrix``) on the integer
numerators of the nine coefficients over their common denominator E
(``Cocommutator.numerators``, which the transport reuses); E cancels from
N / d, and only a reported co-Jacobi residual becomes a Fraction, j / E^2.

On the coboundary side only the xi A+ ^ A- part of an r-matrix has a nonzero
bracket, so every map is read off xi:

- Lambda^3 g is one-dimensional, spanned by A- ^ A+ ^ M, so the Schouten
  bracket [[r, r]] is one coordinate on it: xi^2 (``schouten``), zero, so r
  triangular, exactly when xi = 0;
- ad_x acts on Lambda^3 g by tr(ad_x) (Chari & Pressley, A Guide to Quantum
  Groups, 1994), so the modified CYBE holds for the coordinate c exactly
  when c tr(ad_x) = 0 for every basis vector x (``mcybe_check``); the traces
  vanish here, as the algebra is nilpotent;
- the induced cocommutator is xi times a2 = b3 = -1 (``coboundary_delta``),
  so ``find_rmatrix`` reads xi = -a2 off delta once the other eight
  coefficients are checked, and beta_plus, beta_minus are the gauge
  (``rmatrix_gauge``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .params import (DEFAULT_ORDER, ParamPoly, Record, ValueRecord, as_fraction, as_scalar,
                     parse_fields)
from .freealg import GEN_AM, GEN_AP, GEN_M
from .tensor import TensorElement

#: Basis order used for cocommutator coefficients and automorphism matrices.
BASIS = (GEN_AM, GEN_AP, GEN_M)
_IDX = {name: i for i, name in enumerate(BASIS)}

#: Ordered wedge basis A- ^ A+, A- ^ M, A+ ^ M.
WEDGE_PAIRS = ((0, 1), (0, 2), (1, 2))

TRIVIAL = "TRIVIAL"
TYPE_I_PLUS = "TYPE_I_PLUS"
TYPE_I_MINUS = "TYPE_I_MINUS"
TYPE_II = "TYPE_II"
INVALID = "INVALID"

_COEFF_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3")

#: The per-family facts: (deformation parameters the normal form keeps, the
#: primitive generator p, the non-primitive vector v).  Everything else about
#: a family is read off its cocommutator, delta(v_i) = sum_j Theta_ij p ^ v_j.
FAMILIES = {
    TYPE_I_PLUS: (("a1", "a3"), GEN_AP, (GEN_AM, GEN_M)),
    TYPE_I_MINUS: (("b1", "b2"), GEN_AM, (GEN_AP, GEN_M)),
    TYPE_II: (("a2", "a3", "b2", "b3"), GEN_M, (GEN_AM, GEN_AP)),
    TRIVIAL: ((), GEN_M, (GEN_AM, GEN_AP)),
}


#: The Heisenberg-Weyl bracket [A-, A+] = M with M central: [e_i, e_j] as a
#: sparse vector over BASIS, for the ordered index pairs where it is nonzero.
BRACKET = {(0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)}}


def _skew(pairs):
    """Full rank-2 index dict of the sum of w * (e_p ^ e_q) over ((p, q), w),
    for distinct unordered pairs (p, q)."""
    out = {}
    for (p, q), w in pairs:
        if w:
            out[(p, q)] = w
            out[(q, p)] = -w
    return out


class Cocommutator(ValueRecord):
    """The nine-coefficient skew map delta: g -> g ^ g.

    ``_FIELDS`` are the nine coefficients a1, a2, a3, b1, b2, b3, c1, c2, c3.
    Coefficients may be exact rationals or ParamPoly (for symbolic runs).
    Omitted c-coefficients default to the values forced by the cocycle
    condition: c1 = 0, c2 = b1, c3 = -a1.
    """

    _FIELDS = _COEFF_NAMES
    __slots__ = _FIELDS + ("_ints",)

    def __init__(self, a1=0, a2=0, a3=0, b1=0, b2=0, b3=0,
                 c1=None, c2=None, c3=None):
        a1, a2, a3, b1, b2, b3 = map(as_scalar, (a1, a2, a3, b1, b2, b3))
        self._store(a1, a2, a3, b1, b2, b3,
                    as_scalar(c1) if c1 is not None else Fraction(0),
                    as_scalar(c2) if c2 is not None else b1,
                    as_scalar(c3) if c3 is not None else -a1)

    def coefficients(self):
        return {name: getattr(self, name) for name in _COEFF_NAMES}

    def numerators(self):
        """(the nine coefficients as integer numerators, their common
        denominator), built once; the coefficients must be rational."""
        try:
            return self._ints
        except AttributeError:
            ints = _integers([getattr(self, n) for n in _COEFF_NAMES])
            object.__setattr__(self, "_ints", ints)
            return ints

    def rows(self):
        """Wedge coefficients of delta(A-), delta(A+), delta(M), in that order."""
        return ((self.a1, self.a2, self.a3),
                (self.b1, self.b2, self.b3),
                (self.c1, self.c2, self.c3))

    def wedge_row(self, i):
        row = self.rows()[i]
        return {pair: row[n] for n, pair in enumerate(WEDGE_PAIRS) if row[n]}

    def full_row(self, i):
        """delta(e_i) as a full rank-2 dict over basis-index pairs."""
        return _skew(self.wedge_row(i).items())

    @property
    def is_symbolic(self):
        return any(isinstance(getattr(self, n), ParamPoly) for n in _COEFF_NAMES)

    def as_tensor(self, generator, order):
        """delta(generator) as a rank-2 TensorElement at truncation ``order``."""
        return _to_tensor(self.full_row(_IDX[generator]), order)

    def __str__(self):
        return ", ".join(f"{n}={getattr(self, n)}" for n in _COEFF_NAMES)

    def __repr__(self):
        return f"Cocommutator({self})"

    # -- JSON schema shared with the CLI -------------------------------------

    @classmethod
    def from_json(cls, data):
        """Strict parse: known keys only, values as rational strings."""
        return cls(**parse_fields("cocommutator", data, _COEFF_NAMES))

    def to_json(self):
        return {n: str(getattr(self, n)) for n in _COEFF_NAMES}


class RMatrix(ValueRecord):
    """Skew element r = xi A+ ^ A- + beta_plus A+ ^ M + beta_minus A- ^ M;
    ``_FIELDS`` are xi, beta_plus and beta_minus."""

    _FIELDS = ("xi", "beta_plus", "beta_minus")
    __slots__ = _FIELDS

    def __init__(self, xi=0, beta_plus=0, beta_minus=0):
        self._store(as_scalar(xi), as_scalar(beta_plus), as_scalar(beta_minus))

    @classmethod
    def symbolic(cls):
        """xi, beta_plus and beta_minus as untruncated symbols: every
        coboundary map is a polynomial of degree at most 2 in them."""
        return cls(*(ParamPoly.symbol(n, math.inf) for n in cls._FIELDS))

    @classmethod
    def from_json(cls, data):
        return cls(**parse_fields("r-matrix", data, cls._FIELDS))

    def to_json(self):
        return {n: str(getattr(self, n)) for n in self._FIELDS}


def _promote(scalar, order):
    if isinstance(scalar, ParamPoly):
        if scalar.order != order:
            raise ValueError("mismatched truncation orders")
        return scalar
    return ParamPoly.const(scalar, order)


def _to_tensor(raw, order):
    """An index tensor {(i, j): c} as a rank-2 TensorElement."""
    return TensorElement(2, {tuple((BASIS[i],) for i in key): _promote(c, order)
                             for key, c in raw.items()}, order)


def _cocycle_forms(a1, a2, a3, b1, b2, b3, c1, c2, c3):
    """The three linear forms of the cocycle residuals: c1, c2 - b1, a1 + c3."""
    return c1, c2 - b1, a1 + c3


def _cojacobi_forms(a1, a2, a3, b1, b2, b3, c1, c2, c3):
    """The two co-Jacobi quadrics in all nine coefficients."""
    return (a1 * b3 + a2 * c3 - a3 * b1 - a3 * c2,
            a2 * b1 - a1 * b2 + b2 * c3 - b3 * c2)


def dual_bracket_table(delta):
    """Structure constants of the dual bracket on (a-, a+, m).

    Entry (i, j) with i < j holds [f_i, f_j]* as a sparse vector; the
    coefficient on f_k is the e_i (x) e_j component of delta(e_k).
    """
    table = {}
    for (i, j) in WEDGE_PAIRS:
        vec = {}
        for k in range(3):
            w = delta.wedge_row(k).get((i, j))
            if w:
                vec[k] = w
        table[(i, j)] = vec
    return table


# -- automorphisms ------------------------------------------------------------

_IDENTITY = ((Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1)))


def check_automorphism(basis_change):
    """Raise unless the basis change B is an automorphism; return N, B's
    entries as integer rows over their common denominator D, B = N / D.

    With columns the images of (A-, A+, M), [A-, A+] = M is preserved exactly
    when B02 = B12 = 0 and B22 = B00*B11 - B10*B01, that is N02 = N12 = 0 and
    N22*D = N00*N11 - N10*N01; the brackets with M then vanish as they should,
    and det B = B22^2 is 0 exactly when N22 = 0.
    """
    if len(basis_change) != 3 or any(len(row) != 3 for row in basis_change):
        raise ValueError("expected a 3x3 matrix")
    flat, D = _integers([as_fraction(v) for row in basis_change for v in row])
    n00, n01, n02, n10, n11, n12, n20, n21, n22 = flat
    if n02 or n12 or n22 * D != n00 * n11 - n10 * n01:
        raise ValueError(
            f"not an automorphism: bracket [{BASIS[0]}, {BASIS[1]}] is not preserved")
    if not n22:
        raise ValueError("basis change is singular")
    return (n00, n01, n02), (n10, n11, n12), (n20, n21, n22)


def _integers(values):
    """(integer numerators, common denominator) of a list of Fractions."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def apply_automorphism(delta, basis_change):
    """Transport delta to the new basis: delta' = (phi (x) phi)^{-1} o delta o phi.

    ``basis_change`` columns are the images of (A-, A+, M) under phi, and the
    coefficients of delta must be rational.  On the wedge pairs n, m the 2x2
    minors of B^-1 are (-1)^(n+m) B[2-m][2-n] / det B, and det B = B22^2 for
    an automorphism.  So with B = N / D and the coefficient rows R / E over
    integers, new row j on pair n is
    sum_m (-1)^(n+m) N[2-m][2-n] sum_i N[i][j] R[i][m] / (N22^2 E).
    """
    if delta.is_symbolic:
        raise TypeError("automorphism transport needs rational coefficients")
    N = check_automorphism(basis_change)
    R, E = delta.numerators()
    minors = [[(-1) ** (n + m) * N[2 - m][2 - n] for m in range(3)] for n in range(3)]
    den = N[2][2] * N[2][2] * E
    new = []
    for j in range(3):
        mixed = [N[0][j] * R[m] + N[1][j] * R[3 + m] + N[2][j] * R[6 + m]
                 for m in range(3)]
        new += [Fraction(w[0] * mixed[0] + w[1] * mixed[1] + w[2] * mixed[2], den)
                for w in minors]
    return Cocommutator(*new[:6], c1=new[6], c2=new[7], c3=new[8])


#: Swap automorphism A+ <-> A-, M -> -M (columns are images of (A-, A+, M)).
SWAP_AUTOMORPHISM = ((Fraction(0), Fraction(1), Fraction(0)),
                     (Fraction(1), Fraction(0), Fraction(0)),
                     (Fraction(0), Fraction(0), Fraction(-1)))


# -- coboundary machinery ------------------------------------------------------

def schouten(r):
    """The Schouten bracket [[r, r]] as its coordinate on A- ^ A+ ^ M, which
    spans Lambda^3 g: a Fraction, or a ParamPoly for a symbolic r.

    The only bracket is [A-, A+] = M, and every term it makes from a beta
    wedge holds M twice, so only xi^2 is left: [[r, r]] = xi^2 (A- ^ A+ ^ M).
    """
    return r.xi * r.xi


def mcybe_check(c):
    """The modified CYBE for the bracket c (A- ^ A+ ^ M) (``schouten``): ad_x
    acts on Lambda^3 g by tr(ad_x), so it holds exactly when c tr(ad_x) = 0
    for every basis vector x.  The traces are read off ``BRACKET``."""
    return not c or not any(sum(BRACKET.get((x, i), {}).get(i, 0) for i in range(3))
                            for x in range(3))


def coboundary_delta(r):
    """The cocommutator delta(X) = [1(x)X + X(x)1, r] induced by an r-matrix.

    ad_x kills A+ ^ M and A- ^ M (its image is central, so it wedges with M
    to zero) and moves xi A+ ^ A- to -xi A- ^ M for x = A-, to -xi A+ ^ M for
    x = A+: delta is xi times a2 = b3 = -1.
    """
    return Cocommutator(a2=-r.xi, b3=-r.xi)


def find_rmatrix(delta):
    """Solve delta = coboundary_delta(r) for r; None when no solution exists.

    Only xi moves the cocommutator (the beta coefficients are the gauge, see
    :func:`rmatrix_gauge`, and are set to zero), so delta is a coboundary
    exactly when a2 = b3 and its other seven coefficients vanish; then
    xi = -a2.  The check is exact and accepts ParamPoly coefficients.
    """
    d = delta
    if d.a1 or d.a3 or d.b1 or d.b2 or d.c1 or d.c2 or d.c3 or d.b3 - d.a2:
        return None
    return RMatrix(-d.a2)


def rmatrix_gauge():
    """Names of the r-matrix coefficients that never affect the cocommutator."""
    return ("beta_plus", "beta_minus")


# -- classification -------------------------------------------------------------

class BialgebraClass(Record):
    """Result of classifying a concrete cocommutator; ``_FIELDS`` are tag,
    normalized, automorphism, rmatrix and failures.  It is a coboundary
    exactly when it has an r-matrix."""

    _FIELDS = ("tag", "normalized", "automorphism", "rmatrix", "failures")
    __slots__ = _FIELDS

    def __init__(self, tag, normalized=None, automorphism=_IDENTITY,
                 rmatrix=None, failures=None):
        self._store(tag, normalized, automorphism, rmatrix, failures or {})

    @property
    def coboundary(self):
        return self.rmatrix is not None

    def family_params(self):
        """The deformation parameters the normalized family keeps (``FAMILIES``)."""
        if self.tag not in FAMILIES:
            raise ValueError(f"{self.tag} has no family parameters")
        return {n: getattr(self.normalized, n) for n in FAMILIES[self.tag][0]}

    @classmethod
    def symbolic(cls, tag, order=DEFAULT_ORDER):
        """Normalized family with its parameters as formal symbols."""
        if tag not in FAMILIES:
            raise ValueError(f"no symbolic family for tag {tag!r}")
        kwargs = {n: ParamPoly.symbol(n, order) for n in FAMILIES[tag][0]}
        return cls(tag, normalized=Cocommutator(**kwargs),
                   rmatrix=RMatrix() if tag == TRIVIAL else None)

    def __repr__(self):
        return f"BialgebraClass({self.tag}, normalized={self.normalized!r})"


def _normalizing_matrix(tag, R):
    """(N, d), where B = N / d is the basis change that ``classify`` uses to
    normalize a TYPE_I_PLUS (a1 invertible) or TYPE_I_MINUS (b1 invertible)
    bialgebra with the nine coefficients R, in ring operations only: integer
    numerators (``Cocommutator.numerators``) or symbols can be fed, and their
    common denominator cancels, as B is homogeneous of degree 0 in R.
    """
    a1, a2, a3, b1, _, b3 = R[:6]
    if tag == TYPE_I_PLUS:
        d = a1 * a1
        return ((d, -b1 * a1, 0), (0, d, 0), (0, b1 * a3 + a2 * a1, d)), d
    return ((b1, 0, 0), (0, b1, 0), (-b3, 0, b1)), b1


def classify(delta):
    """Classify a rational cocommutator into TRIVIAL / I+ / I- / II / INVALID."""
    if delta.is_symbolic:
        raise TypeError("classification needs rational coefficients")

    R, E = delta.numerators()
    f1, f2, f3 = _cocycle_forms(*R)
    if f1 or f2 or f3:
        # pair (A-, A+) carries all three forms, the pairs with M only c1
        pairs = WEDGE_PAIRS if f1 else WEDGE_PAIRS[:1]
        return BialgebraClass(INVALID, failures={
            "cocycle": [(BASIS[i], BASIS[j]) for (i, j) in pairs]})
    jac = _cojacobi_forms(*R)
    if any(jac):
        return BialgebraClass(INVALID, failures={
            "cojacobi": tuple(Fraction(j, E * E) for j in jac)})

    if not any(R):
        return BialgebraClass(TRIVIAL, normalized=delta, rmatrix=RMatrix())

    tag = TYPE_I_PLUS if R[0] else TYPE_I_MINUS if R[3] else TYPE_II
    B, normalized = _IDENTITY, delta
    if tag != TYPE_II:
        N, d = _normalizing_matrix(tag, R)
        B = tuple(tuple(Fraction(n, d) for n in row) for row in N)
        normalized = apply_automorphism(delta, B)
    kept = FAMILIES[tag][0]
    if any(getattr(normalized, n) for n in _COEFF_NAMES[:6] if n not in kept):
        raise RuntimeError(f"normalization failed for {tag}: {normalized}")

    return BialgebraClass(tag, normalized=normalized, automorphism=B,
                          rmatrix=find_rmatrix(normalized))
