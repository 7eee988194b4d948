"""Lie bialgebra structures on the Heisenberg-Weyl algebra.

Covers the cocycle and co-Jacobi constraints on the nine-coefficient
cocommutator, the TYPE_I_PLUS / TYPE_I_MINUS / TYPE_II taxonomy with its
normalizing automorphisms and its one table of per-family facts
(``FAMILIES``), and coboundary detection through r-matrices, the Schouten
bracket and the modified classical Yang-Baxter equation.
"""

from __future__ import annotations

from fractions import Fraction

from .params import DEFAULT_ORDER, ParamPoly, as_fraction, as_scalar, parse_rational
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


def _addin(d, key, val):
    acc = d.get(key)
    total = val if acc is None else acc + val
    if total:
        d[key] = total
    elif key in d:
        del d[key]


#: The Heisenberg-Weyl bracket [A-, A+] = M with M central: [e_i, e_j] as a
#: sparse vector over BASIS, for the ordered index pairs where it is nonzero.
BRACKET = {(0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)}}
_NO_BRACKET = {}


def _bracket(i, j):
    return BRACKET.get((i, j), _NO_BRACKET)


def _skew(pairs):
    """Full rank-2 index dict of the sum of w * (e_p ^ e_q) over ((p, q), w)."""
    out = {}
    for (p, q), w in pairs:
        if w:
            _addin(out, (p, q), w)
            _addin(out, (q, p), -w)
    return out


def _bracket_vectors(x, y):
    """[x, y] for sparse vectors over BASIS."""
    out = {}
    for i, xi in x.items():
        if not xi:
            continue
        for j, yj in y.items():
            c = xi * yj
            if not c:
                continue
            for k, f in _bracket(i, j).items():
                _addin(out, k, f * c)
    return out


class Cocommutator:
    """The nine-coefficient skew map delta: g -> g ^ g.

    Coefficients may be exact rationals or ParamPoly (for symbolic runs).
    Omitted c-coefficients default to the values forced by the cocycle
    condition: c1 = 0, c2 = b1, c3 = -a1.
    """

    __slots__ = _COEFF_NAMES

    def __init__(self, a1=0, a2=0, a3=0, b1=0, b2=0, b3=0,
                 c1=None, c2=None, c3=None):
        vals = {
            "a1": as_scalar(a1), "a2": as_scalar(a2), "a3": as_scalar(a3),
            "b1": as_scalar(b1), "b2": as_scalar(b2), "b3": as_scalar(b3),
        }
        vals["c1"] = as_scalar(c1) if c1 is not None else Fraction(0)
        vals["c2"] = as_scalar(c2) if c2 is not None else vals["b1"]
        vals["c3"] = as_scalar(c3) if c3 is not None else -vals["a1"]
        for name in _COEFF_NAMES:
            object.__setattr__(self, name, vals[name])

    def __setattr__(self, name, value):
        raise AttributeError("Cocommutator is immutable")

    @classmethod
    def generic_symbolic(cls, order=DEFAULT_ORDER):
        """All nine coefficients as formal symbols (c's included)."""
        s = lambda n: ParamPoly.symbol(n, order)
        return cls(*(s(n) for n in _COEFF_NAMES[:6]),
                   c1=s("c1"), c2=s("c2"), c3=s("c3"))

    @classmethod
    def constrained_symbolic(cls, order=DEFAULT_ORDER):
        """Six symbolic coefficients with the cocycle-forced c's."""
        s = lambda n: ParamPoly.symbol(n, order)
        return cls(*(s(n) for n in _COEFF_NAMES[:6]))

    def coefficients(self):
        return {name: getattr(self, name) for name in _COEFF_NAMES}

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

    @property
    def is_zero(self):
        return all(not getattr(self, n) for n in _COEFF_NAMES)

    def param_order(self):
        for n in _COEFF_NAMES:
            v = getattr(self, n)
            if isinstance(v, ParamPoly):
                return v.order
        return None

    def as_tensor(self, generator, order=None):
        """delta(generator) as a rank-2 TensorElement."""
        i = _IDX[generator] if isinstance(generator, str) else generator
        order = order or self.param_order() or DEFAULT_ORDER
        return _to_tensor(self.full_row(i), 2, order)

    def __eq__(self, other):
        if not isinstance(other, Cocommutator):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in _COEFF_NAMES)

    __hash__ = None

    def __str__(self):
        return ", ".join(f"{n}={getattr(self, n)}" for n in _COEFF_NAMES)

    def __repr__(self):
        return f"Cocommutator({self})"

    # -- JSON schema shared with the CLI -------------------------------------

    @classmethod
    def from_json(cls, data):
        """Strict parse: known keys only, values as rational strings."""
        if not isinstance(data, dict):
            raise ValueError("cocommutator input must be a JSON object")
        unknown = set(data) - set(_COEFF_NAMES)
        if unknown:
            raise ValueError(f"unknown cocommutator fields: {sorted(unknown)}")
        vals = {key: parse_rational(key, raw) for key, raw in data.items()}
        kwargs = {k: vals.get(k, 0) for k in _COEFF_NAMES[:6]}
        for ck in ("c1", "c2", "c3"):
            if ck in vals:
                kwargs[ck] = vals[ck]
        return cls(**kwargs)

    def to_json(self):
        return {n: str(getattr(self, n)) for n in _COEFF_NAMES}


class RMatrix:
    """Skew element r = xi A+ ^ A- + beta_plus A+ ^ M + beta_minus A- ^ M."""

    __slots__ = ("xi", "beta_plus", "beta_minus")

    def __init__(self, xi=0, beta_plus=0, beta_minus=0):
        object.__setattr__(self, "xi", as_scalar(xi))
        object.__setattr__(self, "beta_plus", as_scalar(beta_plus))
        object.__setattr__(self, "beta_minus", as_scalar(beta_minus))

    def __setattr__(self, name, value):
        raise AttributeError("RMatrix is immutable")

    @classmethod
    def symbolic(cls, order=DEFAULT_ORDER):
        return cls(ParamPoly.symbol("xi", order),
                   ParamPoly.symbol("beta_plus", order),
                   ParamPoly.symbol("beta_minus", order))

    def components(self):
        """Full rank-2 dict over basis-index pairs."""
        return _skew((((1, 0), self.xi), ((1, 2), self.beta_plus),
                      ((0, 2), self.beta_minus)))

    def as_tensor(self, order=None):
        order = order or _order_of(self.xi, self.beta_plus, self.beta_minus)
        return _to_tensor(self.components(), 2, order)

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (self.xi == other.xi and self.beta_plus == other.beta_plus
                and self.beta_minus == other.beta_minus)

    __hash__ = None

    def __str__(self):
        return (f"xi={self.xi}, beta_plus={self.beta_plus}, "
                f"beta_minus={self.beta_minus}")

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValueError("r-matrix input must be a JSON object")
        names = ("xi", "beta_plus", "beta_minus")
        unknown = set(data) - set(names)
        if unknown:
            raise ValueError(f"unknown r-matrix fields: {sorted(unknown)}")
        return cls(**{key: parse_rational(key, raw) for key, raw in data.items()})

    def to_json(self):
        return {"xi": str(self.xi),
                "beta_plus": str(self.beta_plus),
                "beta_minus": str(self.beta_minus)}


def _promote(scalar, order):
    if isinstance(scalar, ParamPoly):
        if scalar.order != order:
            raise ValueError("mismatched truncation orders")
        return scalar
    return ParamPoly.const(scalar, order)


def _order_of(*scalars, default=DEFAULT_ORDER):
    for s in scalars:
        if isinstance(s, ParamPoly):
            return s.order
    return default


# -- adjoint actions on index tensors ----------------------------------------

def _ad(x, t):
    """ad_{e_x} on an index tensor of any rank: [e_x, -] on each slot in turn."""
    out = {}
    for key, c in t.items():
        for n, i in enumerate(key):
            for k, f in _bracket(x, i).items():
                _addin(out, key[:n] + (k,) + key[n + 1:], f * c)
    return out


def _to_tensor(raw, rank, order):
    """An index tensor {(i, j, ...): c} as a rank-``rank`` TensorElement."""
    return TensorElement(rank, {tuple((BASIS[i],) for i in key): _promote(c, order)
                                for key, c in raw.items()}, order)


def _cocycle_raw(delta):
    """Residual of the 1-cocycle identity for each basis pair, as index tensors."""
    residuals = []
    rows = [delta.full_row(i) for i in range(3)]
    for (i, j) in WEDGE_PAIRS:
        acc = {}
        # delta([e_i, e_j])
        for k, f in _bracket(i, j).items():
            for key, c in rows[k].items():
                _addin(acc, key, f * c)
        # + ad_{e_j} delta(e_i) - ad_{e_i} delta(e_j)
        for key, c in _ad(j, rows[i]).items():
            _addin(acc, key, c)
        for key, c in _ad(i, rows[j]).items():
            _addin(acc, key, -c)
        residuals.append(acc)
    return residuals


def cocycle_residuals(delta, order=None):
    """delta([X,Y]) - [delta(X), 1(x)Y + Y(x)1] - [1(x)X + X(x)1, delta(Y)]
    for the basis pairs (A-,A+), (A-,M), (A+,M), as rank-2 tensors."""
    order = order or delta.param_order() or DEFAULT_ORDER
    return [_to_tensor(raw, 2, order) for raw in _cocycle_raw(delta)]


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


def _dual_bracket(table, i, vec):
    out = {}
    for k, c in vec.items():
        if i == k or not c:
            continue
        entry = table[(i, k)] if i < k else table[(k, i)]
        sign = 1 if i < k else -1
        for m, f in entry.items():
            _addin(out, m, sign * f * c)
    return out


def _dual_jacobiator(delta):
    table = dual_bracket_table(delta)
    acc = {}
    one = Fraction(1)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = _dual_bracket(table, j, {k: one})
        for m, v in _dual_bracket(table, i, inner).items():
            _addin(acc, m, v)
    return acc


def cojacobi_residuals(delta):
    """The two Jacobi residuals of the dual bracket (components on a-, a+).

    With the cocycle constraints imposed these are a1*(b3-a2) - 2*b1*a3 and
    b1*(a2-b3) - 2*a1*b2; the third component vanishes identically then.
    """
    jac = _dual_jacobiator(delta)
    return [jac.get(0, Fraction(0)), jac.get(1, Fraction(0))]


# -- automorphisms ------------------------------------------------------------

def _mat(rows):
    out = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    if len(out) != 3 or any(len(r) != 3 for r in out):
        raise ValueError("expected a 3x3 matrix")
    return out


_IDENTITY = ((Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1)))


def _mat_inv(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g_, h, i = m[2]
    det = a * (e * i - f * h) - b * (d * i - f * g_) + c * (d * h - e * g_)
    if det == 0:
        raise ValueError("basis change is singular")
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g_ - d * i, a * i - c * g_, c * d - a * f),
           (d * h - e * g_, b * g_ - a * h, a * e - b * d))
    return tuple(tuple(v / det for v in row) for row in adj)


def check_automorphism(basis_change):
    """Raise unless the basis change preserves every Lie bracket."""
    B = _mat(basis_change)
    for (i, j) in WEDGE_PAIRS:
        lhs = _bracket_vectors({p: B[p][i] for p in range(3)},
                                {q: B[q][j] for q in range(3)})
        rhs = {}
        for k, f in _bracket(i, j).items():
            for p in range(3):
                _addin(rhs, p, f * B[p][k])
        diff = dict(lhs)
        for k, v in rhs.items():
            _addin(diff, k, -v)
        if diff:
            raise ValueError(
                f"not an automorphism: bracket [{BASIS[i]}, {BASIS[j]}] is not preserved")
    return B


def apply_automorphism(delta, basis_change):
    """Transport delta to the new basis: delta' = (phi (x) phi)^{-1} o delta o phi.

    ``basis_change`` columns are the images of (A-, A+, M) under phi.
    """
    B = check_automorphism(basis_change)
    Binv = _mat_inv(B)
    rows = [delta.full_row(i) for i in range(3)]
    new_rows = []
    for j in range(3):
        # delta(phi(e_j)) in old coordinates
        full = {}
        for i in range(3):
            if not B[i][j]:
                continue
            for key, c in rows[i].items():
                _addin(full, key, B[i][j] * c)
        # pull both slots back through phi^{-1}
        moved = {}
        for (r, s), c in full.items():
            for p in range(3):
                if not Binv[p][r]:
                    continue
                for q in range(3):
                    if not Binv[q][s]:
                        continue
                    _addin(moved, (p, q), Binv[p][r] * Binv[q][s] * c)
        new_rows.append([moved.get(pair, Fraction(0)) for pair in WEDGE_PAIRS])
    (na1, na2, na3), (nb1, nb2, nb3), (nc1, nc2, nc3) = new_rows
    return Cocommutator(na1, na2, na3, nb1, nb2, nb3, c1=nc1, c2=nc2, c3=nc3)


#: Swap automorphism A+ <-> A-, M -> -M (columns are images of (A-, A+, M)).
SWAP_AUTOMORPHISM = ((Fraction(0), Fraction(1), Fraction(0)),
                     (Fraction(1), Fraction(0), Fraction(0)),
                     (Fraction(0), Fraction(0), Fraction(-1)))


# -- coboundary machinery ------------------------------------------------------

def schouten(r, order=None):
    """Schouten bracket [[r, r]] as an alternating rank-3 tensor."""
    order = order or _order_of(r.xi, r.beta_plus, r.beta_minus)
    comps = r.components()
    out = {}
    for (a, b), c1 in comps.items():
        for (c, d), c2 in comps.items():
            coeff = c1 * c2
            if not coeff:
                continue
            for k, f in _bracket(a, c).items():
                _addin(out, (k, b, d), f * coeff)
            for k, f in _bracket(b, c).items():
                _addin(out, (a, k, d), f * coeff)
            for k, f in _bracket(b, d).items():
                _addin(out, (a, c, k), f * coeff)
    return _to_tensor(out, 3, order)


def mcybe_check(omega):
    """True iff the adjoint action of every basis element annihilates omega."""
    if omega.rank != 3:
        raise ValueError("expected a rank-3 tensor")
    if not omega.is_alternating():
        raise ValueError("expected an alternating tensor")
    raw = {}
    for slots, coeff in omega.terms.items():
        idx = []
        for w in slots:
            if len(w) != 1 or w[0] not in _IDX:
                raise ValueError("tensor slots must be single generators")
            idx.append(_IDX[w[0]])
        raw[tuple(idx)] = coeff
    return all(not _ad(x, raw) for x in range(3))


def coboundary_delta(r):
    """The cocommutator delta(X) = [1(x)X + X(x)1, r] induced by an r-matrix."""
    comps = r.components()
    rows = []
    for x in range(3):
        moved = _ad(x, comps)
        rows.append([moved.get(pair, Fraction(0)) for pair in WEDGE_PAIRS])
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
    return Cocommutator(a1, a2, a3, b1, b2, b3, c1=c1, c2=c2, c3=c3)


def _coeff_vector(delta):
    return [getattr(delta, n) for n in _COEFF_NAMES]


def find_rmatrix(delta):
    """Solve delta = coboundary_delta(r) for r; None when no solution exists.

    Only xi moves the cocommutator (the beta coefficients are the gauge, see
    :func:`rmatrix_gauge`, and are set to zero), so delta is a coboundary
    exactly when it is xi times delta_0 = coboundary_delta(RMatrix(1, 0, 0)).
    xi is read off the first nonzero component of delta_0; the solve is exact
    and accepts ParamPoly coefficients.
    """
    unit = _coeff_vector(coboundary_delta(RMatrix(1, 0, 0)))
    target = _coeff_vector(delta)
    pivot = next(n for n, u in enumerate(unit) if u)
    xi = target[pivot] * (1 / unit[pivot])
    if any(t - xi * u for t, u in zip(target, unit)):
        return None
    return RMatrix(xi)


def rmatrix_gauge():
    """Names of the r-matrix coefficients that never affect the cocommutator."""
    names = ("xi", "beta_plus", "beta_minus")
    basis = [RMatrix(1, 0, 0), RMatrix(0, 1, 0), RMatrix(0, 0, 1)]
    free = []
    for name, r in zip(names, basis):
        if coboundary_delta(r).is_zero:
            free.append(name)
    return tuple(free)


# -- classification -------------------------------------------------------------

class BialgebraClass:
    """Result of classifying a concrete cocommutator."""

    __slots__ = ("tag", "normalized", "automorphism", "coboundary",
                 "rmatrix", "failures")

    def __init__(self, tag, normalized=None, automorphism=_IDENTITY,
                 coboundary=False, rmatrix=None, failures=None):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "automorphism", automorphism)
        object.__setattr__(self, "coboundary", coboundary)
        object.__setattr__(self, "rmatrix", rmatrix)
        object.__setattr__(self, "failures", failures or {})

    def __setattr__(self, name, value):
        raise AttributeError("BialgebraClass is immutable")

    #: Deformation parameter names retained by each normalized family.
    FAMILY_PARAMS = {tag: fam[0] for tag, fam in FAMILIES.items()}

    def family_params(self):
        if self.tag not in self.FAMILY_PARAMS:
            raise ValueError(f"{self.tag} has no family parameters")
        return {n: getattr(self.normalized, n) for n in self.FAMILY_PARAMS[self.tag]}

    @classmethod
    def symbolic(cls, tag, order=DEFAULT_ORDER):
        """Normalized family with its parameters as formal symbols."""
        if tag not in cls.FAMILY_PARAMS:
            raise ValueError(f"no symbolic family for tag {tag!r}")
        kwargs = {n: ParamPoly.symbol(n, order) for n in cls.FAMILY_PARAMS[tag]}
        normalized = Cocommutator(**kwargs)
        coboundary = tag == TRIVIAL
        return cls(tag, normalized=normalized,
                   coboundary=coboundary,
                   rmatrix=RMatrix() if coboundary else None)

    def __repr__(self):
        return f"BialgebraClass({self.tag}, normalized={self.normalized!r})"


def classify(delta):
    """Classify a rational cocommutator into TRIVIAL / I+ / I- / II / INVALID."""
    if delta.is_symbolic:
        raise TypeError("classification needs rational coefficients")

    cocycle = _cocycle_raw(delta)
    bad_pairs = [pair for pair, raw in zip(WEDGE_PAIRS, cocycle) if raw]
    if bad_pairs:
        return BialgebraClass(INVALID, failures={
            "cocycle": [(BASIS[i], BASIS[j]) for (i, j) in bad_pairs]})
    jac = cojacobi_residuals(delta)
    if any(jac):
        return BialgebraClass(INVALID, failures={"cojacobi": tuple(jac)})

    if delta.is_zero:
        return BialgebraClass(TRIVIAL, normalized=delta, coboundary=True,
                              rmatrix=RMatrix())

    if delta.a1:
        shift = delta.b1 * delta.a3 / delta.a1 ** 2 + delta.a2 / delta.a1
        B = ((Fraction(1), -delta.b1 / delta.a1, Fraction(0)),
             (Fraction(0), Fraction(1), Fraction(0)),
             (Fraction(0), shift, Fraction(1)))
        tag = TYPE_I_PLUS
    elif delta.b1:
        B = ((Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(1), Fraction(0)),
             (-delta.b3 / delta.b1, Fraction(0), Fraction(1)))
        tag = TYPE_I_MINUS
    else:
        B = _IDENTITY
        tag = TYPE_II

    normalized = apply_automorphism(delta, B) if B is not _IDENTITY else delta
    kept = FAMILIES[tag][0]
    if any(getattr(normalized, n) for n in _COEFF_NAMES[:6] if n not in kept):
        raise RuntimeError(f"normalization failed for {tag}: {normalized}")

    coboundary = (not normalized.a1 and not normalized.a3 and not normalized.b1
                  and not normalized.b2 and normalized.a2 == normalized.b3)
    rmatrix = find_rmatrix(normalized) if coboundary else None
    return BialgebraClass(tag, normalized=normalized, automorphism=B,
                          coboundary=coboundary, rmatrix=rmatrix)
