"""Cocommutators with formal symbols for coefficients: the cocycle and
co-Jacobi tests read their conditions off these as polynomial identities."""

from hweyl.bialgebra import _COEFF_NAMES, Cocommutator
from hweyl.params import DEFAULT_ORDER, ParamPoly


def generic_symbolic(order=DEFAULT_ORDER):
    """All nine coefficients as formal symbols (c's included)."""
    return Cocommutator(**{n: ParamPoly.symbol(n, order) for n in _COEFF_NAMES})


def constrained_symbolic(order=DEFAULT_ORDER):
    """Six symbolic coefficients with the cocycle-forced c's."""
    return Cocommutator(**{n: ParamPoly.symbol(n, order) for n in _COEFF_NAMES[:6]})
