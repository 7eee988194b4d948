"""Lie bialgebra structures on the Heisenberg-Weyl algebra and their quantization.

Exact-rational symbolic engine: truncated deformation-parameter series, a free
noncommutative algebra with PBW rewriting, cocommutator classification,
r-matrix / Schouten / Yang-Baxter analysis, Hopf-algebra quantization with
machine-verified axioms, and the Poisson-Lie group side.
"""

from .params import DEFAULT_ORDER, PARAMS, ParamPoly, as_fraction, ring
from .freealg import (GEN_AM, GEN_AP, GEN_M, GENERATORS, FreeElement,
                      RewriteSystem, commutator, exp_element, exp_matrix2,
                      nc_mul, normal_form)
from .tensor import TensorElement, flip, outer, tensor_mul
from .bialgebra import (BASIS, INVALID, TRIVIAL, TYPE_I_MINUS, TYPE_I_PLUS,
                        TYPE_II, BRACKET, SWAP_AUTOMORPHISM, BialgebraClass,
                        Cocommutator, RMatrix, apply_automorphism,
                        classify, coboundary_delta, cojacobi_residuals,
                        dual_bracket_table, find_rmatrix, mcybe_check,
                        rmatrix_gauge, schouten)
from .quantization import (HopfPresentation, VerificationError, WordMap,
                           build_antipode, build_coproduct, central_element,
                           check_realization, closed_forms, family_rewrite,
                           first_order_cocommutator, first_order_residuals,
                           quantize, swap_transport,
                           verify_all, verify_antipode, verify_coassoc,
                           verify_counit, verify_homomorphism)
from .poisson import (COORD_RING, COORD_RING2, COORDS, COORDS2, GroupCoords,
                      PoissonStructure, group_compose, jacobi_check,
                      linear_bracket_table, poisson_homomorphism_check)

__version__ = "0.1.0"
