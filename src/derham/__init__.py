"""Exact C^m-conforming finite element cochain complexes on [0,1]^N.

The package builds the one-dimensional element pair (0-forms and
1-forms with matched node functionals) in exact rational arithmetic,
tensorizes it to N-dimensional boxes, and ships executable verifiers
for unisolvence, the commutation of interpolation with the exterior
derivative, and the cochain property d after d = 0.
"""

from .element1d import (Element1D, apply_functional_smooth, build_element,
                        cell_interpolant, interpolate, interpolate_smooth,
                        monomial_probes, two_cell_continuity_demo,
                        verify_commutation, verify_lemma_hypotheses,
                        verify_unisolvence)
from .functionals import (EndpointDerivative, EndpointSum, Moment,
                          NodeFunctional, one_form_functionals,
                          zero_form_functionals)
from .polycore import (Polynomial, hermite_basis, integrated_legendre,
                       legendre, legendre_expansion)
from .report import SuiteResult, VerificationReport
from .smooth import (SmoothFunction1D, SmoothFunctionND, exponential,
                     exponential_nd, named_function, sine, sinusoid)
from .tensor import (RankOneForm, SmoothFormND, TensorForm,
                     TensorNodeFunctional, canonicalize, d_rank_one, d_smooth,
                     d_tensor, enumerate_chi, rank_one,
                     rank_one_monomial_probes, space_dimension,
                     tensor_interpolate, tensor_node_functionals, theta,
                     verify_dd_zero, verify_dimensions, verify_kron_structure,
                     verify_tensor_commutation)

__version__ = "0.1.0"

__all__ = [
    "Element1D", "EndpointDerivative", "EndpointSum", "Moment",
    "NodeFunctional", "Polynomial", "RankOneForm", "SmoothFormND",
    "SmoothFunction1D", "SmoothFunctionND", "SuiteResult", "TensorForm",
    "TensorNodeFunctional", "VerificationReport", "apply_functional_smooth",
    "build_element", "canonicalize", "cell_interpolant", "d_rank_one",
    "d_smooth", "d_tensor", "enumerate_chi", "exponential", "exponential_nd",
    "hermite_basis", "integrated_legendre", "interpolate",
    "interpolate_smooth", "legendre", "legendre_expansion",
    "monomial_probes", "named_function", "one_form_functionals", "rank_one",
    "rank_one_monomial_probes", "sine", "sinusoid", "space_dimension",
    "tensor_interpolate", "tensor_node_functionals", "theta",
    "two_cell_continuity_demo", "verify_commutation", "verify_dd_zero",
    "verify_dimensions", "verify_kron_structure", "verify_lemma_hypotheses",
    "verify_tensor_commutation", "zero_form_functionals",
]
