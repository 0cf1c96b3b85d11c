"""Deliberately broken elements: negative controls for the verifiers.

A verifier that cannot fail proves nothing, so the test suite (and the
CLI via ``--corrupt``) ships five corruption fixtures, each aimed at one
verifier or at one identity:

* ``swap_basis`` — exchanges the first two 0-form basis functions and
  rebuilds all matrices consistently (the inverses by swapping rows).
  The element is still a valid element with a permuted basis, so
  interpolation and the commutation identity survive; only the
  structural node-matrix checks (the identity block) break.
* ``wrong_functional`` — replaces the first 1-form functional descriptor
  with an endpoint derivative of the wrong order, without touching the
  matrices.  The functional-pairing hypothesis fails; because the
  pairing is exactly what makes interpolation commute with d for inputs
  outside the element space, the commutation verifier necessarily fails
  with it (an entailed cascade, not an independent defect).
* ``permute_alpha`` — swaps two rows of the stored 1-form inverse
  without recomputing it.  The node matrices themselves stay pristine,
  so unisolvence and the hypothesis checks pass; interpolation uses the
  broken inverse and the commutation verifier reports residuals.
* ``scale_basis1`` — doubles the first 1-form basis function, so d of
  the first 0-form one is half of it.  Only checks that compare the two
  bases' coefficients fail: unisolvence, lemma-hypotheses, dd-zero (its
  polynomial route) and tensor-commutation below the top degree.
* the flat sign rule (``tensor.flat_sign``) — drops the alternating sign
  of the tensor exterior derivative.  A global sign flip or a mirrored
  bit count would cancel out of both d(d(u)) and the commutation
  identity, so the falsifiable corruption is no alternation at all: it
  breaks d after d = 0 and nothing else.
"""

from __future__ import annotations

from dataclasses import replace

from .element1d import Element1D
from .functionals import EndpointDerivative
from .linalg import Exact
from .tensor import flat_sign, theta


def swap_basis(element: Element1D) -> Element1D:
    """Swap the first two 0-form basis functions (columns 0 and 1 of B_0)
    and rebuild B_1 and M_k consistently.  With P that column swap, M_k
    becomes M_k P, so alpha_k = (M_k P)^-1 = P alpha_k is the source's
    inverse with rows 0 and 1 swapped: no elimination."""
    if element.n < 2:
        raise ValueError("need at least two basis functions to swap")
    order = [1, 0, *range(2, element.n + 1)]  # P, as an index
    B0, alpha0, alpha1 = element.B0, element.alpha0, element.alpha1
    return replace(element, B0=Exact.trusted(B0.nums[:, order], B0.den),
                   B1=None, M0=None, M1=None,
                   alpha0=Exact.trusted(alpha0.nums[order], alpha0.den),
                   alpha1=Exact.trusted(alpha1.nums[order[:-1]], alpha1.den))


def wrong_functional(element: Element1D) -> Element1D:
    """Replace the first 1-form functional with one of the wrong order,
    keeping the tables, which then lie about what they were built from."""
    pristine = element.functionals1[0]
    if isinstance(pristine, EndpointDerivative):
        corrupted = EndpointDerivative(1, pristine.point, pristine.order + 1)
    else:
        corrupted = EndpointDerivative(1, 0, element.m + 1)
    return replace(element,
                   functionals1=(corrupted,) + element.functionals1[1:])


def scale_basis1(element: Element1D) -> Element1D:
    """Double column 0 of B_1 and rebuild M_1 and alpha_1 from it."""
    nums = element.B1.nums.copy()
    nums[:, 0] *= 2
    return replace(element, B1=Exact.reduced(nums, element.B1.den),
                   M1=None, alpha1=None)


def permute_alpha(element: Element1D) -> Element1D:
    """Swap the first two rows of the stored 1-form inverse."""
    if element.n < 2:
        raise ValueError("need at least a 2x2 inverse to permute")
    nums = element.alpha1.nums.copy()
    nums[[0, 1]] = nums[[1, 0]]
    return replace(element, alpha1=Exact.trusted(nums, element.alpha1.den))


# CLI name -> fixture.  The element fixtures rebuild or patch the 1D
# element; the sign-rule fixture leaves the element alone and replaces
# theta in the tensor exterior derivative.
ELEMENT_CORRUPTIONS = {"swap-basis": swap_basis,
                       "wrong-functional": wrong_functional,
                       "permute-alpha": permute_alpha,
                       "scale-basis1": scale_basis1}
SIGN_RULE_CORRUPTIONS = {"flip-theta": flat_sign}
CORRUPTION_NAMES = (*ELEMENT_CORRUPTIONS, *SIGN_RULE_CORRUPTIONS)


def corrupt(element: Element1D, name: str) -> Element1D:
    """The element under the corruption named ``name`` (CLI name)."""
    if name in ELEMENT_CORRUPTIONS:
        return ELEMENT_CORRUPTIONS[name](element)
    if name in SIGN_RULE_CORRUPTIONS:
        return element
    raise ValueError(f"unknown corruption {name!r}; "
                     f"expected one of {CORRUPTION_NAMES}")


def sign_rule(name: str | None):
    """The tensor sign rule under the corruption named ``name``, if any."""
    return SIGN_RULE_CORRUPTIONS.get(name, theta)
