"""Test oracles: slow or redundant ways to compute what the library
computes, kept here so the tests can check the library against them.

Each helper repeats one computation by the direct route: one e_k call,
a sum over the finite Weyl group, or the whole candidate window.
"""

import itertools

from heckepoly.errors import ValidationError
from heckepoly.laurent import LaurentHalf, ONE, elementary_symmetric
from heckepoly.characters import (FormalTorusDomain, SymmetricFunction,
                                  WeightMultiset)
from heckepoly.iwahori import AffineHeckeElement


def trace_of(m, i):
    """Trace of the i-th exterior power of a FrobeniusMatrix: e_i of the
    diagonal entries."""
    d = m.size
    if not 0 <= i <= d:
        raise ValidationError(f"exterior power index {i} outside 0..{d}")
    return elementary_symmetric(m.domain, m.diagonal)[i]


def ext_power_character(datum, weights, i):
    """Character of the i-th exterior power: e_i of the e^{lam_j}."""
    d = len(weights)
    if not 0 <= i <= d:
        raise ValidationError(f"exterior power index {i} outside 0..{d}")
    e = elementary_symmetric(FormalTorusDomain(datum.rank),
                             [WeightMultiset.monomial(w) for w in weights])
    return SymmetricFunction(datum, e[i])


def dimension(datum, f):
    """Evaluate at the all-ones parameter: sum of all coefficients."""
    total = LaurentHalf.zero()
    for c in f.weights.terms.values():
        total = total + c
    return total


def poincare(algebra):
    """P_W(q) = sum over the finite Weyl group of q^{ell(w)}."""
    total = LaurentHalf.zero()
    for w in algebra.datum.weyl_elements:
        total = total + LaurentHalf.v_power(2 * w.length)
    return total


def finite_sum(algebra):
    """E = sum over the finite Weyl group of T_w."""
    zero = (0,) * algebra.datum.rank
    return AffineHeckeElement(
        {(zero, w): ONE for w in range(algebra.datum.weyl_order)})


def spherical_idempotent(algebra):
    """e_K = (sum_w T_w) / P_W(q); idempotent."""
    return AffineHeckeElement(finite_sum(algebra).terms, poincare(algebra))


def small_minuscule_dominants_by_product(datum):
    """Every window^rank candidate, filtered by dominance and
    minusculeness, in descending order."""
    window = (0, 1) if datum.family in ("GL", "Sp") else (-1, 0, 1)
    return tuple(sorted(
        (cand for cand in itertools.product(window, repeat=datum.rank)
         if datum.is_dominant(cand) and datum.is_minuscule(cand)),
        reverse=True))
