"""Test oracles: slow or redundant ways to compute what the library
computes, kept here so the tests can check the library against them.

Each helper repeats one computation by the direct route: one e_k call,
a sum over the finite Weyl group, or the whole candidate window.
"""

import itertools

from heckepoly.errors import ConsistencyError, ValidationError
from heckepoly.laurent import LaurentHalf, ONE, elementary_symmetric
from heckepoly.characters import (FormalTorusDomain, SymmetricFunction,
                                  WeightMultiset)
from heckepoly.iwahori import AffineHeckeElement, SphericalCosetVector


def mat_mul(a, b):
    """Product of two square integer matrices given as tuples of rows."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


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


def min_coset_length(algebra, x):
    """ell of the minimal element of the right coset x W: descend by
    finite simple reflections, one weyl_right lookup each, while the
    length drops."""
    right = algebra.datum.weyl_right
    lam, w = x
    length = algebra.length(x)
    while True:
        for i in range(algebra.datum.num_simple):
            shorter = algebra.length((lam, right[w][i]))
            if shorter < length:
                w, length = right[w][i], shorter
                break
        else:
            return length


def satake_inverse_by_central_element(algebra, f):
    """Double-coset coordinates of z_f E read off the T basis: form
    z_f = sum theta_lam with its |W| keys per coset, then give right
    coset t_lam W the coefficient a_lam = sum_w c_(lam, w)
    q^{ell(lam, w) - ell_min(lam)}, which must be constant on each
    double coset."""
    z = algebra.central_element(f)
    coeffs, low = {}, {}
    for x, c in z.terms.items():
        lam = x[0]
        if lam not in low:
            low[lam] = min_coset_length(algebra, x)
        shift = 2 * (algebra.length(x) - low[lam])
        coeffs[lam] = coeffs.get(lam, LaurentHalf.zero()) + \
            c * LaurentHalf.v_power(shift)
    datum = algebra.datum
    coords = {}
    for dom in {datum.dominant_representative(lam) for lam in coeffs}:
        value = coeffs.get(dom, LaurentHalf.zero())
        if any(coeffs.get(lam, LaurentHalf.zero()) != value
               for lam in datum.weyl_orbit(dom)):
            raise ConsistencyError(
                f"coset W t_{dom} W has non-constant coefficients")
        coords[dom] = value
    return SphericalCosetVector(coords)


def small_minuscule_dominants_by_product(datum):
    """Every window^rank candidate, filtered by dominance and
    minusculeness, in descending order."""
    window = (0, 1) if datum.family in ("GL", "Sp") else (-1, 0, 1)
    return tuple(sorted(
        (cand for cand in itertools.product(window, repeat=datum.rank)
         if datum.is_dominant(cand) and datum.is_minuscule(cand)),
        reverse=True))
