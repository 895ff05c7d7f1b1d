"""Test oracles: slow or redundant ways to compute what the library
computes, kept here so the tests can check the library against them.

Each helper repeats one computation by the direct route: one e_k call,
a sum over the finite Weyl group, the whole candidate window, every
reflection of every orbit point, a rational solve, or the product in
the T basis of the affine Hecke algebra (``TBasisAlgebra``).
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from heckepoly.errors import ConsistencyError, ValidationError
from heckepoly.laurent import LaurentHalf, ONE, elementary_symmetric
from heckepoly.characters import (FormalTorusDomain, SymmetricFunction,
                                  WeightMultiset)
from heckepoly.iwahori import (AffineHeckeAlgebra, AffKey,
                               SphericalCosetVector)
from heckepoly.root_data import solve_integer_combination

PRODUCT = "T-basis product"


@dataclass
class AffineHeckeElement:
    """Finite T-basis expansion with an optional scalar denominator (the
    denominator is there for e_K = E / P_W(q))."""

    terms: dict[AffKey, LaurentHalf]
    denom: LaurentHalf = field(default_factory=lambda: ONE)

    def __post_init__(self):
        self.terms = {k: c for k, c in self.terms.items() if not c.is_zero()}
        if self.denom.is_zero():
            raise ValidationError("denominator must be nonzero")

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c: LaurentHalf) -> "AffineHeckeElement":
        return AffineHeckeElement({k: v * c for k, v in self.terms.items()},
                                  self.denom)

    def __add__(self, other: "AffineHeckeElement") -> "AffineHeckeElement":
        if self.denom == other.denom:
            out = dict(self.terms)
            for k, c in other.terms.items():
                out[k] = out.get(k, LaurentHalf.zero()) + c
            return AffineHeckeElement(out, self.denom)
        out = {k: c * other.denom for k, c in self.terms.items()}
        for k, c in other.terms.items():
            out[k] = out.get(k, LaurentHalf.zero()) + c * self.denom
        return AffineHeckeElement(out, self.denom * other.denom)

    def __neg__(self) -> "AffineHeckeElement":
        return AffineHeckeElement({k: -c for k, c in self.terms.items()},
                                  self.denom)

    def __sub__(self, other: "AffineHeckeElement") -> "AffineHeckeElement":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, AffineHeckeElement):
            return NotImplemented
        if self.denom == other.denom:
            return self.terms == other.terms
        left = {k: c * other.denom for k, c in self.terms.items()}
        right = {k: c * self.denom for k, c in other.terms.items()}
        return left == right

    def to_json(self, datum):
        items = []
        for (lam, w), c in sorted(self.terms.items()):
            word = list(datum.weyl_elements[w].word)
            items.append({"translation": list(lam), "finite_word": word,
                          "coeff": c.serialize()})
        if self.denom == ONE:
            return items
        return {"terms": items, "denominator": self.denom.serialize()}


class TBasisAlgebra(AffineHeckeAlgebra):
    """The affine Hecke algebra with its product in the T basis.

    T_x T_y = T_{xy} when lengths add, and the quadratic relation
    resolves the other case generator by generator along a reduced word
    (affine simple reflections plus the length-zero remainder group,
    which acts by relabeling).  On one basis element,
    T_s T_z = T_{sz} if sz > z, else (q - 1) T_z + q T_{sz}, and
    T_s^{-1} T_z = T_{sz} if sz < z, else q^{-1} T_{sz} + (q^{-1} - 1) T_z.
    Every product, theta and the central element are guarded by
    max_support, naming the stage.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._theta_memo = {}

    @cached_property
    def _gen_rows(self) -> dict[int, tuple[int, ...]]:
        """Per generator (mu, s_alpha): row[w] is the index of s_alpha w."""
        datum = self.datum
        return {idx: tuple(datum.weyl_mul(s_alpha, w)
                           for w in range(datum.weyl_order))
                for idx, (_, s_alpha) in self._gens.items()}

    def unit(self) -> AffineHeckeElement:
        return AffineHeckeElement({self.identity_key(): ONE})

    def t_basis(self, x: AffKey) -> AffineHeckeElement:
        return AffineHeckeElement({x: ONE})

    def gen_t(self, idx: int) -> AffineHeckeElement:
        return self.t_basis(self._gens[idx])

    def _left_mul_gen(self, idx: int, terms: dict, stage: str = PRODUCT,
                      inverse: bool = False) -> dict:
        """T_s E, or T_s^{-1} E if inverse, in one pass over E's terms."""
        acc, length = self._acc, self.length
        shift = -2 if inverse else 2
        mu, alpha, alpha_v = self._gen_actions[idx]
        row = self._gen_rows[idx]
        out = {}
        for z, c in terms.items():
            lam, w = z
            k = sum(a * x for a, x in zip(alpha, lam))
            sz = (tuple(m + x - k * y for m, x, y in zip(mu, lam, alpha_v)),
                  row[w])
            if (length(sz) > length(z)) != inverse:
                acc(out, sz, c)
            else:
                acc(out, sz, c, shift)
                acc(out, z, c, shift)
                acc(out, z, c, 0, -1)
        self._guard(out, stage)
        return out

    def _left_mul_basis(self, x: AffKey, terms: dict,
                        stage: str = PRODUCT) -> dict:
        pi, word = self.reduced_word(x)
        cur = terms
        for idx in reversed(word):
            cur = self._left_mul_gen(idx, cur, stage)
        if pi != self.identity_key():
            mul = self.datum.weyl_mul
            cur = {(self._relabel(pi, lam), mul(pi[1], w)): c
                   for (lam, w), c in cur.items()}
        return cur

    @staticmethod
    def _element(terms: dict, shift: int = 0,
                 denom: LaurentHalf = ONE) -> AffineHeckeElement:
        """The element v^shift * sum c_x T_x / denom of {exponent: int}
        coefficients c_x."""
        return AffineHeckeElement(
            {x: LaurentHalf({e + shift: n for e, n in c.items()})
             for x, c in terms.items()}, denom)

    def multiply(self, a: AffineHeckeElement,
                 b: AffineHeckeElement) -> AffineHeckeElement:
        b_terms = {z: c.terms for z, c in b.terms.items()}
        out = {}
        for x, cx in a.terms.items():
            for z, c in self._left_mul_basis(x, b_terms).items():
                for e, n in cx.terms.items():
                    self._acc(out, z, c, e, n)
            self._guard(out, PRODUCT)
        return self._element(out, denom=a.denom * b.denom)

    def _inverse_terms(self, lam) -> dict:
        """T_{t_lam}^{-1} for dominant lam, along a reduced word."""
        pi, word = self.reduced_word(self.translation_key(lam))
        cur = {self.inv_aff(pi): {0: 1}}
        for idx in word:
            cur = self._left_mul_gen(idx, cur, "theta", inverse=True)
        return cur

    def translation_inverse(self, lam) -> AffineHeckeElement:
        """T_{t_lam}^{-1} for dominant lam, expanded along a reduced word."""
        lam = tuple(lam)
        if not self.datum.is_dominant(lam):
            raise ValidationError("translation_inverse expects a dominant coweight")
        return self._element(self._inverse_terms(lam))

    def theta(self, lam) -> AffineHeckeElement:
        """Bernstein element theta_lam; theta_lam theta_nu = theta_{lam+nu}."""
        lam = tuple(lam)
        cached = self._theta_memo.get(lam)
        if cached is None:
            lam1, lam2 = self._dominant_decomposition(lam)
            e1 = self.length(self.translation_key(lam1))
            e2 = self.length(self.translation_key(lam2))
            if lam2 == self._zero_vec:
                terms = {self.translation_key(lam1): {0: 1}}
            else:
                terms = self._left_mul_basis(
                    self.translation_key(lam1), self._inverse_terms(lam2),
                    "theta")
            cached = self._theta_memo[lam] = self._element(terms, e2 - e1)
        # a fresh terms dict, so no caller's edit reaches the memo
        return AffineHeckeElement(dict(cached.terms))

    def central_element(self, f: SymmetricFunction) -> AffineHeckeElement:
        """z_f = f(theta); commutes with every T_s and theta_nu."""
        if not isinstance(f, SymmetricFunction):
            raise ValidationError("central_element needs a W-invariant function")
        total = {}
        for w, c in f.weights.terms.items():
            for key, coeff in self.theta(w).terms.items():
                for e, n in c.terms.items():
                    self._acc(total, key, coeff.terms, e, n)
            self._guard(total, "central element")
        return self._element(total)


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


def weyl_orbit_by_reflections(datum, lam):
    """W lam by breadth-first search over every simple reflection of
    every point found, in descending order."""
    lam = tuple(lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        mu = frontier.pop()
        for i in range(datum.num_simple):
            nu = datum.reflect(i, mu)
            if nu not in seen:
                seen.add(nu)
                frontier.append(nu)
    return tuple(sorted(seen, reverse=True))


def dominance_leq(datum, mu, lam):
    """mu <= lam: lam - mu is a nonnegative integer sum of simple
    coroots, by a rational solve."""
    diff = tuple(l - m for l, m in zip(lam, mu))
    coeffs = solve_integer_combination(list(datum.simple_coroots), diff)
    if coeffs is None:
        return False
    return all(c >= 0 and c.denominator == 1 for c in coeffs)
