"""Test oracles: slow or redundant ways to compute what the library
computes, kept here so the tests can check the library against them.

Each helper repeats one computation by the direct route: one e_k call,
a sum over the finite Weyl group (enumerated here, in ``WeylTables``,
and nowhere in the library), the whole candidate window, every
reflection of every orbit point, a rational solve, or the product in
the T basis of the affine Hecke algebra (``TBasisAlgebra``).
"""

import functools
import itertools
from dataclasses import dataclass, field
from functools import cached_property

from heckepoly.errors import (ConsistencyError, ResourceLimitError,
                              ValidationError)
from heckepoly.laurent import LaurentHalf, ONE, elementary_symmetric
from heckepoly.characters import (DEFAULT_MAX_SUPPORT, FormalTorusDomain,
                                  WeightMultiset, _moving_reflection)
from heckepoly.iwahori import AffineHeckeAlgebra, SphericalCosetVector
from heckepoly.root_data import _dot, _identity, solve_integer_combination
from heckepoly.satake import SatakeParameter

PRODUCT = "T-basis product"

# Largest Weyl group that WeylTables enumerates (GL8 has 40320).
MAX_WEYL_ORDER = 100_000

# (lam, w): t_lam w, with w an index into the datum's WeylTables
TKey = tuple[tuple[int, ...], int]


def reflection_matrix(datum, i):
    """Lattice matrix of the simple reflection s_i, column by column."""
    return tuple(zip(*(datum.reflect(i, col)
                       for col in _identity(datum.rank))))


def is_positive_root(datum, alpha):
    return tuple(alpha) in datum.positive_roots


def permuted(s, perm):
    """The Satake parameter with its entries permuted."""
    return SatakeParameter(s.domain, tuple(s.entries[j] for j in perm))


class WeylTables:
    """The finite Weyl group of a datum, enumerated, with index tables.

    An element is an int, its index in ``words``, which is sorted by
    (length, reduced word), so 0 is the identity.  The group is
    enumerated by breadth-first search on orbit points: W acts simply
    transitively on the orbit of the regular coweight x0 = 2 rho^vee, so
    w is stored as v_w = w^{-1} x0, and the edge w -> w s_i costs one
    reflection, v_{w s_i} = s_i v_w.  Each level is scanned in word order
    and letters in increasing order, so the first word to reach an
    element is its lexicographically smallest reduced word, and elements
    are found already sorted.  Products, inverses, inversion sets and
    reflections are tables over the indices.  Groups larger than
    MAX_WEYL_ORDER are refused before the search starts.
    """

    def __init__(self, datum):
        if datum.weyl_order > MAX_WEYL_ORDER:
            raise ResourceLimitError(
                f"Weyl group enumeration: |W| = {datum.weyl_order} exceeds "
                f"the bound {MAX_WEYL_ORDER}")
        self.datum = datum
        index = {datum.two_rho_hat: 0}
        words = [()]
        points = [datum.two_rho_hat]
        right = []
        k = 0
        while k < len(words):
            row = []
            for i in range(datum.num_simple):
                p = datum.reflect(i, points[k])
                j = index.get(p)
                if j is None:
                    j = index[p] = len(words)
                    words.append(words[k] + (i,))
                    points.append(p)
                row.append(j)
            right.append(tuple(row))
            k += 1
        # orbit point w^{-1} x0 -> index of w
        self.index = index
        self.words = tuple(words)
        # right[k][i] is the index of w_k s_i
        self.right = tuple(right)

    @property
    def order(self) -> int:
        return len(self.words)

    def mul(self, a: int, b: int) -> int:
        """Index of w_a w_b, walking ``right`` along the word of w_b."""
        right = self.right
        for i in self.words[b]:
            a = right[a][i]
        return a

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """inverse[k] is the index of w_k^{-1}: its reversed word."""
        right = self.right
        out = []
        for word in self.words:
            k = 0
            for i in reversed(word):
                k = right[k][i]
            out.append(k)
        return tuple(out)

    @cached_property
    def inversions(self) -> tuple[frozenset, ...]:
        """inversions[k]: the positive roots alpha with w_k^{-1} alpha < 0.

        <w^{-1} alpha, x0> = <alpha, w x0>, and w x0 is the orbit point of
        w^{-1}; a root is negative iff it pairs negatively with x0.
        """
        points = list(self.index)
        return tuple(
            frozenset(alpha for alpha in self.datum.positive_roots
                      if _dot(alpha, points[k_inv]) < 0)
            for k_inv in self.inverse)

    def reflection_index(self, alpha) -> int:
        """Index of s_alpha: lam -> lam - <alpha, lam> alpha^vee.

        s_alpha is an involution, so its orbit point is s_alpha x0.
        """
        x0 = self.datum.two_rho_hat
        c = _dot(alpha, x0)
        return self.index[tuple(
            x - c * y for x, y in zip(x0, self.datum.coroot_of(alpha)))]

    def by_point(self, p) -> int:
        """Index of the w with w x0 = p (the affine engine's label of w)."""
        return self.inverse[self.index[tuple(p)]]

    def act(self, k: int, lam):
        """w_k lam: the simple reflections of w_k's word, right to left."""
        lam = tuple(lam)
        for i in reversed(self.words[k]):
            lam = self.datum.reflect(i, lam)
        return lam

    def matrix(self, k: int):
        return tuple(zip(*(self.act(k, e)
                           for e in _identity(self.datum.rank))))


@functools.cache
def weyl_tables(datum) -> WeylTables:
    """The WeylTables of a datum, built once per datum object."""
    return WeylTables(datum)


@dataclass
class AffineHeckeElement:
    """Finite T-basis expansion with an optional scalar denominator (the
    denominator is there for e_K = E / P_W(q))."""

    terms: dict[TKey, LaurentHalf]
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
        words = weyl_tables(datum).words
        for (lam, w), c in sorted(self.terms.items()):
            word = list(words[w])
            items.append({"translation": list(lam), "finite_word": word,
                          "coeff": c.serialize()})
        if self.denom == ONE:
            return items
        return {"terms": items, "denominator": self.denom.serialize()}


class TBasisAlgebra:
    """The affine Hecke algebra with its product in the T basis.

    A key (lam, w) is t_lam w, with w an index into the datum's
    ``WeylTables``, and the group law is
    (lam1, w1)(lam2, w2) = (lam1 + w1 lam2, w1 w2).  Lengths, reduced
    words and relabelings come from those tables, not from the library's
    engine; the two share only the coefficient accumulator and the
    decomposition lam = lam1 - lam2 into dominants, which theta does not
    depend on.

    T_x T_y = T_{xy} when lengths add, and the quadratic relation
    resolves the other case generator by generator along a reduced word
    (affine simple reflections plus the length-zero remainder group,
    which acts by relabeling).  On one basis element,
    T_s T_z = T_{sz} if sz > z, else (q - 1) T_z + q T_{sz}, and
    T_s^{-1} T_z = T_{sz} if sz < z, else q^{-1} T_{sz} + (q^{-1} - 1) T_z.
    Every product, theta and the central element are guarded by
    max_support, naming the stage.
    """

    _acc = staticmethod(AffineHeckeAlgebra._acc)

    def __init__(self, datum, max_support: int = DEFAULT_MAX_SUPPORT):
        self.datum = datum
        self.max_support = max_support
        self.weyl = weyl_tables(datum)
        self._zero_vec = (0,) * datum.rank
        self._decompose = AffineHeckeAlgebra(datum)._dominant_decomposition
        self._length_memo = {}
        self._word_memo = {}
        self._finite_left_memo = {}
        self._theta_memo = {}
        # per generator t_mu s_alpha: its key (mu, s_alpha), and
        # (mu, alpha, alpha^vee)
        self._gens, self._gen_actions = {}, {}
        for i, pair in enumerate(zip(datum.simple_roots,
                                     datum.simple_coroots)):
            self._gens[i + 1] = (self._zero_vec, self.weyl.right[0][i])
            self._gen_actions[i + 1] = (self._zero_vec,) + pair
        if datum.num_simple > 0:
            theta = datum.highest_root
            theta_v = datum.coroot_of(theta)
            self._gens[0] = (theta_v, self.weyl.reflection_index(theta))
            self._gen_actions[0] = (theta_v, theta, theta_v)

    @cached_property
    def _gen_rows(self) -> dict[int, tuple[int, ...]]:
        """Per generator (mu, s_alpha): row[w] is the index of s_alpha w."""
        mul = self.weyl.mul
        return {idx: tuple(mul(s_alpha, w) for w in range(self.weyl.order))
                for idx, (_, s_alpha) in self._gens.items()}

    @property
    def generator_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._gens))

    def identity_key(self) -> TKey:
        return (self._zero_vec, 0)

    def translation_key(self, lam) -> TKey:
        return (tuple(lam), 0)

    def mul_aff(self, x: TKey, y: TKey) -> TKey:
        (l1, w1), (l2, w2) = x, y
        return (tuple(a + b for a, b in zip(l1, self.weyl.act(w1, l2))),
                self.weyl.mul(w1, w2))

    def inv_aff(self, x: TKey) -> TKey:
        lam, w = x
        w_inv = self.weyl.inverse[w]
        return (tuple(-a for a in self.weyl.act(w_inv, lam)), w_inv)

    def length(self, x: TKey) -> int:
        memo = self._length_memo
        cached = memo.get(x)
        if cached is None:
            lam, w = x
            inversions = self.weyl.inversions[w]
            cached = 0
            for alpha in self.datum.positive_roots:
                pair = _dot(alpha, lam)
                cached += abs(pair - 1) if alpha in inversions else abs(pair)
            memo[x] = cached
        return cached

    def reduced_word(self, x: TKey):
        """Write x = pi * s_{i_1} ... s_{i_m} with ell(pi) = 0, m = ell(x),
        by right descents; memoized per x.

        A right descent by a finite s_i is one lookup,
        (lam, w) s_i = (lam, w s_i); only s_0 goes through the group law.
        """
        got = self._word_memo.get(x)
        if got is None:
            right = self.weyl.right
            word = []
            cur = x
            length = self.length(cur)
            while length > 0:
                lam, w = cur
                for idx in self.generator_indices:
                    y = ((lam, right[w][idx - 1]) if idx
                         else self.mul_aff(cur, self._gens[0]))
                    if self.length(y) < length:
                        cur = y
                        length -= 1
                        word.append(idx)
                        break
                else:
                    raise ConsistencyError(
                        "element of positive length has no descent")
            got = self._word_memo[x] = (cur, tuple(reversed(word)))
        return got

    def _relabel(self, pi: TKey, lam):
        """The translation part mu + w lam of pi t_lam, pi = (mu, w)."""
        mu, w = pi
        return tuple(a + sum(r * lam[j] for j, r in m_row)
                     for a, m_row in zip(mu, self._finite_left(w)))

    def _finite_left(self, w: int) -> tuple:
        """The lattice matrix of w as sparse rows of (column, entry),
        memoized; only length-zero elements ask."""
        got = self._finite_left_memo.get(w)
        if got is None:
            got = self._finite_left_memo[w] = tuple(
                tuple((j, r) for j, r in enumerate(m_row) if r)
                for m_row in self.weyl.matrix(w))
        return got

    def _guard(self, terms: dict, stage: str):
        if len(terms) > self.max_support:
            raise ResourceLimitError(
                f"{stage}: support {len(terms)} exceeds "
                f"max_support={self.max_support}")

    def unit(self) -> AffineHeckeElement:
        return AffineHeckeElement({self.identity_key(): ONE})

    def t_basis(self, x: TKey) -> AffineHeckeElement:
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

    def _left_mul_basis(self, x: TKey, terms: dict,
                        stage: str = PRODUCT) -> dict:
        pi, word = self.reduced_word(x)
        cur = terms
        for idx in reversed(word):
            cur = self._left_mul_gen(idx, cur, stage)
        if pi != self.identity_key():
            mul = self.weyl.mul
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
            lam1, lam2 = self._decompose(lam)
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

    def central_element(self, f: WeightMultiset) -> AffineHeckeElement:
        """z_f = f(theta); commutes with every T_s and theta_nu."""
        if _moving_reflection(self.datum, f.terms) is not None:
            raise ValidationError("central_element needs a W-invariant function")
        total = {}
        for w, c in f.terms.items():
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
    assert _moving_reflection(datum, e[i].terms) is None
    return e[i]


def dimension(datum, f):
    """Evaluate at the all-ones parameter: sum of all coefficients."""
    total = LaurentHalf.zero()
    for c in f.terms.values():
        total = total + c
    return total


def poincare(algebra):
    """P_W(q) = sum over the finite Weyl group of q^{ell(w)}."""
    total = LaurentHalf.zero()
    for word in algebra.weyl.words:
        total = total + LaurentHalf.v_power(2 * len(word))
    return total


def finite_sum(algebra):
    """E = sum over the finite Weyl group of T_w."""
    zero = (0,) * algebra.datum.rank
    return AffineHeckeElement(
        {(zero, w): ONE for w in range(algebra.weyl.order)})


def spherical_idempotent(algebra):
    """e_K = (sum_w T_w) / P_W(q); idempotent."""
    return AffineHeckeElement(finite_sum(algebra).terms, poincare(algebra))


def min_coset_length(algebra, x):
    """ell of the minimal element of the right coset x W: descend by
    finite simple reflections, one ``right`` lookup each, while the
    length drops."""
    right = algebra.weyl.right
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
