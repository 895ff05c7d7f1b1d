"""Affine Hecke algebra of a based root datum: its spherical module H E
and the computed Satake transform.

Conventions (fixed once, then pinned by the minuscule calibration
identity S(1_{K mu K}) = v^{<2 rho, mu>} m_mu):

* extended affine Weyl group: pairs x = (lam, p) standing for t_lam w,
  with p = w 2 rho^vee.  2 rho^vee is regular, so p fixes w, and the
  finite Weyl group is never enumerated.  The group law is
  (lam1, w1)(lam2, w2) = (lam1 + w1 lam2, w1 w2), but the engine only
  multiplies on the left by a generator t_mu s_alpha (a simple
  reflection, or s_0 = t_{theta^vee} s_theta):
  x -> (mu + s_alpha lam, s_alpha p), two reflections;
* length: ell(t_lam w) = sum over positive roots alpha of
  |<alpha, lam> - 1| when w^{-1} alpha < 0, else |<alpha, lam>|; and
  w^{-1} alpha < 0 exactly when <alpha, p> < 0;
* reduced words come from left descents, x = s_{i_1} ... s_{i_m} pi
  with ell(pi) = 0.  A length-zero pi = (mu, p) sends the coset label
  lam to mu + w lam, and w lam is read off p's descent: the simple
  reflections that take p down to 2 rho^vee spell w^{-1};
* quadratic relation: T_s^2 = (q - 1) T_s + q with q = v^2, hence
  T_s^{-1} = q^{-1} T_s - (1 - q^{-1});
* coefficients: inside the engine a coefficient in Z[v, v^-1] is a
  plain {exponent: int} dict, accumulated in place, so multiplying by q
  or q^{-1} is an exponent shift.  LaurentHalf appears only in the
  SphericalCosetVector returned by satake_inverse;
* Bernstein elements: theta_lam = v^{-ell(t_lam)} T_{t_lam} for
  dominant lam, extended by theta_lam = v^{-ell(t_lam1) + ell(t_lam2)}
  T_{t_lam1} T_{t_lam2}^{-1} for any decomposition lam = lam1 - lam2
  into dominants (the result is decomposition independent);
* measure: each Iwahori double coset IxI has mass q^{ell(x)} relative
  to meas(I) = 1, so the averaging idempotent is
  e_K = (sum_w T_w) / P_W(q) with P_W(q) = sum_w q^{ell(w)}; the engine
  never builds e_K as an element (see the next bullet);
* public spherical coordinates are renormalized so that the unit
  function 1_K has coordinate 1 at lam = 0;
* satake_inverse computes z_f E, with E = sum_w T_w, in the module
  H E and never in the T basis.  H E has one basis vector
  v_lam = T_{x_lam} E per right coset t_lam W = {(lam, v) : v in W},
  x_lam minimal in it; v_lam = sum_v T_{x_lam v} because lengths add,
  so the coefficient a_lam of v_lam is that of every T_(lam, v).  Here
  ell(x_lam) = ell_min(lam) = sum over positive roots alpha of
  |<alpha, lam>|, less one for each alpha with <alpha, lam> > 0.  An
  affine simple s sends lam to s lam = mu + lam - <alpha, lam> alpha^vee,
  and T_s^{-1} v_lam is q^{-1} v_lam if s lam = lam, v_{s lam} if
  ell_min(s lam) < ell_min(lam), and q^{-1} v_{s lam} + (q^{-1} - 1)
  v_lam otherwise; a length-zero element relabels lam.  The Bernstein
  elements commute, and theta_lam1 E is one coset vector for dominant
  lam1, so theta_lam E = theta_{-lam2} theta_lam1 E starts at one label
  and follows one reduced word, that of t_{-lam2};
* satake_transform inverts satake_inverse by stripping the highest
  label, as ``KostkaFoulkesTable.decompose`` does: the image of m_lam
  lies on the dominant mu <= lam, with a unit coefficient at lam.

Supports grow quickly with |lam|.  satake_inverse counts cosets against
a configurable bound and raises ResourceLimitError, naming the stage:
``theta`` for one theta_lam E, ``central element`` for the running sum.

The CLI's ``poly`` reads double-coset coordinates off Kato's formula
(``kato.coset_coordinates``); ``satake_inverse`` here is its independent
check, run by ``verify satake`` and the tests.  The product in the T
basis is not part of the library: the tests keep it as their reference,
``TBasisAlgebra`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .laurent import LaurentHalf, ONE
from .characters import (DEFAULT_MAX_SUPPORT, SymmetricFunction,
                         WeightMultiset, orbit_character)
from .root_data import BasedRootDatum, Coweight, solve_integer_combination

AffKey = tuple[Coweight, Coweight]


@dataclass
class SphericalCosetVector:
    """Coordinates in the double-coset basis 1_{K lam K}, lam dominant."""

    coords: dict[Coweight, LaurentHalf]

    def __post_init__(self):
        self.coords = {tuple(k): c for k, c in self.coords.items()
                       if not c.is_zero()}

    def coeff(self, lam: Coweight) -> LaurentHalf:
        return self.coords.get(tuple(lam), LaurentHalf.zero())

    def support(self) -> tuple[Coweight, ...]:
        return tuple(sorted(self.coords, reverse=True))

    def __eq__(self, other):
        if not isinstance(other, SphericalCosetVector):
            return NotImplemented
        return self.coords == other.coords

    def to_json(self) -> list:
        return [{"lambda": list(k), "coeff": c.serialize()}
                for k, c in sorted(self.coords.items(), reverse=True)]

    @classmethod
    def from_json(cls, obj: list) -> "SphericalCosetVector":
        return cls({tuple(item["lambda"]): LaurentHalf.parse(item["coeff"])
                    for item in obj})


class AffineHeckeAlgebra:
    """Engine for one based root datum.

    The Satake transform and its inverse are methods here so that
    datum-derived tables (lengths, reduced words, each generator's step
    on each coset label, the images of the orbit sums) are shared.
    """

    def __init__(self, datum: BasedRootDatum,
                 max_support: int = DEFAULT_MAX_SUPPORT):
        if datum.num_simple > 0 and not datum.is_irreducible:
            raise ValidationError(
                "affine engine needs an irreducible root system")
        self.datum = datum
        self.max_support = max_support
        self._zero_vec = tuple(0 for _ in range(datum.rank))
        self._length_memo: dict[AffKey, int] = {}
        self._coset_length_memo: dict[Coweight, int] = {}
        self._word_memo: dict[AffKey, tuple[AffKey, tuple[int, ...]]] = {}
        self._image_memo: dict[Coweight, dict[Coweight, LaurentHalf]] = {}
        self._gens = self._build_generators()
        # per generator: lam -> _step(idx, lam)
        self._step_memo: dict[int, dict[Coweight, tuple]] = {
            idx: {} for idx in self._gens}

    # -- extended affine Weyl group -------------------------------------

    def _build_generators(self) -> dict[int, tuple]:
        """Per affine simple reflection t_mu s_alpha: (mu, alpha, alpha^vee).

        Index i + 1 is the finite s_i, with mu = 0; index 0 is
        s_0 = t_{theta^vee} s_theta for the highest root theta.
        """
        datum = self.datum
        gens = {i + 1: (self._zero_vec, alpha, alpha_v)
                for i, (alpha, alpha_v) in enumerate(
                    zip(datum.simple_roots, datum.simple_coroots))}
        if datum.num_simple > 0:
            theta = datum.highest_root
            theta_v = datum.coroot_of(theta)
            gens[0] = (theta_v, theta, theta_v)
        return gens

    @property
    def generator_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._gens))

    def identity_key(self) -> AffKey:
        return (self._zero_vec, self.datum.two_rho_hat)

    def translation_key(self, lam: Coweight) -> AffKey:
        return (tuple(lam), self.datum.two_rho_hat)

    def _left_gen(self, idx: int, x: AffKey) -> AffKey:
        """s x = (mu + s_alpha lam, s_alpha p) for the generator
        s = t_mu s_alpha."""
        mu, alpha, alpha_v = self._gens[idx]
        lam, p = x
        k = sum(a * b for a, b in zip(alpha, lam))
        j = sum(a * b for a, b in zip(alpha, p))
        return (tuple(m + a - k * b for m, a, b in zip(mu, lam, alpha_v)),
                tuple(a - j * b for a, b in zip(p, alpha_v)))

    def length(self, x: AffKey) -> int:
        memo = self._length_memo
        cached = memo.get(x)
        if cached is None:
            lam, p = x
            cached = 0
            for alpha in self.datum.positive_roots:
                k = sum(a * b for a, b in zip(alpha, lam))
                if sum(a * b for a, b in zip(alpha, p)) < 0:
                    k -= 1
                cached += abs(k)
            memo[x] = cached
        return cached

    def reduced_word(self, x: AffKey) -> tuple[AffKey, tuple[int, ...]]:
        """Write x = s_{i_1} ... s_{i_m} * pi with ell(pi) = 0, m = ell(x);
        memoized per x.

        Each letter is the first generator, in index order, whose left
        multiplication shortens what is left.
        """
        got = self._word_memo.get(x)
        if got is None:
            got = self._word_memo[x] = self._descend(x)
        return got

    def _descend(self, x: AffKey) -> tuple[AffKey, tuple[int, ...]]:
        word: list[int] = []
        cur = x
        length = self.length(cur)
        while length > 0:
            for idx in self.generator_indices:
                y = self._left_gen(idx, cur)
                if self.length(y) < length:
                    cur = y
                    length -= 1
                    word.append(idx)
                    break
            else:
                raise ConsistencyError("element of positive length has no descent")
        return cur, tuple(word)

    def _act_by_point(self, p: Coweight, lam: Coweight) -> Coweight:
        """w lam for the orbit point p = w 2 rho^vee.  The simple
        reflections s_{i_1}, ..., s_{i_k} that take p down to 2 rho^vee
        spell w^{-1} = s_{i_k} ... s_{i_1}, so they act on lam last first."""
        datum = self.datum
        descent = []
        while not datum.is_dominant(p):
            i = next(i for i, alpha in enumerate(datum.simple_roots)
                     if datum.pairing(alpha, p) < 0)
            p = datum.reflect(i, p)
            descent.append(i)
        for i in reversed(descent):
            lam = datum.reflect(i, lam)
        return lam

    def _guard(self, terms: dict, stage: str):
        if len(terms) > self.max_support:
            raise ResourceLimitError(
                f"{stage}: support {len(terms)} exceeds "
                f"max_support={self.max_support}")

    @staticmethod
    def _acc(out: dict, key, c: dict[int, int], shift: int = 0,
             sign: int = 1):
        """out[key] += sign * v^shift * c on {exponent: int} coefficients,
        in place; zero coefficients and emptied keys are dropped.  Every
        value of out is a dict made here, so no caller's dict changes."""
        cur = out.get(key)
        if cur is None:
            out[key] = {e + shift: sign * x for e, x in c.items()}
            return
        for e, x in c.items():
            e += shift
            x = cur.get(e, 0) + sign * x
            if x:
                cur[e] = x
            else:
                del cur[e]
        if not cur:
            del out[key]

    # -- Bernstein elements ------------------------------------------------

    @cached_property
    def _dominant_lifters(self) -> list[Coweight]:
        """One dominant sigma_i per simple root with <alpha_i, sigma_i> >= 1."""
        datum = self.datum
        out = []
        for i in range(datum.num_simple):
            target = tuple(1 if j == i else 0 for j in range(datum.num_simple))
            sol = self._solve_pairings(target)
            out.append(sol)
        return out

    def _solve_pairings(self, pairings: tuple[int, ...]) -> Coweight:
        """Integer lattice vector whose pairings with the simple roots are a
        positive multiple of the requested pattern (zeros stay zero)."""
        datum = self.datum
        rows = [list(a) for a in datum.simple_roots]
        # solve A x = pairings by treating x's coordinates as unknowns:
        # use solve_integer_combination on the transpose's columns
        cols = [tuple(rows[i][j] for i in range(len(rows)))
                for j in range(datum.rank)]
        sol = solve_integer_combination(cols, tuple(pairings))
        if sol is None:
            raise ConsistencyError("pairing pattern outside the root span")
        scale = lcm(*(c.denominator for c in sol)) if sol else 1
        return tuple(int(c * scale) for c in sol)

    def _dominant_decomposition(self, lam: Coweight) -> tuple[Coweight, Coweight]:
        """lam = lam1 - lam2 with both parts dominant, lam2 greedily small."""
        datum = self.datum
        lifters = self._dominant_lifters
        cur = tuple(lam)
        lam2 = self._zero_vec
        while True:
            for i in range(datum.num_simple):
                deficit = -datum.pairing(datum.simple_roots[i], cur)
                if deficit > 0:
                    sigma = lifters[i]
                    step = datum.pairing(datum.simple_roots[i], sigma)
                    k = -(-deficit // step)
                    cur = tuple(x + k * y for x, y in zip(cur, sigma))
                    lam2 = tuple(x + k * y for x, y in zip(lam2, sigma))
                    break
            else:
                return cur, lam2

    # -- spherical module H E ----------------------------------------------

    def _coset_length(self, lam: Coweight) -> int:
        """ell_min(lam), the length of the minimal element x_lam of the
        right coset t_lam W: sum over positive roots alpha of
        |<alpha, lam>|, less one for each alpha with <alpha, lam> > 0."""
        memo = self._coset_length_memo
        cached = memo.get(lam)
        if cached is None:
            cached = 0
            for alpha in self.datum.positive_roots:
                k = sum(a * x for a, x in zip(alpha, lam))
                cached += k - 1 if k > 0 else -k
            memo[lam] = cached
        return cached

    def _module_gen(self, idx: int, coeffs: dict) -> dict:
        """T_s^{-1} on sum a_lam v_lam in H E, in one pass: with
        s lam = mu + lam - <alpha, lam> alpha^vee,
        T_s^{-1} v_lam = q^{-1} v_lam if s lam = lam, v_{s lam} if
        ell_min(s lam) < ell_min(lam), else
        q^{-1} v_{s lam} + (q^{-1} - 1) v_lam.
        """
        acc = self._acc
        steps = self._step_memo[idx]
        out: dict[Coweight, dict[int, int]] = {}
        for lam, c in coeffs.items():
            step = steps.get(lam)
            if step is None:
                step = steps[lam] = self._step(idx, lam)
            slam, rises = step
            if rises is None:
                acc(out, lam, c, -2)
            elif not rises:
                acc(out, slam, c)
            else:
                acc(out, slam, c, -2)
                # out[lam] += (q^{-1} - 1) c, in one walk of c
                cur = out.setdefault(lam, {})
                for e, x in c.items():
                    y = cur.get(e - 2, 0) + x
                    if y:
                        cur[e - 2] = y
                    else:
                        del cur[e - 2]
                    y = cur.get(e, 0) - x
                    if y:
                        cur[e] = y
                    else:
                        del cur[e]
                if not cur:
                    del out[lam]
        self._guard(out, "theta")
        return out

    def _step(self, idx: int, lam: Coweight) -> tuple:
        """(s lam, ell_min(s lam) > ell_min(lam)) for the generator s,
        with None in place of the comparison when s lam = lam."""
        mu, alpha, alpha_v = self._gens[idx]
        k = sum(a * x for a, x in zip(alpha, lam))
        slam = tuple(m + x - k * y for m, x, y in zip(mu, lam, alpha_v))
        if slam == lam:
            return lam, None
        return slam, self._coset_length(slam) > self._coset_length(lam)

    def _theta_on_e(self, lam: Coweight) -> dict:
        """theta_lam E = theta_{-lam2} theta_lam1 E in H E, for
        lam = lam1 - lam2 with both parts dominant.

        t_lam1 = x_lam1 u with u in W and lengths adding, so
        T_{t_lam1} E = q^{ell(t_lam1) - ell_min(lam1)} v_lam1, with
        ell(t_lam1) = <2 rho, lam1>.  t_{-lam2} = s_{i_1} ... s_{i_m} pi
        with pi = (mu, p) = t_mu w gives T_{t_lam2}^{-1} =
        T_{s_{i_1}}^{-1} ... T_{s_{i_m}}^{-1} T_pi, and T_pi v_lam1 =
        v_{mu + w lam1}.  So the walk starts at that one label, with
        coefficient v^{ell(t_lam2) + <2 rho, lam1> - 2 ell_min(lam1)}, and
        applies T_{s_i}^{-1} for i = i_m, ..., i_1.
        """
        lam1, lam2 = self._dominant_decomposition(lam)
        (mu, p), word = self.reduced_word(
            self.translation_key(tuple(-x for x in lam2)))
        label = tuple(m + x for m, x in zip(mu, self._act_by_point(p, lam1)))
        cur = {label: {len(word) + self.datum.rho_pairing_exponent(lam1)
                       - 2 * self._coset_length(lam1): 1}}
        for idx in reversed(word):
            cur = self._module_gen(idx, cur)
        return cur

    def satake_inverse(self, f: SymmetricFunction) -> SphericalCosetVector:
        """Double-coset coordinates of z_f * e_K.

        z_f E, with E = sum_w T_w, lies in the module H E, whose basis
        v_lam = T_{x_lam} E has one vector per right coset t_lam W
        (x_lam minimal in it), and v_lam = sum_v T_{x_lam v} because
        lengths add.  So z_f E = sum_lam a_lam v_lam is summed over the
        terms of f, one theta_lam E at a time, and never formed in the T
        basis.  The a_lam must be constant on each double coset
        W t_lam W; the constants are the public coordinates (normalized
        so that f = 1 maps to 1_K).
        """
        if not isinstance(f, SymmetricFunction):
            raise ValidationError("satake_inverse needs a W-invariant function")
        coeffs: dict[Coweight, dict[int, int]] = {}
        for w, c in f.weights.terms.items():
            for lam, coeff in self._theta_on_e(w).items():
                for e, n in c.terms.items():
                    self._acc(coeffs, lam, coeff, e, n)
            self._guard(coeffs, "central element")
        coords: dict[Coweight, LaurentHalf] = {}
        for dom in {self.datum.dominant_representative(lam) for lam in coeffs}:
            value = coeffs.get(dom, {})
            if any(coeffs.get(lam, {}) != value
                   for lam in self.datum.weyl_orbit(dom)):
                raise ConsistencyError(
                    f"coset W t_{dom} W has non-constant coefficients")
            coords[dom] = LaurentHalf(value)
        return SphericalCosetVector(coords)

    def _orbit_sum_image(self, lam: Coweight) -> dict[Coweight, LaurentHalf]:
        """Coordinates of satake_inverse(m_lam), memoized, once they are
        checked to lie on the dominant mu <= lam with a unit coefficient
        at lam."""
        image = self._image_memo.get(lam)
        if image is None:
            datum = self.datum
            image = self.satake_inverse(orbit_character(datum, lam)).coords
            if not set(datum.dominants_below(lam)).issuperset(image):
                raise ConsistencyError(
                    f"image of m_{lam} is supported outside its lower set")
            if not image.get(lam, LaurentHalf.zero()).is_unit():
                raise ConsistencyError(
                    f"image of m_{lam} has no unit coefficient at {lam}")
            self._image_memo[lam] = image
        return image

    def satake_of_indicator(self, lam: Coweight) -> SymmetricFunction:
        """S(1_{K lam K}) expressed in monomial symmetric functions."""
        return self.satake_transform(SphericalCosetVector({tuple(lam): ONE}))

    def satake_transform(self, vec: SphericalCosetVector) -> SymmetricFunction:
        """Inverse of satake_inverse, by stripping.

        The highest label lam by (<2 rho, lam>, lam) takes c m_lam, with c
        the coordinate at lam over the unit coefficient of the image of
        m_lam there, and c times that image is subtracted.  Each step
        removes the highest label and adds lower ones.
        """
        datum = self.datum
        for lam in vec.coords:
            if not datum.is_dominant(lam):
                raise ValidationError(
                    f"satake_transform: {lam} is not dominant")
        work = dict(vec.coords)
        out: dict[Coweight, LaurentHalf] = {}
        while work:
            lam = max(work, key=lambda w: (datum.rho_pairing_exponent(w), w))
            image = self._orbit_sum_image(lam)
            # popped, not subtracted: the rest of the image is strictly
            # lower, so each step ends with lam gone
            c = out[lam] = work.pop(lam) * image[lam].monomial_inverse()
            for mu, a in image.items():
                if mu == lam:
                    continue
                rest = work.get(mu, LaurentHalf.zero()) - c * a
                if rest.is_zero():
                    work.pop(mu, None)
                else:
                    work[mu] = rest
        # the orbits of distinct dominant labels are disjoint
        return SymmetricFunction(datum, WeightMultiset(
            {w: c for lam, c in out.items() for w in datum.weyl_orbit(lam)}),
            check=False)
