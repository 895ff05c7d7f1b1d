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
* affine roots: the generator s has the affine root a_s, <alpha_i, .>
  for s_i and 1 - <theta, .> for s_0, positive on the base alcove.  s
  shortens x = (lam, p) exactly when its wall separates the base alcove
  from x's, that is when a_s(lam + eps p) < 0 for small eps > 0
  (Iwahori-Matsumoto);
* reduced words come from left descents, x = s_{i_1} ... s_{i_m} pi
  with ell(pi) = 0, each letter the first descent in index order;
* quadratic relation: T_s^2 = (q - 1) T_s + q with q = v^2, hence
  T_s^{-1} = q^{-1} T_s - (1 - q^{-1});
* coefficients: inside the engine a coefficient in Z[v, v^-1] is a
  plain {exponent: int} dict, accumulated in place, so multiplying by q
  or q^{-1} is an exponent shift.  LaurentHalf appears only in the
  coordinates returned by satake_inverse, a plain {lam: LaurentHalf}
  dict on the dominant lam with no zero value;
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
  ell(x_lam) = ell_min(lam).  An affine simple s sends lam to
  s lam = mu + lam - <alpha, lam> alpha^vee, and T_s^{-1} v_lam is
  q^{-1} v_lam if s lam = lam, v_{s lam} if a_s(lam) < 0 (ell_min
  drops), and q^{-1} v_{s lam} + (q^{-1} - 1) v_lam if a_s(lam) > 0.
  The Bernstein elements commute, and theta_lam1 E is one coset vector
  for dominant lam1, so theta_lam E = theta_{-lam2} theta_lam1 E starts
  at one label, lam moved by the letters of the word of t_{-lam2}, and
  follows that one reduced word back;
* satake_transform inverts satake_inverse by stripping the highest
  label (``characters.strip_highest``, as ``KostkaFoulkesTable.decompose``
  does): the image of m_lam lies on the dominant mu <= lam, with a unit
  coefficient at lam.

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

from functools import cached_property
from math import lcm

from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .laurent import LaurentHalf, ONE
from .characters import (DEFAULT_MAX_SUPPORT, WeightMultiset,
                         _moving_reflection, orbit_character, strip_highest)
from .root_data import BasedRootDatum, Coweight, solve_integer_combination

AffKey = tuple[Coweight, Coweight]


class AffineHeckeAlgebra:
    """Engine for one based root datum.

    The Satake transform and its inverse are methods here so that
    datum-derived tables (reduced words, each generator's step on each
    coset label, the images of the orbit sums) are shared.
    """

    def __init__(self, datum: BasedRootDatum,
                 max_support: int = DEFAULT_MAX_SUPPORT):
        if datum.num_simple > 0 and not datum.is_irreducible:
            raise ValidationError(
                "affine engine needs an irreducible root system")
        self.datum = datum
        self.max_support = max_support
        self._zero_vec = tuple(0 for _ in range(datum.rank))
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

    def reduced_word(self, x: AffKey) -> tuple[AffKey, tuple[int, ...]]:
        """Write x = s_{i_1} ... s_{i_m} * pi with ell(pi) = 0, m = ell(x);
        memoized per x.

        Each letter is the first generator, in index order, that is a
        left descent of what is left.
        """
        got = self._word_memo.get(x)
        if got is None:
            got = self._word_memo[x] = self._descend(x)
        return got

    def _descend(self, x: AffKey) -> tuple[AffKey, tuple[int, ...]]:
        word: list[int] = []
        while True:
            for idx in self.generator_indices:
                y = self._shorten(idx, x)
                if y is not None:
                    x = y
                    word.append(idx)
                    break
            else:
                return x, tuple(word)

    def _shorten(self, idx: int, x: AffKey) -> AffKey | None:
        """s x = (mu + s_alpha lam, s_alpha p) if the generator
        s = t_mu s_alpha is a left descent of x = (lam, p), else None.

        s shortens x exactly when its wall separates the base alcove from
        x's, that is when the affine root a_s, which is <alpha_i, .> for
        s_i and 1 - <theta, .> for s_0, is negative at lam + eps p for
        small eps > 0 (p is regular, so a tie at lam is broken by p).
        """
        mu, alpha, alpha_v = self._gens[idx]
        lam, p = x
        k = sum(a * b for a, b in zip(alpha, lam))
        j = sum(a * b for a, b in zip(alpha, p))
        a_s, slope = (k, j) if idx else (1 - k, -j)
        if a_s < 0 or (a_s == 0 and slope < 0):
            return (tuple(m + a - k * b for m, a, b in zip(mu, lam, alpha_v)),
                    tuple(a - j * b for a, b in zip(p, alpha_v)))
        return None

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
            slam, rises = steps.get(lam) or self._step(idx, lam)
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
        memoized, with None in place of the comparison when s lam = lam.
        Otherwise ell_min rises exactly when the affine root a_s is
        positive at lam: <alpha_i, lam> > 0 for s_i, <theta, lam> < 1
        for s_0."""
        steps = self._step_memo[idx]
        got = steps.get(lam)
        if got is None:
            mu, alpha, alpha_v = self._gens[idx]
            k = sum(a * x for a, x in zip(alpha, lam))
            slam = tuple(m + x - k * y for m, x, y in zip(mu, lam, alpha_v))
            got = steps[lam] = ((lam, None) if slam == lam
                                else (slam, (k if idx else 1 - k) > 0))
        return got

    def _theta_on_e(self, lam: Coweight) -> dict:
        """theta_lam E = theta_{-lam2} theta_lam1 E in H E, for
        lam = lam1 - lam2 with both parts dominant.

        t_lam1 = x_lam1 u with u in W and lengths adding, so
        T_{t_lam1} E = q^{ell(t_lam1) - ell_min(lam1)} v_lam1, with
        ell(t_lam1) = <2 rho, lam1> and, lam1 being dominant,
        ell_min(lam1) = <2 rho, lam1> - #{alpha > 0 : <alpha, lam1> > 0}.
        t_{-lam2} = s_{i_1} ... s_{i_m} pi gives T_{t_lam2}^{-1} =
        T_{s_{i_1}}^{-1} ... T_{s_{i_m}}^{-1} T_pi, and T_pi v_lam1 =
        v_{pi lam1}, where pi lam1 = s_{i_m} ... s_{i_1} t_{-lam2} lam1 is
        lam stepped through i_1, ..., i_m.  So the walk starts at that one
        label, with coefficient v^{ell(t_lam2) + <2 rho, lam1> -
        2 ell_min(lam1)}, and applies T_{s_i}^{-1} for i = i_m, ..., i_1.
        """
        datum = self.datum
        lam1, lam2 = self._dominant_decomposition(lam)
        _, word = self.reduced_word(
            self.translation_key(tuple(-x for x in lam2)))
        if len(word) != datum.rho_pairing_exponent(lam2):
            raise ConsistencyError(
                f"reduced word of t_-lam2, lam2 = {lam2}, has length "
                f"{len(word)}, not <2 rho, lam2>")
        label = tuple(lam)
        for idx in word:
            label = self._step(idx, label)[0]
        two_rho = datum.rho_pairing_exponent(lam1)
        ell_min = two_rho - sum(datum.pairing(alpha, lam1) > 0
                                for alpha in datum.positive_roots)
        cur = {label: {len(word) + two_rho - 2 * ell_min: 1}}
        for idx in reversed(word):
            cur = self._module_gen(idx, cur)
        return cur

    def satake_inverse(self, f: WeightMultiset
                       ) -> dict[Coweight, LaurentHalf]:
        """Double-coset coordinates of z_f * e_K.

        z_f E, with E = sum_w T_w, lies in the module H E, whose basis
        v_lam = T_{x_lam} E has one vector per right coset t_lam W
        (x_lam minimal in it), and v_lam = sum_v T_{x_lam v} because
        lengths add.  So z_f E = sum_lam a_lam v_lam is summed over the
        terms of f, one theta_lam E at a time, and never formed in the T
        basis.  The a_lam must be constant on each double coset
        W t_lam W, that is invariant under every simple reflection; the
        values at the dominant labels are the public coordinates
        (normalized so that f = 1 maps to 1_K).
        """
        coeffs: dict[Coweight, dict[int, int]] = {}
        for w, c in f.terms.items():
            for lam, coeff in self._theta_on_e(w).items():
                for e, n in c.terms.items():
                    self._acc(coeffs, lam, coeff, e, n)
            self._guard(coeffs, "central element")
        moved = _moving_reflection(self.datum, coeffs)
        if moved is not None:
            raise ConsistencyError(
                f"coefficients are non-constant on a double coset: s_{moved} "
                "moves them")
        # _acc drops emptied keys, so no coordinate is zero
        return {lam: LaurentHalf(c) for lam, c in coeffs.items()
                if self.datum.is_dominant(lam)}

    def _orbit_sum_image(self, lam: Coweight) -> dict[Coweight, LaurentHalf]:
        """Coordinates of satake_inverse(m_lam), memoized, once they are
        checked to lie on the dominant mu <= lam with a unit coefficient
        at lam."""
        image = self._image_memo.get(lam)
        if image is None:
            datum = self.datum
            image = self.satake_inverse(orbit_character(datum, lam))
            if not set(datum.dominants_below(lam)).issuperset(image):
                raise ConsistencyError(
                    f"image of m_{lam} is supported outside its lower set")
            if not image.get(lam, LaurentHalf.zero()).is_unit():
                raise ConsistencyError(
                    f"image of m_{lam} has no unit coefficient at {lam}")
            self._image_memo[lam] = image
        return image

    def satake_of_indicator(self, lam: Coweight) -> WeightMultiset:
        """S(1_{K lam K}) expressed in monomial symmetric functions."""
        return self.satake_transform({tuple(lam): ONE})

    def satake_transform(self, vec: dict[Coweight, LaurentHalf]
                         ) -> WeightMultiset:
        """Inverse of satake_inverse: ``strip_highest`` against the
        images of the orbit sums m_lam.  A zero coordinate is skipped."""
        datum = self.datum
        vec = {lam: c for lam, c in vec.items() if not c.is_zero()}
        for lam in vec:
            if not datum.is_dominant(lam):
                raise ValidationError(
                    f"satake_transform: {lam} is not dominant")
        out = strip_highest(datum, vec, self._orbit_sum_image)
        # the orbits of distinct dominant labels are disjoint
        return WeightMultiset({w: c for lam, c in out.items()
                               for w in datum.weyl_orbit(lam)})
