"""Characters of the dual group in the coweight lattice.

Coweights of G are weights of the dual torus, so a virtual character of
the dual group is a finitely supported map coweight -> Laurent
coefficient (a WeightMultiset).  The W-invariant ones are the Satake
coordinates of spherical Hecke elements (Gross 1998, "On the Satake
isomorphism"); invariance is a property of a WeightMultiset, which
``_moving_reflection`` checks where a consumer needs it, not a second
type.  The FormalTorusDomain makes weight multisets a scalar domain.

The i-th exterior-power character of weights lam_1..lam_d is e_i of
the e^{lam_j}: ``elementary_symmetric`` in the formal domain, O(d^2),
as ``hecke.hecke_polynomial`` computes it on the Frobenius diagonal.

Weight multiplicities have one source, the ``KostkaFoulkesTable`` of a
datum: K_{lam mu}(t) by Lusztig's q-analogue of Kostant's multiplicity
formula (Lusztig 1983, Asterisque 101-102),

    K_{lam mu}(t) = sum over w in W of
                    eps(w) P_t(w(lam + rho^vee) - (mu + rho^vee)),

where P_t(gamma) sums t^(number of parts) over the ways to write gamma
as a sum of positive coroots.  K_{lam mu}(1) is the multiplicity of mu
in chi_lam, so ``weyl_character`` and ``decompose`` read it, and Kato's
formula (``kato``) reads the whole polynomial from the same table.

Every vector in the table is a difference below lam + rho^vee, so it is
kept in simple-coroot coordinates, which are integral: gamma lies in the
cone of the positive coroots iff all its coordinates are >= 0, and P_t
recurses on those coordinates.  Only the orbit points with
lam + rho^vee - w(lam + rho^vee) <= top, the largest coordinates of any
lam - mu, can contribute; they are walked from w = 1 by reflections
that raise the length, tracking those coordinates and the pairings
<alpha_j, w(lam + rho^vee)>, so no Weyl group table is built.  The
positive coroots and the dominant mu <= lam, with the coordinates of
lam - mu, come from the datum (``coroot_steps``, ``dominant_walk``).
The working set (the signed orbit points kept plus the P_t memo) is
bounded by ``max_support`` and checked as it grows; the error names the
stage the caller gave the table.  ``decompose`` strips highest weights
on dominant terms alone and expands no orbit.
"""

from __future__ import annotations

import json

from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .laurent import LaurentHalf, ONE, ScalarDomain
from .root_data import BasedRootDatum, Coweight

# Default bound on the working set of a guarded stage: the Kostka-Foulkes
# table here, the cosets of the spherical module in iwahori.
DEFAULT_MAX_SUPPORT = 20_000


class WeightMultiset:
    """Finitely supported map from lattice vectors to LaurentHalf."""

    __slots__ = ("_terms", "_groups")

    def __init__(self, terms: dict[Coweight, LaurentHalf] | None = None):
        clean: dict[Coweight, LaurentHalf] = {}
        if terms:
            for w, c in terms.items():
                if isinstance(c, int):
                    c = LaurentHalf.from_int(c)
                if not c.is_zero():
                    key = tuple(int(x) for x in w)
                    prev = clean.get(key)
                    c = c if prev is None else prev + c
                    if c.is_zero():
                        clean.pop(key, None)
                    else:
                        clean[key] = c
        self._terms = clean
        self._groups = None

    @classmethod
    def zero(cls) -> "WeightMultiset":
        return cls()

    @classmethod
    def monomial(cls, weight: Coweight, coeff: LaurentHalf = ONE) -> "WeightMultiset":
        return cls({tuple(weight): coeff})

    @property
    def terms(self) -> dict[Coweight, LaurentHalf]:
        return self._terms

    def support(self) -> tuple[Coweight, ...]:
        return tuple(sorted(self._terms, reverse=True))

    def by_coefficient(self) -> tuple[tuple[LaurentHalf, tuple[Coweight, ...]],
                                      ...]:
        """The terms grouped by coefficient, in first-seen order: one
        (coefficient, weights) pair per distinct coefficient.  Grouped on
        the first call and kept, so repeated evaluations of one function
        hash its coefficients once."""
        if self._groups is None:
            groups: dict[LaurentHalf, list[Coweight]] = {}
            for w, c in self._terms.items():
                groups.setdefault(c, []).append(w)
            self._groups = tuple((c, tuple(ws)) for c, ws in groups.items())
        return self._groups

    def coeff(self, weight: Coweight) -> LaurentHalf:
        return self._terms.get(tuple(weight), LaurentHalf.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, WeightMultiset):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items(),
                                 key=lambda kv: kv[0])))

    def __add__(self, other: "WeightMultiset") -> "WeightMultiset":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, LaurentHalf.zero()) + c
        return WeightMultiset(out)

    def __neg__(self) -> "WeightMultiset":
        return WeightMultiset({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "WeightMultiset") -> "WeightMultiset":
        return self + (-other)

    def __mul__(self, other) -> "WeightMultiset":
        """Convolution product; scalars (int/LaurentHalf) rescale."""
        if isinstance(other, (int, LaurentHalf)):
            return self.scale(other)
        out: dict[Coweight, LaurentHalf] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                out[w] = out.get(w, LaurentHalf.zero()) + c1 * c2
        return WeightMultiset(out)

    __rmul__ = __mul__

    def scale(self, c) -> "WeightMultiset":
        if isinstance(c, int):
            c = LaurentHalf.from_int(c)
        return WeightMultiset({w: c0 * c for w, c0 in self._terms.items()})

    def is_invertible(self) -> bool:
        if len(self._terms) != 1:
            return False
        (c,) = self._terms.values()
        return c.is_unit()

    def inverse(self) -> "WeightMultiset":
        if not self.is_invertible():
            raise ValidationError("only unit monomials are invertible")
        ((w, c),) = self._terms.items()
        return WeightMultiset({tuple(-x for x in w): c.monomial_inverse()})

    def __repr__(self):
        if not self._terms:
            return "WeightMultiset(0)"
        parts = [f"({c})*e{list(w)}" for w, c in sorted(self._terms.items(),
                                                        reverse=True)]
        return "WeightMultiset(" + " + ".join(parts) + ")"

    def to_json(self) -> list:
        return [{"weight": list(w), "coeff": c.serialize()}
                for w, c in sorted(self._terms.items(), reverse=True)]


class FormalTorusDomain(ScalarDomain):
    """Symbolic scalars: Laurent-coefficient functions on the torus.

    A scalar is a WeightMultiset over Z^rank; the coordinate monomial
    e^{e_j} plays the role of the j-th symbolic entry.
    """

    kind = "formal-laurent"

    def __init__(self, rank: int):
        if rank < 1:
            raise ValidationError("rank must be positive")
        self.rank = rank

    def reduce(self, x: LaurentHalf) -> WeightMultiset:
        if x.is_zero():
            return WeightMultiset.zero()
        return WeightMultiset({(0,) * self.rank: x})

    def coordinate(self, j: int) -> WeightMultiset:
        w = tuple(1 if k == j else 0 for k in range(self.rank))
        return WeightMultiset.monomial(w)

    def add(self, a, b):
        return a + b

    def sum(self, items):
        """One dict accumulates every term; a fold of ``add`` would copy
        the growing WeightMultiset once per item."""
        out: dict[Coweight, LaurentHalf] = {}
        for a in items:
            for w, c in a.terms.items():
                prev = out.get(w)
                out[w] = c if prev is None else prev + c
        return WeightMultiset(out)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def random_unit(self, rng) -> WeightMultiset:
        w = tuple(rng.randint(-1, 1) for _ in range(self.rank))
        return WeightMultiset.monomial(w, LaurentHalf.v_power(rng.randint(-2, 2)))

    def scalar_str(self, a) -> str:
        return json.dumps(a.to_json(), sort_keys=True)

    def to_json(self) -> dict:
        return {"kind": self.kind, "rank": self.rank}

    def __repr__(self):
        return f"FormalTorusDomain(rank={self.rank})"


def _moving_reflection(datum: BasedRootDatum, terms: dict) -> int | None:
    """The first simple reflection that moves terms, a map from
    coweights to coefficients, or None.  The simple reflections generate
    W, so None means terms is constant on every W-orbit."""
    for i in range(datum.num_simple):
        if {datum.reflect(i, w): c for w, c in terms.items()} != terms:
            return i
    return None


def orbit_character(datum: BasedRootDatum, lam: Coweight) -> WeightMultiset:
    """Monomial symmetric function m_lam: orbit sum with coefficient 1."""
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise ValidationError(f"{lam} is not dominant")
    return WeightMultiset({w: ONE for w in datum.weyl_orbit(lam)})


def minuscule_weights(datum: BasedRootDatum, mu: Coweight) -> tuple[Coweight, ...]:
    """Weights of the minuscule irreducible with highest weight mu.

    For minuscule mu this is exactly the Weyl orbit, in descending
    lexicographic order; the length is the dimension d.
    """
    if not datum.is_minuscule(mu):
        raise ValidationError(f"{tuple(mu)} is not minuscule")
    return datum.weyl_orbit(mu)


def weyl_character(datum: BasedRootDatum, lam: Coweight) -> WeightMultiset:
    """Character of the irreducible dual-group representation chi_lam.

    The dominant multiplicities are K_{lam mu}(1) from a
    ``KostkaFoulkesTable`` at DEFAULT_MAX_SUPPORT, so this may raise
    ResourceLimitError.
    """
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise ValidationError(f"{lam} is not dominant")
    terms: dict[Coweight, LaurentHalf] = {}
    table = KostkaFoulkesTable(datum, stage="Weyl character")
    for mu, k in table.kostka_foulkes(lam).items():
        m = LaurentHalf.from_int(sum(k))
        terms.update((w, m) for w in datum.weyl_orbit(mu))
    return WeightMultiset(terms)


def decompose(datum: BasedRootDatum,
              f: WeightMultiset) -> dict[Coweight, LaurentHalf]:
    """Coefficients c_lam with f = sum c_lam chi_lam, by
    ``KostkaFoulkesTable.decompose`` at DEFAULT_MAX_SUPPORT, so this may
    raise ResourceLimitError."""
    return KostkaFoulkesTable(datum, stage="character decomposition"
                              ).decompose(f)


def strip_highest(datum: BasedRootDatum, work: dict[Coweight, LaurentHalf],
                  image) -> dict[Coweight, LaurentHalf]:
    """Coefficients c_lam with work = sum c_lam image(lam), where
    image(lam) is a {mu: coefficient} map on mu <= lam with a unit
    coefficient at lam.

    The highest label lam by (<2 rho, lam>, lam) takes c_lam, its
    coefficient over that unit, and c_lam times the rest of its image is
    subtracted.  Each step removes the highest label and adds lower ones.
    """
    work = dict(work)
    out: dict[Coweight, LaurentHalf] = {}
    while work:
        lam = max(work, key=lambda w: (datum.rho_pairing_exponent(w), w))
        terms = image(lam)
        c = out[lam] = work.pop(lam) * terms[lam].monomial_inverse()
        for mu, a in terms.items():
            if mu == lam:
                continue
            rest = work.get(mu, LaurentHalf.zero()) - c * a
            if rest.is_zero():
                work.pop(mu, None)
            else:
                work[mu] = rest
    return out


def _add_shifted(acc: list[int], poly: list[int], k: int, sign: int = 1):
    """acc += sign * t^k * poly, in place; polynomials are coefficient
    lists in increasing degree."""
    if len(acc) < len(poly) + k:
        acc.extend([0] * (len(poly) + k - len(acc)))
    for j, x in enumerate(poly, k):
        acc[j] += sign * x


class KostkaFoulkesTable:
    """K_{lam mu}(t) of one datum, by Lusztig's q-analogue of Kostant's
    multiplicity formula, with the coroot tables and the memo of the
    t-partition function P_t.  ``stage`` names the caller in the guard's
    error."""

    def __init__(self, datum: BasedRootDatum,
                 max_support: int = DEFAULT_MAX_SUPPORT,
                 stage: str = "Kostka-Foulkes table"):
        self.datum = datum
        self.max_support = max_support
        self.stage = stage
        self._columns = [tuple(row[i] for row in datum.cartan)
                         for i in range(datum.num_simple)]
        # P_t over the simple coroots alone is t^(sum of coordinates), so
        # the recursion runs over the compound ones only
        self._compound = [c for _, c in datum.coroot_steps if sum(c) > 1]
        self._memo: dict[tuple, list[int]] = {}
        self._orbit_size = 0
        # the kept K_{lam .} are outside the guarded working set
        self._tables: dict[Coweight, dict[Coweight, list[int]]] = {}

    def _guard(self, extra: int):
        size = self._orbit_size + len(self._memo) + extra
        if size > self.max_support:
            raise ResourceLimitError(
                f"{self.stage}: working set {size} exceeds "
                f"max_support={self.max_support}")

    def _orbit(self, lam: Coweight, top: Coweight
               ) -> list[tuple[Coweight, int]]:
        """(coordinates d of x - w x, eps(w)) for x = lam + rho^vee, over
        the w in W with d <= top.

        Those w form a lower set of the left weak order: s_i w > w exactly
        when <alpha_i, w x> > 0, and then x - s_i w x = (x - w x) +
        <alpha_i, w x> alpha_i^vee.  So a walk from w = 1 that reflects
        only where the pairing is positive, and keeps d <= top, finds them
        all, one length (one sign) per level.
        """
        level = {tuple(0 for _ in top):
                 tuple(self.datum.pairing(a, lam) + 1
                       for a in self.datum.simple_roots)}
        out: list[tuple[Coweight, int]] = []
        sign = 1
        while level:
            out.extend((d, sign) for d in level)
            self._guard(len(out))
            nxt: dict[Coweight, tuple[int, ...]] = {}
            for d, p in level.items():
                for i, k in enumerate(p):
                    if k > 0 and d[i] + k <= top[i]:
                        e = d[:i] + (d[i] + k,) + d[i + 1:]
                        if e not in nxt:
                            nxt[e] = tuple(x - k * y for x, y in
                                           zip(p, self._columns[i]))
            level, sign = nxt, -sign
        return out

    def _partitions(self, c: Coweight, j: int = 0) -> list[int]:
        """P_t(c) over the compound coroots from the j-th on and all the
        simple ones; c has no negative coordinate."""
        if j == len(self._compound):
            return [0] * sum(c) + [1]
        key = (c, j)
        got = self._memo.get(key)
        if got is None:
            self._guard(1)
            beta = self._compound[j]
            got = []
            k = 0
            while min(c) >= 0:
                _add_shifted(got, self._partitions(c, j + 1), k)
                c = tuple(x - y for x, y in zip(c, beta))
                k += 1
            self._memo[key] = got
        return got

    def kostka_foulkes(self, lam: Coweight) -> dict[Coweight, list[int]]:
        """K_{lam mu}(t) for every dominant mu <= lam, computed once per
        lam and kept."""
        got = self._tables.get(lam)
        if got is not None:
            return got
        below = self.datum.dominant_walk(lam)
        top = tuple(max(col) for col in zip(*below.values()))
        points = self._orbit(lam, top)
        self._orbit_size = len(points)
        out = {}
        for mu, e in below.items():
            k: list[int] = []
            for d, sign in points:
                gamma = tuple(x - y for x, y in zip(e, d))
                if min(gamma, default=0) >= 0:
                    _add_shifted(k, self._partitions(gamma), 0, sign)
            out[mu] = k
        self._orbit_size = 0
        self._tables[lam] = out
        return out

    def decompose(self, f: WeightMultiset) -> dict[Coweight, LaurentHalf]:
        """Coefficients c_lam with f = sum c_lam chi_lam.

        A W-invariant f is fixed by its dominant terms, and
        ``strip_highest`` strips them against the dominant multiplicities
        K_{lam mu}(1) of each chi_lam.
        """
        datum = self.datum
        moved = _moving_reflection(datum, f.terms)
        if moved is not None:
            raise ConsistencyError(
                f"cannot decompose: input is not invariant under s_{moved}")
        return strip_highest(
            datum, {w: c for w, c in f.terms.items()
                    if datum.is_dominant(w)},
            lambda lam: {mu: LaurentHalf.from_int(sum(k))
                         for mu, k in self.kostka_foulkes(lam).items()})
