"""Double-coset coordinates of a spherical element by Kato's formula.

For a dominant lam, the irreducible character chi_lam has double-coset
coordinates (Kato 1982, Invent. Math. 66; Lusztig 1983, Asterisque
101-102)

    chi_lam = sum over dominant mu <= lam of
              v^{-<2 rho, mu>} K_{lam mu}(q^{-1}) 1_{K mu K},

with the Kostka-Foulkes polynomial given by Lusztig's q-analogue of
Kostant's multiplicity formula,

    K_{lam mu}(t) = sum over w in W of
                    eps(w) P_t(w(lam + rho^vee) - (mu + rho^vee)),

where P_t(gamma) sums t^(number of parts) over the ways to write gamma
as a sum of positive coroots.  A general W-invariant f is first split
as f = sum a_lam chi_lam (``characters.decompose``).

Every vector here is a difference below lam + rho^vee, so it is kept in
simple-coroot coordinates, which are integral: gamma lies in the cone of
the positive coroots iff all its coordinates are >= 0, and P_t recurses
on those coordinates.  The orbit of lam + rho^vee is walked along the
datum's left-multiplication table (w = s_i u with u shorter), tracking
the coordinates of lam + rho^vee - w(lam + rho^vee) and the pairings
<alpha_j, w(lam + rho^vee)>, one reflection per element.  The positive
coroots and the dominant mu <= lam, with the coordinates of lam - mu,
come from the datum (``coroot_steps``, ``dominant_walk``).

This path never builds an affine Hecke algebra element;
``AffineHeckeAlgebra.satake_inverse`` computes the same coordinates
from the T basis and stays as its independent check.  The working set
(the signed orbit points plus the partition-function memo) is bounded
by ``max_support`` and checked before each expansion.
"""

from __future__ import annotations

from .errors import ResourceLimitError, ValidationError
from .laurent import LaurentHalf
from .characters import SymmetricFunction, decompose
from .root_data import BasedRootDatum, Coweight
from .iwahori import DEFAULT_MAX_SUPPORT, SphericalCosetVector

STAGE = "Kato coordinates"


def coset_coordinates(datum: BasedRootDatum, f: SymmetricFunction,
                      max_support: int = DEFAULT_MAX_SUPPORT
                      ) -> SphericalCosetVector:
    """Double-coset coordinates of f; equals
    ``AffineHeckeAlgebra(datum).satake_inverse(f)``."""
    if not isinstance(f, SymmetricFunction):
        raise ValidationError("coset_coordinates needs a W-invariant function")
    kato = _Kato(datum, max_support)
    coords: dict[Coweight, LaurentHalf] = {}
    for lam, a in decompose(datum, f).items():
        for mu, k in kato.kostka_foulkes(lam).items():
            e = datum.rho_pairing_exponent(mu)
            c = a * LaurentHalf({-e - 2 * j: x for j, x in enumerate(k)})
            coords[mu] = coords[mu] + c if mu in coords else c
    return SphericalCosetVector(coords)


def _add_shifted(acc: list[int], poly: list[int], k: int, sign: int = 1):
    """acc += sign * t^k * poly, in place; polynomials are coefficient
    lists in increasing degree."""
    if len(acc) < len(poly) + k:
        acc.extend([0] * (len(poly) + k - len(acc)))
    for j, x in enumerate(poly, k):
        acc[j] += sign * x


class _Kato:
    """Weyl and coroot tables of one datum, and the memo of P_t."""

    def __init__(self, datum: BasedRootDatum, max_support: int):
        self.datum = datum
        self.max_support = max_support
        # w_k = s_i u with u = s_i w_k one step shorter; touching the
        # tables also refuses a Weyl group too large to enumerate
        left = datum.weyl_left
        self._steps = [(left[k][w.word[0]], w.word[0])
                       for k, w in enumerate(datum.weyl_elements) if k]
        self._columns = [tuple(row[i] for row in datum.cartan)
                         for i in range(datum.num_simple)]
        # P_t over the simple coroots alone is t^(sum of coordinates), so
        # the recursion runs over the compound ones only
        self._compound = [c for _, c in datum.coroot_steps if sum(c) > 1]
        self._memo: dict[tuple, list[int]] = {}
        self._orbit_size = 0

    def _guard(self, extra: int):
        size = self._orbit_size + len(self._memo) + extra
        if size > self.max_support:
            raise ResourceLimitError(
                f"{STAGE}: working set {size} exceeds "
                f"max_support={self.max_support}")

    def _orbit(self, lam: Coweight) -> list[tuple[Coweight, int]]:
        """(coordinates of x - w x, eps(w)) over W, for x = lam + rho^vee."""
        self._guard(self.datum.weyl_order)
        self._orbit_size = self.datum.weyl_order
        pairings = [tuple(self.datum.pairing(a, lam) + 1
                          for a in self.datum.simple_roots)]
        out = [(tuple(0 for _ in pairings[0]), 1)]
        for u, i in self._steps:
            p, (d, sign) = pairings[u], out[u]
            k = p[i]
            pairings.append(tuple(x - k * y
                                  for x, y in zip(p, self._columns[i])))
            out.append((tuple(x + k * (j == i) for j, x in enumerate(d)),
                        -sign))
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
        """K_{lam mu}(t) for every dominant mu <= lam."""
        below = self.datum.dominant_walk(lam)
        top = tuple(max(col) for col in zip(*below.values()))
        points = [(d, s) for d, s in self._orbit(lam)
                  if all(x <= y for x, y in zip(d, top))]
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
        return out
