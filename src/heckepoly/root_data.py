"""Based root data of split reductive groups.

A BasedRootDatum fixes the cocharacter lattice Z^n of a split maximal
torus, simple roots (vectors in the dual lattice) and simple coroots
(vectors in the lattice); the pairing between the two sides is the
standard dot product.  The finite Weyl group acts on the lattice by
lam -> lam - <alpha_i, lam> alpha_i^vee.

The package never enumerates W.  Its elements act one simple
reflection at a time: ``weyl_orbit`` walks an orbit from its dominant
point, ``dominant_representative`` reflects down to it, and the affine
engine of ``iwahori`` names a Weyl element w by its orbit point
w 2 rho^vee, which fixes w because 2 rho^vee is regular.  |W| comes from
the heights of the positive roots (``weyl_order``).

The reflection walk that finds the roots also carries the integer
simple coordinates of each root and coroot.  ``dominant_walk`` steps
down by positive coroots (``coroot_steps``) between dominant coweights;
``dominants_below`` and the Kostka-Foulkes table of ``characters`` read
it.

Builders cover GL_n (lattice Z^n, roots e_i - e_j), SL_n (lattice =
coroot lattice, coroots the standard basis), PGL_n (lattice = coweight
lattice, roots the standard dual basis) and Sp_n for even n (type
C_{n/2}).  A custom datum is built directly from its simple roots and
coroots, and the constructor validates it against the Cartan and braid
axioms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import ValidationError

Coweight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

SUPPORTED_FAMILIES = ("GL", "SL", "PGL", "Sp")

_BRAID_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def solve_integer_combination(columns: list[Coweight], target) -> tuple | None:
    """Solve sum_i c_i * columns[i] = target exactly over Q.

    Returns the coefficient tuple (Fractions) or None when the system
    is inconsistent.  The columns may be dependent: ``iwahori`` passes
    the lattice coordinates of the simple roots as columns, and for
    GL_n these are n columns of rank n - 1.  Then the solution returned
    is the one whose free (non-pivot) coordinates are 0, and the
    residual check confirms that it is exact.
    """
    if not columns:
        return () if all(t == 0 for t in target) else None
    nrows = len(target)
    ncols = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    # inconsistency: zero row with nonzero rhs
    for r in range(row, nrows):
        if aug[r][ncols] != 0 and all(aug[r][c] == 0 for c in range(ncols)):
            return None
    coeffs = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][ncols]
    # free coordinates stay 0; the residual confirms the solution
    residual = [sum(coeffs[j] * columns[j][i] for j in range(ncols)) - target[i]
                for i in range(nrows)]
    if any(residual):
        return None
    return tuple(coeffs)


class BasedRootDatum:
    """Lattice Z^rank with simple roots/coroots and their reflections."""

    def __init__(self, family: str, rank: int,
                 simple_roots: list[Coweight], simple_coroots: list[Coweight]):
        self.family = family
        self.rank = int(rank)
        self.simple_roots = tuple(tuple(int(x) for x in a) for a in simple_roots)
        self.simple_coroots = tuple(tuple(int(x) for x in a) for a in simple_coroots)
        if len(self.simple_roots) != len(self.simple_coroots):
            raise ValidationError("roots and coroots must come in pairs")
        for vec in self.simple_roots + self.simple_coroots:
            if len(vec) != self.rank:
                raise ValidationError("root/coroot length must equal the rank")
        self._validate()

    # -- setup and validation ------------------------------------------

    @property
    def num_simple(self) -> int:
        return len(self.simple_roots)

    @cached_property
    def cartan(self) -> Matrix:
        """<alpha_i, alpha_j^vee> with rows indexed by roots."""
        return tuple(tuple(_dot(a, av) for av in self.simple_coroots)
                     for a in self.simple_roots)

    def _validate(self):
        cartan = self.cartan
        r = self.num_simple
        for i in range(r):
            if cartan[i][i] != 2:
                raise ValidationError(f"<alpha_{i}, alpha_{i}^vee> must be 2")
            for j in range(r):
                if i != j and cartan[i][j] > 0:
                    raise ValidationError("off-diagonal Cartan entries must be <= 0")
        # s_i^2 = 1 follows from <alpha_i, alpha_i^vee> = 2.  A basis
        # vector that pairs to zero with alpha_i and alpha_j is fixed by
        # s_i and s_j, so (s_i s_j)^m_ij = 1 is checked on the others, one
        # O(rank) reflection at a time.
        basis = _identity(self.rank)
        for i in range(r):
            for j in range(i + 1, r):
                prod = cartan[i][j] * cartan[j][i]
                if prod not in _BRAID_ORDER:
                    raise ValidationError(
                        f"Cartan product {prod} at ({i},{j}) generates an "
                        "infinite group")
                a_i, a_j = self.simple_roots[i], self.simple_roots[j]
                for e, vec in enumerate(basis):
                    if not (a_i[e] or a_j[e]):
                        continue
                    x = vec
                    for _ in range(_BRAID_ORDER[prod]):
                        x = self.reflect(i, self.reflect(j, x))
                    if x != vec:
                        raise ValidationError(
                            f"braid relation fails at ({i},{j})")

    # -- actions --------------------------------------------------------

    def pairing(self, root: Coweight, cowt: Coweight) -> int:
        return _dot(root, cowt)

    def reflect(self, i: int, lam: Coweight) -> Coweight:
        c = _dot(self.simple_roots[i], lam)
        av = self.simple_coroots[i]
        return tuple(x - c * y for x, y in zip(lam, av))

    def dual_reflect(self, i: int, chi: Coweight) -> Coweight:
        c = _dot(chi, self.simple_coroots[i])
        a = self.simple_roots[i]
        return tuple(x - c * y for x, y in zip(chi, a))

    # -- Weyl group -------------------------------------------------------

    @cached_property
    def weyl_order(self) -> int:
        """|W| = prod over positive roots of (ht alpha + 1) / ht alpha.

        Macdonald's product for the Poincare polynomial at t = 1; it needs
        the roots only, not the group.
        """
        heights = [sum(self._root_expansions[a]) for a in self.positive_roots]
        return int(prod(h + 1 for h in heights) // prod(heights))

    # -- roots ------------------------------------------------------------

    @cached_property
    def _root_table(self) -> dict[Coweight, tuple[Coweight, Coweight, Coweight]]:
        """Each root (dual side) mapped to its coroot (lattice side) and the
        simple coordinates of both; s_i changes coordinate i of each."""
        r = self.num_simple
        unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        table = {}
        frontier = list(zip(self.simple_roots, self.simple_coroots, unit, unit))
        while frontier:
            alpha, alpha_v, c, c_v = frontier.pop()
            if alpha in table:
                continue
            table[alpha] = (alpha_v, c, c_v)
            for i in range(r):
                beta = self.dual_reflect(i, alpha)
                if beta not in table:
                    k = _dot(alpha, self.simple_coroots[i])
                    k_v = _dot(self.simple_roots[i], alpha_v)
                    frontier.append((
                        beta, self.reflect(i, alpha_v),
                        tuple(x - k * (j == i) for j, x in enumerate(c)),
                        tuple(x - k_v * (j == i) for j, x in enumerate(c_v))))
        return table

    @cached_property
    def roots(self) -> tuple[Coweight, ...]:
        return tuple(sorted(self._root_table))

    def coroot_of(self, root: Coweight) -> Coweight:
        return self._root_table[root][0]

    @cached_property
    def _root_expansions(self) -> dict[Coweight, Coweight]:
        """Each root mapped to its integer simple-root coordinates."""
        return {alpha: self._root_table[alpha][1] for alpha in self.roots}

    @cached_property
    def coroot_steps(self) -> tuple[tuple[Coweight, Coweight], ...]:
        """(pairings with the simple roots, simple-coroot coordinates) of
        each positive coroot, sorted."""
        return tuple(sorted(
            (tuple(_dot(a, alpha_v) for a in self.simple_roots), c_v)
            for alpha_v, _, c_v in self._root_table.values()
            if min(c_v) >= 0))

    @cached_property
    def positive_roots(self) -> tuple[Coweight, ...]:
        pos = [a for a, cs in self._root_expansions.items()
               if all(c >= 0 for c in cs)]
        return tuple(sorted(pos))

    @cached_property
    def two_rho(self) -> Coweight:
        """Sum of the positive roots (a dual-lattice vector)."""
        if not self.positive_roots:
            return tuple(0 for _ in range(self.rank))
        return tuple(sum(col) for col in zip(*self.positive_roots))

    @cached_property
    def positive_coroots(self) -> tuple[Coweight, ...]:
        return tuple(sorted(self.coroot_of(a) for a in self.positive_roots))

    @cached_property
    def two_rho_hat(self) -> Coweight:
        """Sum of the positive coroots (a lattice vector)."""
        if not self.positive_coroots:
            return tuple(0 for _ in range(self.rank))
        return tuple(sum(col) for col in zip(*self.positive_coroots))

    @cached_property
    def highest_root(self) -> Coweight:
        """The dominant root of maximal height; requires irreducibility."""
        if not self.roots:
            raise ValidationError("datum has no roots")
        if not self.is_irreducible:
            raise ValidationError("highest root needs an irreducible system")
        return max(self.roots, key=lambda a: sum(self._root_expansions[a]))

    @cached_property
    def is_irreducible(self) -> bool:
        r = self.num_simple
        if r == 0:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(r):
                if j not in seen and self.cartan[i][j] != 0:
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == r

    # -- orbits, dominance, minuscule ----------------------------------

    def weyl_orbit(self, lam: Coweight) -> tuple[Coweight, ...]:
        """W lam, in descending order.

        The walk starts at the dominant representative and reflects only
        where the pairing is positive: s_i mu lies below mu exactly when
        <alpha_i, mu> > 0, and each other point of the orbit has a
        simple reflection that raises it, so every point is reached.
        The pairings of s_i mu are those of mu less <alpha_i, mu> times
        column i of the Cartan matrix, as in the Kostka-Foulkes walk.
        """
        top = self.dominant_representative(lam)
        columns = tuple(zip(*self.cartan))
        coroots = self.simple_coroots
        seen = {top: tuple(_dot(a, top) for a in self.simple_roots)}
        frontier = [top]
        while frontier:
            mu = frontier.pop()
            p = seen[mu]
            for i, k in enumerate(p):
                if k > 0:
                    nu = tuple(x - k * y for x, y in zip(mu, coroots[i]))
                    if nu not in seen:
                        seen[nu] = tuple(x - k * y
                                         for x, y in zip(p, columns[i]))
                        frontier.append(nu)
        return tuple(sorted(seen, reverse=True))

    def is_dominant(self, lam: Coweight) -> bool:
        return all(_dot(a, lam) >= 0 for a in self.simple_roots)

    def dominant_representative(self, lam: Coweight) -> Coweight:
        lam = tuple(lam)
        while True:
            for i in range(self.num_simple):
                if _dot(self.simple_roots[i], lam) < 0:
                    lam = self.reflect(i, lam)
                    break
            else:
                return lam

    def is_minuscule(self, lam: Coweight) -> bool:
        dom = self.dominant_representative(lam)
        return all(_dot(a, dom) in (-1, 0, 1) for a in self.roots)

    def rho_pairing_exponent(self, lam: Coweight) -> int:
        """<2 rho, lam>, so q**<rho,lam> = v**<2rho,lam>."""
        return _dot(self.two_rho, lam)

    def dominant_walk(self, lam: Coweight) -> dict[Coweight, Coweight]:
        """Each dominant mu <= lam, mapped to the simple-coroot coordinates
        of lam - mu.

        Steps down by positive coroots between dominant coweights reach
        every dominant mu <= lam (Stembridge 1998, Adv. Math. 136,
        Cor. 2.7); the pairings with the simple roots show which steps
        stay dominant.
        """
        lam = tuple(lam)
        if not self.is_dominant(lam):
            raise ValidationError("dominants_below expects a dominant coweight")
        zero = (0,) * self.num_simple
        found = {zero: tuple(_dot(a, lam) for a in self.simple_roots)}
        frontier = [zero]
        while frontier:
            e = frontier.pop()
            p = found[e]
            for bp, bc in self.coroot_steps:
                q = tuple(x - y for x, y in zip(p, bp))
                if min(q, default=0) >= 0:
                    e2 = tuple(x + y for x, y in zip(e, bc))
                    if e2 not in found:
                        found[e2] = q
                        frontier.append(e2)
        coroots = self.simple_coroots
        return {tuple(x - sum(k * av[j] for k, av in zip(e, coroots))
                      for j, x in enumerate(lam)): e
                for e in found}

    def dominants_below(self, lam: Coweight) -> tuple[Coweight, ...]:
        """All dominant mu <= lam, in descending order."""
        return tuple(sorted(self.dominant_walk(lam), reverse=True))

    def small_minuscule_dominants(self) -> tuple[Coweight, ...]:
        """Representative minuscule dominant coweights with small entries.

        For families with a central torus the list is a window, not
        exhaustive (central shifts of a minuscule coweight stay
        minuscule).

        A coweight is dominant and minuscule iff every positive root
        pairs with it to 0 or 1.  The window is walked one coordinate at
        a time, and a prefix survives while every positive root whose
        last nonzero coordinate is already set pairs to 0 or 1 with it,
        so the window^rank candidates are never enumerated.
        """
        window = (0, 1) if self.family in ("GL", "Sp") else (-1, 0, 1)
        closing: list[list[Coweight]] = [[] for _ in range(self.rank)]
        for alpha in self.positive_roots:
            closing[max(j for j, x in enumerate(alpha) if x)].append(alpha)
        prefixes: list[Coweight] = [()]
        for roots in closing:
            prefixes = [p + (x,) for p in prefixes for x in window
                        if all(_dot(alpha, p + (x,)) in (0, 1)
                               for alpha in roots)]
        return tuple(sorted(prefixes, reverse=True))

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "simple_roots": [list(a) for a in self.simple_roots],
            "simple_coroots": [list(a) for a in self.simple_coroots],
        }

    def __repr__(self):
        return f"BasedRootDatum({self.family}, rank={self.rank})"


def build_standard(family: str, n: int) -> BasedRootDatum:
    """Standard datum for GL_n, SL_n, PGL_n or Sp_n (n even)."""
    if family == "GL":
        if n < 1:
            raise ValidationError("GL needs n >= 1")
        roots = []
        coroots = []
        for i in range(n - 1):
            vec = tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(n))
            roots.append(vec)
            coroots.append(vec)
        return BasedRootDatum("GL", n, roots, coroots)
    if family in ("SL", "PGL"):
        if n < 2:
            raise ValidationError(f"{family} needs n >= 2")
        r = n - 1
        cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                   for j in range(r)] for i in range(r)]
        basis = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
        if family == "SL":
            # lattice = coroot lattice: coroots are the basis, roots are
            # Cartan rows
            return BasedRootDatum("SL", r, [tuple(row) for row in cartan], basis)
        # PGL: lattice = coweight lattice: roots are the dual basis,
        # coroots are Cartan columns (= rows in type A)
        return BasedRootDatum("PGL", r, basis, [tuple(row) for row in cartan])
    if family == "Sp":
        # Sp_n for even n, type C_{n/2} on the lattice Z^{n/2}
        if n < 2 or n % 2 != 0:
            raise ValidationError("Sp needs even n >= 2")
        m = n // 2
        roots = []
        coroots = []
        for i in range(m - 1):
            vec = tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(m))
            roots.append(vec)
            coroots.append(vec)
        last = tuple(1 if j == m - 1 else 0 for j in range(m))
        roots.append(tuple(2 * x for x in last))
        coroots.append(last)
        return BasedRootDatum("Sp", m, roots, coroots)
    raise ValidationError(f"unsupported family {family!r} "
                          f"(expected one of {SUPPORTED_FAMILIES})")
