import random

import pytest

from heckepoly.errors import ResourceLimitError, ValidationError
from heckepoly.root_data import (BasedRootDatum, build_standard, _identity,
                                 solve_integer_combination)
from oracles import (MAX_WEYL_ORDER, WeylTables, dominance_leq,
                     is_positive_root, mat_mul, reflection_matrix,
                     small_minuscule_dominants_by_product,
                     weyl_orbit_by_reflections, weyl_tables)

GL2 = build_standard("GL", 2)
GL3 = build_standard("GL", 3)
GL4 = build_standard("GL", 4)
SP4 = build_standard("Sp", 4)
SL3 = build_standard("SL", 3)
PGL3 = build_standard("PGL", 3)

ALL = [GL2, GL3, GL4, SP4, SL3, PGL3]


def _mulclose(mats, cap=10_000):
    """Independent group closure on matrices (oracle for Weyl orders)."""
    ident = _identity(len(mats[0]))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                p = mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
        assert len(seen) < cap
    return seen


def test_gl2_single_root():
    assert GL2.simple_roots == ((1, -1),)
    assert GL2.simple_coroots == ((1, -1),)


def test_weyl_orders_against_mulclose():
    for datum, order in [(GL2, 2), (GL3, 6), (GL4, 24), (SP4, 8),
                         (SL3, 6), (PGL3, 6)]:
        gens = [reflection_matrix(datum, i) for i in range(datum.num_simple)]
        assert len(_mulclose(gens)) == order
        assert datum.weyl_order == order


def test_reflections_are_involutions():
    for datum in ALL:
        for i in range(datum.num_simple):
            m = reflection_matrix(datum, i)
            assert mat_mul(m, m) == _identity(datum.rank)


def test_braid_relations_from_cartan():
    orders = {0: 2, 1: 3, 2: 4, 3: 6}
    for datum in ALL:
        cartan = datum.cartan
        for i in range(datum.num_simple):
            for j in range(i + 1, datum.num_simple):
                m_ij = orders[cartan[i][j] * cartan[j][i]]
                prod = mat_mul(reflection_matrix(datum, i),
                                reflection_matrix(datum, j))
                power = _identity(datum.rank)
                for _ in range(m_ij):
                    power = mat_mul(power, prod)
                assert power == _identity(datum.rank)


def test_weyl_orbits():
    assert GL3.weyl_orbit((1, 1, 0)) == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert GL2.weyl_orbit((0, 0)) == ((0, 0),)
    orbit = GL4.weyl_orbit((1, 0, 0, 0))
    assert len(orbit) == 4
    assert set(orbit) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                          (0, 0, 0, 1)}


# every standard datum whose lattice has rank at most 5
SMALL = ([("GL", n) for n in range(1, 6)]
         + [(f, n) for f in ("SL", "PGL") for n in range(2, 7)]
         + [("Sp", n) for n in range(2, 11, 2)])


@pytest.mark.parametrize("family,n", SMALL, ids=[f"{f}{n}" for f, n in SMALL])
def test_weyl_orbit_walk_matches_the_reflection_search(family, n):
    datum = build_standard(family, n)
    # the walk starts at the dominant representative; the search starts
    # at the input, dominant or not
    rng = random.Random(datum.rank)
    points = [tuple(0 for _ in range(datum.rank)), datum.two_rho_hat,
              tuple(-x for x in datum.two_rho_hat)]
    points += [tuple(rng.randint(-2, 2) for _ in range(datum.rank))
               for _ in range(12)]
    for lam in points:
        assert datum.weyl_orbit(lam) == weyl_orbit_by_reflections(datum, lam)


def test_orbit_size_divides_weyl_order():
    rng = random.Random(7)
    for datum in ALL:
        for _ in range(5):
            lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
            assert datum.weyl_order % len(datum.weyl_orbit(lam)) == 0


def test_minuscule_gl4_by_root_enumeration():
    # oracle: the 12 roots e_i - e_j of GL4, pairings with (1,1,0,0)
    roots = []
    for i in range(4):
        for j in range(4):
            if i != j:
                vec = tuple(1 if k == i else (-1 if k == j else 0)
                            for k in range(4))
                roots.append(vec)
    assert len(roots) == 12
    assert set(roots) == set(GL4.roots)
    lam = (1, 1, 0, 0)
    assert all(sum(a * l for a, l in zip(alpha, lam)) in (-1, 0, 1)
               for alpha in roots)
    assert GL4.is_minuscule(lam)


def test_minuscule_negative_and_zero_cases():
    assert not GL2.is_minuscule((2, 0))   # pairing <e1-e2,(2,0)> = 2
    for datum in ALL:
        assert datum.is_minuscule(tuple(0 for _ in range(datum.rank)))


def test_minuscule_orbit_pairings():
    for datum, lam in [(GL2, (1, 0)), (GL3, (1, 1, 0)), (GL4, (1, 1, 0, 0))]:
        assert datum.is_minuscule(lam)
        for mu in datum.weyl_orbit(lam):
            for alpha in datum.roots:
                assert datum.pairing(alpha, mu) in (-1, 0, 1)


def test_dominant_representative():
    assert GL2.dominant_representative((0, 1)) == (1, 0)
    assert GL3.dominant_representative((0, 2, 1)) == (2, 1, 0)
    for datum in ALL:
        rng = random.Random(11)
        for _ in range(10):
            lam = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
            dom = datum.dominant_representative(lam)
            assert datum.is_dominant(dom)
            assert dom in datum.weyl_orbit(lam)


def test_dominance_leq():
    assert dominance_leq(GL2, (1, 1), (2, 0))        # (2,0)-(1,1) = coroot
    assert not dominance_leq(GL2, (1, 0), (1, 1))    # sums differ
    assert dominance_leq(GL3, (1, 1, 1), (3, 0, 0))
    assert not dominance_leq(GL3, (2, 2, 0), (3, 0, 0))  # coefficient -1/?


def test_rho_pairing():
    assert GL2.two_rho == (1, -1)
    assert GL2.rho_pairing_exponent((1, 0)) == 1
    assert GL3.two_rho == (2, 0, -2)
    assert GL3.rho_pairing_exponent((1, 0, 0)) == 2
    assert GL3.rho_pairing_exponent((1, 1, 1)) == 0


def test_rho_maximized_exactly_at_dominant_representative():
    rng = random.Random(3)
    for datum in ALL:
        for _ in range(8):
            lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
            orbit = datum.weyl_orbit(lam)
            dom = datum.dominant_representative(lam)
            best = max(datum.rho_pairing_exponent(mu) for mu in orbit)
            argmax = [mu for mu in orbit
                      if datum.rho_pairing_exponent(mu) == best]
            assert argmax == [dom]


def test_sp4_structure():
    assert SP4.rank == 2
    assert set(SP4.positive_roots) == {(1, -1), (1, 1), (2, 0), (0, 2)}
    assert SP4.highest_root == (2, 0)
    assert SP4.is_minuscule((1, 0)) is False


# -- the tests' Weyl tables (oracle: lattice matrices) --------------------------------

# G2 on its coroot lattice: coroots are the standard basis, roots the
# Cartan rows; built directly, the way a custom datum is
G2 = BasedRootDatum("G2", 2, [(2, -1), (-3, 2)], [(1, 0), (0, 1)])
GL5 = build_standard("GL", 5)

TABLE_DATA = [GL3, SL3, PGL3, SP4, GL4, GL5, G2]
TABLE_IDS = ["GL3", "SL3", "PGL3", "Sp4", "GL4", "GL5", "G2"]


def _mat_vec(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def _matrix_bfs(datum):
    """Weyl group as (word, lattice matrix) pairs, by BFS on matrices.

    The enumeration the library used before it moved to orbit points:
    right-multiply each matrix by every simple reflection, keep the
    first word that reaches a new matrix, sort by (length, word).
    """
    ident = _identity(datum.rank)
    reflections = [reflection_matrix(datum, i) for i in range(datum.num_simple)]
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for i, s_i in enumerate(reflections):
                p = mat_mul(m, s_i)
                if p not in seen:
                    seen[p] = seen[m] + (i,)
                    nxt.append(p)
        frontier = nxt
    return sorted(((word, m) for m, word in seen.items()),
                  key=lambda item: (len(item[0]), item[0]))


def _reflection_by_columns(datum, alpha):
    """s_alpha's matrix, column j = e_j - <alpha, e_j> alpha^vee."""
    alpha_v = datum.coroot_of(alpha)
    cols = []
    for j in range(datum.rank):
        basis = tuple(1 if k == j else 0 for k in range(datum.rank))
        c = datum.pairing(alpha, basis)
        cols.append(tuple(x - c * y for x, y in zip(basis, alpha_v)))
    return tuple(zip(*cols))


@pytest.mark.parametrize("datum", TABLE_DATA, ids=TABLE_IDS)
def test_weyl_elements_match_matrix_bfs(datum):
    # the tests' enumeration of W, against the matrix search
    oracle = _matrix_bfs(datum)
    weyl = weyl_tables(datum)
    assert list(weyl.words) == [word for word, _ in oracle]
    assert [weyl.matrix(k) for k in range(weyl.order)] == \
        [m for _, m in oracle]
    assert datum.weyl_order == weyl.order == len(oracle)


def test_weyl_order_from_root_heights():
    for family, n, order in [("GL", 1, 1), ("GL", 6, 720), ("GL", 9, 362880),
                             ("SL", 4, 24), ("PGL", 5, 120), ("Sp", 6, 48),
                             ("Sp", 8, 384)]:
        assert build_standard(family, n).weyl_order == order
    assert G2.weyl_order == 12


def test_weyl_enumeration_guard_fires_before_bfs():
    # the library enumerates no Weyl group; the tests' tables refuse a
    # group that would take minutes, before the search starts
    gl9 = build_standard("GL", 9)
    assert gl9.weyl_order > MAX_WEYL_ORDER
    with pytest.raises(ResourceLimitError, match="100000"):
        WeylTables(gl9)


@pytest.mark.parametrize("datum", TABLE_DATA, ids=TABLE_IDS)
def test_weyl_mul_matches_matrix_product(datum):
    weyl = weyl_tables(datum)
    mats = [weyl.matrix(k) for k in range(weyl.order)]
    assert mats[0] == _identity(datum.rank)
    for a in range(weyl.order):
        for b in range(weyl.order):
            assert mats[weyl.mul(a, b)] == mat_mul(mats[a], mats[b])


@pytest.mark.parametrize("datum", TABLE_DATA, ids=TABLE_IDS)
def test_weyl_index_tables(datum):
    weyl = weyl_tables(datum)
    x0 = datum.two_rho_hat
    assert len(weyl.index) == weyl.order
    for point, k in weyl.index.items():
        # point is w_k^{-1} x0, and w_k x0 names w_k
        assert _mat_vec(weyl.matrix(k), point) == x0
        assert weyl.by_point(weyl.act(k, x0)) == k
    for k, word in enumerate(weyl.words):
        m = weyl.matrix(k)
        inv = weyl.inverse[k]
        assert weyl.mul(k, inv) == 0 and weyl.mul(inv, k) == 0
        assert len(weyl.inversions[k]) == len(word)
        for i in range(datum.num_simple):
            s_i = reflection_matrix(datum, i)
            assert weyl.matrix(weyl.right[k][i]) == mat_mul(m, s_i)
            s_i_w = weyl.mul(weyl.right[0][i], k)
            assert weyl.matrix(s_i_w) == mat_mul(s_i, m)
        lam = tuple(range(1, datum.rank + 1))
        assert weyl.act(k, lam) == _mat_vec(m, lam)


@pytest.mark.parametrize("datum", TABLE_DATA, ids=TABLE_IDS)
def test_weyl_inversions_against_matrices(datum):
    # w^{-1} alpha is the dual vector alpha^T m for w's matrix m
    weyl = weyl_tables(datum)
    for k in range(weyl.order):
        m = weyl.matrix(k)
        expected = {alpha for alpha in datum.positive_roots
                    if not is_positive_root(datum, tuple(
                        sum(alpha[r] * m[r][c] for r in range(datum.rank))
                        for c in range(datum.rank)))}
        assert weyl.inversions[k] == expected


@pytest.mark.parametrize("datum", TABLE_DATA, ids=TABLE_IDS)
def test_reflection_index(datum):
    weyl = weyl_tables(datum)
    theta = datum.highest_root
    k = weyl.reflection_index(theta)
    assert weyl.matrix(k) == _reflection_by_columns(datum, theta)
    for i, alpha in enumerate(datum.simple_roots):
        assert weyl.reflection_index(alpha) == weyl.right[0][i]
        assert weyl.inversions[weyl.right[0][i]] == {alpha}
    for alpha in datum.positive_roots:
        k = weyl.reflection_index(alpha)
        assert weyl.matrix(k) == _reflection_by_columns(datum, alpha)


def test_json_roundtrip_and_validation():
    assert GL3.to_json() == {"family": "GL", "rank": 3,
                             "simple_roots": [[1, -1, 0], [0, 1, -1]],
                             "simple_coroots": [[1, -1, 0], [0, 1, -1]]}
    # the written fields are the constructor's arguments
    datum = BasedRootDatum(**GL3.to_json())
    assert datum.simple_roots == GL3.simple_roots
    assert datum.weyl_order == 6
    # G2 Cartan product 3 is fine; product 4 must be rejected
    with pytest.raises(ValidationError):
        BasedRootDatum("bad", 2, [(2, -2)], [(1, -1)])
    with pytest.raises(ValidationError):
        BasedRootDatum("bad", 2, [(1, 0)], [(1, -1)])  # diagonal != 2


def test_braid_relations_are_checked_by_reflections():
    # <alpha_0, alpha_1^vee> = -1 but <alpha_1, alpha_0^vee> = 0: the
    # Cartan product 0 asks s_0 and s_1 to commute, and they do not
    with pytest.raises(ValidationError,
                       match=r"^braid relation fails at \(0,1\)$"):
        BasedRootDatum("bad", 2, [(1, 0), (0, 1)], [(2, 0), (-1, 2)])
    with pytest.raises(ValidationError,
                       match=r"^Cartan product 4 at \(0,1\) generates an "
                             r"infinite group$"):
        BasedRootDatum("bad", 2, [(1, 0), (0, 1)], [(2, -2), (-2, 2)])


def test_builder_rejects_bad_input():
    with pytest.raises(ValidationError):
        build_standard("XX", 2)
    with pytest.raises(ValidationError):
        build_standard("Sp", 3)
    with pytest.raises(ValidationError):
        build_standard("SL", 1)


def test_dominants_below():
    assert GL2.dominants_below((2, 0)) == ((2, 0), (1, 1))
    assert GL2.dominants_below((1, 0)) == ((1, 0),)
    assert GL3.dominants_below((2, 0, 0)) == ((2, 0, 0), (1, 1, 0))


@pytest.mark.parametrize("family,n", [
    ("GL", 1), ("GL", 2), ("GL", 5), ("SL", 2), ("SL", 5),
    ("PGL", 2), ("PGL", 5), ("Sp", 2), ("Sp", 4), ("Sp", 8)])
def test_root_coordinates_match_the_rational_solve(family, n):
    # the reflection walk's integer coordinates against Gaussian elimination
    datum = build_standard(family, n)
    steps = set()
    for alpha in datum.roots:
        c = datum._root_expansions[alpha]
        assert all(isinstance(x, int) for x in c)
        assert c == solve_integer_combination(list(datum.simple_roots), alpha)
        alpha_v, _, c_v = datum._root_table[alpha]
        assert c_v == solve_integer_combination(list(datum.simple_coroots),
                                                alpha_v)
        if is_positive_root(datum, alpha):
            steps.add((tuple(datum.pairing(a, alpha_v)
                             for a in datum.simple_roots), c_v))
    assert datum.coroot_steps == tuple(sorted(steps))


def test_small_minuscule_dominants():
    mins = GL2.small_minuscule_dominants()
    assert (1, 0) in mins and (1, 1) in mins
    assert SP4.small_minuscule_dominants() == ((0, 0),)


MINUSCULE_WINDOW_DATA = [(f, n) for f, ns in
                         [("GL", (1, 2, 6, 7, 9)), ("SL", (2, 3, 5, 8)),
                          ("PGL", (3, 4, 6, 9)), ("Sp", (2, 4, 6, 8))]
                         for n in ns]


@pytest.mark.parametrize("family,n", MINUSCULE_WINDOW_DATA,
                         ids=[f"{f}{n}" for f, n in MINUSCULE_WINDOW_DATA])
def test_minuscule_walk_matches_the_window_filter(family, n):
    datum = build_standard(family, n)
    assert datum.small_minuscule_dominants() == \
        small_minuscule_dominants_by_product(datum)
