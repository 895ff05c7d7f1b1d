import random

import pytest

from heckepoly.errors import ValidationError
from heckepoly.root_data import (BasedRootDatum, build_standard,
                                 _mat_mul, _identity)

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
                p = _mat_mul(m, g)
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
        gens = [datum.reflection_matrix(i) for i in range(datum.num_simple)]
        assert len(_mulclose(gens)) == order
        assert datum.weyl_order == order


def test_reflections_are_involutions():
    for datum in ALL:
        for i in range(datum.num_simple):
            m = datum.reflection_matrix(i)
            assert _mat_mul(m, m) == _identity(datum.rank)


def test_braid_relations_from_cartan():
    orders = {0: 2, 1: 3, 2: 4, 3: 6}
    for datum in ALL:
        cartan = datum.cartan
        for i in range(datum.num_simple):
            for j in range(i + 1, datum.num_simple):
                m_ij = orders[cartan[i][j] * cartan[j][i]]
                prod = _mat_mul(datum.reflection_matrix(i),
                                datum.reflection_matrix(j))
                power = _identity(datum.rank)
                for _ in range(m_ij):
                    power = _mat_mul(power, prod)
                assert power == _identity(datum.rank)


def test_weyl_orbits():
    assert GL3.weyl_orbit((1, 1, 0)) == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert GL2.weyl_orbit((0, 0)) == ((0, 0),)
    orbit = GL4.weyl_orbit((1, 0, 0, 0))
    assert len(orbit) == 4
    assert set(orbit) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                          (0, 0, 0, 1)}


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
    assert GL2.dominance_leq((1, 1), (2, 0))        # (2,0)-(1,1) = coroot
    assert not GL2.dominance_leq((1, 0), (1, 1))    # sums differ
    assert GL3.dominance_leq((1, 1, 1), (3, 0, 0))
    assert not GL3.dominance_leq((2, 2, 0), (3, 0, 0))  # coefficient -1/?


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


def test_gram_is_weyl_invariant():
    for datum in ALL:
        for w in datum.weyl_elements:
            for i in range(datum.rank):
                x = tuple(1 if k == i else 0 for k in range(datum.rank))
                for j in range(datum.rank):
                    y = tuple(1 if k == j else 0 for k in range(datum.rank))
                    assert datum.gram_pairing(x, y) == datum.gram_pairing(
                        datum.act(w, x), datum.act(w, y))


# -- index tables (oracle: lattice matrices) -----------------------------------

TABLE_DATA = [GL3, SL3, PGL3, SP4, GL4]
TABLE_IDS = ["GL3", "SL3", "PGL3", "Sp4", "GL4"]


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
def test_weyl_mul_matches_matrix_product(datum):
    elts = datum.weyl_elements
    assert elts[0].matrix == _identity(datum.rank)
    for a in range(datum.weyl_order):
        for b in range(datum.weyl_order):
            assert elts[datum.weyl_mul(a, b)].matrix == _mat_mul(
                elts[a].matrix, elts[b].matrix)


@pytest.mark.parametrize("datum", TABLE_DATA, ids=TABLE_IDS)
def test_weyl_index_tables(datum):
    elts = datum.weyl_elements
    for k, w in enumerate(elts):
        assert datum.weyl_index[w.matrix] == k
        inv = datum.weyl_inverse[k]
        assert datum.weyl_mul(k, inv) == 0 and datum.weyl_mul(inv, k) == 0
        assert len(datum.weyl_inversions[k]) == w.length
        for i in range(datum.num_simple):
            assert elts[datum.weyl_right[k][i]].matrix == _mat_mul(
                w.matrix, datum.reflection_matrix(i))
        lam = tuple(range(1, datum.rank + 1))
        assert datum.act(k, lam) == datum.act(w, lam)


@pytest.mark.parametrize("datum", TABLE_DATA, ids=TABLE_IDS)
def test_reflection_index(datum):
    theta = datum.highest_root
    k = datum.reflection_index(theta)
    assert datum.weyl_elements[k].matrix == _reflection_by_columns(datum, theta)
    for i, alpha in enumerate(datum.simple_roots):
        assert datum.reflection_index(alpha) == datum.weyl_right[0][i]
        assert datum.weyl_inversions[datum.weyl_right[0][i]] == {alpha}


def test_json_roundtrip_and_validation():
    datum = BasedRootDatum.from_json(GL3.to_json())
    assert datum.simple_roots == GL3.simple_roots
    assert datum.weyl_order == 6
    # G2 Cartan product 3 is fine; product 4 must be rejected
    with pytest.raises(ValidationError):
        BasedRootDatum("bad", 2, [(2, -2)], [(1, -1)])
    with pytest.raises(ValidationError):
        BasedRootDatum("bad", 2, [(1, 0)], [(1, -1)])  # diagonal != 2


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


def test_small_minuscule_dominants():
    mins = GL2.small_minuscule_dominants()
    assert (1, 0) in mins and (1, 1) in mins
    assert SP4.small_minuscule_dominants() == ((0, 0),)
