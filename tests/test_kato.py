"""Kato's formula for double-coset coordinates, checked against the
affine T-basis engine and against character theory."""

import itertools
import random
from fractions import Fraction

import pytest

from heckepoly import characters
from heckepoly.errors import (ConsistencyError, ResourceLimitError,
                              ValidationError)
from heckepoly.laurent import LaurentHalf, ONE
from heckepoly.characters import (KostkaFoulkesTable, WeightMultiset,
                                  decompose, orbit_character, weyl_character)
from heckepoly.root_data import BasedRootDatum, Coweight, build_standard
from heckepoly.hecke import hecke_polynomial
from heckepoly.iwahori import AffineHeckeAlgebra, SphericalCosetVector
from heckepoly.kato import coset_coordinates
from oracles import dominance_leq, weyl_tables

GL2 = build_standard("GL", 2)
GL3 = build_standard("GL", 3)

# (family, rank, max-norm of the window of dominant coweights)
WINDOWS = [("GL", 2, 2), ("GL", 3, 2), ("SL", 3, 2), ("PGL", 3, 2),
           ("Sp", 4, 2), ("GL", 4, 2), ("PGL", 4, 2)]
WINDOW_IDS = [f"{f}{n}" for f, n, _ in WINDOWS]
# larger windows, for the engine comparison alone
ENGINE_WINDOWS = [("SL", 4, 2), ("GL", 5, 2), ("Sp", 6, 2), ("GL", 8, 1),
                  ("PGL", 5, 1)]


def _window(datum, max_norm):
    return [lam for lam in
            itertools.product(range(max_norm + 1), repeat=datum.rank)
            if datum.is_dominant(lam)]


def _dominants_below_by_bfs(datum, lam):
    """Oracle for the dominant walk: walk down the simple coroots while
    <2 rho, .> stays nonnegative, then keep the dominant mu <= lam by the
    rational solve of the ``dominance_leq`` oracle."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        mu = frontier.pop()
        for av in datum.simple_coroots:
            nu = tuple(x - y for x, y in zip(mu, av))
            if nu not in seen and datum.rho_pairing_exponent(nu) >= 0:
                seen.add(nu)
                frontier.append(nu)
    return tuple(sorted((mu for mu in seen if datum.is_dominant(mu)
                         and dominance_leq(datum, mu, lam)), reverse=True))


def _root_form(datum):
    """The W-invariant form sum over alpha > 0 of <alpha, x><alpha, y>;
    it is positive definite on the span of the coroots."""
    pos = datum.positive_roots

    def b(x, y):
        return sum(datum.pairing(a, x) * datum.pairing(a, y) for a in pos)
    return b


def _freudenthal_multiplicities(datum: BasedRootDatum,
                                lam: Coweight) -> dict[Coweight, int]:
    """Dominant weight multiplicities of the irreducible with h.w. lam.

    Freudenthal's recursion, on the dual side: the roles of roots are
    played by the coroots of the datum, and the invariant form is
    ``_root_form``.  All arithmetic is integral except one exact division
    per weight.
    """
    pos = datum.positive_coroots
    two_rho_hat = datum.two_rho_hat
    b = _root_form(datum)

    lam_norm = b(lam, lam)
    # every dominant mu <= lam is a weight; the ones above mu come first
    walk = datum.dominant_walk(lam)
    mult: dict[Coweight, int] = {lam: 1}
    for mu in sorted(walk, key=lambda mu: sum(walk[mu])):
        if mu == lam:
            continue
        numerator = 0
        for av in pos:
            av_norm = b(av, av)
            vertex = Fraction(-b(mu, av), av_norm)
            k = 1
            while True:
                nu = tuple(x + k * y for x, y in zip(mu, av))
                nu_norm = b(nu, nu)
                if nu_norm > lam_norm and k > vertex:
                    break
                m_nu = mult.get(datum.dominant_representative(nu), 0)
                if m_nu:
                    numerator += 2 * m_nu * b(nu, av)
                k += 1
        denominator = b(tuple(l - m for l, m in zip(lam, mu)),
                        tuple(l + m + t for l, m, t in
                              zip(lam, mu, two_rho_hat)))
        if denominator <= 0:
            raise ConsistencyError("Freudenthal denominator must be positive")
        m_mu = Fraction(numerator, denominator)
        if m_mu.denominator != 1 or m_mu < 0:
            raise ConsistencyError(f"non-integral multiplicity at {mu}")
        if m_mu:
            mult[mu] = int(m_mu)
    return mult


def _decompose_by_freudenthal(datum, f):
    """Oracle for ``decompose``: strip the highest dominant term by
    Freudenthal's multiplicities."""
    work = {w: c for w, c in f.terms.items() if datum.is_dominant(w)}
    out = {}
    while work:
        lam = max(work, key=lambda w: (datum.rho_pairing_exponent(w), w))
        c = out[lam] = work[lam]
        for mu, m in _freudenthal_multiplicities(datum, lam).items():
            rest = work.get(mu, LaurentHalf.zero()) - c * m
            if rest.is_zero():
                work.pop(mu, None)
            else:
                work[mu] = rest
    return out


# SL2 x PGL2: reducible, with one factor of each lattice type
A1_A1 = BasedRootDatum("A1xA1", 2, [(2, 0), (0, 1)], [(1, 0), (0, 2)])


@pytest.mark.parametrize("datum,max_norm", [
    *((build_standard(f, n), m) for f, n, m in WINDOWS),
    (build_standard("Sp", 6), 2), (A1_A1, 3)],
    ids=WINDOW_IDS + ["Sp6", "A1xA1"])
def test_dominant_walk_matches_the_bfs_oracle(datum, max_norm):
    for lam in _window(datum, max_norm):
        walk = datum.dominant_walk(lam)
        assert datum.dominants_below(lam) == _dominants_below_by_bfs(datum,
                                                                     lam)
        for mu, e in walk.items():
            assert all(k >= 0 for k in e)
            assert tuple(m + sum(k * av[j] for k, av in
                                 zip(e, datum.simple_coroots))
                         for j, m in enumerate(mu)) == lam
    with pytest.raises(ValidationError):
        datum.dominant_walk(tuple(-x for x in datum.two_rho_hat))


@pytest.mark.parametrize("family,rank,max_norm", WINDOWS + ENGINE_WINDOWS,
                         ids=[f"{f}{n}" for f, n, _ in WINDOWS + ENGINE_WINDOWS])
def test_coset_coordinates_match_the_engine(family, rank, max_norm):
    datum = build_standard(family, rank)
    algebra = AffineHeckeAlgebra(datum)
    characters = [orbit_character(datum, lam)
                  for lam in _window(datum, max_norm)]
    rng = random.Random(103)
    combinations = []
    for _ in range(3):
        f = WeightMultiset({(0,) * datum.rank: rng.randint(-2, 2)})
        for chi in rng.sample(characters, min(3, len(characters))):
            f = f + chi.scale(LaurentHalf({rng.randint(-2, 2):
                                           rng.choice([-2, -1, 1, 2])}))
        combinations.append(f)
    for f in characters + combinations:
        assert coset_coordinates(datum, f) == algebra.satake_inverse(f)


@pytest.mark.parametrize("family,rank,max_norm", WINDOWS, ids=WINDOW_IDS)
def test_kostka_foulkes_at_one_are_weight_multiplicities(family, rank,
                                                         max_norm):
    # K_{lam mu}(1) is the multiplicity of mu in chi_lam, and the walk
    # between dominant coweights finds every dominant mu <= lam
    datum = build_standard(family, rank)
    table = KostkaFoulkesTable(datum, 10 ** 6)
    for lam in _window(datum, max_norm):
        kf = table.kostka_foulkes(lam)
        assert sorted(kf, reverse=True) == list(
            _dominants_below_by_bfs(datum, lam))
        mult = _freudenthal_multiplicities(datum, lam)
        assert {mu: sum(k) for mu, k in kf.items() if sum(k)} == mult
        assert kf[lam] == [1]


def test_kostka_foulkes_gl3_examples():
    # K_{(2,1,0),(1,1,1)} = t + t^2, K_{(3,0,0),(1,1,1)} = t^3,
    # K_{(2,0,0),(1,1,0)} = t (Macdonald, III.6)
    table = KostkaFoulkesTable(GL3, 10 ** 6)
    assert table.kostka_foulkes((2, 1, 0))[(1, 1, 1)] == [0, 1, 1]
    assert table.kostka_foulkes((3, 0, 0))[(1, 1, 1)] == [0, 0, 0, 1]
    assert table.kostka_foulkes((2, 0, 0))[(1, 1, 0)] == [0, 1]


def test_coset_coordinates_gl2_examples():
    # chi_(2,0) = q^{-1} 1_(2,0) + q^{-1} 1_(1,1), from
    # S(1_{K(2,0)K}) = q m_(2,0) + (q-1) m_(1,1)
    chi = orbit_character(GL2, (2, 0)) + orbit_character(GL2, (1, 1))
    assert coset_coordinates(GL2, chi) == SphericalCosetVector(
        {(2, 0): LaurentHalf.v_power(-2), (1, 1): LaurentHalf.v_power(-2)})
    assert coset_coordinates(GL2, WeightMultiset({(0, 0): 1})) == \
        SphericalCosetVector({(0, 0): ONE})
    assert coset_coordinates(GL2, WeightMultiset()) == \
        SphericalCosetVector({})


def test_non_invariant_input_is_a_consistency_error():
    lopsided = WeightMultiset({(1, 0): 1, (0, 1): 2})
    with pytest.raises(ConsistencyError):
        coset_coordinates(GL2, lopsided)
    # s_0 fixes e^(1,0,0) + e^(0,1,0); only s_1 moves it
    with pytest.raises(ConsistencyError, match="not invariant under s_1"):
        coset_coordinates(GL3, WeightMultiset({(1, 0, 0): 1, (0, 1, 0): 1}))


def test_guard_counts_orbit_points_and_memo_entries():
    # chi_(1,0,0) keeps one orbit point (nothing lies below it) and then
    # needs one memo entry of P_t
    f = orbit_character(GL3, (1, 0, 0))
    with pytest.raises(ResourceLimitError,
                       match=r"^Kato coordinates: working set 2 exceeds "
                             r"max_support=1$"):
        coset_coordinates(GL3, f, max_support=1)
    assert coset_coordinates(GL3, f, max_support=2) == \
        SphericalCosetVector({(1, 0, 0): LaurentHalf.v_power(-2)})
    # (3,0,0) keeps 2 of its 6 orbit points, and the walk's own guard
    # counts those before any memo entry exists
    with pytest.raises(ResourceLimitError,
                       match=r"^Kato coordinates: working set 2 exceeds "
                             r"max_support=1$"):
        coset_coordinates(GL3, orbit_character(GL3, (3, 0, 0)),
                          max_support=1)
    # m_(2,1,0) = chi_(2,1,0) - 2 chi_(1,1,1): the first character keeps
    # one point and leaves two memo entries of P_t
    m = orbit_character(GL3, (2, 1, 0))
    with pytest.raises(ResourceLimitError,
                       match=r"working set 3 exceeds max_support=2$"):
        coset_coordinates(GL3, m, max_support=2)
    assert coset_coordinates(GL3, m, max_support=3) == \
        AffineHeckeAlgebra(GL3).satake_inverse(m)


def _orbit_by_weyl_table(datum, lam, top):
    """Oracle for the pruned walk: every w in W, each from the shorter
    u = s_i w (the tables' product), keeping the points x - w x <= top."""
    weyl = weyl_tables(datum)
    columns = [tuple(row[i] for row in datum.cartan)
               for i in range(datum.num_simple)]
    pairings = [tuple(datum.pairing(a, lam) + 1 for a in datum.simple_roots)]
    points = [(tuple(0 for _ in pairings[0]), 1)]
    for k, word in enumerate(weyl.words[1:], 1):
        i = word[0]
        u = weyl.mul(weyl.right[0][i], k)
        p, (d, sign) = pairings[u], points[u]
        pairings.append(tuple(x - p[i] * y for x, y in zip(p, columns[i])))
        points.append((tuple(x + p[i] * (j == i) for j, x in enumerate(d)),
                       -sign))
    return sorted((d, e) for d, e in points
                  if all(x <= y for x, y in zip(d, top)))


@pytest.mark.parametrize("family,rank,mu", [
    ("GL", 5, (1, 1, 0, 0, 0)), ("GL", 6, (1, 1, 1, 0, 0, 0)),
    ("PGL", 4, (0, 1, 0)), ("Sp", 4, None)],
    ids=["GL5-k2", "GL6-k3", "PGL4", "Sp4-norm2"])
def test_pruned_walk_keeps_the_orbit_points_below_top(family, rank, mu):
    # the lam are those of the polynomial's coefficients, or Sp4's window
    datum = build_standard(family, rank)
    if mu is None:
        lambdas = _window(datum, 2)
    else:
        h = hecke_polynomial(datum, mu, "classical")
        lambdas = sorted({w for c in h.coefficients
                          for w in c.terms if datum.is_dominant(w)})
    table = KostkaFoulkesTable(datum, 10 ** 6)
    for lam in lambdas:
        below = datum.dominant_walk(lam)
        top = tuple(max(col) for col in zip(*below.values()))
        assert sorted(table._orbit(lam, top)) == \
            _orbit_by_weyl_table(datum, lam, top), lam


def test_weyl_character_walks_no_weyl_group(monkeypatch):
    # GL8 has |W| = 40320, above the default bound, but chi_(1,0,...,0)
    # keeps one orbit point; the library has no Weyl enumeration to
    # call (test_cli scans it for the names)
    gl8 = build_standard("GL", 8)
    lam = (1,) + (0,) * 7
    chi = weyl_character(gl8, lam)
    assert chi == orbit_character(gl8, lam)
    assert len(chi.terms) == 8
    # at a tiny bound the refusal names weyl_character's own stage
    monkeypatch.setattr(characters, "KostkaFoulkesTable",
                        lambda datum, stage: KostkaFoulkesTable(datum, 1,
                                                                stage))
    with pytest.raises(ResourceLimitError,
                       match=r"^Weyl character: working set 2 exceeds "
                             r"max_support=1$"):
        weyl_character(gl8, lam)


@pytest.mark.parametrize("family,rank", [("GL", 3), ("Sp", 4), ("PGL", 3)])
def test_decompose_and_coordinates_expand_no_orbit(family, rank,
                                                   monkeypatch):
    # stripping runs on dominant terms with the dominant multiplicities
    # K_{lam mu}(1), so neither path may ask for a full character or orbit
    datum = build_standard(family, rank)
    rng = random.Random(29)
    coeffs = {lam: LaurentHalf({rng.randint(-2, 2): rng.choice([-2, -1, 1, 2])})
              for lam in _window(datum, 2)}
    f = WeightMultiset()
    for lam, c in coeffs.items():
        f = f + weyl_character(datum, lam).scale(c)
    expected = AffineHeckeAlgebra(datum).satake_inverse(f)

    def refuse(*args):
        raise AssertionError("a full orbit was expanded")
    monkeypatch.setattr(characters, "weyl_character", refuse)
    monkeypatch.setattr(BasedRootDatum, "weyl_orbit", refuse)
    assert decompose(datum, f) == coeffs
    assert coset_coordinates(datum, f) == expected


@pytest.mark.parametrize("family,rank", [("GL", 4), ("Sp", 4)])
def test_one_table_walks_one_orbit_per_character(family, rank, monkeypatch):
    # decompose strips with K_{lam mu}(1), as Freudenthal's strip does, and
    # coset_coordinates reads each K_{lam .} it already computed for the
    # split, so it walks the orbit of lam + rho^vee once per lam, in order
    datum = build_standard(family, rank)
    window = [orbit_character(datum, lam) for lam in _window(datum, 2)]
    rng = random.Random(41)
    combinations = []
    for _ in range(3):
        f = WeightMultiset({(0,) * datum.rank: rng.randint(-2, 2)})
        for m in rng.sample(window, 4):
            f = f + m.scale(LaurentHalf({rng.randint(-2, 2):
                                         rng.choice([-2, -1, 1, 2])}))
        combinations.append(f)
    walked = []
    orbit = KostkaFoulkesTable._orbit

    def counted(self, lam, top):
        walked.append(lam)
        return orbit(self, lam, top)
    monkeypatch.setattr(KostkaFoulkesTable, "_orbit", counted)
    for f in window + combinations:
        split = decompose(datum, f)
        assert split == _decompose_by_freudenthal(datum, f)
        walked.clear()
        coset_coordinates(datum, f)
        assert walked == list(split)
