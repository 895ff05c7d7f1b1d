import itertools
import random

import pytest

from heckepoly.errors import (ConsistencyError, ResourceLimitError,
                              ValidationError)
from heckepoly.laurent import LaurentHalf, ONE, Q
from heckepoly.characters import WeightMultiset, orbit_character
from heckepoly.root_data import build_standard
from heckepoly.iwahori import AffineHeckeAlgebra
from oracles import (TBasisAlgebra, finite_sum, min_coset_length, poincare,
                     satake_inverse_by_central_element, spherical_idempotent)

GL2 = build_standard("GL", 2)
GL3 = build_standard("GL", 3)
SP4 = build_standard("Sp", 4)

# the library's engine
A2 = AffineHeckeAlgebra(GL2)
A3 = AffineHeckeAlgebra(GL3)
ASP = AffineHeckeAlgebra(SP4)

# the T-basis product the tests compare it with
H2 = TBasisAlgebra(GL2)
H3 = TBasisAlgebra(GL3)
HSP = TBasisAlgebra(SP4)
H4 = TBasisAlgebra(build_standard("GL", 4))
HPGL3 = TBasisAlgebra(build_standard("PGL", 3))
HPGL4 = TBasisAlgebra(build_standard("PGL", 4))

V = LaurentHalf.v_power


def _braid_order(algebra, i, j):
    """Order of s_i s_j from the affine Cartan pairing (None = infinite)."""
    datum = algebra.datum
    def root_of(idx):
        if idx == 0:
            theta = datum.highest_root
            return tuple(-x for x in theta), tuple(-x for x in
                                                   datum.coroot_of(theta))
        return (datum.simple_roots[idx - 1], datum.simple_coroots[idx - 1])
    a_i, av_i = root_of(i)
    a_j, av_j = root_of(j)
    prod = datum.pairing(a_i, av_j) * datum.pairing(a_j, av_i)
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod)


# -- multiplication ------------------------------------------------------------

def test_quadratic_relation():
    for algebra in (H2, H3, HSP):
        for idx in algebra.generator_indices:
            ts = algebra.gen_t(idx)
            lhs = algebra.multiply(ts, ts)
            rhs = ts.scale(Q - ONE) + algebra.unit().scale(Q)
            assert lhs == rhs


def test_unit_is_neutral():
    x = H2.theta((2, -1))
    assert H2.multiply(H2.unit(), x) == x
    assert H2.multiply(x, H2.unit()) == x


def test_gl2_idempotent_numerator():
    s = finite_sum(H2)
    assert H2.multiply(s, s) == s.scale(ONE + Q)


def test_braid_relations_all_generator_pairs():
    for algebra in (H2, H3, HSP):
        idxs = algebra.generator_indices
        for i in idxs:
            for j in idxs:
                if i >= j:
                    continue
                m = _braid_order(algebra, i, j)
                if m is None:
                    continue  # infinite order (affine A1)
                left, right = algebra.unit(), algebra.unit()
                gi, gj = algebra.gen_t(i), algebra.gen_t(j)
                for k in range(m):
                    left = algebra.multiply(left, gi if k % 2 == 0 else gj)
                    right = algebra.multiply(right, gj if k % 2 == 0 else gi)
                assert left == right, (algebra.datum.family, i, j)


def test_multiplication_is_associative_on_random_elements():
    rng = random.Random(61)
    def random_element(algebra):
        out = algebra.unit().scale(LaurentHalf({rng.randint(-1, 1): 1}))
        for _ in range(2):
            lam = tuple(rng.randint(-1, 1) for _ in range(algebra.datum.rank))
            out = out + algebra.theta(lam).scale(
                LaurentHalf({rng.randint(-1, 1): rng.choice([-1, 1, 2])}))
        return out
    for algebra in (H2, H3):
        for _ in range(4):
            a, b, c = (random_element(algebra) for _ in range(3))
            assert algebra.multiply(algebra.multiply(a, b), c) == \
                algebra.multiply(a, algebra.multiply(b, c))


# -- theta elements --------------------------------------------------------------

def test_theta_dominant_is_normalized_translation():
    lam = (2, 0)
    key = H2.translation_key(lam)
    expected = H2.t_basis(key).scale(V(-H2.length(key)))
    assert H2.theta(lam) == expected


def test_theta_decomposition_independence():
    # three decompositions lam = lam1 - lam2 into dominants agree
    rng = random.Random(67)
    for algebra in (H2, H3):
        datum = algebra.datum
        for _ in range(4):
            lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
            base = algebra.theta(lam)
            for shift in ([1] * datum.rank, [2] * datum.rank,
                          list(range(datum.rank, 0, -1))):
                lam2 = datum.dominant_representative(tuple(shift))
                lam1 = tuple(a + b for a, b in zip(lam, lam2))
                if not datum.is_dominant(lam1):
                    lam1 = tuple(a + 2 * b for a, b in zip(lam, lam2))
                    lam2 = tuple(2 * b for b in lam2)
                    if not datum.is_dominant(lam1):
                        continue
                t1 = algebra.t_basis(algebra.translation_key(lam1))
                inv2 = algebra.translation_inverse(lam2)
                e1 = algebra.length(algebra.translation_key(lam1))
                e2 = algebra.length(algebra.translation_key(lam2))
                other = algebra.multiply(t1, inv2).scale(V(e2 - e1))
                assert other == base, (datum.family, lam, lam2)


def test_theta_additivity():
    rng = random.Random(71)
    for algebra in (H2, H3):
        datum = algebra.datum
        for _ in range(6):
            lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
            nu = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
            total = tuple(a + b for a, b in zip(lam, nu))
            assert algebra.multiply(algebra.theta(lam), algebra.theta(nu)) \
                == algebra.theta(total)


def test_repeated_results_do_not_share_terms():
    # theta is memoized: editing one result must not reach the next call
    for make, lam in ((H3.theta, (0, 1, 2)), (H3.theta, (2, 1, 0)),
                      (H3.translation_inverse, (2, 1, 0))):
        first = make(lam)
        expected = dict(first.terms)
        first.terms.clear()
        assert make(lam).terms == expected, (make, lam)


def test_theta_inverse():
    lam = (1, 0)
    assert H2.multiply(H2.theta(lam), H2.theta((-1, 0))) == H2.unit()


def test_translation_inverse_is_inverse():
    for algebra, lam in [(H2, (2, 0)), (H3, (1, 1, 0)), (HSP, (1, 0))]:
        t = algebra.t_basis(algebra.translation_key(lam))
        inv = algebra.translation_inverse(lam)
        assert algebra.multiply(t, inv) == algebra.unit()
        assert algebra.multiply(inv, t) == algebra.unit()


def test_bernstein_lusztig_example():
    # theta_(1,0) T_s - T_s theta_(0,1) = (q-1) theta_(1,0)
    ts = H2.gen_t(1)
    lhs = H2.multiply(H2.theta((1, 0)), ts) - H2.multiply(ts, H2.theta((0, 1)))
    assert lhs == H2.theta((1, 0)).scale(Q - ONE)


def test_bernstein_lusztig_telescoping():
    # T_s theta_lam - theta_{s lam} T_s = (q-1) (theta_lam - theta_{s lam})
    # / (1 - theta_{-alpha}) with the division done as a geometric sum
    rng = random.Random(73)
    for algebra in (H2, H3):
        datum = algebra.datum
        for i in range(datum.num_simple):
            alpha = datum.simple_roots[i]
            av = datum.simple_coroots[i]
            ts = algebra.gen_t(i + 1)
            for _ in range(4):
                lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
                k = datum.pairing(alpha, lam)
                slam = datum.reflect(i, lam)
                lhs = algebra.multiply(ts, algebra.theta(lam)) - \
                    algebra.multiply(algebra.theta(slam), ts)
                terms = []
                if k >= 0:
                    for j in range(k):
                        terms.append((tuple(x - j * y
                                            for x, y in zip(lam, av)), 1))
                else:
                    for j in range(1, -k + 1):
                        terms.append((tuple(x + j * y
                                            for x, y in zip(lam, av)), -1))
                rhs_sum = None
                for w, sign in terms:
                    t = algebra.theta(w).scale(
                        LaurentHalf.from_int(sign) * (Q - ONE))
                    rhs_sum = t if rhs_sum is None else rhs_sum + t
                if rhs_sum is None:
                    assert lhs.is_zero()
                else:
                    assert lhs == rhs_sum, (datum.family, i, lam)


# -- center and idempotent ---------------------------------------------------------

def test_central_element_examples():
    assert H2.central_element(WeightMultiset({(0, 0): 1})) == H2.unit()
    z = H2.central_element(orbit_character(GL2, (1, 0)))
    assert z == H2.theta((1, 0)) + H2.theta((0, 1))
    z11 = H2.central_element(orbit_character(GL2, (1, 1)))
    assert z11 == H2.theta((1, 1))
    with pytest.raises(ValidationError):
        H2.central_element(WeightMultiset.monomial((1, 0)))


def test_centrality_against_generators():
    for algebra, lams in [(H2, [(1, 0), (1, 1), (2, 0)]),
                          (H3, [(1, 0, 0), (1, 1, 0), (2, 1, 0)])]:
        datum = algebra.datum
        for lam in lams:
            z = algebra.central_element(orbit_character(datum, lam))
            for idx in algebra.generator_indices:
                t = algebra.gen_t(idx)
                assert algebra.multiply(z, t) == algebra.multiply(t, z)
            for j in range(datum.rank):
                nu = tuple(1 if k == j else 0 for k in range(datum.rank))
                th = algebra.theta(nu)
                assert algebra.multiply(z, th) == algebra.multiply(th, z)


def test_spherical_idempotent():
    for algebra, pw in [(H2, LaurentHalf({0: 1, 2: 1})),
                        (H3, LaurentHalf({0: 1, 2: 2, 4: 2, 6: 1}))]:
        ek = spherical_idempotent(algebra)
        assert ek.denom == pw == poincare(algebra)
        assert algebra.multiply(ek, ek) == ek
        ident = algebra.identity_key()
        assert ek.terms[ident] == ONE  # T_e coefficient is 1/P_W


# -- Satake transform ---------------------------------------------------------------

def test_satake_inverse_unit():
    vec = A2.satake_inverse(WeightMultiset({(0, 0): 1}))
    assert vec == {(0, 0): ONE}


def test_satake_inverse_minuscule_gl2():
    vec = A2.satake_inverse(orbit_character(GL2, (1, 0)))
    assert vec == {(1, 0): V(-1)}
    vec = A2.satake_inverse(orbit_character(GL2, (1, 1)))
    assert vec == {(1, 1): ONE}


def test_satake_inverse_minuscule_gl3():
    for mu in [(1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        vec = A3.satake_inverse(orbit_character(GL3, mu))
        expected = {mu: V(-GL3.rho_pairing_exponent(mu))}
        assert vec == expected


def test_satake_inverse_is_linear():
    f = orbit_character(GL2, (1, 0)).scale(LaurentHalf({3: 2}))
    vec = A2.satake_inverse(f)
    assert vec == {(1, 0): LaurentHalf({2: 2})}


def _by_level(datum, labels):
    """Labels in the order the transform strips them, lowest first."""
    return sorted(labels, key=lambda l: (datum.rho_pairing_exponent(l), l))


def test_satake_inverse_gl2_block():
    assert _by_level(GL2, GL2.dominants_below((2, 0))) == [(1, 1), (2, 0)]
    low = A2.satake_inverse(orbit_character(GL2, (1, 1)))
    high = A2.satake_inverse(orbit_character(GL2, (2, 0)))
    assert low[(1, 1)] == ONE      # m_(1,1) -> coset (1,1)
    assert high[(2, 0)] == V(-2)   # leading coefficient at (2,0)
    assert (2, 0) not in low       # triangular
    low = A2.satake_of_indicator((1, 1))
    high = A2.satake_of_indicator((2, 0))
    assert low.coeff((1, 1)) == ONE and high.coeff((2, 0)) == V(2)
    assert low.coeff((2, 0)).is_zero()


def test_satake_inverse_identity_block():
    assert GL2.dominants_below((0, 0)) == ((0, 0),)
    assert A2.satake_inverse(orbit_character(GL2, (0, 0))) == {(0, 0): ONE}


def test_satake_of_indicator_classical_gl2():
    # S(1_{K(2,0)K}) = q m_(2,0) + (q-1) m_(1,1)
    image = A2.satake_of_indicator((2, 0))
    expected = orbit_character(GL2, (2, 0)).scale(Q) + \
        orbit_character(GL2, (1, 1)).scale(Q - ONE)
    assert image == expected


def test_minuscule_calibration():
    for algebra in (A2, A3):
        datum = algebra.datum
        for mu in datum.small_minuscule_dominants():
            image = algebra.satake_of_indicator(mu)
            expected = orbit_character(datum, mu).scale(
                V(datum.rho_pairing_exponent(mu)))
            assert image == expected, (datum.family, mu)


def test_satake_round_trip():
    rng = random.Random(79)
    for algebra in (A2, A3):
        datum = algebra.datum
        for _ in range(4):
            f = WeightMultiset({(0,) * datum.rank: rng.randint(-2, 2)})
            for _ in range(2):
                lam = datum.dominant_representative(
                    tuple(rng.randint(0, 2) for _ in range(datum.rank)))
                f = f + orbit_character(datum, lam).scale(
                    LaurentHalf({rng.randint(-1, 1): rng.choice([-1, 1, 2])}))
            assert algebra.satake_transform(algebra.satake_inverse(f)) == f


def test_sp4_satake_has_classical_shape():
    # non-minuscule orbit: transform picks up a constant correction,
    # S(1_{K(1,0)K}) = q^2 m_(1,0) + (q^2 - 1), like GL2's
    # S(1_{K(2,0)K}) = q m_(2,0) + (q-1) m_(1,1)
    image = ASP.satake_of_indicator((1, 0))
    q2 = V(4)
    expected = orbit_character(SP4, (1, 0)).scale(q2) + \
        orbit_character(SP4, (0, 0)).scale(q2 - ONE)
    assert SP4.rho_pairing_exponent((1, 0)) == 4
    assert image == expected


def test_round_trip_other_families():
    rng = random.Random(83)
    for family, rank in [("Sp", 4), ("SL", 3), ("PGL", 3)]:
        datum = build_standard(family, rank)
        algebra = AffineHeckeAlgebra(datum)
        for _ in range(3):
            f = WeightMultiset({(0,) * datum.rank: rng.randint(-2, 2)})
            lam = datum.dominant_representative(
                tuple(rng.randint(0, 1) for _ in range(datum.rank)))
            f = f + orbit_character(datum, lam).scale(
                LaurentHalf({rng.randint(-1, 1): rng.choice([-1, 1, 2])}))
            assert algebra.satake_transform(algebra.satake_inverse(f)) == f


def _window_labels(datum, max_norm):
    """The dominant mu below the window's dominant lam, as verify satake
    takes them."""
    closure = set()
    for lam in itertools.product(range(max_norm + 1), repeat=datum.rank):
        if datum.is_dominant(lam):
            closure.update(datum.dominants_below(lam))
    return sorted(closure)


@pytest.mark.parametrize("family,rank", [("GL", 2), ("GL", 3), ("PGL", 3),
                                         ("SL", 3), ("Sp", 4)],
                         ids=["GL2", "GL3", "PGL3", "SL3", "Sp4"])
def test_satake_transform_round_trips_coset_vectors(family, rank):
    # vec -> f -> vec: every unit vector of the max-norm 2 window, then
    # four random combinations of three labels
    datum = build_standard(family, rank)
    algebra = AffineHeckeAlgebra(datum)
    labels = _window_labels(datum, 2)
    rng = random.Random(103)
    vectors = [{lam: ONE} for lam in labels]
    for _ in range(4):
        vectors.append(
            {lam: LaurentHalf({rng.randint(-2, 2): rng.choice([-2, -1, 1, 2])})
             for lam in rng.sample(labels, min(3, len(labels)))})
    for vec in vectors:
        assert algebra.satake_inverse(algebra.satake_transform(vec)) == vec
    assert algebra.satake_transform({}) == WeightMultiset()


@pytest.mark.parametrize("image,message", [
    ({(2, 0): V(-2), (1, 1): V(-2) - ONE, (1, 0): ONE},
     "outside its lower set"),
    ({(1, 1): V(-2) - ONE}, "no unit coefficient at"),
    ({(2, 0): LaurentHalf({-2: 2}), (1, 1): V(-2) - ONE},
     "no unit coefficient at")],
    ids=["outside-lower-set", "missing-leading", "non-unit-leading"])
def test_satake_transform_refuses_an_image_it_cannot_strip(
        monkeypatch, image, message):
    # the lower set of (2, 0) is {(2, 0), (1, 1)}, and the true image of
    # m_(2,0) is v^-2 1_(2,0) + (v^-2 - 1) 1_(1,1); each case spoils it
    algebra = AffineHeckeAlgebra(GL2)
    engine = algebra.satake_inverse
    top = orbit_character(GL2, (2, 0))
    assert engine(top) == {(2, 0): V(-2), (1, 1): V(-2) - ONE}
    monkeypatch.setattr(algebra, "satake_inverse", lambda f: (
        image if f == top else engine(f)))
    with pytest.raises(ConsistencyError, match=message):
        algebra.satake_of_indicator((2, 0))


def test_satake_transform_skips_a_zero_coordinate():
    # a zero coordinate adds nothing and costs no orbit-sum image: the
    # image of m_(9,0) alone exceeds this bound
    tiny = AffineHeckeAlgebra(GL2, max_support=3)
    zero = LaurentHalf.zero()
    assert tiny.satake_transform({(9, 0): zero, (0, 1): zero, (1, 1): ONE}) \
        == orbit_character(GL2, (1, 1))


def test_satake_transform_rejects_a_non_dominant_label():
    with pytest.raises(ValidationError, match="not dominant"):
        A2.satake_transform({(0, 1): ONE})


def test_resource_guard():
    # the theta_w E of the terms of m_(2,1,0) reach 5 cosets, their sum 6
    tiny = AffineHeckeAlgebra(GL3, max_support=4)
    with pytest.raises(ResourceLimitError,
                       match="^theta: support 5 exceeds max_support=4$"):
        tiny.satake_inverse(orbit_character(GL3, (2, 1, 0)))
    # theta_(1,1) E and theta_(2,2) E are one coset each; their sum is two
    f = orbit_character(GL2, (1, 1)) + orbit_character(GL2, (2, 2))
    with pytest.raises(ResourceLimitError,
                       match="^central element: support 2 exceeds "
                             "max_support=1$"):
        AffineHeckeAlgebra(GL2, max_support=1).satake_inverse(f)


def _satake_inverse_by_product(algebra, f):
    """The T-basis reading of z_f E: form the product with E = sum_w T_w,
    then require one coefficient on every (lam, w) of each double coset.
    Labels whose coefficient is zero are left out."""
    datum = algebra.datum
    product = algebra.multiply(algebra.central_element(f),
                               finite_sum(algebra))
    assert product.denom == ONE
    by_coset = {}
    for (lam, w), c in product.terms.items():
        by_coset.setdefault(datum.dominant_representative(lam), {})[
            (lam, w)] = c
    coords = {}
    for dom, present in by_coset.items():
        values = {present.get((lam, w), LaurentHalf.zero())
                  for lam in datum.weyl_orbit(dom)
                  for w in range(datum.weyl_order)}
        assert len(values) == 1, dom
        value = values.pop()
        if not value.is_zero():
            coords[dom] = value
    return coords


# PGL4's coordinates are the pairings with the simple roots, so its
# max-norm 2 window reaches 2 rho^vee; the product oracle needs about
# 100 s there, and max-norm 1 keeps it near 2 s.
SATAKE_ORACLE = [(H2, 2), (H3, 2), (H4, 2), (HPGL3, 2), (HPGL4, 1),
                 (HSP, 2)]


def _window_functions(datum, max_norm):
    """The orbit characters m_lam of the window's dominant lam, then
    three random combinations of three of them."""
    characters = [orbit_character(datum, lam) for lam in
                  itertools.product(range(max_norm + 1), repeat=datum.rank)
                  if datum.is_dominant(lam)]
    rng = random.Random(101)
    combinations = []
    for _ in range(3):
        f = WeightMultiset()
        for chi in rng.sample(characters, min(3, len(characters))):
            f = f + chi.scale(LaurentHalf({rng.randint(-2, 2):
                                           rng.choice([-2, -1, 1, 2])}))
        combinations.append(f)
    return characters + combinations


@pytest.mark.parametrize("algebra,max_norm", SATAKE_ORACLE,
                         ids=["GL2", "GL3", "GL4", "PGL3", "PGL4", "Sp4"])
def test_satake_inverse_matches_the_t_basis_product(algebra, max_norm):
    engine = AffineHeckeAlgebra(algebra.datum)
    for f in _window_functions(algebra.datum, max_norm):
        assert engine.satake_inverse(f) == \
            _satake_inverse_by_product(algebra, f)


# The central-element oracle sums theta_lam in the T basis, |W| keys per
# coset; PGL4's whole max-norm 2 window takes it about 20 s.
@pytest.mark.parametrize("algebra", [a for a, _ in SATAKE_ORACLE],
                         ids=["GL2", "GL3", "GL4", "PGL3", "PGL4", "Sp4"])
def test_satake_inverse_matches_the_central_element_oracle(algebra):
    engine = AffineHeckeAlgebra(algebra.datum)
    for f in _window_functions(algebra.datum, 2):
        assert engine.satake_inverse(f) == \
            satake_inverse_by_central_element(algebra, f)


@pytest.mark.parametrize("family,rank", [("GL", 3), ("GL", 4), ("PGL", 3),
                                         ("PGL", 4), ("SL", 3), ("Sp", 4),
                                         ("Sp", 6)])
def test_coset_length_is_the_minimal_length_in_the_coset(family, rank):
    # the engine's keys (lam, p) run over the orbit points p of 2 rho^vee;
    # the oracle descends by its Weyl tables.  ell_min(lam) is the sum
    # over positive roots alpha of |<alpha, lam>|, less one for each
    # alpha with <alpha, lam> > 0: the engine's start exponent reads it
    # for dominant lam, its coset steps compare it by one affine root
    datum = build_standard(family, rank)
    oracle = TBasisAlgebra(datum)
    by_point = oracle.weyl.by_point
    points = datum.weyl_orbit(datum.two_rho_hat)
    assert len(points) == datum.weyl_order
    for lam in itertools.product(range(-2, 3), repeat=datum.rank):
        lengths = [oracle.length((lam, by_point(p))) for p in points]
        pairings = [datum.pairing(alpha, lam)
                    for alpha in datum.positive_roots]
        assert min(lengths) == min_coset_length(oracle, (lam, 0)) == \
            sum(map(abs, pairings)) - sum(k > 0 for k in pairings), lam


def test_satake_inverse_rejects_a_non_central_element():
    # e^(1,0) is not W-invariant: theta_(1,0) E = v^-1 v_(1,0) has
    # coefficient v^-1 on t_(1,0) W and 0 on t_(0,1) W
    with pytest.raises(ConsistencyError, match="non-constant"):
        A2.satake_inverse(WeightMultiset.monomial((1, 0)))
    # s_0 fixes e^(1,0,0) + e^(0,1,0); only s_1 moves it
    with pytest.raises(ConsistencyError, match="non-constant"):
        A3.satake_inverse(WeightMultiset({(1, 0, 0): 1, (0, 1, 0): 1}))


def test_element_json():
    ek = spherical_idempotent(H2)
    obj = ek.to_json(GL2)
    assert obj["denominator"] == "1*v^0+1*v^2"
    assert {tuple(t["translation"]) for t in obj["terms"]} == {(0, 0)}
    th = H2.theta((1, 0))
    plain = th.to_json(GL2)
    assert isinstance(plain, list) and plain[0]["coeff"] == "1*v^-1"


def test_element_json_term_order():
    # terms sort by (translation, Weyl index); the index order is
    # (length, reduced word), so the finite words come out in that order
    words = [t["finite_word"] for t in finite_sum(H3).to_json(GL3)]
    assert words == [[], [0], [1], [0, 1], [1, 0], [0, 1, 0]]
    assert H2.theta((0, 1)).to_json(GL2) == [
        {"translation": [0, 1], "finite_word": [], "coeff": "1*v^-1"},
        {"translation": [1, 0], "finite_word": [0], "coeff": "1*v^-1+-1*v^1"}]


# -- generator action (oracle: the group law mul_aff) -------------------------

ORACLE_ALGEBRAS = [H3, HSP, HPGL3, H4]
ORACLE_IDS = ["GL3", "Sp4", "PGL3", "GL4"]


def _sample_keys(algebra, rng, count):
    datum = algebra.datum
    return [(tuple(rng.randint(-2, 2) for _ in range(datum.rank)),
             rng.randrange(datum.weyl_order)) for _ in range(count)]


@pytest.mark.parametrize("algebra", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_left_generator_action_matches_group_law(algebra):
    rng = random.Random(89)
    for z in _sample_keys(algebra, rng, 40):
        for idx in algebra.generator_indices:
            sz = algebra.mul_aff(algebra._gens[idx], z)
            if algebra.length(sz) > algebra.length(z):
                expected = {sz: ONE.terms}
            else:
                expected = {z: (Q - ONE).terms, sz: Q.terms}
            assert algebra._left_mul_gen(idx, {z: ONE.terms}) == expected, \
                (idx, z)


@pytest.mark.parametrize("algebra", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_reduced_word_and_length_zero_relabel(algebra):
    rng = random.Random(97)
    relabels = 0
    for x in _sample_keys(algebra, rng, 20):
        pi, word = algebra.reduced_word(x)
        relabels += pi != algebra.identity_key()
        assert algebra.length(pi) == 0 and len(word) == algebra.length(x)
        prod = pi
        for idx in word:
            prod = algebra.mul_aff(prod, algebra._gens[idx])
        assert prod == x
        # T_x = T_pi T_{s_1} ... T_{s_m}: T_pi relabels by the group law
        z = _sample_keys(algebra, rng, 1)[0]
        cur = {z: ONE.terms}
        for idx in reversed(word):
            cur = algebra._left_mul_gen(idx, cur)
        expected = {algebra.mul_aff(pi, key): c for key, c in cur.items()}
        assert algebra._left_mul_basis(x, {z: ONE.terms}) == expected
    if algebra.datum.family != "Sp":  # Sp's coweights are all in Q^vee
        assert relabels > 0


@pytest.mark.parametrize("algebra", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_inverse_generator_action_matches_the_quadratic_relation(algebra):
    # oracle, in LaurentHalf arithmetic on the group law:
    # T_s^{-1} E = q^{-1} T_s E - (1 - q^{-1}) E
    rng = random.Random(83)
    q_inv = V(-2)
    for _ in range(12):
        keys = _sample_keys(algebra, rng, 3)
        # a repeated key, and sz of a sampled z, exercise accumulation
        keys.append(algebra.mul_aff(algebra._gens[0], keys[0]))
        elt = {z: LaurentHalf({rng.randint(-2, 2): rng.choice([-2, -1, 1, 3])})
               for z in keys}
        for idx in algebra.generator_indices:
            expected = {}
            for z, c in elt.items():
                sz = algebra.mul_aff(algebra._gens[idx], z)
                if algebra.length(sz) > algebra.length(z):
                    ts = {sz: c}
                else:
                    ts = {z: c * (Q - ONE), sz: c * Q}
                for key, d in ts.items():
                    expected[key] = expected.get(key, LaurentHalf.zero()) \
                        + q_inv * d
                expected[z] = expected.get(z, LaurentHalf.zero()) \
                    - (ONE - q_inv) * c
            raw = {z: c.terms for z, c in elt.items()}
            inv = algebra._left_mul_gen(idx, raw, inverse=True)
            assert {z: LaurentHalf(c) for z, c in inv.items()} == \
                {z: c for z, c in expected.items() if c}, idx
            # no stored zero, and T_s T_s^{-1} E = E
            assert all(inv.values()) and all(0 not in c.values()
                                              for c in inv.values())
            assert algebra._left_mul_gen(idx, inv) == raw, idx
            assert raw == {z: c.terms for z, c in elt.items()}


# -- the engine's keys (lam, p), p = w 2 rho^vee (oracle: the Weyl tables) ----

ENGINE_WINDOWS = [("GL", 2, 3), ("GL", 3, 2), ("PGL", 3, 2), ("SL", 3, 2),
                  ("Sp", 4, 2), ("GL", 4, 2), ("PGL", 4, 2), ("Sp", 6, 1),
                  ("GL", 5, 1)]


@pytest.mark.parametrize("family,rank,max_norm", ENGINE_WINDOWS,
                         ids=[f"{f}{n}" for f, n, _ in ENGINE_WINDOWS])
def test_engine_reduced_words_multiply_back_by_the_group_law(family, rank,
                                                             max_norm):
    # every key t_nu and t_{-nu}, nu in the orbit of a window label, and
    # (nu, p) for a sampled orbit point p; the oracle's group law turns
    # x = s_{i_1} ... s_{i_m} pi back into x
    datum = build_standard(family, rank)
    engine = AffineHeckeAlgebra(datum)
    oracle = TBasisAlgebra(datum)
    weyl = oracle.weyl
    points = datum.weyl_orbit(datum.two_rho_hat)
    rng = random.Random(107)
    keys = set()
    for lam in _window_labels(datum, max_norm):
        for nu in datum.weyl_orbit(lam):
            keys.add(engine.translation_key(nu))
            keys.add(engine.translation_key(tuple(-x for x in nu)))
            keys.add((nu, rng.choice(points)))

    def as_oracle(x):
        return (x[0], weyl.by_point(x[1]))

    relabels = 0
    for x in sorted(keys):
        pi, word = engine.reduced_word(x)
        assert len(word) == oracle.length(as_oracle(x))
        assert oracle.length(as_oracle(pi)) == 0
        prod = oracle.identity_key()
        for idx in word:
            prod = oracle.mul_aff(prod, oracle._gens[idx])
        assert oracle.mul_aff(prod, as_oracle(pi)) == as_oracle(x), x
        relabels += pi != engine.identity_key()
    # SL's and Sp's lattices are the coroot lattice: no length-zero pi
    assert (relabels > 0) == (family in ("GL", "PGL"))
    # theta_lam E starts at pi lam1 = mu + w lam1, for lam = lam1 - lam2
    # and t_{-lam2} = s_{i_1} ... s_{i_m} pi with pi = (mu, p) = t_mu w
    starts = _start_only(datum)
    for lam in sorted({nu for lam in _window_labels(datum, max_norm)
                       for nu in datum.weyl_orbit(lam)}):
        lam1, lam2 = engine._dominant_decomposition(lam)
        (mu, p), _ = engine.reduced_word(
            engine.translation_key(tuple(-x for x in lam2)))
        matrix = weyl.matrix(weyl.by_point(p))
        label = tuple(m + sum(r * x for r, x in zip(row, lam1))
                      for m, row in zip(mu, matrix))
        assert set(starts._theta_on_e(lam)) == {label}, lam


def _start_only(datum):
    """An engine whose theta_lam E stops at its one start vector: no
    T_s^{-1} of the walk is applied."""
    engine = AffineHeckeAlgebra(datum)
    engine._module_gen = lambda idx, coeffs: coeffs
    return engine


SIGN_WINDOWS = [("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5), ("PGL", 3),
                ("PGL", 4), ("SL", 3), ("SL", 4), ("Sp", 4), ("Sp", 6)]


@pytest.mark.parametrize("family,rank", SIGN_WINDOWS,
                         ids=[f"{f}{n}" for f, n in SIGN_WINDOWS])
def test_affine_root_signs_give_descents_coset_steps_and_the_start(family,
                                                                   rank):
    # the engine reads each fact off the sign of one affine root; the
    # oracle reads it off its lengths, over its Weyl tables
    datum = build_standard(family, rank)
    engine = AffineHeckeAlgebra(datum)
    oracle = TBasisAlgebra(datum)
    by_point = oracle.weyl.by_point
    points = datum.weyl_orbit(datum.two_rho_hat)
    theta = datum.highest_root
    rng = random.Random(113)
    ties = set()
    for _ in range(60):
        lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
        p = rng.choice(points)
        x = (lam, by_point(p))
        low = min_coset_length(oracle, (lam, 0))
        for idx in engine.generator_indices:
            # left descent: ell(s x) < ell(x)
            sx = oracle.mul_aff(oracle._gens[idx], x)
            shorter = oracle.length(sx) < oracle.length(x)
            y = engine._shorten(idx, (lam, p))
            assert (y is not None) == shorter, (idx, lam, p)
            if y is not None:
                assert (y[0], by_point(y[1])) == sx
            pair = datum.pairing(datum.simple_roots[idx - 1] if idx
                                 else theta, lam)
            if pair == (0 if idx else 1):
                ties.add((idx == 0, shorter))
            # coset step: ell_min(s lam) against ell_min(lam)
            slam, rises = engine._step(idx, lam)
            assert slam == sx[0]
            if slam == lam:
                assert rises is None
            else:
                assert rises == (min_coset_length(oracle, (slam, 0)) > low)
    # both tie-breaks were met, each way; Sp's theta = 2 e_1 pairs
    # evenly with every coweight, so <theta, lam> = 1 never occurs there
    met = {(False, False), (False, True)}
    if family != "Sp":
        met |= {(True, False), (True, True)}
    assert ties == met
    # the start of theta_lam E: label pi lam1 and exponent
    # ell(t_lam2) + <2 rho, lam1> - 2 ell_min(lam1)
    starts = _start_only(datum)
    for _ in range(20):
        lam = tuple(rng.randint(-2, 2) for _ in range(datum.rank))
        lam1, lam2 = engine._dominant_decomposition(lam)
        pi, _ = oracle.reduced_word(
            oracle.translation_key(tuple(-x for x in lam2)))
        exponent = (oracle.length(oracle.translation_key(lam2))
                    + datum.rho_pairing_exponent(lam1)
                    - 2 * min_coset_length(oracle, (lam1, 0)))
        assert starts._theta_on_e(lam) == \
            {oracle._relabel(pi, lam1): {exponent: 1}}, lam
    # a descent rule that stops early leaves a word shorter than
    # ell(t_lam2) = <2 rho, lam2>, and the walk refuses it
    stuck = AffineHeckeAlgebra(datum)
    stuck._shorten = lambda idx, x: None
    with pytest.raises(ConsistencyError, match="reduced word"):
        stuck._theta_on_e(tuple(-x for x in datum.two_rho_hat))
