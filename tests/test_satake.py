import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepoly.errors import ValidationError
from heckepoly.laurent import (LaurentHalf, MonomialLayout, PrimeFieldWithV,
                               RationalWithV, ScalarDomain)
from heckepoly.characters import (WeightMultiset, minuscule_weights,
                                  orbit_character)
from heckepoly.root_data import build_standard
from heckepoly.satake import (FormalTorusDomain, SatakeParameter, evaluate,
                              evaluate_many,
                              frobenius_matrix, resolve_twist)
from oracles import ext_power_character, permuted, trace_of

GL2 = build_standard("GL", 2)
GL3 = build_standard("GL", 3)
F11 = PrimeFieldWithV(11, 4, 5)


def test_evaluate_orbit_sum_at_generic_point():
    s = SatakeParameter.generic(2)
    out = evaluate(orbit_character(GL2, (1, 0)), s)
    # alpha + beta: the two coordinate monomials
    assert out == WeightMultiset({(1, 0): 1, (0, 1): 1})


def test_evaluate_f11_example():
    # v^2 * m_(1,1) at s = (2, 7), v = 4: 5 * 14 = 70 = 4 mod 11
    f = orbit_character(GL2, (1, 1)).scale(LaurentHalf.v_power(2))
    s = SatakeParameter(F11, (2, 7))
    assert evaluate(f, s) == 4


def test_evaluate_constants():
    for s in (SatakeParameter.generic(2),
              SatakeParameter(F11, (2, 7)),
              SatakeParameter(RationalWithV(3), (Fraction(2), Fraction(5, 3)))):
        one = WeightMultiset({(0, 0): 1})
        assert s.domain.eq(evaluate(one, s), s.domain.one())


def test_evaluate_is_multiplicative():
    rng = random.Random(23)
    dom = RationalWithV(Fraction(3, 2))
    pool = [orbit_character(GL3, (1, 0, 0)), orbit_character(GL3, (1, 1, 0)),
            orbit_character(GL3, (2, 0, 0)),
            orbit_character(GL3, (1, 1, 1)).scale(LaurentHalf.v_power(-1))]
    for _ in range(10):
        f = rng.choice(pool)
        g = rng.choice(pool)
        s = SatakeParameter.random(dom, 3, rng)
        assert evaluate(f * g, s) == evaluate(f, s) * evaluate(g, s)


def test_value_level_weyl_invariance():
    rng = random.Random(29)
    f = orbit_character(GL3, (2, 1, 0))
    for dom in (RationalWithV(2), F11):
        s = SatakeParameter.random(dom, 3, rng)
        base = evaluate(f, s)
        for perm in itertools.permutations(range(3)):
            assert dom.eq(evaluate(f, permuted(s, perm)), base)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        SatakeParameter(F11, (0, 3))
    with pytest.raises(ValidationError):
        # non-monomial formal entry is not invertible
        SatakeParameter(FormalTorusDomain(2),
                        (WeightMultiset({(1, 0): 1, (0, 1): 1}),
                         WeightMultiset({(0, 1): 1})))
    s = SatakeParameter(F11, (2, 7))
    with pytest.raises(ValidationError):
        evaluate(orbit_character(GL3, (1, 0, 0)), s)  # rank mismatch


def test_twist_presets():
    assert resolve_twist(GL2, (1, 0), "paper") == 2       # [E:F] * d = 2
    assert resolve_twist(GL2, (1, 0), "paper", e_over_f=3) == 6
    assert resolve_twist(GL2, (1, 0), "classical") == 1   # <2rho, mu>
    assert resolve_twist(GL3, (1, 0, 0), "classical") == 2
    assert resolve_twist(GL2, (1, 0), 5) == 5
    with pytest.raises(ValidationError):
        resolve_twist(GL2, (1, 0), "weird")


def test_frobenius_matrix_generic():
    s = SatakeParameter.generic(2)
    m = frobenius_matrix(GL2, (1, 0), s,
                         twist_exponent=resolve_twist(GL2, (1, 0), "paper"))
    assert m.twist_exponent == 2
    assert m.weights == ((1, 0), (0, 1))
    assert m.diagonal[0] == WeightMultiset({(1, 0): LaurentHalf.v_power(2)})
    assert m.diagonal[1] == WeightMultiset({(0, 1): LaurentHalf.v_power(2)})
    m_cl = frobenius_matrix(GL2, (1, 0), s,
                            twist_exponent=resolve_twist(GL2, (1, 0),
                                                         "classical"))
    assert m_cl.diagonal[0] == WeightMultiset({(1, 0): LaurentHalf.v_power(1)})


def test_frobenius_identity_at_ones_untwisted():
    dom = RationalWithV(7)
    s = SatakeParameter(dom, (Fraction(1), Fraction(1)))
    m = frobenius_matrix(GL2, (1, 0), s, twist_exponent=0)
    assert list(m.diagonal) == [1, 1]


def test_trace_of_small_cases():
    dom = RationalWithV(1)
    from heckepoly.satake import FrobeniusMatrix
    m = FrobeniusMatrix(((1, 0), (0, 1)), (Fraction(3), Fraction(5)), dom, 0)
    assert trace_of(m, 0) == 1
    assert trace_of(m, 1) == 8
    assert trace_of(m, 2) == 15
    with pytest.raises(ValidationError):
        trace_of(m, 3)


def test_trace_bridge_identity():
    # tr wedge^i M = evaluate(v^{i*t} * ext_power_character, s)
    rng = random.Random(31)
    for datum, mu in [(GL2, (1, 0)), (GL3, (1, 1, 0))]:
        weights = minuscule_weights(datum, mu)
        d = len(weights)
        for dom in (F11, RationalWithV(3)):
            s = SatakeParameter.random(dom, datum.rank, rng)
            t = resolve_twist(datum, mu, "paper")
            m = frobenius_matrix(datum, mu, s, twist_exponent=t)
            for i in range(d + 1):
                f = ext_power_character(datum, weights, i).scale(
                    LaurentHalf.v_power(i * t))
                assert dom.eq(trace_of(m, i), evaluate(f, s))


def test_reduction_commutes_with_evaluation_via_integer_lift():
    # evaluate over Q with an integer lift of v, reduce the result,
    # and compare with direct prime-field evaluation
    rng = random.Random(37)
    f = orbit_character(GL3, (2, 1, 0)).scale(LaurentHalf({-1: 3, 2: -5}))
    for _ in range(20):
        entries = tuple(rng.randrange(1, 11) for _ in range(3))
        s_mod = SatakeParameter(F11, entries)
        lift = RationalWithV(4)  # integer lift of v_image
        s_lift = SatakeParameter(lift, tuple(Fraction(e) for e in entries))
        value = evaluate(f, s_lift)
        reduced = (value.numerator * pow(value.denominator, -1, 11)) % 11
        assert reduced == evaluate(f, s_mod)


def test_parameter_json_roundtrip():
    # the written form: the domain, then each entry exactly
    assert SatakeParameter(F11, (2, 7)).to_json() == {
        "domain": F11.to_json(), "entries": ["2", "7"]}
    rat = RationalWithV(Fraction(1, 3))
    assert SatakeParameter(rat, (Fraction(2, 5), Fraction(-3))).to_json() == {
        "domain": rat.to_json(), "entries": ["2/5", "-3"]}
    generic = SatakeParameter.generic(2).to_json()
    assert generic == {
        "domain": FormalTorusDomain(2).to_json(),
        "entries": ['[{"coeff": "1*v^0", "weight": [1, 0]}]',
                    '[{"coeff": "1*v^0", "weight": [0, 1]}]']}


def test_domain_json_roundtrip():
    # the written form carries every constructor argument
    assert F11.to_json() == {"kind": "prime-field-with-v", "ell": 11,
                             "v_image": 4, "q_residue": 5}
    assert PrimeFieldWithV(11, 4).to_json() == F11.to_json()  # q = v^2
    assert RationalWithV(Fraction(5, 2)).to_json() == {
        "kind": "rational-with-v", "v_value": "5/2"}
    assert FormalTorusDomain(4).to_json() == {"kind": "formal-laurent",
                                              "rank": 4}


def test_evaluate_reduces_each_distinct_coefficient_once():
    # coefficient i of the Hecke polynomial is (-v^t)^i times a multiplicity,
    # so its terms share few coefficients; each is reduced once, however
    # many weights carry it and however large the twist is
    from heckepoly.hecke import hecke_polynomial

    class CountingRationals(RationalWithV):
        calls = 0

        def reduce(self, x):
            CountingRationals.calls += 1
            return super().reduce(x)

    datum = build_standard("GL", 4)
    dom = CountingRationals(Fraction(2, 3))
    s = SatakeParameter.random(dom, 4, random.Random(5))
    for twist in (0, 1600):
        h = hecke_polynomial(datum, (1, 1, 0, 0), twist)
        for c in h.coefficients:
            distinct = set(c.terms.values())
            CountingRationals.calls = 0
            value = evaluate(c, s)
            assert CountingRationals.calls == len(distinct)
            assert value == sum(dom.reduce(coeff) * dom.monomial(s.entries, w)
                                for w, coeff in c.terms.items())


def test_evaluate_groups_the_terms_of_a_function_once(monkeypatch):
    # the grouping by coefficient is kept with the function, so a second
    # evaluation at another point hashes no coefficient
    f = orbit_character(GL3, (1, 0, 0)).scale(LaurentHalf({3: 2})) + \
        orbit_character(GL3, (1, 1, 0))
    hashes = []
    original = LaurentHalf.__hash__

    def counted(self):
        hashes.append(self)
        return original(self)
    monkeypatch.setattr(LaurentHalf, "__hash__", counted)
    rng = random.Random(7)
    points = [SatakeParameter.random(F11, 3, rng) for _ in range(2)]
    first = evaluate(f, points[0])
    grouped = len(hashes)
    assert grouped == len(f.terms)
    second = evaluate(f, points[1])
    assert len(hashes) == grouped
    for value, s in zip((first, second), points):
        assert value == sum(F11.reduce(c) * F11.monomial(s.entries, w)
                            for w, c in f.terms.items()) % 11


# -- evaluate_many against the per-weight fold --------------------------------

KERNEL_DOMAINS = (F11, PrimeFieldWithV(1_000_003, 5),
                  RationalWithV(Fraction(3, 2)))


def _fold_value(f, s):
    """sum of reduce(c) * s^w, term by term, with the fold of
    ScalarDomain.monomial and of ScalarDomain.sum."""
    dom = s.domain
    return ScalarDomain.sum(dom, [
        dom.mul(dom.reduce(c), ScalarDomain.monomial(dom, s.entries, w))
        for w, c in f.terms.items()])


@st.composite
def functions_and_points(draw):
    dom = draw(st.sampled_from(KERNEL_DOMAINS))
    rank = draw(st.integers(1, 6))
    weight = st.tuples(*[st.integers(-4, 4)] * rank)
    # a small pool of coefficients, so that groups hold several weights;
    # the pool's empty maps make the zero function
    coeff = st.sampled_from([LaurentHalf({0: 1}), LaurentHalf({2: -3}),
                             LaurentHalf({-1: 2, 3: 1}), LaurentHalf({5: 7})])
    functions = draw(st.lists(
        st.dictionaries(weight, coeff, max_size=12).map(WeightMultiset),
        max_size=4))
    if isinstance(dom, PrimeFieldWithV):
        entry = st.integers(1, dom.ell - 1)
    else:
        entry = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1),
                          st.integers(1, 9))
    points = draw(st.lists(st.tuples(*[entry] * rank).map(
        lambda e: SatakeParameter(dom, e)), max_size=4))
    return functions, points


@settings(max_examples=300, deadline=None)
@given(functions_and_points())
def test_evaluate_many_matches_the_fold_term_by_term(case):
    functions, points = case
    got = evaluate_many(functions + [WeightMultiset.zero()], points)
    assert len(got) == len(points)
    for values, s in zip(got, points):
        assert values == [_fold_value(f, s) for f in functions] + \
            [s.domain.zero()]
        assert [type(x) for x in values] == \
            [type(_fold_value(f, s)) for f in functions] + [int]


def test_evaluate_many_of_no_points_or_no_functions():
    f = orbit_character(GL3, (1, 0, 0))
    assert evaluate_many([f], []) == []
    s = SatakeParameter(F11, (2, 7, 3))
    assert evaluate_many([], [s, s]) == [[], []]


def test_evaluate_many_refuses_a_rank_mismatch():
    f = orbit_character(GL3, (1, 0, 0))
    for dom in KERNEL_DOMAINS:
        good = SatakeParameter(dom, (2, 3, 5))
        bad = SatakeParameter(dom, (2, 3))
        with pytest.raises(ValidationError, match="coweight length"):
            evaluate_many([f], [good, bad])
    # a function with no terms has no weight to disagree with
    assert evaluate_many([WeightMultiset.zero()], [bad]) == [[0]]


def test_kernel_refuses_a_zero_entry_to_a_negative_power():
    for dom in KERNEL_DOMAINS:
        for ws in ([(1, -1)], [(2, 0), (0, 3), (1, -2)]):
            with pytest.raises(ValidationError, match="division by zero"):
                list(dom.monomials((3, 0), MonomialLayout(ws)))
        assert list(dom.monomials((3, 0), MonomialLayout([(2, 0), (0, 3)]))) \
            == [9, 0]
