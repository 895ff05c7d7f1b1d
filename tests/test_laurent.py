import random
import re
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepoly import laurent
from heckepoly.errors import ResourceLimitError, ValidationError
from heckepoly.laurent import (PRIME_TEST_BOUND, LaurentHalf, MonomialLayout,
                               PrimeFieldWithV, RationalWithV, ScalarDomain,
                               is_prime, validate_sqrt)

laurents = st.dictionaries(st.integers(-6, 6), st.integers(-50, 50),
                           max_size=6).map(LaurentHalf)

F11 = PrimeFieldWithV(11, 4, 5)
RAT = RationalWithV(Fraction(3, 2))


def test_defining_relation_v_squared_is_q():
    v = LaurentHalf.v_power(1)
    assert v * v == LaurentHalf.v_power(2)


def test_difference_of_squares():
    v = LaurentHalf.v_power(1)
    vinv = LaurentHalf.v_power(-1)
    assert (v - vinv) * (v + vinv) == LaurentHalf({2: 1, -2: -1})


def test_expansion():
    one_plus_v = LaurentHalf({0: 1, 1: 1})
    assert one_plus_v * one_plus_v == LaurentHalf({0: 1, 1: 2, 2: 1})


@given(laurents, laurents, laurents)
@settings(max_examples=200)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * LaurentHalf.from_int(1) == a
    assert a + LaurentHalf.zero() == a
    assert a - a == LaurentHalf.zero()


@given(laurents)
def test_serialize_parse_roundtrip(a):
    # the canonical form, read term by term: "c*v^e" joined by "+",
    # exponents ascending, no zero coefficient, "0" for zero
    text = a.serialize()
    if a.is_zero():
        assert text == "0"
        return
    terms = [tuple(int(x) for x in tok.split("*v^"))
             for tok in text.split("+")]
    exponents = [e for _, e in terms]
    assert exponents == sorted(set(exponents))
    assert all(c != 0 for c, _ in terms)
    assert {e: c for c, e in terms} == a.terms


def test_serialization_is_sorted_by_exponent():
    x = LaurentHalf({3: 1, -2: 5, 0: -1})
    assert x.serialize() == "5*v^-2+-1*v^0+1*v^3"


@given(laurents, laurents)
@settings(max_examples=200)
def test_reduce_is_a_homomorphism(a, b):
    for dom in (F11, RAT):
        assert dom.reduce(a * b) == dom.mul(dom.reduce(a), dom.reduce(b))
        assert dom.reduce(a + b) == dom.add(dom.reduce(a), dom.reduce(b))


@given(st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(1, 10 ** 6),
       st.integers(-2000, 2000).filter(bool))
@settings(max_examples=200)
def test_power_bound_covers_the_power_of_v(num, den, e):
    # with max_bits = 0 every power but v^0 = 1 is refused, and the
    # message gives the bound: at least the bits of num^|e| and den^|e|,
    # exact for 2^|e|, and never above the older bound |e| times the
    # bits of the longer part
    v = Fraction(num, den)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "MAX_POWER_BITS", 0)
        with pytest.raises(ResourceLimitError) as info:
            RationalWithV(v).reduce(LaurentHalf.v_power(e))
    bits = int(re.search(r"up to (\d+) bits", str(info.value)).group(1))
    assert bits >= (v.numerator ** abs(e)).bit_length()
    assert bits >= (v.denominator ** abs(e)).bit_length()
    n = max(abs(v.numerator), v.denominator)
    assert bits <= abs(e) * n.bit_length()
    if n == 2:
        assert bits == abs(e) + 1


def test_reduce_examples_mod_11():
    # 4^2 = 16 = 5 mod 11, checked below by squaring all residues
    assert F11.reduce(LaurentHalf.v_power(2)) == 5
    assert F11.reduce(LaurentHalf.from_int(1)) == 1
    # v^-1 -> inverse of 4; extended-Euclid oracle
    inv = next(x for x in range(1, 11) if (4 * x) % 11 == 1)
    assert inv == 3
    assert F11.reduce(LaurentHalf.v_power(-1)) == 3


def test_validate_sqrt_against_exhaustive_squaring():
    squares = {(x * x) % 11 for x in range(1, 11)}
    assert 5 in squares
    assert validate_sqrt(11, 5, 4) is True
    assert validate_sqrt(11, 5, 7) is True
    assert validate_sqrt(11, 5, 1) is False
    for x in range(1, 11):
        assert validate_sqrt(11, 5, x) == ((x * x) % 11 == 5)


def test_validate_sqrt_rejects_composite_modulus():
    with pytest.raises(ValidationError):
        validate_sqrt(12, 5, 4)


def test_prime_field_rejects_wrong_sqrt():
    with pytest.raises(ValidationError):
        PrimeFieldWithV(11, 4, 3)


def test_ell_7_with_q_2():
    # 3^2 = 9 = 2 mod 7
    dom = PrimeFieldWithV(7, 3, 2)
    assert dom.reduce(LaurentHalf.v_power(2)) == 2


def test_monomial_inverse():
    x = LaurentHalf.v_power(3, -1)
    assert x * x.monomial_inverse() == LaurentHalf.from_int(1)
    with pytest.raises(ValidationError):
        LaurentHalf({0: 2}).monomial_inverse()
    with pytest.raises(ValidationError):
        LaurentHalf({0: 1, 1: 1}).monomial_inverse()


def test_negative_powers():
    x = LaurentHalf.v_power(2)
    assert x ** -2 == LaurentHalf.v_power(-4)


def test_rational_domain():
    dom = RationalWithV(3)
    assert dom.reduce(LaurentHalf.v_power(2)) == 9
    assert dom.inv(Fraction(3)) == Fraction(1, 3)
    with pytest.raises(ValidationError):
        RationalWithV(0)


def test_rational_reduce_is_an_int_when_integral():
    dom = RationalWithV(Fraction(2, 3))
    for x, expected in ((LaurentHalf.from_int(5), 5),
                        (LaurentHalf({2: 9, 0: -1}), 3),
                        (LaurentHalf.zero(), 0),
                        (LaurentHalf.v_power(1), Fraction(2, 3)),
                        (LaurentHalf({2: 1, 0: 1}), Fraction(13, 9))):
        value = dom.reduce(x)
        assert value == expected
        assert type(value) is type(expected)
    assert type(dom.zero()) is int and type(dom.one()) is int
    assert dom.scalar_str(3) == dom.scalar_str(Fraction(3)) == "3"


def test_prime_field_from_int_is_the_residue():
    assert F11.zero() == 0 and F11.one() == 1
    assert [F11.from_int(n) for n in (-12, 11, 23)] == [10, 0, 1]


def test_prime_field_monomial_matches_the_default_fold():
    # the F_ell kernel, tables of powers per column, against the fold of
    # ScalarDomain.monomial one weight at a time
    rng = random.Random(61)
    for dom in (F11, PrimeFieldWithV(1_000_003, 5)):
        for rank in range(1, 7):
            for _ in range(40):
                entries = [rng.randrange(dom.ell) for _ in range(rank)]
                ws = [tuple(rng.randint(-3, 3) for _ in range(rank))
                      for _ in range(rng.randint(1, 4))]
                layout = MonomialLayout(ws)
                if any(a == 0 and k < 0 for w in ws
                       for a, k in zip(entries, w)):
                    with pytest.raises(ValidationError, match="by zero"):
                        dom.monomials(entries, layout)
                    with pytest.raises(ValidationError, match="by zero"):
                        [ScalarDomain.monomial(dom, entries, w) for w in ws]
                    continue
                assert dom.monomials(entries, layout) == \
                    [ScalarDomain.monomial(dom, entries, w) for w in ws]


def test_monomial_of_a_zero_entry_to_a_negative_power_is_refused():
    with pytest.raises(ValidationError, match="division by zero"):
        F11.monomial((3, 0), (1, -1))
    with pytest.raises(ValidationError, match="division by zero"):
        F11.monomial((22,), (-2,))
    assert F11.monomial((3, 0), (1, 0)) == 3
    assert F11.monomial((3, 0), (0, 2)) == 0


def test_scalar_string_roundtrip():
    assert F11.parse_scalar(F11.scalar_str(9)) == 9
    x = Fraction(-7, 3)
    assert RAT.parse_scalar(RAT.scalar_str(x)) == x


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))
    assert all(is_prime(n) == trial(n) for n in range(-3, 5000))


def test_mersenne_61_field_builds_fast():
    ell = 2**61 - 1
    start = time.perf_counter()
    field = PrimeFieldWithV(ell, 3)
    assert time.perf_counter() - start < 0.5
    assert field.ell == 2305843009213693951 and field.q_residue == 9


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 2**61 + 1])
def test_carmichael_and_strong_pseudoprimes_rejected(n):
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(n)
    with pytest.raises(ValidationError, match="not prime"):
        PrimeFieldWithV(n, 2)


def test_ell_at_or_above_prime_test_bound_rejected():
    # the bound is itself a strong pseudoprime to all 13 bases
    for ell in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 2):
        with pytest.raises(ValidationError, match="too large"):
            PrimeFieldWithV(ell, 2)
