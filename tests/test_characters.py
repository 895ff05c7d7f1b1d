import itertools
import random
from fractions import Fraction

import pytest

from heckepoly.errors import ValidationError
from heckepoly.laurent import LaurentHalf
from heckepoly.characters import (FormalTorusDomain, WeightMultiset,
                                  _moving_reflection, decompose,
                                  minuscule_weights, orbit_character,
                                  weyl_character)
from heckepoly.hecke import hecke_polynomial
from heckepoly.root_data import build_standard
from heckepoly.satake import resolve_twist
from oracles import dimension, ext_power_character, weyl_tables

GL2 = build_standard("GL", 2)
GL3 = build_standard("GL", 3)
GL4 = build_standard("GL", 4)
SP4 = build_standard("Sp", 4)
SL2 = build_standard("SL", 2)
PGL2 = build_standard("PGL", 2)


# -- oracles -----------------------------------------------------------------

def weyl_character_oracle(datum, lam):
    """Alternating-sum division in the doubled lattice.

    chi_lam = A_{lam+rho} / A_rho where rho is the half sum of positive
    coroots; doubling all exponents keeps everything integral.
    """
    two_rho_hat = datum.two_rho_hat
    weyl = weyl_tables(datum)

    def alternating(vec):  # vec already doubled
        out = {}
        for k, word in enumerate(weyl.words):
            sign = -1 if len(word) % 2 else 1
            img = weyl.act(k, vec)
            out[img] = out.get(img, 0) + sign
        return {k: v for k, v in out.items() if v}

    numerator = alternating(tuple(2 * l + r for l, r
                                  in zip(lam, two_rho_hat)))
    denominator = alternating(two_rho_hat)
    quotient = {}
    remainder = dict(numerator)
    lead_den = max(denominator)
    steps = 0
    while remainder:
        steps += 1
        assert steps < 10_000, "division does not terminate"
        lead_rem = max(remainder)
        exp = tuple(a - b for a, b in zip(lead_rem, lead_den))
        c, r = divmod(remainder[lead_rem], denominator[lead_den])
        assert r == 0, "non-exact division"
        quotient[exp] = quotient.get(exp, 0) + c
        for k, val in denominator.items():
            kk = tuple(a + b for a, b in zip(k, exp))
            nv = remainder.get(kk, 0) - c * val
            if nv:
                remainder[kk] = nv
            else:
                remainder.pop(kk, None)
    assert all(all(x % 2 == 0 for x in k) for k in quotient)
    return {tuple(x // 2 for x in k): v for k, v in quotient.items()}


def weyl_dimension_oracle(datum, lam):
    """Product formula over the positive roots."""
    dim = Fraction(1)
    two_rho_hat = datum.two_rho_hat
    doubled = tuple(2 * x + r for x, r in zip(lam, two_rho_hat))
    for a in datum.positive_roots:
        dim *= Fraction(datum.pairing(a, doubled),
                        datum.pairing(a, two_rho_hat))
    assert dim.denominator == 1
    return int(dim)


def _as_int(c: LaurentHalf) -> int:
    if c.is_zero():
        return 0
    assert set(c.terms) == {0}
    return c.terms[0]


# -- orbit characters ---------------------------------------------------------

def test_orbit_character_examples():
    m = orbit_character(GL2, (1, 0))
    assert m == WeightMultiset({(1, 0): 1, (0, 1): 1})
    m = orbit_character(GL2, (1, 1))
    assert m == WeightMultiset({(1, 1): 1})
    assert len(orbit_character(GL3, (1, 1, 0)).terms) == 3


def test_orbit_character_rejects_non_dominant():
    with pytest.raises(ValidationError):
        orbit_character(GL2, (0, 1))


def test_symmetric_function_invariance_enforced():
    assert _moving_reflection(GL2, WeightMultiset({(1, 0): 1}).terms) == 0
    assert _moving_reflection(GL2, orbit_character(GL2, (1, 0)).terms) is None


# -- irreducible characters ----------------------------------------------------

def test_weyl_character_gl2_sym2():
    chi = weyl_character(GL2, (2, 0))
    expected = orbit_character(GL2, (2, 0)) + orbit_character(GL2, (1, 1))
    assert chi == expected


def test_weyl_character_determinant_power():
    chi = weyl_character(GL3, (1, 1, 1))
    assert chi == WeightMultiset({(1, 1, 1): 1})


def test_weyl_character_minuscule_is_orbit():
    for datum, lam in [(GL2, (1, 0)), (GL3, (1, 1, 0)), (GL4, (1, 0, 0, 0))]:
        assert weyl_character(datum, lam) == orbit_character(datum, lam)


@pytest.mark.parametrize("datum,lams", [
    (GL2, [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (2, -1), (1, -1)]),
    (SL2, [(1,), (2,), (3,), (4,)]),
    (PGL2, [(1,), (2,), (3,)]),
    (GL3, [(2, 0, 0), (2, 1, 0), (3, 1, 0), (2, 2, 0)]),
    (SP4, [(1, 0), (1, 1), (2, 0), (2, 1)]),
])
def test_freudenthal_against_alternating_division(datum, lams):
    for lam in lams:
        chi = weyl_character(datum, lam)
        oracle = weyl_character_oracle(datum, lam)
        got = {w: _as_int(c) for w, c in chi.terms.items()}
        assert got == oracle, f"character mismatch at {lam}"


def test_dimensions_match_weyl_formula():
    for datum, bound in [(GL2, 3), (GL3, 3), (SP4, 3), (SL2, 3), (PGL2, 3)]:
        values = range(-bound, bound + 1) if datum.family == "GL" \
            else range(0, bound + 1)
        for lam in itertools.product(values, repeat=datum.rank):
            if not datum.is_dominant(lam):
                continue
            chi = weyl_character(datum, lam)
            assert _as_int(dimension(datum, chi)) == \
                weyl_dimension_oracle(datum, lam), lam


# -- minuscule weights and exterior powers --------------------------------------

def test_minuscule_weights_examples():
    assert minuscule_weights(GL2, (1, 0)) == ((1, 0), (0, 1))
    assert len(minuscule_weights(GL4, (1, 1, 0, 0))) == 6
    for n in (2, 3, 4, 5):
        datum = build_standard("GL", n)
        mu = tuple(1 if i == 0 else 0 for i in range(n))
        assert len(minuscule_weights(datum, mu)) == n
    with pytest.raises(ValidationError):
        minuscule_weights(GL2, (2, 0))


def test_ext_power_examples():
    w = minuscule_weights(GL2, (1, 0))
    assert ext_power_character(GL2, w, 2) == WeightMultiset({(1, 1): 1})
    assert ext_power_character(GL2, w, 0) == WeightMultiset({(0, 0): 1})
    w3 = minuscule_weights(GL3, (1, 0, 0))
    assert ext_power_character(GL3, w3, 2) == orbit_character(GL3, (1, 1, 0))
    with pytest.raises(ValidationError):
        ext_power_character(GL2, w, 3)


def test_ext_power_sum_is_2_to_d():
    for datum, mu in [(GL2, (1, 0)), (GL2, (1, 1)), (GL3, (1, 0, 0)),
                      (GL3, (1, 1, 0)), (GL4, (1, 1, 0, 0))]:
        w = minuscule_weights(datum, mu)
        d = len(w)
        total = sum(_as_int(dimension(datum, ext_power_character(datum, w, i)))
                    for i in range(d + 1))
        assert total == 2 ** d


def test_ext_power_invariance():
    # the constructor asserts W-invariance; instantiation must not raise
    for datum, mu in [(GL3, (1, 1, 0)), (GL4, (1, 1, 0, 0)), (GL4, (1, 1, 1, 0))]:
        w = minuscule_weights(datum, mu)
        for i in range(len(w) + 1):
            ext_power_character(datum, w, i)


# -- the e_k recurrence against the 2^d subset walk ----------------------------

def _ext_power_via_subsets(datum, weights, i):
    """Oracle: wedge^i character as the sum of e^{w} over i-subsets."""
    terms = {}
    for subset in itertools.combinations(range(len(weights)), i):
        w = tuple(sum(weights[j][k] for j in subset)
                  for k in range(datum.rank))
        terms[w] = terms.get(w, 0) + 1
    return WeightMultiset(terms)


# every small minuscule coweight of each datum; for the simply connected
# SL3, Sp4 and Sp6 that is the zero coweight alone
RECURRENCE_GROUPS = {f"{f}{n}": build_standard(f, n) for f, n in
                     [("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5), ("SL", 3),
                      ("PGL", 4), ("Sp", 4), ("Sp", 6)]}
RECURRENCE_CASES = [pytest.param(datum, mu,
                                  id=f"{name}-{''.join(map(str, mu))}")
                    for name, datum in RECURRENCE_GROUPS.items()
                    for mu in datum.small_minuscule_dominants()]


@pytest.mark.parametrize("datum,mu", RECURRENCE_CASES)
def test_ext_power_matches_subset_oracle(datum, mu):
    weights = minuscule_weights(datum, mu)
    for i in range(len(weights) + 1):
        assert ext_power_character(datum, weights, i) == \
            _ext_power_via_subsets(datum, weights, i)


@pytest.mark.parametrize("datum,mu", RECURRENCE_CASES)
def test_polynomial_coefficients_match_subset_oracle(datum, mu):
    weights = minuscule_weights(datum, mu)
    d = len(weights)
    for twist, e_over_f in (("paper", 1), ("paper", 2), ("classical", 1),
                            (3, 1)):
        h = hecke_polynomial(datum, mu, twist, e_over_f)
        t = resolve_twist(datum, mu, twist, e_over_f)
        assert h.degree == d and h.twist_exponent == t
        assert len(h.coefficients) == d + 1
        for i, c in enumerate(h.coefficients):
            expected = _ext_power_via_subsets(datum, weights, i).scale(
                LaurentHalf.v_power(i * t, (-1) ** i))
            assert c == expected, (twist, e_over_f, i)


def test_formal_pow_matches_repeated_products():
    dom = FormalTorusDomain(2)
    unit = WeightMultiset.monomial((1, -1), LaurentHalf.v_power(3, -1))
    non_unit = WeightMultiset({(1, 0): 2, (0, 1): LaurentHalf({-1: 1, 1: 1})})
    for a in (unit, non_unit):
        for k in range(-4 if a is unit else 0, 10):
            expected = dom.one()
            for _ in range(abs(k)):
                expected = dom.mul(expected, a if k > 0 else dom.inv(a))
            assert dom.pow(a, k) == expected, (a, k)
    with pytest.raises(ValidationError):
        dom.pow(non_unit, -1)


# -- decomposition ---------------------------------------------------------------

def test_decompose_m20():
    out = decompose(GL2, orbit_character(GL2, (2, 0)))
    assert out == {(2, 0): LaurentHalf.from_int(1),
                   (1, 1): LaurentHalf.from_int(-1)}


def test_decompose_identity_on_irreducible():
    out = decompose(GL2, weyl_character(GL2, (1, 0)))
    assert out == {(1, 0): LaurentHalf.from_int(1)}


def test_decompose_zero():
    assert decompose(GL2, WeightMultiset()) == {}


def test_decompose_roundtrip_random():
    rng = random.Random(5)
    for datum in (GL2, GL3):
        for _ in range(5):
            coeffs = {}
            for _ in range(3):
                lam = datum.dominant_representative(
                    tuple(rng.randint(-2, 2) for _ in range(datum.rank)))
                coeffs[lam] = LaurentHalf({rng.randint(-2, 2):
                                           rng.choice([-2, -1, 1, 2])})
            f = WeightMultiset()
            for lam, c in coeffs.items():
                f = f + weyl_character(datum, lam).scale(c)
            out = decompose(datum, f)
            expected = {k: v for k, v in coeffs.items() if not v.is_zero()}
            # duplicate picks may have merged
            rebuilt = WeightMultiset()
            for lam, c in out.items():
                rebuilt = rebuilt + weyl_character(datum, lam).scale(c)
            assert rebuilt == f
            assert out == expected


# -- Newton identities -------------------------------------------------------------

def test_newton_identities_at_rational_parameters():
    from heckepoly.laurent import RationalWithV
    from heckepoly.satake import SatakeParameter, evaluate
    rng = random.Random(17)
    dom = RationalWithV(Fraction(2))
    for datum, mu in [(GL2, (1, 0)), (GL3, (1, 1, 0)), (GL4, (1, 1, 0, 0))]:
        weights = minuscule_weights(datum, mu)
        d = len(weights)
        s = SatakeParameter.random(dom, datum.rank, rng)
        e = [evaluate(ext_power_character(datum, weights, i), s)
             for i in range(d + 1)]
        p = [None] + [sum((dom.monomial(s.entries, tuple(j * x for x in w))
                           for w in weights), Fraction(0))
                      for j in range(1, d + 1)]
        for k in range(1, d + 1):
            rhs = sum((-1) ** (j - 1) * e[k - j] * p[j]
                      for j in range(1, k + 1))
            assert k * e[k] == rhs
