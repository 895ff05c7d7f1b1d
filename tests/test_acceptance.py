"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every check is exact (zero residual / structural equality); time limits
are asserted where stated.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from heckepoly.cli import main as cli_main
from heckepoly.laurent import LaurentHalf, ONE, Q, PrimeFieldWithV, RationalWithV
from heckepoly.characters import (minuscule_weights, orbit_character,
                                  weyl_character)
from heckepoly.root_data import build_standard
from heckepoly.satake import SatakeParameter, evaluate, frobenius_matrix
from heckepoly.hecke import (cayley_hamilton_check, evaluate_coefficients,
                             hecke_polynomial, inertia_relation_check,
                             reduce_mod_ell)
from heckepoly.iwahori import AffineHeckeAlgebra
from oracles import (TBasisAlgebra, dimension, ext_power_character,
                     spherical_idempotent, trace_of)

V = LaurentHalf.v_power
GL2 = build_standard("GL", 2)
GL3 = build_standard("GL", 3)
GL4 = build_standard("GL", 4)

F11 = PrimeFieldWithV(11, 4, 5)
F7 = PrimeFieldWithV(7, 3, 2)   # 3^2 = 9 = 2 mod 7
QV3 = RationalWithV(3)

CH_CASES = [(GL2, (1, 0)), (GL3, (1, 0, 0)), (GL4, (1, 1, 0, 0))]
SEED = 20240


def _report(num, desc):
    print(f"ACCEPTANCE {num:02d} PASS: {desc}")


def _rng(index):
    return random.Random(SEED * 1_000_003 + index)


def test_criterion_01_classical_gl2_polynomial():
    start = time.monotonic()
    h = hecke_polynomial(GL2, (1, 0), "classical")
    algebra = AffineHeckeAlgebra(GL2)
    coset = [algebra.satake_inverse(c) for c in h.coefficients]
    assert coset[0] == {(0, 0): ONE}
    assert coset[1] == {(1, 0): LaurentHalf.from_int(-1)}
    assert coset[2] == {(1, 1): Q}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"GL2 classical polynomial is X^2 - T[1,0] X + q T[1,1] "
               f"({elapsed:.2f}s)")


def test_criterion_02_classical_gl3_polynomial():
    start = time.monotonic()
    h = hecke_polynomial(GL3, (1, 0, 0), "classical")
    algebra = AffineHeckeAlgebra(GL3)
    coset = [algebra.satake_inverse(c) for c in h.coefficients]
    assert coset[0] == {(0, 0, 0): ONE}
    assert coset[1] == {(1, 0, 0): LaurentHalf.from_int(-1)}
    assert coset[2] == {(1, 1, 0): Q}
    assert coset[3] == {(1, 1, 1): V(6, -1)}  # -q^3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, f"GL3 classical polynomial is X^3 - T1 X^2 + q T2 X - q^3 T3 "
               f"({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def ch_trials():
    """100 seeded parameters per (group, domain); shared by criteria 3/4."""
    out = []
    index = 0
    for datum, mu in CH_CASES:
        h = hecke_polynomial(datum, mu, "paper")
        for dom in (F11, QV3):
            for _ in range(100):
                rng = _rng(index)
                index += 1
                s = SatakeParameter.random(dom, datum.rank, rng)
                values = evaluate_coefficients(h, [s])[0]
                m = frobenius_matrix(datum, mu, s,
                                     twist_exponent=h.twist_exponent)
                out.append((h, dom, s, values, m))
    return out


def test_criterion_03_cayley_hamilton_suite(ch_trials):
    start = time.monotonic()
    d_seen = set()
    for h, dom, s, values, m in ch_trials:
        rep = cayley_hamilton_check(h, m, values, dom, s)
        assert rep["passed"], (h.datum.family, h.datum.rank, s.to_json())
        assert all(entry == dom.scalar_str(dom.zero())
                   for row in rep["residual"] for entry in row)
        d_seen.add(h.degree)
    assert d_seen == {2, 3, 6}
    assert len(ch_trials) == 600
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(3, f"Cayley-Hamilton residual exactly zero in 600 trials "
               f"(GL2, GL3, GL4 x F11, Q(v=3); {elapsed:.1f}s)")


def test_criterion_04_coefficient_excursion_identity(ch_trials):
    for h, dom, s, values, m in ch_trials:
        for i in range(h.degree + 1):
            tr = trace_of(m, i)
            if i % 2:
                tr = dom.neg(tr)
            assert dom.eq(values[i], tr)
    _report(4, "coefficient of X^(d-i) equals (-1)^i tr(wedge^i M) "
               "in every trial, every i")


def test_criterion_05_inertia_degeneration():
    index = 10_000
    for d in range(2, 7):
        for _ in range(50):
            rng = _rng(index)
            index += 1
            m = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            rep = inertia_relation_check(d, m)
            assert rep["passed"] and rep["binomial_identity"]
        jordan = [[1 if i == j or j == i + 1 else 0 for j in range(d)]
                  for i in range(d)]
        rep = inertia_relation_check(d, jordan, require_nilpotent=True)
        assert rep["passed"]
    _report(5, "binomial identity on 50 random integer matrices each for "
               "d=2..6; (M-I)^d = 0 on unipotent Jordan blocks")


def test_criterion_06_bernstein_center():
    for datum in (GL2, GL3):
        algebra = TBasisAlgebra(datum)
        ek = spherical_idempotent(algebra)
        assert algebra.multiply(ek, ek) == ek
        lams = [lam for lam in itertools.product(range(-2, 3),
                                                 repeat=datum.rank)
                if datum.is_dominant(lam)]
        for lam in lams:
            z = algebra.central_element(orbit_character(datum, lam))
            for idx in algebra.generator_indices:
                t = algebra.gen_t(idx)
                assert algebra.multiply(z, t) == algebra.multiply(t, z), lam
            for j in range(datum.rank):
                nu = tuple(1 if k == j else 0 for k in range(datum.rank))
                th = algebra.theta(nu)
                assert algebra.multiply(z, th) == algebra.multiply(th, z), lam
    _report(6, "z_{m_lambda} commutes with every generator for GL2/GL3, "
               "|lambda| <= 2; e_K^2 = e_K exactly")


def test_criterion_07_satake_calibration_and_triangularity():
    for datum in (GL2, GL3):
        algebra = AffineHeckeAlgebra(datum)
        for mu in datum.small_minuscule_dominants():
            image = algebra.satake_of_indicator(mu)
            expected = orbit_character(datum, mu).scale(
                V(datum.rho_pairing_exponent(mu)))
            assert image == expected, (datum.family, mu)
    algebra = AffineHeckeAlgebra(GL2)
    labels = sorted(GL2.dominants_below((2, 0)),
                    key=lambda l: (GL2.rho_pairing_exponent(l), l))
    assert labels == [(1, 1), (2, 0)]
    low, high = (algebra.satake_of_indicator(lam) for lam in labels)
    assert low.coeff((1, 1)) == V(0) and high.coeff((2, 0)) == V(2)
    assert low.coeff((2, 0)).is_zero()
    _report(7, "S(1_{K mu K}) = v^<2rho,mu> m_mu for all minuscule dominant "
               "mu of GL2/GL3; transform on {lambda <= (2,0)} triangular "
               "with diagonal (1, v^2)")


def test_criterion_08_mod_ell_functoriality():
    index = 50_000
    cases = 0
    for datum, mu in CH_CASES:
        h = hecke_polynomial(datum, mu, "paper")
        for dom in (F11, F7):
            red = reduce_mod_ell(h, dom)
            for _ in range(9):
                rng = _rng(index)
                index += 1
                s = SatakeParameter.random(dom, datum.rank, rng)
                assert evaluate_coefficients(h, [s])[0] == \
                    [evaluate(c, s) for c in red]
                cases += 1
    assert cases >= 50
    _report(8, f"reduce then evaluate equals evaluate then reduce over "
               f"F11 (v=4) and F7 (q=2, v=3), {cases} seeded cases")


def _int_of(c):
    if c.is_zero():
        return 0
    assert set(c.terms) == {0}
    return c.terms[0]


def test_criterion_09_character_sanity():
    def dim_formula(datum, lam):
        two_rho_hat = datum.two_rho_hat
        doubled = tuple(2 * x + r for x, r in zip(lam, two_rho_hat))
        dim = Fraction(1)
        for a in datum.positive_roots:
            dim *= Fraction(datum.pairing(a, doubled),
                            datum.pairing(a, two_rho_hat))
        return int(dim)

    checked = 0
    for datum in (GL2, GL3, build_standard("Sp", 4)):
        values = range(-3, 4) if datum.family == "GL" else range(0, 4)
        for lam in itertools.product(values, repeat=datum.rank):
            if not datum.is_dominant(lam):
                continue
            chi = weyl_character(datum, lam)
            assert _int_of(dimension(datum, chi)) == dim_formula(datum, lam)
            checked += 1
    assert checked > 100

    for datum, mu in [(GL2, (1, 0)), (GL2, (1, 1)), (GL3, (1, 0, 0)),
                      (GL3, (1, 1, 0)), (GL3, (1, 1, 1)),
                      (GL4, (1, 1, 0, 0))]:
        w = minuscule_weights(datum, mu)
        d = len(w)
        total = sum(_int_of(dimension(datum,
                                      ext_power_character(datum, w, i)))
                    for i in range(d + 1))
        assert total == 2 ** d
    _report(9, f"dim chi_lambda matches the Weyl dimension formula "
               f"({checked} cases, rank <= 3, |lambda| <= 3); "
               f"sum_i dim wedge^i = 2^d for minuscule cases")


def test_criterion_10_determinism(capsys):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    commands = [
        ["verify", "ch", "--family", "GL", "--rank", "2", "--mu", "1,0",
         "--field", "ell=11,v=4", "--trials", "20", "--seed", "42"],
        ["verify", "modell", "--family", "GL", "--rank", "3",
         "--mu", "1,0,0", "--field", "ell=7,v=3", "--trials", "10",
         "--seed", "9"],
        ["poly", "--family", "GL", "--rank", "2", "--mu", "1,0",
         "--twist", "classical", "--basis", "double-coset"],
        ["verify", "inertia", "--d", "3", "--trials", "10", "--seed", "1"],
    ]
    for argv in commands:
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        for line in out1.strip().split("\n"):
            json.loads(line)
    _report(10, "identical config and seed give byte-identical JSON")
