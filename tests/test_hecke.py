import json
import random
from fractions import Fraction

import pytest

from heckepoly.errors import ValidationError
from heckepoly.laurent import LaurentHalf, PrimeFieldWithV, RationalWithV
from heckepoly.characters import (WeightMultiset, _moving_reflection,
                                  minuscule_weights)
from heckepoly.root_data import build_standard
from heckepoly.satake import (FormalTorusDomain, FrobeniusMatrix,
                              SatakeParameter, frobenius_matrix)
from heckepoly.hecke import (cayley_hamilton_check, evaluate_coefficients,
                             excursion_values, hecke_polynomial,
                             inertia_relation_check, mat_identity,
                             mat_is_zero, mat_mul, mat_pow, mat_scale,
                             mat_strings,
                             reduce_mod_ell)

GL2 = build_standard("GL", 2)
GL3 = build_standard("GL", 3)
GL4 = build_standard("GL", 4)
F11 = PrimeFieldWithV(11, 4, 5)
V = LaurentHalf.v_power


# -- characteristic polynomial oracle (cofactor expansion over X-polys) -------

def _charpoly_via_cofactor(dom, matrix):
    """Coefficients of det(X I - M), index i = coefficient of X^{d-i}.

    Entries are dense polynomials in X (lists of scalars by degree);
    the determinant is computed by recursive cofactor expansion along
    the first row, independently of the library's construction.
    """
    def padd(a, b):
        n = max(len(a), len(b))
        return [dom.add(a[i] if i < len(a) else dom.zero(),
                        b[i] if i < len(b) else dom.zero()) for i in range(n)]

    def pneg(a):
        return [dom.neg(x) for x in a]

    def pmul(a, b):
        out = [dom.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = dom.add(out[i + j], dom.mul(x, y))
        return out

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = [dom.zero()]
        for j in range(len(rows)):
            minor = [[row[k] for k in range(len(rows)) if k != j]
                     for row in rows[1:]]
            term = pmul(rows[0][j], det(minor))
            total = padd(total, term if j % 2 == 0 else pneg(term))
        return total

    d = len(matrix)
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            const = dom.neg(matrix[i][j])
            row.append([const, dom.one()] if i == j else [const])
        rows.append(row)
    poly = det(rows)  # index = degree in X
    return [poly[d - i] if d - i < len(poly) else dom.zero()
            for i in range(d + 1)]


def _dense(m):
    """The FrobeniusMatrix as a full d x d matrix."""
    dom = m.domain
    return [[a if i == j else dom.zero() for j in range(m.size)]
            for i, a in enumerate(m.diagonal)]


def _ch_via_dense_horner(h, m, coeff_values, dom):
    """(residual strings, charpoly_match, passed) of the Cayley-Hamilton
    check, with the residual by Horner's rule in full matrix products
    and det(X - M) by cofactor expansion."""
    matrix = _dense(m)
    d = len(matrix)
    residual = mat_scale(dom, coeff_values[0], mat_identity(dom, d))
    for c in coeff_values[1:]:
        residual = mat_mul(dom, residual, matrix)
        for j in range(d):
            residual[j][j] = dom.add(residual[j][j], c)
    charpoly = _charpoly_via_cofactor(dom, matrix)
    match = all(dom.eq(x, y) for x, y in zip(coeff_values, charpoly))
    return (mat_strings(dom, residual), match,
            mat_is_zero(dom, residual) and match)


# -- matrix kit ------------------------------------------------------------------

def test_mat_pow_matches_repeated_products():
    dom = RationalWithV(2)
    m = [[Fraction(1), Fraction(2)], [Fraction(-3), Fraction(1, 2)]]
    expected = mat_identity(dom, 2)
    for k in range(8):
        assert mat_pow(dom, m, k) == expected
        expected = mat_mul(dom, expected, m)
    assert mat_pow(dom, m, 1) is not m


# -- polynomial construction ---------------------------------------------------

def test_gl2_paper_twist_coefficients():
    h = hecke_polynomial(GL2, (1, 0), "paper")
    assert h.degree == 2
    assert h.coefficients[0] == WeightMultiset({(0, 0): 1})
    assert h.coefficients[1] == WeightMultiset(
        {(1, 0): V(2, -1), (0, 1): V(2, -1)})
    assert h.coefficients[2] == WeightMultiset({(1, 1): V(4)})


def test_gl2_classical_twist_coefficients():
    h = hecke_polynomial(GL2, (1, 0), "classical")
    assert h.coefficients[1] == WeightMultiset(
        {(1, 0): V(1, -1), (0, 1): V(1, -1)})
    assert h.coefficients[2] == WeightMultiset({(1, 1): V(2)})


def test_monic_and_rejects_non_minuscule():
    for datum, mu in [(GL2, (1, 1)), (GL3, (1, 0, 0)), (GL4, (1, 1, 0, 0))]:
        h = hecke_polynomial(datum, mu)
        zero = tuple(0 for _ in range(datum.rank))
        assert h.coefficients[0] == WeightMultiset({zero: 1})
    with pytest.raises(ValidationError):
        hecke_polynomial(GL2, (2, 0))


INVARIANCE_GROUPS = {f"{f}{n}": build_standard(f, n) for f, n in
                     [("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5), ("GL", 6),
                      ("SL", 3), ("PGL", 3), ("PGL", 4), ("Sp", 4)]}


@pytest.mark.parametrize("datum", INVARIANCE_GROUPS.values(),
                         ids=INVARIANCE_GROUPS.keys())
def test_coefficients_are_weyl_invariant(datum):
    # hecke_polynomial checks no invariance: e_i of a Weyl orbit is
    # invariant by construction; the invariance helper confirms it
    for mu in datum.small_minuscule_dominants():
        for c in hecke_polynomial(datum, mu).coefficients:
            assert _moving_reflection(datum, c.terms) is None


def test_constant_term_is_single_determinant_weight():
    for datum, mu in [(GL2, (1, 0)), (GL3, (1, 0, 0)), (GL4, (1, 1, 0, 0))]:
        h = hecke_polynomial(datum, mu, "paper")
        weights = minuscule_weights(datum, mu)
        d = len(weights)
        det_weight = tuple(sum(col) for col in zip(*weights))
        support = h.coefficients[d].support()
        assert support == (det_weight,)
        expected = V(d * h.twist_exponent, 1 if d % 2 == 0 else -1)
        assert h.coefficients[d].coeff(det_weight) == expected


def test_evaluated_coefficients_match_cofactor_charpoly():
    rng = random.Random(41)
    for datum, mu in [(GL2, (1, 0)), (GL3, (1, 0, 0)), (GL3, (1, 1, 0)),
                      (GL4, (1, 1, 0, 0))]:
        h = hecke_polynomial(datum, mu, "paper")
        for dom in (F11, RationalWithV(3)):
            s = SatakeParameter.random(dom, datum.rank, rng)
            m = frobenius_matrix(datum, mu, s, twist_exponent=h.twist_exponent)
            got = evaluate_coefficients(h, s)
            oracle = _charpoly_via_cofactor(dom, _dense(m))
            assert all(dom.eq(a, b) for a, b in zip(got, oracle))


# -- excursion values ------------------------------------------------------------

def test_excursion_frobenius_generic():
    s = SatakeParameter.generic(2)
    vals = excursion_values(GL2, (1, 0), s, "paper")
    assert len(vals) == 3 and vals[0] == WeightMultiset({(0, 0): 1})
    assert vals[1] == WeightMultiset({(1, 0): V(2), (0, 1): V(2)})
    assert vals[2] == WeightMultiset({(1, 1): V(4)})


def test_excursion_inertia_dimensions():
    vals = excursion_values(GL2, (1, 0), frobenius=False)
    assert vals == [1, 2, 1]
    vals = excursion_values(GL4, (1, 1, 0, 0), frobenius=False)
    assert vals == [1, 6, 15, 20, 15, 6, 1]


def test_coefficient_excursion_identity():
    # coefficient of X^{d-i} evaluated at s equals (-1)^i tr(wedge^i M)
    rng = random.Random(43)
    for datum, mu in [(GL2, (1, 0)), (GL3, (1, 0, 0)), (GL4, (1, 1, 0, 0))]:
        h = hecke_polynomial(datum, mu, "paper")
        for dom in (F11, RationalWithV(3)):
            s = SatakeParameter.random(dom, datum.rank, rng)
            coeffs = evaluate_coefficients(h, s)
            traces = excursion_values(datum, mu, s, "paper")
            for i in range(h.degree + 1):
                tr = traces[i]
                if i % 2:
                    tr = dom.neg(tr)
                assert dom.eq(coeffs[i], tr)


# -- Cayley-Hamilton --------------------------------------------------------------

def test_ch_worked_f11_example():
    h = hecke_polynomial(GL2, (1, 0), "paper")
    s = SatakeParameter(F11, (2, 7))
    values = evaluate_coefficients(h, s)
    assert values == [1, 10, 9]
    m = frobenius_matrix(GL2, (1, 0), s)
    assert list(m.diagonal) == [10, 2]
    # frozen oracle: 10^2 + 10*10 + 9 = 209 = 19*11, 2^2 + 10*2 + 9 = 33
    assert (10 * 10 + 10 * 10 + 9) % 11 == 0
    assert (2 * 2 + 10 * 2 + 9) % 11 == 0
    rep = cayley_hamilton_check(h, m, values, F11, s)
    assert rep["passed"]
    assert rep["residual"] == [["0", "0"], ["0", "0"]]


def test_ch_identity_matrix_all_ones_twist_zero():
    dom = RationalWithV(5)
    s = SatakeParameter(dom, (Fraction(1), Fraction(1)))
    h = hecke_polynomial(GL2, (1, 0), twist=0)
    values = evaluate_coefficients(h, s)  # (X-1)^2 = X^2 - 2X + 1
    assert values == [1, -2, 1]
    m = frobenius_matrix(GL2, (1, 0), s, twist_exponent=0)
    rep = cayley_hamilton_check(h, m, values, dom, s)
    assert rep["passed"]


def test_ch_symbolic_gl2():
    s = SatakeParameter.generic(2)
    h = hecke_polynomial(GL2, (1, 0), "paper")
    values = evaluate_coefficients(h, s)
    m = frobenius_matrix(GL2, (1, 0), s)
    rep = cayley_hamilton_check(h, m, values, s.domain, s)
    assert rep["passed"]


def _ch_cases():
    """(h, m, coefficient values, domain, parameter) over all three domains."""
    rng = random.Random(67)
    for datum, mu in [(GL2, (1, 0)), (GL3, (1, 0, 0)), (GL4, (1, 1, 0, 0))]:
        h = hecke_polynomial(datum, mu, "paper")
        for s in (SatakeParameter.random(F11, datum.rank, rng),
                  SatakeParameter.random(RationalWithV(3), datum.rank, rng),
                  SatakeParameter.generic(datum.rank)):
            m = frobenius_matrix(datum, mu, s, twist_exponent=h.twist_exponent)
            yield h, m, evaluate_coefficients(h, s), s.domain, s


def test_ch_diagonal_path_renders_like_dense_path():
    kinds = set()
    for h, m, values, dom, s in _ch_cases():
        bad = list(values)
        bad[-1] = dom.add(bad[-1], dom.one())
        for coeffs in (values, bad):
            fast = cayley_hamilton_check(h, m, coeffs, dom, s)
            assert (fast["residual"], fast["charpoly_match"],
                    fast["passed"]) == _ch_via_dense_horner(h, m, coeffs, dom)
        assert fast["residual"][0][1] == dom.scalar_str(dom.zero())
        assert not fast["passed"] and not fast["charpoly_match"]
        kinds.add(dom.kind)
    assert kinds == {"prime-field-with-v", "rational-with-v", "formal-laurent"}
    # the formal zero renders as an empty term list, not "0"
    assert FormalTorusDomain(2).scalar_str(FormalTorusDomain(2).zero()) == "[]"


def test_ch_catches_wrong_polynomial_with_repeated_eigenvalue():
    # GL3 over F_11 (v=4) at s = (2, 2, 7): M = diag(A, A, B), A != B.
    # (X - A)(X - B)^2 annihilates M but is not det(X - M).
    dom = PrimeFieldWithV(11, 4)
    s = SatakeParameter(dom, (2, 2, 7))
    h = hecke_polynomial(GL3, (1, 0, 0), "paper")
    m = frobenius_matrix(GL3, (1, 0, 0), s)
    a, _, b = m.diagonal
    assert m.diagonal == (a, a, b) and a != b
    true_values = evaluate_coefficients(h, s)
    assert cayley_hamilton_check(h, m, true_values, dom, s)["passed"]
    # (X - A)(X - B)^2 = X^3 - (A + 2B) X^2 + (2AB + B^2) X - A B^2
    wrong = [1, (-(a + 2 * b)) % 11, (2 * a * b + b * b) % 11,
             (-a * b * b) % 11]
    assert wrong != true_values
    rep = cayley_hamilton_check(h, m, wrong, dom, s)
    assert all(x == "0" for row in rep["residual"] for x in row)
    assert rep["charpoly_match"] is False
    assert rep["passed"] is False


def test_ch_rejects_singular_and_misshaped():
    h = hecke_polynomial(GL2, (1, 0))
    dom = RationalWithV(2)
    # a plain matrix is refused for its type, whatever its shape
    with pytest.raises(ValidationError, match="needs a FrobeniusMatrix"):
        cayley_hamilton_check(h, mat_identity(dom, 2), [Fraction(1)] * 3, dom)
    f = PrimeFieldWithV(11, 4)
    diag = FrobeniusMatrix(((1, 0), (0, 1)), (3, 0), f, 2)
    with pytest.raises(ValidationError):
        cayley_hamilton_check(h, diag, [1, 0, 0], f)
    small = FrobeniusMatrix(((1, 0),), (3,), f, 2)
    with pytest.raises(ValidationError):
        cayley_hamilton_check(h, small, [1, 0, 0], f)


def test_ch_detects_wrong_coefficients():
    h = hecke_polynomial(GL2, (1, 0), "paper")
    s = SatakeParameter(F11, (2, 7))
    values = evaluate_coefficients(h, s)
    bad = list(values)
    bad[1] = (bad[1] + 1) % 11
    m = frobenius_matrix(GL2, (1, 0), s)
    rep = cayley_hamilton_check(h, m, bad, F11, s)
    assert not rep["passed"]


# -- inertia degeneration -----------------------------------------------------------

def test_inertia_jordan_block():
    rep = inertia_relation_check(2, [[1, 1], [0, 1]], require_nilpotent=True)
    assert rep["passed"]
    assert rep["binomial_identity"]


def test_inertia_identity_matrix():
    rep = inertia_relation_check(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                 require_nilpotent=True)
    assert rep["passed"]


def test_inertia_non_unipotent_reports_expected_fail():
    rep = inertia_relation_check(2, [[2, 0], [0, 1]])
    assert rep["passed"]  # the binomial identity holds for any M
    assert rep["binomial_identity"]
    assert not rep["unipotent_depth_d"]
    rep = inertia_relation_check(2, [[2, 0], [0, 1]], require_nilpotent=True)
    assert not rep["passed"]


def test_inertia_unipotent_residual_is_m_minus_i_power():
    # odd d: (M - I)^d is rendered with its own sign, not that of (I - M)^d
    dom = RationalWithV(1)
    for d in (3, 4):
        m = [[Fraction(2 if i == j else (i + 2 * j) % 3) for j in range(d)]
             for i in range(d)]
        shifted = [[x - (1 if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(m)]
        expected = mat_identity(dom, d)
        for _ in range(d):
            expected = mat_mul(dom, expected, shifted)
        rep = inertia_relation_check(d, m, dom, require_nilpotent=True)
        assert not rep["passed"]
        assert rep["residual"] == [[str(x) for x in row] for row in expected]


def test_inertia_check_on_ints_matches_the_check_on_fractions():
    # integer input stays on ints, and the report is the same bytes
    rng = random.Random(67)
    for d in (1, 3, 6):
        m = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        as_fractions = [[Fraction(x) for x in row] for row in m]
        for nilpotent in (False, True):
            reports = [json.dumps(inertia_relation_check(
                d, matrix, require_nilpotent=nilpotent),
                sort_keys=True) for matrix in (m, as_fractions)]
            assert reports[0] == reports[1]
        dom = RationalWithV(1)
        power = mat_pow(dom, m, d)
        assert all(type(x) is int for row in power for x in row)
        assert power == mat_pow(dom, as_fractions, d)


def test_inertia_binomial_identity_random_matrices():
    rng = random.Random(53)
    for d in range(2, 7):
        for _ in range(10):
            m = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            rep = inertia_relation_check(d, m)
            assert rep["passed"]


# -- mod-ell reduction -----------------------------------------------------------------

def test_reduce_mod_ell_example():
    h = hecke_polynomial(GL2, (1, 0), "paper")
    red = reduce_mod_ell(h, F11)
    # -v^2 = -5 = 6 and v^4 = 25 = 3 mod 11
    assert red.coefficients[1] == WeightMultiset(
        {(1, 0): LaurentHalf.from_int(6), (0, 1): LaurentHalf.from_int(6)})
    assert red.coefficients[2] == WeightMultiset(
        {(1, 1): LaurentHalf.from_int(3)})
    assert red.coefficients[0] == WeightMultiset({(0, 0): 1})
    assert red.coeff_domain == F11
    with pytest.raises(ValidationError):
        reduce_mod_ell(red, F11)


def test_reduce_then_evaluate_equals_evaluate_then_reduce():
    rng = random.Random(59)
    for datum, mu in [(GL2, (1, 0)), (GL3, (1, 0, 0)), (GL4, (1, 1, 0, 0))]:
        h = hecke_polynomial(datum, mu, "paper")
        for dom in (F11, PrimeFieldWithV(7, 3, 2)):
            red = reduce_mod_ell(h, dom)
            for _ in range(5):
                s = SatakeParameter.random(dom, datum.rank, rng)
                assert evaluate_coefficients(h, s) == \
                    evaluate_coefficients(red, s)


def test_report_json_shape():
    h = hecke_polynomial(GL2, (1, 0), "paper")
    s = SatakeParameter(F11, (2, 7))
    rep = cayley_hamilton_check(h, frobenius_matrix(GL2, (1, 0), s),
                                evaluate_coefficients(h, s), F11, s)
    assert set(rep) == {"check", "passed", "residual", "group", "mu",
                        "twist", "domain", "parameter", "charpoly_match"}
    assert rep["check"] == "cayley-hamilton"
    assert rep["passed"] is True and rep["charpoly_match"] is True
    assert rep["parameter"] == ["2", "7"]
    # without a parameter the key is left out, not written as null
    assert "parameter" not in cayley_hamilton_check(
        h, frobenius_matrix(GL2, (1, 0), s), evaluate_coefficients(h, s), F11)
    assert set(inertia_relation_check(2, [[1, 1], [0, 1]])) == {
        "check", "passed", "residual", "domain", "binomial_identity",
        "unipotent_depth_d", "d"}
