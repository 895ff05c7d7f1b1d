"""The Hecke polynomial of a minuscule coweight and its matrix checks.

For a minuscule mu with weight list lam_1..lam_d, the attached monic
degree-d polynomial is det(X - M) for the Frobenius matrix M at the
generic parameter, diag(v^t e^{lam_j}) with t the twist exponent.  Its
Satake-coordinate coefficients are e_i of the negated diagonal:

    coefficient of X^{d-i}  =  (-1)^i * v^{i*t} * tr wedge^i

where tr wedge^i is the exterior-power character of the weight list.
Evaluating the coefficients at a Satake parameter s gives exactly
det(X - M) for M at s, which is how every identity here is tested.

The verification operations are exact matrix identities:

* ``cayley_hamilton_check``: the evaluated polynomial annihilates the
  FrobeniusMatrix M (the residual matrix must vanish identically) and
  its coefficients equal those of det(X - M) (``charpoly_match``).
  Annihilation alone passes any monic polynomial vanishing on the
  distinct eigenvalues of M, so both are required.  M is diagonal, so
  the residual is diag(p(a_j)) by Horner, the characteristic
  polynomial is e_k of the -a_j, as for the polynomial itself, and M
  is singular iff some a_j is zero;
* ``inertia_relation_check``: the degenerate binomial relation
  sum_i (-1)^i C(d,i) M^i = (I - M)^d, with (M - I)^d = 0 reported for
  unipotent M, on an int or Fraction matrix.  ``reduce_mod_ell`` gives
  the coefficients in F_ell for ``verify modell``, and
  ``excursion_values`` the traces tr(wedge^i M) at a FrobeniusMatrix.

Each check returns its report as the plain JSON object that ``verify``
prints.  Reports render every scalar exactly; pass means the residual
is the zero matrix, never "small".  No timing is kept, so reports with
a fixed seed are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ValidationError
from .laurent import (LaurentHalf, PrimeFieldWithV, RationalWithV,
                      ScalarDomain, elementary_symmetric)
from .characters import FormalTorusDomain, WeightMultiset, minuscule_weights
from .root_data import BasedRootDatum, Coweight
from .satake import (FrobeniusMatrix, SatakeParameter, evaluate_many,
                     resolve_twist)


# -- small exact matrix kit --------------------------------------------------

def mat_mul(a, b) -> list[list]:
    """a b over ints and Fractions, with Python's own operators."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]

def mat_pow(a, k: int) -> list[list]:
    """a^k by square-and-multiply: at most 2 log2(k) products."""
    out = None
    while k:
        if k & 1:
            out = [list(row) for row in a] if out is None else mat_mul(out, a)
        k >>= 1
        if k:
            a = mat_mul(a, a)
    return out or [[int(i == j) for j in range(len(a))]
                   for i in range(len(a))]

def mat_is_zero(dom: ScalarDomain, a) -> bool:
    return all(dom.is_zero(x) for row in a for x in row)

def mat_strings(dom: ScalarDomain, a) -> list[list[str]]:
    return [[dom.scalar_str(x) for x in row] for row in a]


# -- the polynomial ----------------------------------------------------------

@dataclass
class HeckePolynomial:
    """Monic degree-d polynomial with spherical coefficients.

    coefficients[i] is the coefficient of X^{d-i}; coefficients[0] is
    the constant function 1.
    """

    datum: BasedRootDatum
    mu: Coweight
    degree: int
    coefficients: list[WeightMultiset]
    twist_exponent: int
    twist_preset: str | None = None
    e_over_f: int = 1

    def to_json(self) -> dict:
        twist = {"preset": self.twist_preset, "exponent": self.twist_exponent}
        return {
            "group": {"family": self.datum.family, "rank": self.datum.rank},
            "mu": list(self.mu),
            "twist": twist,
            "e_over_f": self.e_over_f,
            "degree": self.degree,
            "coefficients": [c.to_json() for c in self.coefficients],
        }


def hecke_polynomial(datum: BasedRootDatum, mu: Coweight, twist="paper",
                     e_over_f: int = 1) -> HeckePolynomial:
    """Build the polynomial attached to a minuscule coweight.

    Rejects non-minuscule mu.  The coefficients are those of det(X - M)
    with M the Frobenius matrix at the generic parameter: e_i of the
    negated diagonal, whose j-th entry is the monomial -v^t e^{lam_j}
    and is written down from the weights.  The diagonal is a Weyl
    orbit, so each e_i is W-invariant by construction, and no check
    runs here.
    """
    mu = tuple(mu)
    t = resolve_twist(datum, mu, twist, e_over_f)
    weights = minuscule_weights(datum, mu)
    entry = LaurentHalf.v_power(t, -1)
    coeffs = elementary_symmetric(
        FormalTorusDomain(datum.rank),
        [WeightMultiset({w: entry}) for w in weights])
    return HeckePolynomial(
        datum=datum, mu=mu, degree=len(weights), coefficients=coeffs,
        twist_exponent=t, e_over_f=e_over_f,
        twist_preset=twist if isinstance(twist, str) else None)


def evaluate_coefficients(h: HeckePolynomial, points) -> list[list]:
    """The values of h's coefficients at each point, one list per point."""
    return evaluate_many(h.coefficients, points)


# -- excursion values ---------------------------------------------------------

def excursion_values(m: FrobeniusMatrix) -> list:
    """Excursion traces at a Frobenius lift: value_i = tr(wedge^i M),
    e_i of the diagonal of M, in M's domain."""
    return elementary_symmetric(m.domain, m.diagonal)


# -- relation checks ----------------------------------------------------------

def cayley_hamilton_check(h: HeckePolynomial, m: FrobeniusMatrix,
                          coeff_values: list, domain: ScalarDomain,
                          parameter: SatakeParameter | None = None) -> dict:
    """Exact residual of the evaluated polynomial at a Frobenius matrix.

    ``coeff_values[i]`` is the value of the coefficient of X^{d-i}; the
    residual is sum_i coeff_values[i] * M^{d-i}.  Up to the global sign
    (-1)^d this is the alternating excursion sum, so "residual zero" is
    the same relation either way.  The report's ``charpoly_match`` says
    whether the values are exactly the coefficients of det(X - M);
    ``passed`` needs both.  Singular M is rejected: the element it
    models acts invertibly.

    M is diagonal and every domain here is an integral domain, so M is
    singular iff a diagonal entry is zero, the residual is diag(p(a_j))
    by Horner, and det(X - M) is e_k of the -a_j.
    """
    if not isinstance(m, FrobeniusMatrix):
        raise ValidationError("cayley_hamilton_check needs a FrobeniusMatrix")
    d = h.degree
    if len(coeff_values) != d + 1:
        raise ValidationError(f"need {d + 1} coefficient values")
    if m.size != d:
        raise ValidationError(f"matrix must be {d}x{d}")
    if any(domain.is_zero(a) for a in m.diagonal):
        raise ValidationError("matrix is singular")
    residual = [[domain.zero()] * d for _ in range(d)]
    for j, a in enumerate(m.diagonal):
        acc = coeff_values[0]
        for c in coeff_values[1:]:
            acc = domain.add(domain.mul(acc, a), c)
        residual[j][j] = acc
    charpoly = elementary_symmetric(domain,
                                    [domain.neg(a) for a in m.diagonal])
    charpoly_match = all(domain.eq(x, y)
                         for x, y in zip(coeff_values, charpoly))
    report = {
        "check": "cayley-hamilton",
        "passed": mat_is_zero(domain, residual) and charpoly_match,
        "residual": mat_strings(domain, residual),
        "group": {"family": h.datum.family, "rank": h.datum.rank},
        "mu": list(h.mu),
        "twist": {"preset": h.twist_preset, "exponent": h.twist_exponent},
        "domain": domain.to_json(),
        "charpoly_match": charpoly_match}
    if parameter is not None:
        report["parameter"] = parameter.to_json()["entries"]
    return report


def inertia_relation_check(d: int, m, require_nilpotent: bool = False) -> dict:
    """Degenerate relation at an inertia element.

    Verifies sum_i (-1)^i C(d,i) M^i = (I - M)^d exactly (the excursion
    values collapse to dimensions), and separately reports whether
    (M - I)^d = 0.  With ``require_nilpotent`` the report's residual is
    (M - I)^d, so pass means M is unipotent of the right depth.  The
    left side sums the explicit powers M^i and the right side is a
    square-and-multiply power, so the identity compares two independent
    computations; (M - I)^d is (-1)^d (I - M)^d.  The entries are ints
    or Fractions, an integer matrix stays on ints, and the report renders
    them as rationals.
    """
    if d < 1:
        raise ValidationError("d must be >= 1")
    rationals = RationalWithV(1)
    matrix = [list(row) for row in m]
    if len(matrix) != d or any(len(row) != d for row in matrix):
        raise ValidationError(f"matrix must be {d}x{d}")
    lhs = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in range(1, d + 1):
        power = matrix if i == 1 else mat_mul(power, matrix)
        c = (-1) ** i * comb(d, i)
        lhs = [[x + c * y for x, y in zip(rl, rp)]
               for rl, rp in zip(lhs, power)]
    rhs = mat_pow([[int(i == j) - x for j, x in enumerate(row)]
                   for i, row in enumerate(matrix)], d)
    binomial_residual = [[x - y for x, y in zip(rl, rr)]
                         for rl, rr in zip(lhs, rhs)]
    binomial_ok = mat_is_zero(rationals, binomial_residual)
    nilpotent_power = rhs if d % 2 == 0 else [[-x for x in row]
                                              for row in rhs]
    nilpotent = mat_is_zero(rationals, nilpotent_power)
    residual = nilpotent_power if require_nilpotent else binomial_residual
    return {"check": "inertia",
            "passed": nilpotent if require_nilpotent else binomial_ok,
            "residual": mat_strings(rationals, residual),
            "domain": rationals.to_json(),
            "binomial_identity": binomial_ok, "unipotent_depth_d": nilpotent,
            "d": d}


def reduce_mod_ell(h: HeckePolynomial,
                   dom: PrimeFieldWithV) -> list[WeightMultiset]:
    """The coefficients of h with their Laurent coefficients reduced into
    F_ell; evaluation over dom commutes with the reduction."""
    if not isinstance(dom, PrimeFieldWithV):
        raise ValidationError("reduction needs a prime-field domain")
    return [WeightMultiset({w: LaurentHalf.from_int(dom.reduce(coeff))
                            for w, coeff in c.terms.items()})
            for c in h.coefficients]
