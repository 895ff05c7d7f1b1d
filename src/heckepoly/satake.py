"""Satake parameters and evaluation of spherical elements.

The spherical Hecke algebra in Satake coordinates is the ring of
W-invariant Laurent polynomials on the dual torus, so a spherical
element is just a W-invariant WeightMultiset.  A SatakeParameter is a
point of the dual torus: one invertible scalar per lattice basis
vector, in a chosen scalar domain.  Evaluation sends sum c_lam e^lam to
sum c_lam s^lam with s^lam = prod s_j^{lam_j}.

The generic (symbolic) parameter lives in the FormalTorusDomain (defined
in ``characters``), whose scalars are lattice group-algebra elements:
the j-th generic entry is the monomial e^{e_j}.  Evaluating at the
generic parameter returns the function itself, and all matrix
identities can be checked symbolically.

A FrobeniusMatrix is the diagonal matrix of a minuscule representation
at a parameter, with entries v^twist * s^{lam_j} over the canonical
weight order.  It is kept as its diagonal alone: the traces of its
exterior powers are e_i of the entries, and the Cayley-Hamilton check
in ``hecke`` works on the entries.  The twist exponent is a configured
integer power of v with two named presets:

* ``paper``:     [E:F] * d      (so v^{[E:F] d} = q^{[E:F] d / 2});
* ``classical``: <2 rho, mu>    (so v^{<2 rho, mu>} = q^{<rho, mu>}).

The two conventions disagree in general; both are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .laurent import LaurentHalf, ScalarDomain
from .characters import FormalTorusDomain, WeightMultiset, minuscule_weights
from .root_data import BasedRootDatum, Coweight

TWIST_PRESETS = ("paper", "classical")


@dataclass(frozen=True)
class SatakeParameter:
    """Point of the dual torus: invertible entries in a scalar domain."""

    domain: ScalarDomain
    entries: tuple

    def __post_init__(self):
        for e in self.entries:
            if self.domain.is_zero(e):
                raise ValidationError("parameter entries must be invertible")
            if isinstance(self.domain, FormalTorusDomain) and not e.is_invertible():
                raise ValidationError(
                    "formal parameter entries must be unit monomials")

    @property
    def rank(self) -> int:
        return len(self.entries)

    @classmethod
    def generic(cls, rank: int) -> "SatakeParameter":
        dom = FormalTorusDomain(rank)
        return cls(dom, tuple(dom.coordinate(j) for j in range(rank)))

    @classmethod
    def random(cls, domain: ScalarDomain, rank: int, rng) -> "SatakeParameter":
        return cls(domain, tuple(domain.random_unit(rng) for _ in range(rank)))

    def power(self, lam: Coweight):
        """s^lam = prod s_j^{lam_j}."""
        if len(lam) != self.rank:
            raise ValidationError("coweight length does not match parameter rank")
        return self.domain.monomial(self.entries, lam)

    def to_json(self) -> dict:
        return {"domain": self.domain.to_json(),
                "entries": [self.domain.scalar_str(e) for e in self.entries]}


def evaluate(f: WeightMultiset, s: SatakeParameter):
    """Evaluate a spherical element, or any WeightMultiset, at s.

    Terms are grouped by coefficient, so each distinct coefficient is
    reduced once and multiplied into the sum of s^w over its weights: a
    twisted coefficient v^t * n costs one power of v, not one per weight.
    The grouping is made on the first evaluation of f and reused after.
    """
    dom = s.domain
    return dom.sum(dom.mul(dom.reduce(c), dom.sum(s.power(w) for w in ws))
                   for c, ws in f.by_coefficient())


def resolve_twist(datum: BasedRootDatum, mu: Coweight, twist,
                  e_over_f: int = 1) -> int:
    """Twist exponent (power of v) from a preset name or explicit int."""
    if isinstance(twist, int):
        return twist
    if twist == "paper":
        d = len(minuscule_weights(datum, mu))
        return e_over_f * d
    if twist == "classical":
        return datum.rho_pairing_exponent(datum.dominant_representative(mu))
    raise ValidationError(f"unknown twist {twist!r} "
                          f"(expected int or one of {TWIST_PRESETS})")


@dataclass(frozen=True)
class FrobeniusMatrix:
    """Diagonal matrix of a minuscule representation at a parameter."""

    weights: tuple[Coweight, ...]
    diagonal: tuple
    domain: ScalarDomain
    twist_exponent: int

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def to_json(self) -> dict:
        return {"weights": [list(w) for w in self.weights],
                "diagonal": [self.domain.scalar_str(a) for a in self.diagonal],
                "twist_exponent": self.twist_exponent,
                "domain": self.domain.to_json()}


def frobenius_matrix(datum: BasedRootDatum, mu: Coweight, s: SatakeParameter,
                     twist_exponent: int | None = None,
                     e_over_f: int = 1) -> FrobeniusMatrix:
    """Diagonal entries v^twist * s^{lam_j} over the canonical weight order.

    The default twist is [E:F] * d.
    """
    weights = minuscule_weights(datum, mu)
    if twist_exponent is None:
        twist_exponent = e_over_f * len(weights)
    if s.rank != datum.rank:
        raise ValidationError("parameter rank does not match the datum")
    dom = s.domain
    scale = dom.reduce(LaurentHalf.v_power(twist_exponent))
    diag = tuple(dom.mul(scale, s.power(w)) for w in weights)
    return FrobeniusMatrix(weights, diag, dom, twist_exponent)
