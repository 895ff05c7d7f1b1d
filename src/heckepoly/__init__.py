"""Exact Hecke polynomials for split reductive groups.

Builds the degree-d polynomial attached to a minuscule coweight with
spherical Hecke coefficients (in Satake coordinates, or in double-coset
coordinates by Kato's formula in ``heckepoly.kato``, which the affine
Hecke algebra engine checks independently) and verifies the
Cayley-Hamilton style relations it satisfies on parameter points, over
the formal ring Z[v, v^-1], the rationals with a fixed v, or a prime
field with a chosen square root of q.
"""

from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .laurent import (LaurentHalf, PrimeFieldWithV, RationalWithV, ScalarDomain,
                      validate_sqrt)
from .root_data import BasedRootDatum, Coweight, build_standard
from .characters import (WeightMultiset, decompose, minuscule_weights,
                         orbit_character, weyl_character)
from .satake import (FormalTorusDomain, FrobeniusMatrix, SatakeParameter,
                     evaluate, frobenius_matrix, resolve_twist)
from .hecke import (HeckePolynomial, cayley_hamilton_check,
                    evaluate_coefficients, excursion_values, hecke_polynomial,
                    inertia_relation_check, reduce_mod_ell)
from .iwahori import AffineHeckeAlgebra

__all__ = [
    "AffineHeckeAlgebra", "BasedRootDatum", "ConsistencyError", "Coweight",
    "FormalTorusDomain",
    "FrobeniusMatrix", "HeckePolynomial", "LaurentHalf",
    "PrimeFieldWithV", "RationalWithV", "ResourceLimitError",
    "SatakeParameter", "ScalarDomain", "ValidationError",
    "WeightMultiset", "build_standard",
    "cayley_hamilton_check", "decompose", "evaluate", "evaluate_coefficients",
    "excursion_values", "frobenius_matrix", "hecke_polynomial",
    "inertia_relation_check", "minuscule_weights", "orbit_character",
    "reduce_mod_ell", "resolve_twist", "validate_sqrt", "weyl_character",
]

__version__ = "0.1.0"
