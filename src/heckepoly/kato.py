"""Double-coset coordinates of a spherical element by Kato's formula.

For a dominant lam, the irreducible character chi_lam has double-coset
coordinates (Kato 1982, Invent. Math. 66; Lusztig 1983, Asterisque
101-102)

    chi_lam = sum over dominant mu <= lam of
              v^{-<2 rho, mu>} K_{lam mu}(q^{-1}) 1_{K mu K}.

A spherical element f in Satake coordinates is a W-invariant
WeightMultiset.  One ``characters.KostkaFoulkesTable`` per call splits
it as f = sum a_lam chi_lam, refusing a non-invariant f with a
ConsistencyError, and supplies the Kostka-Foulkes polynomials; each
K_{lam .} is computed once, while stripping, and read again here.  The
table's working set is bounded by ``max_support``.

This path never builds an affine Hecke algebra element;
``AffineHeckeAlgebra.satake_inverse`` computes the same coordinates
in the affine Hecke algebra's module H e_K and stays as its independent
check.
"""

from __future__ import annotations

from .laurent import LaurentHalf
from .characters import (DEFAULT_MAX_SUPPORT, KostkaFoulkesTable,
                         WeightMultiset)
from .root_data import BasedRootDatum, Coweight
from .iwahori import SphericalCosetVector


def coset_coordinates(datum: BasedRootDatum, f: WeightMultiset,
                      max_support: int = DEFAULT_MAX_SUPPORT
                      ) -> SphericalCosetVector:
    """Double-coset coordinates of f; equals
    ``AffineHeckeAlgebra(datum).satake_inverse(f)``."""
    table = KostkaFoulkesTable(datum, max_support, "Kato coordinates")
    coords: dict[Coweight, LaurentHalf] = {}
    for lam, a in table.decompose(f).items():
        for mu, k in table.kostka_foulkes(lam).items():
            e = datum.rho_pairing_exponent(mu)
            c = a * LaurentHalf({-e - 2 * j: x for j, x in enumerate(k)})
            coords[mu] = coords[mu] + c if mu in coords else c
    return SphericalCosetVector(coords)
