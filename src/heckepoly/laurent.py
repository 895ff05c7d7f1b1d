"""Exact coefficient arithmetic in the half-power variable v (v**2 = q).

Coefficients throughout the package live in the Laurent polynomial ring
Z[v, v**-1].  Working with the half power v instead of q keeps every
exponent integral: q**(1/2) is v, and a twist like q**<rho,mu> is
v**<2*rho,mu>.  A LaurentHalf is a mapping {exponent: coefficient} with
no stored zero coefficients; coefficients are Python ints, so all
arithmetic is arbitrary precision and exact.  There is no floating
point anywhere in this package.

Scalar domains fix a numeric meaning for v:

* ``RationalWithV``   -- v maps to a nonzero rational, values are ints
  or Fractions (an integral value is an int, so integer input stays on
  Python ints);
* ``PrimeFieldWithV`` -- v maps to a chosen square root of q modulo a
  prime ell, values are residues in range(ell).

The generic (symbolic) torus domain lives in ``heckepoly.characters``
because its scalars are lattice group-algebra elements rather than
plain numbers.  ``elementary_symmetric`` is the one e_k recurrence of
the package; it runs in any domain.  ``ScalarDomain.monomials`` is the
one product-of-powers kernel: it returns prod s_j^{w_j} for every
weight w of a ``MonomialLayout``, and evaluation and Frobenius matrices
both go through it.  Its default folds ``ScalarDomain.monomial`` once
per weight, which is the formal and rational path; over F_ell it builds
one table of powers per entry, over the exponent range of that entry's
column, and multiplies the weights column by column.

The canonical string form of a LaurentHalf is ``"c*v^e"`` terms joined
by ``"+"``, exponents ascending, e.g. ``"-1*v^-2+3*v^0+1*v^2"``; the
zero polynomial prints as ``"0"``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from typing import Any

from .errors import ResourceLimitError, ValidationError


class LaurentHalf:
    """Laurent polynomial in v with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[int(e)] = clean.get(int(e), 0) + int(c)
            clean = {e: c for e, c in clean.items() if c}
        self._terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentHalf":
        return cls()

    @classmethod
    def from_int(cls, n: int) -> "LaurentHalf":
        return cls({0: n})

    @classmethod
    def v_power(cls, e: int, coeff: int = 1) -> "LaurentHalf":
        return cls({e: coeff})

    # -- views -------------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """Exponent -> coefficient mapping.  Treat as read-only."""
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, int):
            other = LaurentHalf.from_int(other)
        if not isinstance(other, LaurentHalf):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self) -> str:
        return f"LaurentHalf({self.serialize()!r})"

    def __str__(self) -> str:
        return self.serialize()

    def serialize(self) -> str:
        if not self._terms:
            return "0"
        return "+".join(f"{c}*v^{e}" for e, c in sorted(self._terms.items()))

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(x: Any) -> "LaurentHalf":
        if isinstance(x, LaurentHalf):
            return x
        if isinstance(x, int):
            return LaurentHalf.from_int(x)
        return NotImplemented

    def __add__(self, other: Any) -> "LaurentHalf":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentHalf(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentHalf":
        return LaurentHalf({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Any) -> "LaurentHalf":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Any) -> "LaurentHalf":
        return (-self) + other

    def __mul__(self, other: Any) -> "LaurentHalf":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentHalf(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentHalf":
        if k < 0:
            return self.monomial_inverse() ** (-k)
        result = LaurentHalf.from_int(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_unit(self) -> bool:
        """Units of Z[v, v^-1] are +-v^e."""
        if len(self._terms) != 1:
            return False
        (c,) = self._terms.values()
        return c in (1, -1)

    def monomial_inverse(self) -> "LaurentHalf":
        if not self.is_unit():
            raise ValidationError(f"{self} is not invertible in Z[v,v^-1]")
        ((e, c),) = self._terms.items()
        return LaurentHalf({-e: c})

    # -- specialization -----------------------------------------------

    def eval_fraction(self, v_value: Fraction) -> Fraction:
        return sum((Fraction(c) * v_value**e for e, c in self._terms.items()),
                   Fraction(0))

    def eval_mod(self, v_image: int, ell: int) -> int:
        total = 0
        for e, c in self._terms.items():
            total = (total + c * pow(v_image, e, ell)) % ell
        return total % ell


ONE = LaurentHalf.from_int(1)
V = LaurentHalf.v_power(1)
Q = LaurentHalf.v_power(2)


# ---------------------------------------------------------------------------
# scalar domains


# Deterministic Miller-Rabin: the first 13 primes as bases decide every
# n below PRIME_TEST_BOUND (Sorenson and Webster 2015, psi_13).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_TEST_BOUND; larger n is rejected."""
    if n >= PRIME_TEST_BOUND:
        raise ValidationError(
            f"{n} is too large: primality is decided below {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_sqrt(ell: int, q_residue: int, v_image: int) -> bool:
    """True iff v_image is a nonzero square root of q_residue mod ell."""
    if not is_prime(ell):
        raise ValidationError(f"{ell} is not prime")
    v_image %= ell
    return v_image != 0 and (v_image * v_image - q_residue) % ell == 0


class ScalarDomain:
    """Common interface of the coefficient specializations.

    A domain interprets v as a concrete invertible scalar and provides
    exact ring operations on its scalar type.  All concrete domains are
    immutable; scalar values are plain Python objects.
    """

    kind: str = "abstract"

    def reduce(self, x: LaurentHalf):
        raise NotImplementedError

    def from_int(self, n: int):
        return self.reduce(LaurentHalf.from_int(n))

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def sum(self, items):
        """Sum of an iterable of scalars; a domain overrides this fold of
        ``add`` where one accumulator is cheaper."""
        total = self.zero()
        for a in items:
            total = self.add(total, a)
        return total

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, a, k: int):
        """a**k by square-and-multiply; negative k inverts a first."""
        if k < 0:
            a, k = self.inv(a), -k
        result = self.one()
        while k:
            if k & 1:
                result = self.mul(result, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return result

    def monomial(self, entries, w):
        """prod_j entries[j]**w[j]: one(), then one mul per nonzero w[j]."""
        result = self.one()
        for a, k in zip(entries, w):
            if k:
                result = self.mul(result, self.pow(a, k))
        return result

    def monomials(self, entries, layout: "MonomialLayout"):
        """prod_j entries[j]**w[j] for each weight w of the layout, in its
        order, as an iterable read once.  This default folds ``monomial``
        one weight at a time, so no more than one value is held."""
        return (self.monomial(entries, w) for w in layout.weights)

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def random_unit(self, rng):
        raise NotImplementedError

    def scalar_str(self, a) -> str:
        raise NotImplementedError

    def parse_scalar(self, text: str):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, ScalarDomain) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(tuple(sorted(self.to_json().items())))


class MonomialLayout:
    """A list of weights laid out once for ``ScalarDomain.monomials``.

    ``columns`` is built on first use: one (j, low, high, shifted) per
    coordinate j that some weight moves, with low <= 0 <= high the range
    of the w[j] widened to 0, and shifted[k] = weights[k][j] - low, an
    index into a table of the powers a^low .. a^high.
    """

    def __init__(self, weights):
        self.weights = weights

    @cached_property
    def columns(self) -> tuple:
        columns = []
        for j, col in enumerate(zip(*self.weights)):
            low, high = min(0, min(col)), max(0, max(col))
            if low < high:
                columns.append((j, low, high, tuple(e - low for e in col)))
        return tuple(columns)


def elementary_symmetric(dom: ScalarDomain, values) -> list:
    """e_0..e_d of the values by the triangular recurrence, O(d^2)."""
    d = len(values)
    e = [dom.one()] + [dom.zero()] * d
    for a in values:
        for k in range(d, 0, -1):
            e[k] = dom.add(e[k], dom.mul(a, e[k - 1]))
    return e


# Fraction expands a decimal exponent in full ("1e99999999" is a
# hundred-million-digit integer), so a rational literal is bounded in
# length and exponent before it is parsed.
MAX_LITERAL_LENGTH = 100
MAX_LITERAL_EXPONENT = 100
# Largest power v^e, in bits, that RationalWithV.reduce builds.
MAX_POWER_BITS = 1 << 16


def _parse_fraction(text: str) -> Fraction:
    """Fraction(text) for a literal of bounded length and exponent."""
    if len(text) > MAX_LITERAL_LENGTH:
        raise ValidationError(f"rational literal of {len(text)} characters "
                              f"exceeds the bound {MAX_LITERAL_LENGTH}")
    _, sep, exponent = text.lower().partition("e")
    try:
        if not sep or abs(int(exponent)) <= MAX_LITERAL_EXPONENT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}: expected "
                              "<num>[/den] or a decimal") from exc
    raise ValidationError(f"rational literal {text!r}: exponent exceeds "
                          f"the bound {MAX_LITERAL_EXPONENT}")


class RationalWithV(ScalarDomain):
    """Exact rationals with a fixed nonzero rational value of v."""

    kind = "rational-with-v"

    def __init__(self, v_value):
        v_value = (_parse_fraction(v_value) if isinstance(v_value, str)
                   else Fraction(v_value))
        if v_value == 0:
            raise ValidationError("v must be nonzero")
        self.v_value = v_value

    def reduce(self, x: LaurentHalf) -> int | Fraction:
        """x at v = v_value; an int when the value is integral."""
        if x.terms:
            n = max(abs(self.v_value.numerator), self.v_value.denominator)
            e = max(map(abs, x.terms))
            # n < 2^b and n <= 2^c, with b and c the bit lengths of n and
            # n - 1, so for e >= 1 n^e has at most e b and e c + 1 bits;
            # the second is exact for a power of two, and 1 when |v| = 1
            bits = min(e * n.bit_length(), e * (n - 1).bit_length() + 1)
            if bits > MAX_POWER_BITS:
                raise ResourceLimitError(
                    f"rational evaluation: a power of v needs up to {bits} "
                    f"bits, beyond max_bits={MAX_POWER_BITS}")
        value = x.eval_fraction(self.v_value)
        return value.numerator if value.denominator == 1 else value

    def from_int(self, n: int) -> int:
        return n

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ValidationError("division by zero")
        return 1 / Fraction(a)

    def pow(self, a, k: int):
        if a == 0 and k < 0:
            raise ValidationError("division by zero")
        return a ** k if k >= 0 else Fraction(a) ** k

    def is_zero(self, a) -> bool:
        return a == 0

    def random_unit(self, rng) -> Fraction:
        num = rng.choice([n for n in range(-9, 10) if n != 0])
        den = rng.randint(1, 9)
        return Fraction(num, den)

    def scalar_str(self, a) -> str:
        """Every digit, or ResourceLimitError past the interpreter's limit
        on integer-to-string conversion (4,300 digits by default)."""
        a = Fraction(a)
        limit = sys.get_int_max_str_digits()
        big = max(abs(a.numerator), a.denominator)
        # fewer than 3 * limit bits means fewer than limit digits
        if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise ResourceLimitError(
                f"rendering: a rational value has more than max_digits="
                f"{limit} decimal digits (sys.set_int_max_str_digits)")
        return str(a)

    def parse_scalar(self, text: str) -> Fraction:
        return _parse_fraction(text)

    def to_json(self) -> dict:
        return {"kind": self.kind, "v_value": str(self.v_value)}

    def __repr__(self):
        return f"RationalWithV({self.v_value})"


class PrimeFieldWithV(ScalarDomain):
    """F_ell with a chosen square root v_image of the residue of q."""

    kind = "prime-field-with-v"

    def __init__(self, ell: int, v_image: int, q_residue: int | None = None):
        if not is_prime(ell):
            raise ValidationError(f"{ell} is not prime")
        v_image %= ell
        if v_image == 0:
            raise ValidationError("v_image must be nonzero")
        if q_residue is None:
            q_residue = (v_image * v_image) % ell
        if not validate_sqrt(ell, q_residue, v_image):
            raise ValidationError(
                f"v_image={v_image} squares to {(v_image * v_image) % ell}, "
                f"not to q={q_residue % ell} (mod {ell})")
        self.ell = ell
        self.v_image = v_image
        self.q_residue = q_residue % ell

    def reduce(self, x: LaurentHalf) -> int:
        return x.eval_mod(self.v_image, self.ell)

    def from_int(self, n: int) -> int:
        return n % self.ell

    def add(self, a, b):
        return (a + b) % self.ell

    def neg(self, a):
        return (-a) % self.ell

    def mul(self, a, b):
        return (a * b) % self.ell

    def inv(self, a):
        if a % self.ell == 0:
            raise ValidationError("division by zero")
        return pow(a, -1, self.ell)

    def pow(self, a, k: int):
        if a % self.ell == 0 and k < 0:
            raise ValidationError("division by zero")
        return pow(a, k, self.ell)

    def sum(self, items):
        return sum(items) % self.ell

    def monomials(self, entries, layout: MonomialLayout) -> list[int]:
        """One table of powers per moved coordinate, over its column's
        range, then one product per column: a weight costs one lookup
        and one modular product per coordinate, and no ``pow``."""
        ell = self.ell
        values = None
        for j, low, high, shifted in layout.columns:
            table = self._powers(entries[j] % ell, low, high)
            values = (list(map(table.__getitem__, shifted)) if values is None
                      else [x * table[i] % ell
                            for x, i in zip(values, shifted)])
        return [1] * len(layout.weights) if values is None else values

    def _powers(self, a: int, low: int, high: int) -> list[int]:
        """[a^low, ..., a^high] for low <= 0 <= high; the negative powers
        are powers of the inverse of a."""
        ell = self.ell
        up = [1]
        for _ in range(high):
            up.append(up[-1] * a % ell)
        if not low:
            return up
        if a == 0:
            raise ValidationError("division by zero")
        down = [pow(a, -1, ell)]
        for _ in range(-low - 1):
            down.append(down[-1] * down[0] % ell)
        return down[::-1] + up

    def is_zero(self, a) -> bool:
        return a % self.ell == 0

    def random_unit(self, rng) -> int:
        return rng.randrange(1, self.ell)

    def scalar_str(self, a) -> str:
        return str(a % self.ell)

    def parse_scalar(self, text: str) -> int:
        return int(text) % self.ell

    def to_json(self) -> dict:
        return {"kind": self.kind, "ell": self.ell, "v_image": self.v_image,
                "q_residue": self.q_residue}

    def __repr__(self):
        return f"PrimeFieldWithV(ell={self.ell}, v_image={self.v_image})"
