"""Coefficient fields: the rationals and prime fields GF(p).

Rational coefficients are stdlib Fractions.  GF(p) coefficients are plain
ints in 0..p-1; inverses go through pow(a, p-2, p).  Field objects are
stateless.
"""
from __future__ import annotations

from fractions import Fraction

_SPRP_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for m < 3.3e24 (covers every sane modulus)."""
    if m < 2:
        return False
    for q in _SPRP_WITNESSES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SPRP_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class RationalField:
    """Exact rational coefficients (Fraction)."""

    p = None
    name = "q"

    one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def coeff_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")


class PrimeField:
    """GF(p) for prime p; elements are ints reduced to 0..p-1."""

    __slots__ = ("p", "name")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field modulus {p} is not prime")
        self.p = p
        self.name = f"gf:{p}"

    @property
    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"{x} has no image in GF({self.p})")
            return x.numerator % self.p * pow(x.denominator, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def coeff_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))


QQ = RationalField()
GF = PrimeField


def field_from_name(name: str):
    """Parse a field tag: 'q' or 'gf:<prime>'."""
    name = name.strip().lower()
    if name in ("q", "qq", "rational"):
        return QQ
    if name.startswith("gf:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field {name!r} (expected 'q' or 'gf:<prime>')")
