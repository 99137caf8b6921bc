"""Exact scalar arithmetic over the rationals and over prime fields.

Rational scalars are plain ``fractions.Fraction`` objects, which already
carry a canonical reduced form (gcd 1, positive denominator).  Prime field
scalars are ``Mod`` instances holding a reduced residue.  Both kinds support
the usual arithmetic operators, so code that manipulates matrices and
structure constants never needs to know which field it is working over.

A field object (``Rationals`` or ``PrimeField``) coerces integers and
strings into scalars and owns the canonical string form used by the JSON
file format.  Its ``read`` takes the same inputs to the plain values an
algebra's int view is made of, without boxing a plain integer literal.
"""

from __future__ import annotations

import re
from fractions import Fraction

# a literal that int() reads as Fraction() would, without the Fraction
_PLAIN_INT = re.compile(r"-?[0-9]+")


# Miller-Rabin on the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p):
    """Exact primality for p below 3.3e24; ValueError above that."""
    if p < 2:
        return False
    if p >= _MR_BOUND:
        raise ValueError("%d is too large: primes must be below %d" % (p, _MR_BOUND))
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Mod:
    """Residue in a prime field, reduced to the range [0, p)."""

    __slots__ = ("r", "p")

    def __init__(self, r, p):
        self.r = r % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise ValueError(
                    "cannot mix residues mod %d and mod %d" % (self.p, other.p)
                )
            return other
        if isinstance(other, int):
            return Mod(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Mod(self.r + o.r, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Mod(self.r - o.r, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Mod(o.r - self.r, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Mod(self.r * o.r, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return Mod(-self.r, self.p)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return Mod(pow(self.r, n, self.p), self.p)

    def inverse(self):
        if self.r == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return Mod(pow(self.r, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            return self.r == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.r, self.p))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return "Mod(%d, %d)" % (self.r, self.p)


class Rationals:
    """The rational field; scalars are Fraction objects."""

    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError("cannot coerce %r into Q" % (x,))

    def read(self, x):
        """``x`` as an int when it is an integer, else as its Fraction."""
        if type(x) is int:
            return x
        if isinstance(x, str) and _PLAIN_INT.fullmatch(x):
            return int(x)
        x = self.of(x)
        return x.numerator if x.denominator == 1 else x

    def parse(self, s):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("bad rational literal %r" % s) from exc

    def format(self, x):
        return str(x)

    @property
    def sqrt_minus_one(self):
        return None

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field of p elements; scalars are Mod residues.

    ``i`` optionally names a square root of -1, needed by the graded
    constructions.  When requested and not supplied the smaller root is
    taken; for p = 3 (mod 4) none exists and asking is an error.
    """

    def __init__(self, p, i=None):
        if not is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        self.p = p
        self.char = p
        self.zero = Mod(0, p)
        self.one = Mod(1, p)
        if i is not None:
            i = self.of(i)
            if i * i != self.of(-1):
                raise ValueError("%r squared is not -1 mod %d" % (i.r, p))
        self._i = i

    def of(self, x):
        if isinstance(x, Mod):
            if x.p != self.p:
                raise ValueError("residue mod %d is not in F_%d" % (x.p, self.p))
            return x
        if isinstance(x, int):
            return Mod(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(
                    "denominator of %s vanishes in F_%d" % (x, self.p)
                )
            return Mod(x.numerator, self.p) / Mod(x.denominator, self.p)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError("cannot coerce %r into F_%d" % (x, self.p))

    def read(self, x):
        """The residue of ``x`` in [0, p), as an int."""
        if type(x) is int or isinstance(x, str) and _PLAIN_INT.fullmatch(x):
            return int(x) % self.p
        return self.of(x).r

    def parse(self, s):
        s = s.strip()
        try:
            if "/" in s:
                num, den = s.split("/")
                return self.of(int(num)) / self.of(int(den))
            return self.of(int(s))
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ZeroDivisionError):
                raise
            raise ValueError("bad F_%d literal %r" % (self.p, s)) from exc

    def format(self, x):
        return str(self.of(x).r)

    @property
    def sqrt_minus_one(self):
        if self._i is None:
            self._i = self.find_sqrt_minus_one()
        return self._i

    def find_sqrt_minus_one(self):
        """The smaller of the two square roots of -1."""
        p = self.p
        if p == 2:
            return self.one
        if p % 4 == 3:
            raise ValueError("F_%d has no square root of -1 (p = 3 mod 4)" % p)
        # c^((p-1)/4) squares to c^((p-1)/2) = -1 for a non-residue c
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        r = pow(c, (p - 1) // 4, p)
        return Mod(min(r, p - r), p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return "F_%d" % self.p


QQ = Rationals()


def GF(p, i=None):
    return PrimeField(p, i=i)
