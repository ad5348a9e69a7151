"""Exact arithmetic in the ring of rationals extended by sqrt(2) and sqrt(pi).

Moments of the area limit laws require the Gamma function at half-integer
arguments, which produces numbers of the form r * 2**(a/2) * pi**(b/2) with
rational r.  This module keeps such numbers exact and approximates them on
demand with integer fixed-point arithmetic, so that no floating point enters
any comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Binary guard precision carried beyond any requested decimal precision.
GUARD_BITS = 48


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class RadicalConstant:
    """Exact number r * 2**(a/2) * pi**(b/2) with rational r.

    Canonical form folds whole powers of 2 into r, so a is always 0 or 1.
    The pi exponent b stays an unrestricted integer: whole powers of pi
    cannot be folded into a rational.  Zero is uniquely (0, 0, 0).
    """

    r: Fraction
    a: int = 0
    b: int = 0

    def __post_init__(self):
        r = _as_fraction(self.r)
        a, b = self.a, self.b
        if r == 0:
            a = b = 0
        else:
            r = r * Fraction(2) ** (a // 2)
            a %= 2
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RadicalConstant(self.r * other, self.a, self.b)
        if isinstance(other, RadicalConstant):
            return RadicalConstant(self.r * other.r, self.a + other.a, self.b + other.b)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RadicalConstant(_as_fraction(other))
        if not isinstance(other, RadicalConstant):
            return NotImplemented
        if self.r == 0:
            return other
        if other.r == 0:
            return self
        if (self.a, self.b) != (other.a, other.b):
            raise ValueError("cannot add radical constants with different irrational parts")
        return RadicalConstant(self.r + other.r, self.a, self.b)

    __radd__ = __add__

    def inverse(self) -> "RadicalConstant":
        if self.r == 0:
            raise ZeroDivisionError("inverse of zero radical constant")
        return RadicalConstant(1 / self.r, -self.a, -self.b)

    # -- rendering ----------------------------------------------------------

    def exact_str(self) -> str:
        """Render exactly, e.g. ``3/8*sqrt2*sqrtpi`` or ``10/3``."""
        parts = [str(self.r)]
        if self.a:
            parts.append("sqrt2")
        t, s = self.b // 2, self.b % 2
        if t:
            parts.append("pi" if t == 1 else f"pi^{t}")
        if s:
            parts.append("sqrtpi")
        return "*".join(parts)

    def approx(self, digits: int) -> str:
        """Decimal approximation with ``digits`` significant digits."""
        return approx_scaled(self.r, self.a, self.b, digits)

    def __str__(self):
        return self.exact_str()


def gamma_half_integer(twice_arg: int) -> RadicalConstant:
    """Gamma at the half-integer twice_arg / 2, exactly.

    Built from Gamma(1/2) = sqrt(pi) by the recurrence Gamma(z+1) = z*Gamma(z),
    upward or downward as needed.  twice_arg must be odd, which excludes all
    poles of Gamma.
    """
    if twice_arg % 2 == 0:
        raise ValueError("gamma_half_integer needs an odd twice_arg (a half-integer argument)")
    factor = Fraction(1)
    t = twice_arg
    while t > 1:
        t -= 2
        factor *= Fraction(t, 2)
    while t < 1:
        factor /= Fraction(t, 2)
        t += 2
    return RadicalConstant(factor, 0, 1)


# -- integer fixed-point approximation --------------------------------------

def fixed_sqrt(n: int, bits: int) -> int:
    """floor(sqrt(n) * 2**bits) for a nonnegative integer n."""
    if n < 0:
        raise ValueError("square root of a negative integer")
    return math.isqrt(n << (2 * bits))


_PI_CACHE: dict[int, int] = {}


def fixed_pi(bits: int) -> int:
    """floor-accurate pi * 2**bits via Machin's arctangent formula."""
    if bits in _PI_CACHE:
        return _PI_CACHE[bits]
    work = bits + 24

    def atan_inv(x: int) -> int:
        total = 0
        power = x
        k = 0
        xx = x * x
        while True:
            term = (1 << work) // (power * (2 * k + 1))
            if term == 0:
                break
            total += -term if k & 1 else term
            power *= xx
            k += 1
        return total

    value = 4 * (4 * atan_inv(5) - atan_inv(239))
    result = value >> 24
    _PI_CACHE[bits] = result
    return result


def fixed_scaled(r: Fraction, sqrt2_exp: int, sqrtpi_exp: int, bits: int,
                 extra_root: int = 1) -> int:
    """Signed fixed-point of r * 2**(sqrt2_exp/2) * pi**(sqrtpi_exp/2) * sqrt(extra_root).

    Accurate to a handful of ulps at the given bit precision; callers add
    GUARD_BITS beyond what they need.
    """
    r = _as_fraction(r)
    if r == 0:
        return 0
    sign = -1 if r < 0 else 1
    work = bits + GUARD_BITS
    acc = abs(r.numerator) << work

    whole2, half2 = sqrt2_exp // 2, sqrt2_exp % 2
    if whole2 >= 0:
        acc <<= whole2
    else:
        acc >>= -whole2
    if half2:
        acc = (acc * fixed_sqrt(2, work)) >> work

    whole_pi, half_pi = sqrtpi_exp // 2, sqrtpi_exp % 2
    if whole_pi or half_pi:
        pi_fixed = fixed_pi(work)
        for _ in range(abs(whole_pi)):
            if whole_pi > 0:
                acc = (acc * pi_fixed) >> work
            else:
                acc = (acc << work) // pi_fixed
        if half_pi:
            acc = (acc * math.isqrt(pi_fixed << work)) >> work

    if extra_root != 1:
        acc = (acc * fixed_sqrt(extra_root, work)) >> work

    acc //= r.denominator
    return sign * (acc >> GUARD_BITS)


def _decimal_from_fraction(value: Fraction, digits: int) -> str:
    # Correctly rounded rendering of an exact rational, ties away from zero;
    # fixed-point approximations are rendered as Fraction(acc, 2**bits).
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    e10 = len(str(num)) - len(str(den))
    if num * 10 ** max(0, -e10) < den * 10 ** max(0, e10):
        e10 -= 1
    shift = digits - 1 - e10
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10 ** (-shift)
    q, rem = divmod(num, den)
    if 2 * rem >= den:
        q += 1
    digs = str(q)
    if len(digs) > digits:
        e10 += 1
        digs = digs[:digits]
    if e10 >= 0:
        if e10 + 1 >= len(digs):
            body = digs + "0" * (e10 + 1 - len(digs))
        else:
            body = digs[: e10 + 1] + "." + digs[e10 + 1:]
    else:
        body = "0." + "0" * (-e10 - 1) + digs
    return sign + body


def approx_scaled(r: Fraction, sqrt2_exp: int, sqrtpi_exp: int, digits: int,
                  extra_root: int = 1) -> str:
    """Decimal string of r * 2**(sqrt2_exp/2) * pi**(sqrtpi_exp/2) * sqrt(extra_root)
    with ``digits`` significant digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    r = _as_fraction(r)
    if r == 0:
        return "0"
    root = math.isqrt(extra_root)
    if root * root == extra_root:
        r = r * root
        extra_root = 1
    if sqrt2_exp % 2 == 0 and sqrtpi_exp == 0 and extra_root == 1:
        return _decimal_from_fraction(r * Fraction(2) ** (sqrt2_exp // 2), digits)
    bits = int(digits * 3.33) + GUARD_BITS
    acc = fixed_scaled(r, sqrt2_exp, sqrtpi_exp, bits, extra_root)
    return _decimal_from_fraction(Fraction(acc, 1 << bits), digits)
