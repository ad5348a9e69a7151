"""Exact closed forms for jet slots: elements of Q(x)[sqrt r].

Every slot F_k of a class's jet-mode series (the delta**k coefficient of its
expansion around q = 1) is an algebraic function of x of degree at most two:
``Surd`` holds one as (p + q*w)/d with polynomials p, q, d over Q and
w = sqrt(r), r a square-free polynomial with r(0) = 1.  w is the branch with
w(0) = 1, so every element with d(0) != 0 is a power series at x = 0.

Polynomials are tuples of ints or Fractions, lowest degree first, with no
trailing zero; () is the zero polynomial.

Besides field arithmetic this module provides the two ways of reading a
closed form: ``read_coefficients`` gives the integer power-series
coefficients to any order in O(order * degree) big-integer steps, and
``local_coefficient`` gives the coefficients of the expansion around a root
of r, where the singular behaviour behind the area limit laws sits.
"""

from __future__ import annotations

import math
from fractions import Fraction

ONE = (1,)


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------

def _trim(c) -> tuple:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim(out)


def pscale(a, c) -> tuple:
    return tuple(v * c for v in a) if c else ()


def psub(a, b) -> tuple:
    return padd(a, pscale(b, -1))


def pmul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _primitive(a) -> tuple:
    """a divided by the gcd of its coefficients, leading coefficient > 0."""
    if not a:
        return a
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple(v // c for v in a)


def pquo(a, b) -> tuple:
    """Exact quotient a / b of integer polynomials; b must divide a over Q
    and be primitive (then the quotient has integer coefficients)."""
    rem = list(a)
    n = len(b) - 1
    quot = [0] * max(len(a) - n, 0)
    for i in range(len(a) - len(b), -1, -1):
        c, m = divmod(rem[i + n], b[-1])
        if m:
            raise RuntimeError("inexact polynomial division")
        quot[i] = c
        if c:
            for j, v in enumerate(b):
                rem[i + j] -= c * v
    if any(rem):
        raise RuntimeError("inexact polynomial division")
    return _trim(quot)


def pgcd(a, b) -> tuple:
    """Greatest common divisor of integer polynomials, primitive with a
    positive leading coefficient (primitive pseudo-remainder sequence); ()
    only when both are zero."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while b:
        if len(b) == 1:
            return ONE
        rem = list(a)
        n, lead = len(b) - 1, b[-1]
        for i in range(len(a) - len(b), -1, -1):
            c = rem[i + n]
            rem = [v * lead for v in rem[: i + n]]
            for j in range(n):
                rem[i + j] -= c * b[j]
        a, b = b, _primitive(_trim(rem))
    return a


def pval(a) -> int:
    """Index of the lowest nonzero coefficient (the x-adic valuation)."""
    return next(i for i, v in enumerate(a) if v)


def ptheta(a) -> tuple:
    """x * a'(x)."""
    return _trim(i * v for i, v in enumerate(a))


def pspread(a, m: int) -> tuple:
    """a(x**m)."""
    out = [0] * ((len(a) - 1) * m + 1) if a else []
    for i, v in enumerate(a):
        out[i * m] = v
    return tuple(out)


def pcompose_linear(a, u, v) -> tuple:
    """a(u + v*t) as a polynomial in t."""
    out: tuple = ()
    for c in reversed(a):
        out = padd(pmul(out, (u, v)), (c,))
    return out


def squarefree_split(f):
    """f = c * s * h**2 with c a rational constant and s, h primitive integer
    polynomials, s square-free (Yun's algorithm)."""
    base = _primitive(f)
    s, h = ONE, ONE
    df = ptheta(base)[1:]  # f'
    g = pgcd(base, df)
    b = pquo(base, g)
    d = psub(pquo(df, g), ptheta(b)[1:])
    multiplicity = 1
    while len(b) > 1:
        a = pgcd(b, d)
        b = pquo(b, a)
        d = psub(pquo(d, a), ptheta(b)[1:])
        if multiplicity % 2:
            s = pmul(s, a)
        for _ in range(multiplicity // 2):
            h = pmul(h, a)
        multiplicity += 1
    return Fraction(f[-1]) / (s[-1] * h[-1] ** 2), s, h


def _rational_sqrt(value) -> Fraction | None:
    value = Fraction(value)
    if value < 0:
        return None
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if num * num != value.numerator or den * den != value.denominator:
        return None
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Q(x)[sqrt r]
# ---------------------------------------------------------------------------

class Surd:
    """(p + q*sqrt(r)) / d in lowest terms: p, q, d have integer coefficients
    with no common polynomial or integer factor, and d's lowest coefficient
    is positive.

    The representation is canonical, so equality is equality of the parts.
    ``r`` is None when q = 0.  Instances are immutable.
    """

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p, q=(), d=ONE, r=None):
        p, q, d = _trim(p), _trim(q), _trim(d)
        if not d:
            raise RuntimeError("division by zero in a closed form")
        if not q:
            r = None
        den = math.lcm(*(v.denominator for v in p + q + d))
        p, q, d = (tuple(int(v * den) for v in a) for a in (p, q, d))
        g = pgcd(pgcd(d, p), q)
        if len(g) > 1:
            p, q, d = pquo(p, g), pquo(q, g), pquo(d, g)
        c = math.gcd(*p, *q, *d)
        if d[pval(d)] < 0:
            c = -c
        if c != 1:
            p, q, d = (tuple(v // c for v in a) for a in (p, q, d))
        for name, value in (("p", p), ("q", q), ("d", d), ("r", r)):
            object.__setattr__(self, name, value)

    @classmethod
    def lift(cls, value) -> "Surd":
        return value if isinstance(value, Surd) else cls((value,))

    @classmethod
    def x_power(cls, degree: int) -> "Surd":
        """x**degree; a negative degree divides."""
        if degree >= 0:
            return cls((0,) * degree + (1,))
        return cls(ONE, d=(0,) * -degree + (1,))

    def __setattr__(self, name, value):
        raise AttributeError("closed forms are immutable")

    def __reduce__(self):
        return Surd, (self.p, self.q, self.d, self.r)

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Surd.lift(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return (self.p, self.q, self.d, self.r) == (other.p, other.q, other.d, other.r)

    def _radicand(self, other: "Surd"):
        if self.r is None or other.r is None or self.r == other.r:
            return self.r if self.r is not None else other.r
        raise RuntimeError("closed forms over different radicands")

    def __add__(self, other):
        other = Surd.lift(other)
        r = self._radicand(other)
        if self.d == other.d:
            return Surd(padd(self.p, other.p), padd(self.q, other.q), self.d, r)
        return Surd(padd(pmul(self.p, other.d), pmul(other.p, self.d)),
                    padd(pmul(self.q, other.d), pmul(other.q, self.d)),
                    pmul(self.d, other.d), r)

    __radd__ = __add__

    def __neg__(self):
        return Surd(pscale(self.p, -1), pscale(self.q, -1), self.d, self.r)

    def __sub__(self, other):
        return self + (-Surd.lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Surd(pscale(self.p, other), pscale(self.q, other), self.d, self.r)
        r = self._radicand(other)
        p = padd(pmul(self.p, other.p), pmul(pmul(self.q, other.q), r or ()))
        q = padd(pmul(self.p, other.q), pmul(self.q, other.p))
        return Surd(p, q, pmul(self.d, other.d), r)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        norm = psub(pmul(self.p, self.p), pmul(pmul(self.q, self.q), self.r or ()))
        return Surd(pmul(self.d, self.p), pscale(pmul(self.d, self.q), -1), norm, self.r)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def theta(self) -> "Surd":
        """x * d/dx, using x * w' = x * r' * w / (2 r)."""
        p, q, d = self.p, self.q, self.d
        dp = psub(pmul(ptheta(p), d), pmul(p, ptheta(d)))
        if not q:
            return Surd(dp, (), pmul(d, d))
        r = self.r
        dq = psub(pmul(ptheta(q), d), pmul(q, ptheta(d)))
        return Surd(pscale(pmul(dp, r), 2),
                    padd(pscale(pmul(dq, r), 2), pmul(pmul(q, d), ptheta(r))),
                    pscale(pmul(pmul(d, d), r), 2), r)

    def binomial_theta(self, l: int) -> "Surd":
        """C(theta, l) applied: theta (theta - 1) ... (theta - l + 1) / l!."""
        out = self
        for j in range(l):
            out = out.theta() - out * j
        return out / math.factorial(l)

    def spread(self, m: int) -> "Surd":
        """Substitute x -> x**m (the radicand becomes r(x**m))."""
        r = None if self.r is None else pspread(self.r, m)
        return Surd(pspread(self.p, m), pspread(self.q, m), pspread(self.d, m), r)

    def __repr__(self):
        return f"Surd(p={self.p}, q={self.q}, d={self.d}, r={self.r})"


def solve_quadratic(a: Surd, b: Surd, c: Surd):
    """Both roots of a*U**2 + b*U + c = 0 for rational-function coefficients.

    The radicand of the roots is the square-free part of the discriminant,
    scaled to r(0) = 1; RuntimeError if the roots do not lie in Q(x)[sqrt r]
    for such an r."""
    a, b, c = Surd.lift(a), Surd.lift(b), Surd.lift(c)
    disc = b * b - a * c * 4
    if disc.q or a.q or b.q:
        raise RuntimeError("quadratic slot equation with irrational coefficients")
    if not disc:
        root = -b / (a * 2)
        return root, root
    # sqrt(n/e) = sqrt(n*e)/e, and n*e = const * s * h**2
    const, s, h = squarefree_split(pmul(disc.p, disc.d))
    if not s[0]:
        raise RuntimeError("discriminant vanishes at x = 0")
    scale = _rational_sqrt(const * s[0])
    if scale is None:
        raise RuntimeError("discriminant is not a rational square times its radicand")
    r = None if len(s) == 1 else tuple(
        v // s[0] if v % s[0] == 0 else Fraction(v, s[0]) for v in s)
    sqrt_disc = Surd((), pscale(h, scale), disc.d, r) if r else Surd(pscale(h, scale), (), disc.d)
    return tuple((sign * sqrt_disc - b) / (a * 2) for sign in (1, -1))


# ---------------------------------------------------------------------------
# reading a closed form
# ---------------------------------------------------------------------------

def _sqrt_series(r, order: int) -> list:
    """Integer coefficients of sqrt(r) to x**order for a binomial radicand
    r = 1 + c*x**m: w_{mn} = w_{m(n-1)} * c * (3 - 2n) / (2n)."""
    terms = [(i, v) for i, v in enumerate(r) if v]
    if len(terms) != 2 or r[0] != 1:
        raise RuntimeError(f"radicand {r} is not of the form 1 + c*x^m")
    m, c = terms[1]
    w = [0] * (order + 1)
    w[0] = 1
    for n in range(1, order // m + 1):
        num = Fraction(w[m * (n - 1)] * c * (3 - 2 * n))
        if num.denominator != 1 or num.numerator % (2 * n):
            raise RuntimeError("square-root series has a non-integer coefficient")
        w[m * n] = num.numerator // (2 * n)
    return w


def _expand(s: Surd, order: int, w) -> list:
    """Integer power-series coefficients of s at x**0..x**order.

    The arithmetic stays in integers: d = x**e * g * dt with dt primitive, so
    dt * y = (p + q*w)/g shifted by e, and dt(0) (positive by normalization)
    must be 1."""
    e = pval(s.d)
    g = math.gcd(*s.d)
    D = [v // g for v in s.d[e:]]
    if D[0] != 1:
        raise RuntimeError(f"denominator constant term {D[0]} is not a unit")
    top = order + e
    numer = list(s.p[: top + 1]) + [0] * (top + 1 - len(s.p))
    if s.q:
        step = next(i for i, v in enumerate(s.r) if i and v)
        for i, qi in enumerate(s.q):
            if qi:
                for j in range(0, top + 1 - i, step):
                    numer[i + j] += qi * w[j]
    tail = [(i, v) for i, v in enumerate(D) if i and v]
    z = []
    for n in range(top + 1):
        acc = numer[n]
        for i, v in tail:
            if i > n:
                break
            acc -= v * z[n - i]
        z.append(acc)
    if any(z[:e]):
        raise RuntimeError("closed form has a pole at x = 0")
    out = []
    for v in z[e:]:
        quot, rem = divmod(v, g)
        if rem:
            raise RuntimeError("closed-form coefficient is not an integer")
        out.append(quot)
    return out


def read_coefficients(slots, order: int) -> list:
    """Integer coefficients x**0..x**order of each element (one list per
    element); RuntimeError if any is not an integer."""
    need: dict = {}
    for s in slots:
        if s.r is not None:
            need[s.r] = max(need.get(s.r, 0), order + pval(s.d))
    roots = {r: _sqrt_series(r, n) for r, n in need.items()}
    return [_expand(s, order, roots.get(s.r)) for s in slots]


def _series_divide(num, den, n: int) -> Fraction:
    """Coefficient t**n of num(t)/den(t), den(0) != 0."""
    out: list = []
    for k in range(n + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / den[0])
    return out[n]


def local_coefficient(s: Surd, x0, alpha):
    """Coefficient of (1 - x/x0)**alpha in the expansion of s around x0, a
    simple root of its radicand (or any point, for a rational function).

    Returned as (value, s0) meaning value * sqrt(s0) for half-integer alpha
    and value (with s0 = 1) for integer alpha; s0 = r/(1 - x/x0) at x0."""
    alpha = Fraction(alpha)
    x0 = Fraction(x0)

    def local(poly):  # poly(x0 * (1 - t)) in t
        return pcompose_linear(poly, x0, -x0)

    d = local(s.d)
    if alpha.denominator == 1:
        num, s0 = local(s.p), Fraction(1)
    elif alpha.denominator == 2:
        if s.r is None:
            return Fraction(0), Fraction(1)
        rt = local(s.r)
        if rt[0] or not rt[1]:
            raise RuntimeError("expansion point is not a simple root of the radicand")
        cof = rt[1:]  # r = t * cof(t)
        s0 = Fraction(cof[0])
        # sqrt(cof/s0) as a series in t, to the order needed below
        num = local(s.q)
        need = int(alpha - Fraction(1, 2)) - pval(num) + pval(d)
        unit = pscale(cof, 1 / s0)
        root = [Fraction(1)]
        for k in range(1, max(need, 0) + 1):
            acc = Fraction(unit[k]) if k < len(unit) else Fraction(0)
            acc -= sum(root[i] * root[k - i] for i in range(1, k))
            root.append(acc / 2)
        num = pmul(num, tuple(root))
        alpha -= Fraction(1, 2)
    else:
        raise ValueError("alpha must be an integer or a half-integer")
    if not num:
        return Fraction(0), s0
    shift = pval(num) - pval(d)
    index = int(alpha) - shift
    if index < 0:
        return Fraction(0), s0
    return _series_divide(num[pval(num):], d[pval(d):], index), s0
