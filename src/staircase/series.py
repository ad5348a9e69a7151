"""Coefficient rings and truncated power series in x for q-counting.

Two coefficient rings back the same series type:

* ``LaurentQPoly`` -- exact Laurent polynomials in q with integer
  coefficients, each packed into one int with a degree offset (the square
  class's q**(s*s) is the int 1 at offset s*s).
* ``DeltaJet`` -- the expansion of a q-polynomial around q = 1 truncated at
  order K in delta = q - 1.  Slot j holds the j-th q-derivative divided by
  j!, which is exactly the data needed for factorial moments of order <= K.

``XSeries`` is a truncated power series in x whose coefficients live in one
of these rings.  Sums, products, reciprocals and the substitutions x -> x*q
and (x, q) -> (x**2, q**2) of whole series are the lazy nodes in ``feq``;
each ring adapter gives them one convolution kernel, ``conv_into``.  Jet-ring
class series are solved in closed form (``staircase.slots``) instead, so the
jet kernel runs only when the lazy interpreter is used as their oracle.
"""

from __future__ import annotations

import math


def _binomial(n: int, j: int) -> int:
    """Generalized binomial C(n, j) for integer n of any sign, j >= 0."""
    if n >= 0:
        return math.comb(n, j)
    return (-1) ** j * math.comb(j - n - 1, j)


# ---------------------------------------------------------------------------
# exact coefficients: Laurent polynomials in q, packed into one int
# ---------------------------------------------------------------------------

def slot_width(norm: int) -> int:
    """The narrowest slot width, a multiple of 8 bits, whose signed slots hold
    every coefficient of a polynomial with sum |c_d| <= norm."""
    return (norm.bit_length() + 8) & ~7


def _offsets(keep: int, step: int, n: int) -> int:
    """2**(8*keep - 1) in each of n slots of step bytes."""
    return int.from_bytes((bytes(keep - 1) + b"\x80" + bytes(step - keep)) * n, "little")


def _pack(terms: dict, lo: int, w: int) -> int:
    """sum c_d * 2**(w*(d - lo)) over {d: c_d}, for |c_d| < 2**(w-1) and
    d >= lo.  Only whole polynomials built from maps are packed this way;
    the solver's values are made by products, shifts and sums."""
    return sum(c << (w * (d - lo)) for d, c in terms.items())


def _unpack(v: int, lo: int, w: int) -> dict:
    """The {degree: coeff} map of a packed int whose slots all lie strictly
    inside (-2**(w-1), 2**(w-1)); the inverse of _pack."""
    if not v:
        return {}
    size = w // 8
    # the top nonzero slot t gives |v| > 2**(w*t - 1), so n slots reach it
    n = (abs(v).bit_length() + w) // w
    half = _offsets(size, size, n)
    # slot k of (v + half) is c_k + 2**(w-1) with no carries; flipping its
    # top bit leaves c_k in w-bit two's complement
    raw = ((v + half) ^ half).to_bytes(n * size, "little")
    slots = (int.from_bytes(raw[i:i + size], "little", signed=True)
             for i in range(0, n * size, size))
    return {lo + k: c for k, c in enumerate(slots) if c}


def _reslot(v: int, w: int, w2: int, spread: int = 1) -> int:
    """A packed int with its w-bit slots moved to w2-bit slots, each spread
    slots apart (spread 2 substitutes q -> q**2); every slot must fit in w2
    bits.  With h = 2**(8*keep - 1) for the narrower slot size keep, slot k
    is written as c_k + h, which fits in keep bytes; those bytes move in
    strided slices, one per byte of a slot rather than one per slot, and h
    is taken off again at the new stride."""
    if not v:
        return 0
    size, size2 = w // 8, w2 // 8
    keep = min(size, size2)
    step = spread * size2
    n = (abs(v).bit_length() + w) // w
    raw = (v + _offsets(keep, size, n)).to_bytes(n * size, "little")
    buf = bytearray(n * step)
    for j in range(keep):
        buf[j::step] = raw[j::size]
    return int.from_bytes(buf, "little") - _offsets(keep, step, n)


class _Terms(dict):
    """The {degree: coeff} map of a LaurentQPoly: a dict that refuses writes,
    since it is a copy read off the packed int and a write would change
    nothing."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("q-polynomial coefficients are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _Terms, (dict(self),)


def _fill(p, v: int, lo: int, w: int, norm: int):
    """Set the packed fields of p; norm < 2**(w-1) is the caller's to keep."""
    for name, value in (("v", v), ("lo", lo), ("w", w), ("norm", norm)):
        object.__setattr__(p, name, value)
    return p


def _poly(v: int, lo: int, w: int, norm: int) -> "LaurentQPoly":
    return _fill(object.__new__(LaurentQPoly), v, lo, w, norm)


class LaurentQPoly:
    """Laurent polynomial in q with exact integer coefficients, packed into
    one int (Kronecker substitution q = 2**w).

    sum c_d q**d is stored as v = sum c_d * 2**(w*(d - lo)): slot k of v, w
    bits wide and signed, holds the coefficient of q**(lo + k).  norm bounds
    sum |c_d| and stays below 2**(w-1), so every slot can be read back; each
    operation picks a width that keeps it so.  A product is then one integer
    product, q_shift only moves lo, and a sum is a shift and an add.

    ``c`` is the read-only {degree: coeff} map without zero coefficients.
    It is unpacked on every read, so only the int is kept in memory; bind it
    once where it is read in a loop.  Instances are immutable.
    """

    __slots__ = ("v", "lo", "w", "norm")
    variable = "q"  # divide_exact's ArithmeticError names a power of q

    def __init__(self, coeffs=None):
        terms = {d: x for d, x in coeffs.items() if x} if coeffs else {}
        norm = sum(map(abs, terms.values()))
        lo = min(terms, default=0)
        w = slot_width(norm)
        _fill(self, _pack(terms, lo, w), lo, w, norm)

    @property
    def c(self) -> dict:
        return _Terms(_unpack(self.v, self.lo, self.w))

    def __setattr__(self, name, value):
        raise AttributeError("q-polynomials are immutable")

    def __reduce__(self):
        return LaurentQPoly, (dict(self.c),)

    @classmethod
    def term(cls, coeff: int, degree: int = 0) -> "LaurentQPoly":
        return _poly(coeff, degree, slot_width(abs(coeff)), abs(coeff))

    def _packed(self, w: int) -> int:
        """v at slot width w; w must hold the norm."""
        return self.v if w == self.w else _reslot(self.v, self.w, w)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        if isinstance(other, LaurentQPoly):
            if self.w == other.w and self.lo == other.lo:
                return self.v == other.v
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def _plus(self, other: "LaurentQPoly", sign: int) -> "LaurentQPoly":
        if not other.v:
            return self
        if not self.v:
            return other if sign > 0 else -other
        norm = self.norm + other.norm
        w = max(self.w, other.w, slot_width(norm))
        a = self._packed(w)
        b = other._packed(w) if sign > 0 else -other._packed(w)
        gap = other.lo - self.lo
        if gap >= 0:
            return _poly(a + (b << (w * gap)), self.lo, w, norm)
        return _poly((a << (-w * gap)) + b, other.lo, w, norm)

    def __add__(self, other):
        if not isinstance(other, LaurentQPoly):
            return NotImplemented
        return self._plus(other, 1)

    def __neg__(self):
        return _poly(-self.v, self.lo, self.w, self.norm)

    def __sub__(self, other):
        if not isinstance(other, LaurentQPoly):
            return NotImplemented
        return self._plus(other, -1)

    def __mul__(self, other):
        """One integer product, at a width that holds the product's norm."""
        if isinstance(other, int):
            other = LaurentQPoly.term(other)
        if not isinstance(other, LaurentQPoly):
            return NotImplemented
        norm = self.norm * other.norm
        w = max(self.w, other.w, slot_width(norm))
        return _poly(self._packed(w) * other._packed(w), self.lo + other.lo, w, norm)

    __rmul__ = __mul__

    def divide_exact(self, k: int) -> "LaurentQPoly":
        """Every coefficient divided by the integer k > 0; ArithmeticError
        naming the lowest degree whose coefficient k does not divide (``c``
        is unpacked in ascending degree order)."""
        for d, x in self.c.items():
            if x % k:
                raise ArithmeticError(d)
        # k divides every slot, so it divides v slot by slot
        return _poly(self.v // k, self.lo, self.w, self.norm // k)

    def q_shift(self, n: int) -> "LaurentQPoly":
        """Multiply by q**n."""
        return _poly(self.v, self.lo + n, self.w, self.norm)

    def q_square(self) -> "LaurentQPoly":
        """Substitute q -> q**2: the one operation that repacks."""
        return _poly(_reslot(self.v, self.w, self.w, 2), 2 * self.lo, self.w, self.norm)

    def at_q1(self) -> int:
        return sum(self.c.values())

    def collapse(self, jet_order: int) -> "DeltaJet":
        """Expand around q = 1 + delta, truncated at delta**jet_order."""
        slots = [0] * (jet_order + 1)
        for d, v in self.c.items():
            for j in range(jet_order + 1):
                slots[j] += v * _binomial(d, j)
        return DeltaJet(tuple(slots))

    def __repr__(self):
        terms = self.c
        if not terms:
            return "0"
        bits = []
        for d, v in terms.items():
            if d == 0:
                bits.append(str(v))
            else:
                head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                bits.append(f"{head}q^{d}" if d != 1 else f"{head}q")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# jet coefficients: truncated expansions in delta = q - 1
# ---------------------------------------------------------------------------

def _mul_slots_into(acc: list, a, b):
    """acc[s + t] += a[s] * b[t] for s + t <= K = len(acc) - 1.  The one
    product loop of the jet ring."""
    K = len(acc) - 1
    for s in range(K + 1):
        x = a[s]
        if not x:
            continue
        for t in range(K + 1 - s):
            y = b[t]
            if y:
                acc[s + t] += x * y


class DeltaJet:
    """Coefficients c_0..c_K of an expansion sum c_j * delta**j + O(delta**(K+1)).

    Entries are integers; arithmetic truncates at K.  Its ``at_q1`` and
    ``divide_exact`` read as LaurentQPoly's do.
    """

    __slots__ = ("c",)
    variable = "delta"  # divide_exact's ArithmeticError names a slot

    def __init__(self, coeffs):
        object.__setattr__(self, "c", tuple(coeffs))
        if not self.c:
            raise ValueError("a jet needs at least the constant slot")

    def __setattr__(self, name, value):
        raise AttributeError("jets are immutable")

    def __reduce__(self):
        return DeltaJet, (self.c,)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, DeltaJet):
            return len(self.c) == len(other.c) and all(
                x == y for x, y in zip(self.c, other.c))
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def _check(self, other: "DeltaJet"):
        if len(self.c) != len(other.c):
            raise ValueError("jet orders differ")

    def __add__(self, other):
        if not isinstance(other, DeltaJet):
            return NotImplemented
        self._check(other)
        return DeltaJet(tuple(x + y for x, y in zip(self.c, other.c)))

    def __neg__(self):
        return DeltaJet(tuple(-x for x in self.c))

    def __sub__(self, other):
        if not isinstance(other, DeltaJet):
            return NotImplemented
        self._check(other)
        return DeltaJet(tuple(x - y for x, y in zip(self.c, other.c)))

    def __mul__(self, other):
        if isinstance(other, int):
            return DeltaJet(tuple(x * other for x in self.c))
        if not isinstance(other, DeltaJet):
            return NotImplemented
        self._check(other)
        out = [0] * len(self.c)
        _mul_slots_into(out, self.c, other.c)
        return DeltaJet(tuple(out))

    __rmul__ = __mul__

    def divide_exact(self, k: int) -> "DeltaJet":
        """Every slot divided by the integer k > 0; ArithmeticError naming
        the lowest slot that k does not divide."""
        for j, x in enumerate(self.c):
            if x % k:
                raise ArithmeticError(j)
        return DeltaJet(tuple(x // k for x in self.c))

    def at_q1(self) -> int:
        return self.c[0]

    def __repr__(self):
        return "jet" + repr(self.c)


def jet_q_power(n: int, jet_order: int) -> DeltaJet:
    """q**n = (1 + delta)**n truncated at delta**jet_order; n may be negative."""
    return DeltaJet(tuple(_binomial(n, j) for j in range(jet_order + 1)))


# ---------------------------------------------------------------------------
# ring adapters
# ---------------------------------------------------------------------------

class ExactRing:
    """Coefficient ring of exact Laurent q-polynomials, packed at one slot
    width.

    Its kernels work at the ring's width and raise RuntimeError rather than
    let any slot reach 2**(width - 1): ``fit`` repacks a value into the ring,
    and ``conv_into`` bounds each sum by the norms of its products.  The
    shared ``exact_ring()`` packs at 64 bits; each exact solve runs in a ring
    whose width suits its class and order.
    """

    key = "exact"
    jet_order = None

    def __init__(self, width: int = 64):
        if width < 8 or width % 8:
            raise ValueError("slot widths are positive multiples of 8 bits")
        self.width = width
        self.limit = 1 << (width - 1)
        self.zero = _poly(0, 0, width, 0)
        self.one = _poly(1, 0, width, 1)

    def __reduce__(self):
        return exact_ring, ()

    def fit(self, c: LaurentQPoly) -> LaurentQPoly:
        """c packed at the ring's width."""
        if c.w == self.width:
            return c
        if c.norm >= self.limit:
            raise RuntimeError(
                f"q-polynomial with coefficient sum up to {c.norm} "
                f"overflows {self.width}-bit slots")
        return _poly(c._packed(self.width), c.lo, self.width, c.norm)

    def q_shift(self, c, n: int):
        return c.q_shift(n) if c.v else c

    def q_square(self, c):
        return c.q_square() if c.v else c

    def invert_unit(self, c):
        terms = c.c
        if len(terms) == 1:
            (d, v), = terms.items()
            if v in (1, -1):
                return self.fit(LaurentQPoly.term(v, -d))
        raise ValueError("series not invertible")

    # low-level accumulation hooks used by convolution loops: an accumulator
    # is [packed int, lo, norm], its lo None until the first product
    def acc_new(self):
        return [0, None, 0]

    def acc_close(self, acc: list) -> LaurentQPoly:
        v, lo, norm = acc
        return _poly(v, lo, self.width, norm) if v else self.zero

    def conv_into(self, acc, A, B, n, j_lo, j_hi, j_stride):
        """acc += sum of A[n-j] * B[j] over j in range(j_lo, j_hi+1, j_stride),
        skipping zero operands, which include every index off a lazy node's
        degree lattice.  Each pair is one integer product."""
        w = self.width
        v, lo, norm = acc
        for j in range(j_lo, j_hi + 1, j_stride):
            a = A[n - j]
            if not a.v:
                continue
            b = B[j]
            if not b.v:
                continue
            if a.w != w or b.w != w:
                a, b = self.fit(a), self.fit(b)
            norm += a.norm * b.norm
            p = a.v * b.v
            d = a.lo + b.lo
            if lo is None:
                v, lo = p, d
            elif d >= lo:
                v += p << (w * (d - lo))
            else:
                v = (v << (w * (lo - d))) + p
                lo = d
        if norm >= self.limit:
            raise RuntimeError(
                f"q-polynomial convolution with coefficient sum up to {norm} "
                f"overflows {w}-bit slots")
        acc[:] = v, lo, norm


class JetRing:
    """Coefficient ring of delta-jets at a fixed truncation order."""

    def __init__(self, jet_order: int):
        if jet_order < 0:
            raise ValueError("jet order must be >= 0")
        self.jet_order = jet_order
        self.key = ("jet", jet_order)
        self.zero = DeltaJet((0,) * (jet_order + 1))
        self.one = DeltaJet((1,) + (0,) * jet_order)
        # q -> q**2 sends delta to 2*delta + delta**2; row i of the matrix
        # expands (2*delta + delta**2)**i truncated at the jet order.
        self._square_rows = []
        for i in range(jet_order + 1):
            row = []
            for j in range(i, min(2 * i, jet_order) + 1):
                row.append((j, math.comb(i, j - i) * 2 ** (2 * i - j)))
            self._square_rows.append(tuple(row))

    def __reduce__(self):
        return jet_ring, (self.jet_order,)

    def q_shift(self, c: DeltaJet, n: int) -> DeltaJet:
        if n == 0 or not any(c.c):
            return c
        return c * jet_q_power(n, self.jet_order)

    def q_square(self, c: DeltaJet) -> DeltaJet:
        K = self.jet_order
        out = [0] * (K + 1)
        a = c.c
        for i in range(K + 1):
            x = a[i]
            if not x:
                continue
            for j, w in self._square_rows[i]:
                out[j] += x * w
        return DeltaJet(tuple(out))

    def invert_unit(self, c: DeltaJet) -> DeltaJet:
        """1/c for a constant slot of +1 or -1, which keeps the inverse
        integral."""
        a = c.c
        inv0 = a[0]
        if inv0 not in (1, -1):
            raise ValueError("series not invertible")
        out = [inv0] + [0] * self.jet_order
        for j in range(1, self.jet_order + 1):
            out[j] = -inv0 * sum(a[i] * out[j - i] for i in range(1, j + 1))
        return DeltaJet(tuple(out))

    def acc_new(self):
        return [0] * (self.jet_order + 1)

    def acc_close(self, acc: list) -> DeltaJet:
        return DeltaJet(tuple(acc))

    def conv_into(self, acc, A, B, n, j_lo, j_hi, j_stride):
        """acc += sum of A[n-j] * B[j] over j in range(j_lo, j_hi+1, j_stride),
        skipping zero operands."""
        for j in range(j_lo, j_hi + 1, j_stride):
            a = A[n - j].c
            if any(a):
                b = B[j].c
                if any(b):
                    _mul_slots_into(acc, a, b)


_EXACT_RING = ExactRing()
_JET_RINGS: dict[int, JetRing] = {}


def exact_ring() -> ExactRing:
    """The shared exact ring, packing at 64 bits."""
    return _EXACT_RING


def jet_ring(jet_order: int) -> JetRing:
    ring = _JET_RINGS.get(jet_order)
    if ring is None:
        ring = JetRing(jet_order)
        _JET_RINGS[jet_order] = ring
    return ring


# ---------------------------------------------------------------------------
# truncated power series in x
# ---------------------------------------------------------------------------

class XSeries:
    """Power series in x truncated at a fixed order, over a coefficient ring.

    Instances are immutable; solved series are cached and shared freely."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        if coeffs is None:
            coeffs = (ring.zero,) * (order + 1)
        else:
            coeffs = tuple(coeffs)
            if len(coeffs) < order + 1:
                coeffs += (ring.zero,) * (order + 1 - len(coeffs))
            coeffs = coeffs[: order + 1]
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("series are immutable")

    def __reduce__(self):
        return XSeries, (self.ring, self.order, self.coeffs)

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        return (self.ring.key == other.ring.key and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def truncated(self, order: int) -> "XSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return XSeries(self.ring, order, self.coeffs[: order + 1])

    def collapse(self, jet_order: int) -> "XSeries":
        """Exact-ring series -> jet-ring series via q = 1 + delta."""
        if self.ring.key != "exact":
            raise ValueError("collapse applies to exact-ring series")
        ring = jet_ring(jet_order)
        return XSeries(ring, self.order, [c.collapse(jet_order) for c in self.coeffs])

    def values_at_q1(self) -> list:
        """Plain integer coefficients at q = 1."""
        return [c.at_q1() for c in self.coeffs]

    def __repr__(self):
        return f"XSeries(ring={self.ring.key}, order={self.order})"
