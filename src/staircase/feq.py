"""Solvers for the q-difference equations of the staircase polygon classes.

Each symmetry class has a defining equation expressing its half-perimeter and
area generating function through x -> x*q and (x, q) -> (x**2, q**2)
substitutions of itself and of previously solved classes.  Every right-hand
side gains at least two x-orders over its input, so the equations pin down a
unique formal power series with zero constant term.

Each equation is written once, as a small graph of series nodes referencing
the unknown, and two interpreters read it:

* the lazy interpreter here evaluates the fixed point one x-coefficient at a
  time: the nodes are lazy, memoized series, and coefficient n of the
  unknown is filled from coefficients < n of itself.  This computes exactly
  the limit of the plain iteration F <- RHS(F) while touching every
  coefficient only once.  It solves exact-ring series, in a ring whose
  packing width is sized from the class's counts at q = 1, and is the
  oracle for the jet-ring path.
* the slot interpreter (``staircase.slots``) solves jet rings in closed form:
  each slot of the expansion around q = 1 as an element of Q(x)[sqrt r],
  whose integer coefficients are read off to any order in linear time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import DeltaJet, ExactRing, XSeries, exact_ring, slot_width

CLASS_IDS = ("full", "r2", "d1", "d2", "d1d2", "rect", "square")

GAIN = 2  # x-orders every right-hand side gains over its input


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# lazy series nodes
# ---------------------------------------------------------------------------

class _Node:
    """Lazy power series in x: memoized coefficients, known valuation bound
    and degree lattice stride (nonzero coefficients only at
    val + stride * j; the memo holds the ring's zero everywhere else)."""

    __slots__ = ("ring", "memo", "val", "stride")

    def __init__(self, ring, val: int, stride: int):
        self.ring = ring
        self.memo: list = []
        self.val = val
        self.stride = max(stride, 1)

    def coeff(self, n: int):
        memo = self.memo
        while len(memo) <= n:
            k = len(memo)
            if k < self.val or (k - self.val) % self.stride:
                memo.append(self.ring.zero)
            else:
                memo.append(self._advance(k))
        return memo[n]

    def _advance(self, n: int):
        raise NotImplementedError


class _Unknown(_Node):
    """The series being solved for; reading an unfilled coefficient means the
    recursion is not productive."""

    def coeff(self, n: int):
        if n >= len(self.memo):
            raise RuntimeError(
                "non-productive recursion: coefficient %d requested before it is known" % n)
        return self.memo[n]

    def fill(self, n: int, value):
        if n != len(self.memo):
            raise RuntimeError("coefficients must be filled in order")
        self.memo.append(value)


class _Const(_Node):
    """A fully known series: a solved XSeries for the lazy interpreter, a
    ClosedForm for the slot interpreter."""

    __slots__ = ("series",)

    def __init__(self, series: XSeries, val: int = 0, stride: int = 1):
        super().__init__(series.ring, val, stride)
        self.series = series

    def _advance(self, n: int):
        if n > self.series.order:
            raise RuntimeError(
                "prerequisite series solved to order %d but coefficient %d needed"
                % (self.series.order, n))
        return self.series.coeffs[n]


class _Lin(_Node):
    """poly(x) + sum of +/- child series."""

    __slots__ = ("poly", "terms")

    def __init__(self, ring, poly: dict, terms):
        points = [(d, 0) for d in poly] + [(t.val, t.stride) for t, _ in terms]
        val, stride = _merge_lattices(points)
        super().__init__(ring, val, stride)
        self.poly = poly
        self.terms = tuple(terms)

    def _advance(self, n: int):
        acc = self.poly.get(n, self.ring.zero)
        for node, sign in self.terms:
            v = node.coeff(n)
            if v:
                acc = acc + v if sign > 0 else acc - v
        return acc


class _Mul(_Node):
    __slots__ = ("a", "b")

    def __init__(self, a: _Node, b: _Node):
        super().__init__(a.ring, a.val + b.val, math.gcd(a.stride, b.stride))
        self.a = a
        self.b = b

    def _advance(self, n: int):
        ring = self.ring
        a, b = self.a, self.b
        hi_b = n - a.val
        b.coeff(hi_b)
        a.coeff(n - b.val)
        acc = ring.acc_new()
        ring.conv_into(acc, a.memo, b.memo, n, b.val, hi_b, b.stride)
        return ring.acc_close(acc)


class _Recip(_Node):
    """1 / child; the child's constant term must be invertible."""

    __slots__ = ("a", "neg_inv0")

    def __init__(self, a: _Node):
        if a.val > 0:
            raise ValueError("series not invertible")
        super().__init__(a.ring, 0, a.stride)
        self.a = a
        self.neg_inv0 = None

    def _advance(self, n: int):
        ring = self.ring
        if n == 0:
            inv0 = ring.invert_unit(self.a.coeff(0))
            self.neg_inv0 = -inv0
            return inv0
        a = self.a
        a.coeff(n)
        acc = ring.acc_new()
        ring.conv_into(acc, self.memo, a.memo, n, a.stride, n, a.stride)
        return self.neg_inv0 * ring.acc_close(acc)


class _SubXQ(_Node):
    """Substitute (x, q) -> (x*q, q): coefficient n picks up q**n."""

    __slots__ = ("a",)

    def __init__(self, a: _Node):
        super().__init__(a.ring, a.val, a.stride)
        self.a = a

    def _advance(self, n: int):
        return self.ring.q_shift(self.a.coeff(n), n)


class _SubX2Q2(_Node):
    """Substitute (x, q) -> (x**2, q**2)."""

    __slots__ = ("a",)

    def __init__(self, a: _Node):
        super().__init__(a.ring, 2 * a.val, 2 * a.stride)
        self.a = a

    def _advance(self, n: int):
        # the node's lattice holds even degrees only
        return self.ring.q_square(self.a.coeff(n // 2))


class _MonoMul(_Node):
    """Multiply by the monomial x**x_deg * q**q_deg.  A negative x_deg
    divides; the child's valuation must then keep every term at degree
    >= 0."""

    __slots__ = ("a", "x_deg", "q_deg")

    def __init__(self, a: _Node, x_deg: int, q_deg: int):
        if a.val + x_deg < 0:
            raise ValueError("x-shift below degree zero leaves a residue")
        super().__init__(a.ring, a.val + x_deg, a.stride)
        self.a = a
        self.x_deg = x_deg
        self.q_deg = q_deg

    def _advance(self, n: int):
        return self.ring.q_shift(self.a.coeff(n - self.x_deg), self.q_deg)


def _merge_lattices(points):
    """Combine (degree, stride) supports; stride 0 marks a single degree."""
    val = min(v for v, _ in points)
    g = 0
    for v, s in points:
        g = math.gcd(g, s)
        g = math.gcd(g, v - val)
    return val, (g if g else 1)


# ---------------------------------------------------------------------------
# the seven equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassEquation:
    """One symmetry class: which solved classes its equation references, the
    degree lattice of its series, and the builder of its right-hand side
    (each gains GAIN x-orders over its input)."""

    class_id: str
    deps: tuple
    stride: int
    build: callable


def _q(ring, value=1):
    return ring.q_shift(ring.one * value, 1)


def _build_full(u, deps, ring):
    denom = _Lin(ring, {0: ring.one, 1: _q(ring, -2)}, [(_SubXQ(u), -1)])
    return _MonoMul(_Recip(denom), 2, 1)


def _build_r2(u, deps, ring):
    left = _Lin(ring, {0: ring.one, 1: _q(ring, 2)}, [(_SubXQ(u), 1)])
    doubled = _SubX2Q2(_Const(deps["full"], val=2, stride=1))
    return _MonoMul(_Mul(left, doubled), -2, -1)


def _build_d1(u, deps, ring):
    denom = _Lin(ring, {0: ring.one}, [(_SubXQ(u), -1)])
    return _MonoMul(_Recip(denom), 2, 1)


def _build_d2(u, deps, ring):
    left = _Lin(ring, {0: ring.one}, [(_SubXQ(u), 1)])
    doubled = _SubX2Q2(_Const(deps["full"], val=2, stride=1))
    return _MonoMul(_Mul(left, doubled), -2, -1)


def _build_d1d2(u, deps, ring):
    left = _Lin(ring, {0: ring.one}, [(_SubXQ(u), 1)])
    doubled = _SubX2Q2(_Const(deps["d1"], val=2, stride=2))
    return _MonoMul(_Mul(left, doubled), -2, -1)


def _build_rect(u, deps, ring):
    # x**2*q * ((1 + x*q)/(1 - x*q) + u(x*q, q))
    source = _Mul(_Lin(ring, {0: ring.one, 1: _q(ring)}, []),
                  _Recip(_Lin(ring, {0: ring.one, 1: _q(ring, -1)}, [])))
    return _MonoMul(_Lin(ring, {}, [(source, 1), (_SubXQ(u), 1)]), 2, 1)


def _build_square(u, deps, ring):
    return _Lin(ring, {2: _q(ring)}, [(_MonoMul(_SubXQ(u), 2, 1), 1)])


CLASS_EQUATIONS = {
    "full": ClassEquation("full", (), 1, _build_full),
    "r2": ClassEquation("r2", ("full",), 1, _build_r2),
    "d1": ClassEquation("d1", (), 2, _build_d1),
    "d2": ClassEquation("d2", ("full",), 2, _build_d2),
    "d1d2": ClassEquation("d1d2", ("d1",), 2, _build_d1d2),
    "rect": ClassEquation("rect", (), 1, _build_rect),
    "square": ClassEquation("square", (), 2, _build_square),
}


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

_SOLVE_CACHE: dict = {}
_CLOSED_FORMS: dict = {}


def clear_cache():
    _SOLVE_CACHE.clear()
    _CLOSED_FORMS.clear()


def _prerequisite_order(order: int) -> int:
    # The (x**2, q**2) substitution needs the prerequisite only to half the
    # order of the product, which runs two degrees past the solved order.
    return (order + 2) // 2


def _counts_at_q1(class_id: str, order: int) -> list:
    """The class's polygon counts per half-perimeter, from its closed form."""
    return closed_form(class_id, 0).series(order).values_at_q1()


def _verify_solution(class_id: str, series: XSeries):
    if series.ring.key == "exact":
        # the counts at q = 1 come from the slot interpreter, so every exact
        # solve is checked against the other interpreter; a wrapped packing
        # slot would move a count by a multiple of 2**width - 1
        expected = _counts_at_q1(class_id, series.order)
        for m, c in enumerate(series.coeffs):
            terms = c.c
            for d, v in terms.items():
                if v <= 0:
                    raise RuntimeError(
                        f"negative count in class {class_id} at x^{m} q^{d}")
                if d < 1 or 4 * d > m * m:
                    raise RuntimeError(
                        f"area {d} out of range for half-perimeter {m} in class {class_id}")
            count = sum(terms.values())
            if count != expected[m]:
                raise RuntimeError(
                    f"class {class_id} counts {count} polygons at x^{m}, "
                    f"its closed form {expected[m]}")
    else:
        # slot k sums C(area, k) over the polygons, and area <= m*m/4
        for m, c in enumerate(series.coeffs):
            count = c.c[0]
            for k, v in enumerate(c.c):
                if not 0 <= v <= math.comb(m * m // 4, k) * count:
                    raise RuntimeError(
                        f"jet slot {k} out of range in class {class_id} at x^{m}")


def solve_series(class_id: str, order: int, ring) -> XSeries:
    """The unique power-series solution of the class's equation, to x**order.

    Exact rings are solved by the lazy interpreter, jet rings by reading the
    class's closed-form slots.  Results are cached per (class, ring); asking
    for a lower order returns a truncated copy of the best solution already
    known, and asking for a lower jet order the slot prefix of a cached
    series at a higher one.
    """
    if class_id not in CLASS_EQUATIONS:
        raise ValueError(f"unknown symmetry class: {class_id!r}")
    if order < 2:
        raise ValueError("order must be >= 2")
    key = (class_id, ring.key)
    cached = _SOLVE_CACHE.get(key)
    if cached is not None and cached.order >= order:
        return cached.truncated(order) if cached.order > order else cached

    if ring.key == "exact":
        series = _solve_exact(class_id, order)
    else:
        K = ring.jet_order
        for (cached_id, cached_key), wider in _SOLVE_CACHE.items():
            if (cached_id == class_id and cached_key != "exact"
                    and cached_key[1] > K and wider.order >= order):
                jets = wider.coeffs[:order + 1]
                return XSeries(ring, order, [DeltaJet(c.c[:K + 1]) for c in jets])
        series = closed_form(class_id, K).series(order)
    _verify_solution(class_id, series)
    _SOLVE_CACHE[key] = series
    return series


def _solve_lazy(class_id: str, order: int, ring, solve_dep) -> XSeries:
    """The lazy interpreter: fill the unknown one x-coefficient at a time.
    Prerequisite classes come from solve_dep(class_id, order, ring)."""
    equation = CLASS_EQUATIONS[class_id]
    deps = {dep: solve_dep(dep, _prerequisite_order(order), ring)
            for dep in equation.deps}
    unknown = _Unknown(ring, val=2, stride=equation.stride)
    rhs = equation.build(unknown, deps, ring)
    for n in range(order + 1):
        unknown.fill(n, rhs.coeff(n))
    return XSeries(ring, order, unknown.memo)


def _solve_ring(class_id: str, order: int) -> ExactRing:
    """An exact ring for the class at this order: its slots hold 2**16 times
    the largest count at q = 1.  Every kernel still bounds what it packs, and
    raises if this was too narrow."""
    return ExactRing(slot_width(max(_counts_at_q1(class_id, order)) << 16))


def _into(ring, series: XSeries) -> XSeries:
    return XSeries(ring, series.order, [ring.fit(c) for c in series.coeffs])


def _solve_exact(class_id: str, order: int) -> XSeries:
    """The lazy interpreter in a ring packed for this solve; the solved
    series is handed out over the shared exact ring."""
    ring = _solve_ring(class_id, order)

    def solve_dep(dep: str, dep_order: int, _):
        return _into(ring, solve_series(dep, dep_order, exact_ring()))

    solved = _solve_lazy(class_id, order, ring, solve_dep)
    return XSeries(exact_ring(), order, solved.coeffs)


def closed_form(class_id: str, jet_order: int):
    """Slots 0..jet_order of the class's jet-mode series in closed form
    (a ``staircase.slots.ClosedForm``).  Each class keeps the forms of the
    highest jet order built; a lower one takes a prefix."""
    if class_id not in CLASS_EQUATIONS:
        raise ValueError(f"unknown symmetry class: {class_id!r}")
    cached = _CLOSED_FORMS.get(class_id)
    if cached is None or len(cached.slots) <= jet_order:
        cached = _CLOSED_FORMS[class_id] = _build_closed_form(class_id, jet_order)
    return cached.prefix(jet_order) if len(cached.slots) > jet_order + 1 else cached


def _build_closed_form(class_id: str, jet_order: int):
    from .slots import solve_slots  # deferred: slots imports feq

    equation = CLASS_EQUATIONS[class_id]
    deps = {dep: closed_form(dep, jet_order) for dep in equation.deps}
    return solve_slots(equation, deps, jet_order)


def closed_form_coefficient(class_id: str, m: int, n: int | None = None) -> int:
    """Independent closed forms: squares and rectangles exactly, the full
    class at q = 1 (Catalan numbers)."""
    if m < 2:
        raise ValueError("half-perimeter must be >= 2")
    if class_id == "full":
        if n is not None:
            raise ValueError("full-class closed form counts at q = 1 only")
        return catalan(m - 1)
    if n is None:
        raise ValueError("an area is required for this class")
    if class_id == "square":
        return 1 if m % 2 == 0 and (m // 2) ** 2 == n else 0
    if class_id == "rect":
        return sum(1 for a in range(1, m) if a * (m - a) == n)
    raise ValueError(f"no closed form for class {class_id!r}")


def series_rows(label: str, series: XSeries):
    """CSV rows for a class or orbit series: (label, m, n, coefficient) in
    exact mode, (label, m, k, jet coefficient) in jet mode."""
    rows = []
    if series.ring.key == "exact":
        for m, c in enumerate(series.coeffs):
            for d, v in c.c.items():
                rows.append((label, m, d, str(v)))
    else:
        for m, c in enumerate(series.coeffs):
            for k, v in enumerate(c.c):
                rows.append((label, m, k, str(v)))
    return rows
