"""The slot interpreter: jet-mode class series in closed form.

Put q = 1 + delta in a class equation.  Slot k of every node of its tree (the
delta**k part) is then an element of Q(x)[sqrt r] (``staircase.surds``), and
depends on slot k of the unknown, U = F_k, as a Mobius form
(a*U + b)/(c*U + d), because the unknown occurs once in every right-hand
side.  For k >= 1 the form is affine (c = 0) and F_k = b/(1 - a); in slot 0
the unknown may sit under a reciprocal, and F_0 is the root of a quadratic
that is a power series with valuation >= 2.  Slots are solved in order, each
from the settled slots below it, and integer coefficients are then read off
to any order in linear time.

The rules per node type mirror the lazy interpreter in ``feq``:

* ``_SubXQ``: slot k is sum over l of C(theta, l) applied to slot k - l,
  theta = x d/dx;
* ``_SubX2Q2``: x -> x**2 and delta -> 2*delta + delta**2;
* ``_MonoMul``: shift by x**a times the binomial jet of q**b;
* ``_Recip``: slot k is -R_0 * sum_{i>=1} a_i * R_{k-i}.

This module is imported on the first solve in either ring: every exact solve
is checked against the counts at q = 1 that slot 0 gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import feq
from .radicals import RadicalConstant
from .series import DeltaJet, XSeries, _binomial, jet_ring
from .surds import Surd, local_coefficient, read_coefficients, solve_quadratic


class _Mobius:
    """(a*U + b) / (c*U + d) over Q(x)[sqrt r], U the unknown's slot being
    solved; affine forms (c = 0) are kept with d = 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c=0, d=1):
        if not c and d != 1:
            a, b, d = a / d, b / d, 1
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def known(self) -> bool:
        return not self.a and not self.c

    def plus(self, v) -> "_Mobius":
        return _Mobius(self.a + v * self.c, self.b + v * self.d, self.c, self.d)

    def __add__(self, other):
        if other.known:
            return self.plus(other.b)
        if self.known:
            return other.plus(self.b)
        if self.c or other.c:
            raise RuntimeError("the unknown occurs twice around a reciprocal")
        return _Mobius(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return _Mobius(-self.a, -self.b, self.c, self.d)

    def scale(self, v) -> "_Mobius":
        return _Mobius(self.a * v, self.b * v, self.c, self.d)

    def __mul__(self, other):
        if other.known:
            return self.scale(other.b)
        if self.known:
            return other.scale(self.b)
        raise RuntimeError("the unknown occurs in both factors of a product")

    def recip(self) -> "_Mobius":
        return _Mobius(self.c, self.d, self.a, self.b)

    def at(self, u: Surd) -> Surd:
        if self.known:
            return Surd.lift(self.b)
        return (self.a * u + self.b) / (self.c * u + self.d)


def _known(value) -> _Mobius:
    return _Mobius(0, value)


class _Interpreter:
    """Slots of every node of one tree: settled values below the slot being
    solved, and each node's form in the current slot."""

    def __init__(self):
        self.slots: dict = {}
        self.forms: dict = {}

    def form(self, node, k: int) -> _Mobius:
        pending = self.forms.get(node)
        if pending is None or pending[0] != k:
            pending = self.forms[node] = (k, _RULES[type(node)](self, node, k))
        return pending[1]

    def settled(self, node) -> list:
        return self.slots.setdefault(node, [])

    def term(self, node, i: int, k: int) -> _Mobius:
        """Slot i while slot k is being solved."""
        return self.form(node, k) if i == k else _known(self.slots[node][i])

    def settle(self, value: Surd):
        """Fix every pending slot now that the unknown's slot equals value.
        Solving slot k asks every node of the tree for its form in slot k,
        and forms read no settled value, so their order does not matter."""
        for node, (k, form) in self.forms.items():
            done = self.settled(node)
            if len(done) == k:
                done.append(form.at(value))

    # -- one rule per node type ----------------------------------------------

    def _unknown(self, node, k):
        return _Mobius(1, 0)

    def _const(self, node, k):
        return _known(node.series.slots[k])

    def _lin(self, node, k):
        poly = [0] * (max(node.poly, default=-1) + 1)
        for d, v in node.poly.items():
            poly[d] = v.c[k]
        acc = _known(Surd(poly))
        for child, sign in node.terms:
            acc = acc + (self.form(child, k) if sign > 0 else -self.form(child, k))
        return acc

    def _mul(self, node, k):
        acc = _known(0)
        for i in range(k + 1):
            acc = acc + self.term(node.a, i, k) * self.term(node.b, k - i, k)
        return acc

    def _recip(self, node, k):
        if k == 0:
            return self.form(node.a, 0).recip()
        inverse = self.slots[node]
        acc = _known(0)
        for i in range(1, k + 1):
            acc = acc + self.term(node.a, i, k).scale(inverse[k - i])
        return acc.scale(-inverse[0])

    def _sub_xq(self, node, k):
        acc = self.form(node.a, k)
        for l in range(1, k + 1):
            acc = acc + _known(self.slots[node.a][k - l].binomial_theta(l))
        return acc

    def _sub_x2q2(self, node, k):
        top = self.form(node.a, k)
        if not top.known:
            raise RuntimeError("the unknown under an (x^2, q^2) substitution")
        values = self.settled(node.a)[:k] + [Surd.lift(top.b)]
        acc = Surd(())
        for i in range((k + 1) // 2, k + 1):
            acc = acc + values[i].spread(2) * (math.comb(i, k - i) * 2 ** (2 * i - k))
        return _known(acc)

    def _mono_mul(self, node, k):
        acc = _known(0)
        for i in range(k + 1):
            acc = acc + self.term(node.a, i, k).scale(_binomial(node.q_deg, k - i))
        return acc.scale(Surd.x_power(node.x_deg))


_RULES = {
    feq._Unknown: _Interpreter._unknown,
    feq._Const: _Interpreter._const,
    feq._Lin: _Interpreter._lin,
    feq._Mul: _Interpreter._mul,
    feq._Recip: _Interpreter._recip,
    feq._SubXQ: _Interpreter._sub_xq,
    feq._SubX2Q2: _Interpreter._sub_x2q2,
    feq._MonoMul: _Interpreter._mono_mul,
}


def _fixed_point(form: _Mobius) -> Surd:
    """Solve U = (a*U + b)/(c*U + d).  For c = 0 the solution is affine;
    otherwise take the root of c*U**2 + (d - a)*U - b = 0 that is an
    integer power series with valuation >= 2."""
    if not form.c:
        return Surd.lift(form.b) / (1 - form.a)
    for root in solve_quadratic(form.c, form.d - form.a, -form.b):
        try:
            (head,) = read_coefficients([root], 1)
        except RuntimeError:  # not an integer power series
            continue
        if not any(head):
            return root
    raise RuntimeError("no root of the slot-0 equation has valuation >= 2")


@dataclass(frozen=True)
class ClosedForm:
    """Slots F_0..F_K of a class's jet-mode series as exact elements of
    Q(x)[sqrt r]."""

    class_id: str
    slots: tuple

    @property
    def ring(self):
        return jet_ring(len(self.slots) - 1)

    def prefix(self, jet_order: int) -> "ClosedForm":
        return ClosedForm(self.class_id, self.slots[: jet_order + 1])

    def series(self, order: int) -> XSeries:
        """The jet series to x**order, read off the closed forms."""
        columns = read_coefficients(self.slots, order)
        for k, column in enumerate(columns):
            if column[0] or column[1]:
                raise RuntimeError(
                    f"slot {k} of class {self.class_id} has a term below x^2")
        return XSeries(self.ring, order, [DeltaJet(c) for c in zip(*columns)])

    def singular_coefficient(self, k: int, x0, alpha) -> RadicalConstant:
        """Coefficient of (1 - x/x0)**alpha in the expansion of slot k around
        x0, a simple root of its radicand."""
        value, root = local_coefficient(self.slots[k], x0, alpha)
        if root not in (1, 2):
            raise ValueError(f"sqrt({root}) is outside the radical ring")
        return RadicalConstant(value, 1 if root == 2 else 0, 0)


def solve_slots(equation, deps: dict, jet_order: int) -> ClosedForm:
    """Slots 0..jet_order of the class's equation, with its prerequisite
    classes given as closed forms of at least that jet order."""
    unknown = feq._Unknown(jet_ring(jet_order), val=2, stride=equation.stride)
    rhs = equation.build(unknown, deps, unknown.ring)
    run = _Interpreter()
    slots = []
    for k in range(jet_order + 1):
        slots.append(_fixed_point(run.form(rhs, k)))
        run.settle(slots[k])
        if run.slots[rhs][k] != slots[k]:
            raise RuntimeError(
                f"slot {k} of class {equation.class_id} is not a fixed point")
    return ClosedForm(equation.class_id, tuple(slots))
