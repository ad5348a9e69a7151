"""Finite-size area moments per symmetry class and convergence reporting.

In the uniform fixed-perimeter ensemble the k-th factorial moment of the
area at half-perimeter m is k! times the ratio of jet slot k to jet slot 0
of the solved series.  Power moments follow by the Stirling-number change of
basis.  Normalized moments divide by the class scaling (a half-integer power
of the perimeter index), which is kept exact: values are rationals times the
square root of a declared integer, and nothing is rounded before the final
decimal rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .feq import solve_series
from .laws import class_binding, class_limit_moment, class_normalizer
from .radicals import RadicalConstant, approx_scaled, fixed_scaled
from .series import XSeries, jet_ring

DEVIATION_BITS = 128  # ~38 decimal digits for deviation comparisons


@dataclass(frozen=True)
class SqrtScaled:
    """Exact value rational * sqrt(root); perfect-square roots are folded."""

    rational: Fraction
    root: int = 1

    def __post_init__(self):
        if self.root < 1:
            raise ValueError("root must be a positive integer")
        s = math.isqrt(self.root)
        if s * s == self.root:
            object.__setattr__(self, "rational", self.rational * s)
            object.__setattr__(self, "root", 1)

    @property
    def is_rational(self) -> bool:
        return self.root == 1

    def approx(self, digits: int) -> str:
        return approx_scaled(self.rational, 0, 0, digits, self.root)

    def exact_str(self) -> str:
        if self.root == 1:
            return str(self.rational)
        return f"{self.rational}*sqrt({self.root})"

    def __str__(self):
        return self.exact_str()


def relative_deviation(value: SqrtScaled, target: RadicalConstant) -> Fraction:
    """value / target - 1 as a rational accurate to DEVIATION_BITS bits."""
    if target.r == 0:
        raise ZeroDivisionError("relative deviation against a zero target")
    ratio = value.rational / target.r
    fixed = fixed_scaled(ratio, -target.a, -target.b, DEVIATION_BITS, value.root)
    return Fraction(fixed - (1 << DEVIATION_BITS), 1 << DEVIATION_BITS)


@lru_cache(maxsize=None)
def stirling2(k: int, j: int) -> int:
    """Stirling numbers of the second kind."""
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)


def factorial_moments_from_series(series: XSeries, m: int, k_max: int) -> list:
    """E[(X_m)_k] for k = 0..k_max from a jet-mode series.

    Slot j of the coefficient of x**m stores the j-th q-derivative over j!,
    so the k-th factorial moment is k! * slot_k / slot_0."""
    if series.ring.jet_order is None:
        raise ValueError("factorial moments need a jet-mode series")
    if series.ring.jet_order < k_max:
        raise ValueError("jet order too small for the requested moments")
    jet = series.coeff(m)
    total = jet.c[0]
    if total == 0:
        raise ValueError(f"class empty at this perimeter (index {m})")
    return [Fraction(math.factorial(k) * jet.c[k], total)
            for k in range(k_max + 1)]


def factorial_moments(class_id: str, m: int, k_max: int) -> list:
    """E[(X_m)_k] for k = 0..k_max; m is the half-perimeter (series index)."""
    series = solve_series(class_id, max(m, 2), jet_ring(k_max))
    return factorial_moments_from_series(series, m, k_max)


def power_moments(factorials) -> list:
    """Ordinary moments E[X^k] from factorial moments via Stirling numbers."""
    factorials = list(factorials)
    k_max = len(factorials) - 1
    return [sum(stirling2(k, j) * factorials[j] for j in range(k + 1))
            for k in range(k_max + 1)]


def _half_perimeter(class_id: str, m: int) -> int:
    binding = class_binding(class_id)
    return m if binding.index == "half" else 2 * m


def _moments_at(class_id: str, series: XSeries, m: int, k: int) -> tuple:
    """(factorial, power, normalized) k-th moments at index m of the class's
    own perimeter convention."""
    facts = factorial_moments_from_series(series, _half_perimeter(class_id, m), k)
    power = power_moments(facts)[k]
    rational, root = class_normalizer(class_id, m, k)
    return facts[k], power, SqrtScaled(power * rational, root)


def normalized_moment(class_id: str, m: int, k: int) -> SqrtScaled:
    """E[X_m^k] divided by the class scaling; m is counted in the class's own
    perimeter convention (half- or quarter-perimeter)."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    half_m = _half_perimeter(class_id, m)
    series = solve_series(class_id, max(half_m, 2), jet_ring(k))
    return _moments_at(class_id, series, m, k)[2]


@dataclass(frozen=True)
class MomentRow:
    m: int
    factorial_moment: Fraction
    power_moment: Fraction
    normalized: SqrtScaled
    limit: RadicalConstant
    rel_dev: Fraction


@dataclass(frozen=True)
class MomentReport:
    """Convergence of the normalized k-th moment of one class toward its
    limit-law target along a list of perimeter indices."""

    class_id: str
    k: int
    rows: tuple

    def csv_rows(self, digits: int = 15):
        out = []
        for row in self.rows:
            out.append((self.class_id, self.k, row.m,
                        str(row.factorial_moment), str(row.power_moment),
                        row.normalized.exact_str(), row.limit.exact_str(),
                        approx_scaled(row.rel_dev, 0, 0, digits), digits))
        return out

    def plot_rows(self, digits: int = 15):
        return [(row.m, row.normalized.approx(digits)) for row in self.rows]


def convergence_report(class_id: str, k: int, m_list,
                       jet_order: int | None = None) -> MomentReport:
    """Normalized k-th moments at the given indices with deviations from the
    limit moment; m_list must be strictly increasing.  jet_order (default k)
    lets several reports share one solved series."""
    m_list = list(m_list)
    if not m_list:
        raise ValueError("need at least one perimeter index")
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("perimeter indices must be strictly increasing")
    if jet_order is None:
        jet_order = k
    if jet_order < k:
        raise ValueError("jet order too small for the requested moments")
    limit = class_limit_moment(class_id, k)
    max_half = _half_perimeter(class_id, m_list[-1])
    series = solve_series(class_id, max(max_half, 2), jet_ring(jet_order))
    rows = []
    for m in m_list:
        factorial, power, normalized = _moments_at(class_id, series, m, k)
        rows.append(MomentRow(m, factorial, power, normalized, limit,
                              relative_deviation(normalized, limit)))
    return MomentReport(class_id, k, tuple(rows))


def extrapolate_sqrt(points):
    """Least-squares fit of v(m) = a + b / sqrt(m), returning a.

    Exact (Fraction) when every m is a perfect square and every value is
    rational; float arithmetic otherwise."""
    points = list(points)
    if len(points) < 3:
        raise ValueError("degenerate fit: need at least 3 points")
    exact = True
    us = []
    vs = []
    for m, v in points:
        if isinstance(v, SqrtScaled):
            if not v.is_rational:
                exact = False
                v = float(v.rational) * math.sqrt(v.root)
            else:
                v = v.rational
        root = math.isqrt(m)
        if root * root == m and not isinstance(v, float):
            us.append(Fraction(1, root))
            vs.append(Fraction(v))
        else:
            exact = False
            us.append(1.0 / math.sqrt(m))
            vs.append(float(v))
    if not exact:
        us = [float(u) for u in us]
        vs = [float(v) for v in vs]
    n = len(points)
    su = sum(us)
    suu = sum(u * u for u in us)
    sv = sum(vs)
    suv = sum(u * v for u, v in zip(us, vs))
    det = n * suu - su * su
    if det == 0:
        raise ValueError("degenerate fit: sample points are collinear in m")
    return (suu * sv - su * suv) / det
