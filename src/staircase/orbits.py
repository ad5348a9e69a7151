"""Orbit counting for subgroups of the lattice point group via Burnside.

Every group element fixes exactly one of the seven class series (the quarter
turns fix squares, the half turn the r2 class, axis reflections rectangles),
so orbit generating functions are cheap combinations of already solved
series.

Only the four elements e, r2, d1, d2 map staircase polygons to staircase
polygons.  A subgroup inside that Klein four-group acts on the family, and
its orbit series is the plain Burnside average of the fixed-class series.  A
subgroup containing a quarter turn or an axis reflection acts instead on the
family's saturation (staircase shapes in both orientations, which overlap
exactly in the rectangles), and Burnside over the saturation doubles the
average and subtracts each element's fixed rectangles.  Either way the
result counts honest orbits, so every coefficient must come out a
nonnegative integer (in jet mode slot k sums C(area, k) over the orbits),
which cross-checks all seven solvers at once.
"""

from __future__ import annotations

from fractions import Fraction

from .feq import solve_series
from .polygons import SUBGROUPS
from .series import XSeries, jet_ring

SUBGROUP_IDS = tuple(SUBGROUPS)

# Which class series counts the polygons fixed by each group element.
FIX_CLASSES = {
    "e": "full",
    "r": "square",
    "r2": "r2",
    "r3": "square",
    "h": "rect",
    "v": "rect",
    "d1": "d1",
    "d2": "d2",
}

# Elements mapping the staircase family to itself.
FAMILY_PRESERVING = frozenset({"e", "r2", "d1", "d2"})

# Within the rectangles (the overlap of the two staircase orientations),
# the polygons fixed by each element.
_RECT_FIX = {
    "e": "rect", "r2": "rect", "h": "rect", "v": "rect",
    "r": "square", "r3": "square", "d1": "square", "d2": "square",
}


def fix_map(element: str) -> str:
    try:
        return FIX_CLASSES[element]
    except KeyError:
        raise ValueError(f"unknown symmetry element: {element!r}") from None


def subgroup_elements(subgroup_id: str) -> tuple:
    try:
        return SUBGROUPS[subgroup_id]
    except KeyError:
        raise ValueError(f"unknown subgroup: {subgroup_id!r}") from None


def _burnside_sum(elements, saturated: bool, order: int, ring) -> XSeries:
    """Sum over the elements of their fixed-class series; over the saturation
    each element counts its fixed class twice and its fixed rectangles once
    negatively.  Each class series is added once, times its multiplicity
    (for d4 the rect and square multiplicities cancel to 0)."""
    weights: dict = {}
    for g in elements:
        cls = fix_map(g)
        weights[cls] = weights.get(cls, 0) + (2 if saturated else 1)
        if saturated:
            weights[_RECT_FIX[g]] = weights.get(_RECT_FIX[g], 0) - 1
    terms = [(w, solve_series(cls, order, ring).coeffs)
             for cls, w in weights.items() if w]
    coeffs = [sum((series[m] * w for w, series in terms), ring.zero)
              for m in range(order + 1)]
    return XSeries(ring, order, coeffs)


def _divided(series: XSeries, size: int, subgroup_id: str) -> XSeries:
    if size == 1:
        return series
    out = []
    for m, c in enumerate(series.coeffs):
        try:
            out.append(c.divide_exact(size))
        except ArithmeticError as exc:
            raise RuntimeError(
                "Burnside integrality violated for subgroup "
                f"{subgroup_id} at x^{m} {c.variable}^{exc.args[0]}") from None
    return XSeries(series.ring, series.order, out)


def orbit_series(subgroup_id: str, order: int, ring) -> XSeries:
    """Generating function of staircase polygon orbits under the subgroup,
    to x**order: coefficient of x^m q^n counts polygons of half-perimeter m
    and area n with symmetric copies identified."""
    elements = subgroup_elements(subgroup_id)
    saturated = not FAMILY_PRESERVING.issuperset(elements)
    total = _burnside_sum(elements, saturated, order, ring)
    return _divided(total, len(elements), subgroup_id)


def fixed_point_counts(subgroup_id: str, order: int) -> tuple:
    """Per half-perimeter at q = 1: (total polygon counts, counts fixed by
    some nontrivial element of the subgroup, summed with multiplicity)."""
    ring = jet_ring(0)
    nontrivial = [g for g in subgroup_elements(subgroup_id) if g != "e"]
    p = solve_series("full", order, ring).values_at_q1()
    r = _burnside_sum(nontrivial, False, order, ring).values_at_q1()
    return p, r


def subexp_ratio_table(subgroup_id: str, alpha, m_values) -> list:
    """Rows (m, m**alpha * r_m / p_m) exactly, where r_m counts polygons of
    half-perimeter m fixed by nontrivial subgroup elements and p_m counts all
    polygons.  alpha is a rational; m**alpha must itself be rational, so a
    fractional alpha requires perfect-power indices."""
    alpha = Fraction(alpha)
    m_values = list(m_values)
    if not m_values:
        raise ValueError("need at least one perimeter index")
    if min(m_values) < 2:
        raise ValueError("half-perimeter indices start at 2")
    p, r = fixed_point_counts(subgroup_id, max(m_values))
    rows = []
    for m in m_values:
        rows.append((m, _rational_power(m, alpha) * Fraction(r[m], p[m])))
    return rows


def _rational_power(m: int, alpha: Fraction) -> Fraction:
    if alpha.denominator == 1:
        return Fraction(m) ** alpha.numerator
    root = round(m ** (1.0 / alpha.denominator))
    for candidate in (root - 1, root, root + 1):
        if candidate > 0 and candidate**alpha.denominator == m:
            return Fraction(candidate) ** alpha.numerator
    raise ValueError(
        f"m**({alpha}) is irrational for m={m}; use integer alpha or perfect powers")


def ratio_rows(subgroup_id: str, alpha, m_values, digits: int = 15):
    """CSV rows (subgroup, alpha, m, ratio_num, ratio_den, ratio_decimal, digits)."""
    from .radicals import approx_scaled

    alpha = Fraction(alpha)
    rows = []
    for m, value in subexp_ratio_table(subgroup_id, alpha, m_values):
        rows.append((subgroup_id, str(alpha), m, value.numerator,
                     value.denominator, approx_scaled(value, 0, 0, digits), digits))
    return rows
