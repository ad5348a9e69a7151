"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line with its headline numbers
(run pytest with -s to watch them).
"""

from fractions import Fraction as F

import pytest

from staircase.feq import (
    CLASS_IDS,
    catalan,
    closed_form,
    closed_form_coefficient,
    solve_series,
)
from staircase.laws import (
    airy_coeff,
    class_limit_moment,
    meander_coeff,
    singular_coeff_full,
    singular_coeff_r2,
)
from staircase.moments import (
    SqrtScaled,
    convergence_report,
    extrapolate_sqrt,
    normalized_moment,
    relative_deviation,
)
from staircase.orbits import SUBGROUP_IDS, orbit_series, subexp_ratio_table
from staircase.polygons import enumerate_counts
from staircase.radicals import RadicalConstant
from staircase.series import exact_ring, jet_ring


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


@pytest.fixture(scope="module")
def enumerated_14():
    return enumerate_counts(14)


def test_criterion_1_oracle_equivalence(enumerated_14):
    """Every class series coefficient equals the brute-force count, m <= 14."""
    ring = exact_ring()
    checked = 0
    for cls in CLASS_IDS:
        series = solve_series(cls, 14, ring)
        for m in range(2, 15):
            assert dict(series.coeffs[m].c) == enumerated_14.class_slice(cls, m), (cls, m)
            checked += len(series.coeffs[m].c)
    _report(1, f"series == enumeration for 7 classes, m <= 14 ({checked} coefficients)")


def test_criterion_2_closed_forms():
    """Catalan counts to m = 30; squares and rectangles exactly to m = 60."""
    values = solve_series("full", 30, jet_ring(0)).values_at_q1()
    for m in range(2, 31):
        assert values[m] == catalan(m - 1), m

    ring = exact_ring()
    squares = solve_series("square", 60, ring)
    rects = solve_series("rect", 60, ring)
    for m in range(61):
        expected_sq = {(m // 2) ** 2: 1} if m % 2 == 0 and m >= 2 else {}
        assert dict(squares.coeffs[m].c) == expected_sq, m
        expected_rect: dict = {}
        for a in range(1, m):
            expected_rect[a * (m - a)] = expected_rect.get(a * (m - a), 0) + 1
        assert dict(rects.coeffs[m].c) == expected_rect, m
        for n, v in expected_rect.items():
            assert closed_form_coefficient("rect", m, n) == v
    _report(2, "Catalan m <= 30; square and rectangle series exact to m = 60")


def test_criterion_3_balance_identities():
    """Singular coefficients equal law coefficients up to powers of 2, k <= 20."""
    for k in range(21):
        assert singular_coeff_full(k) == F(1, 2 ** (2 * k + 1)) * airy_coeff(k), k
        assert singular_coeff_r2(k) == RadicalConstant(meander_coeff(k), -(3 * k + 1), 0), k
    _report(3, "both rescaling identities exact for k <= 20")


def test_criterion_3_solved_series_meet_the_laws():
    """The leading singular coefficients of the solved slots F_k equal the
    law sequences exactly: (1 - 4x)**(1/2 - 3k/2) in the full class for
    k = 1..4, (1 - 2x)**(-1/2 - 3k/2) in the r2 class for k = 0..4.  More
    singular terms vanish."""
    zero = RadicalConstant(F(0))
    for cls, x0, ks, lead, law in (
            ("full", F(1, 4), range(1, 5), lambda k: F(1 - 3 * k, 2),
             lambda k: RadicalConstant(singular_coeff_full(k))),
            ("r2", F(1, 2), range(5), lambda k: F(-1 - 3 * k, 2), singular_coeff_r2)):
        form = closed_form(cls, 4)
        for k in ks:
            assert form.singular_coefficient(k, x0, lead(k)) == law(k), (cls, k)
            # no pole is deeper than the degree of the denominator
            alpha = lead(k) - F(1, 2)
            while alpha >= -len(form.slots[k].d):
                assert form.singular_coefficient(k, x0, alpha) == zero, (cls, k, alpha)
                alpha -= F(1, 2)
    _report(3, "singular coefficients of the solved full (k <= 4) and r2 (k <= 4) "
               "slots equal the law sequences exactly")


M_LIST = [256, 1024, 4096]


def _check_convergence(cls, k, jet_order, tolerance):
    report = convergence_report(cls, k, M_LIST, jet_order=jet_order)
    devs = [abs(row.rel_dev) for row in report.rows]
    assert devs[0] > devs[1] > devs[2], (cls, k, devs)
    fitted = extrapolate_sqrt([(row.m, row.normalized) for row in report.rows])
    fit_dev = relative_deviation(SqrtScaled(F(fitted)), class_limit_moment(cls, k))
    assert abs(fit_dev) < tolerance, (cls, k, fit_dev)
    return devs, fit_dev


def test_criterion_4_airy_convergence():
    """Full class: normalized moments approach the scaled Airy moments."""
    lines = []
    for k in (1, 2):
        devs, fit_dev = _check_convergence("full", k, jet_order=2, tolerance=F(1, 100))
        lines.append(f"k={k} devs {float(devs[0]):.2e}>{float(devs[1]):.2e}>"
                     f"{float(devs[2]):.2e}, extrapolation off by {float(abs(fit_dev)):.1e}")
    _report(4, "full-class Airy convergence at m in {256,1024,4096}; " + "; ".join(lines))


def test_criterion_5_meander_convergence():
    """r2, d2 and d1d2 classes: normalized means approach the scaled meander mean."""
    lines = []
    for cls in ("r2", "d2", "d1d2"):
        devs, fit_dev = _check_convergence(cls, 1, jet_order=1, tolerance=F(15, 1000))
        lines.append(f"{cls} extrapolation off by {float(abs(fit_dev)):.1e}")
    _report(5, "meander-law convergence for r2/d2/d1d2; " + "; ".join(lines))


def test_criterion_6_rectangles_exact_law():
    """Rectangles: normalized mean equals 2/3 + 2/(3m) exactly; higher
    moments at m = 2000 within 0.5 percent of the beta moments."""
    samples = list(range(2, 21)) + [50, 100, 999, 2048, 5000, 10000]
    solve_series("rect", 10000, jet_ring(1))  # later calls read the cache
    for m in samples:
        value = normalized_moment("rect", m, 1)
        assert value.is_rational and value.rational == F(2, 3) + F(2, 3 * m), m

    solve_series("rect", 2000, jet_ring(4))
    for k in range(1, 5):
        value = normalized_moment("rect", 2000, k)
        target = class_limit_moment("rect", k).r
        assert abs(value.rational / target - 1) < F(5, 1000), k
    _report(6, f"normalized mean exact at {len(samples)} sampled m <= 10^4; "
               "k <= 4 within 0.5% at m = 2000")


def test_criterion_7_squares_concentrated():
    """Squares: every normalized moment is exactly 1."""
    solve_series("square", 64, jet_ring(3))
    for m in range(1, 33):
        for k in range(4):
            value = normalized_moment("square", m, k)
            assert value.is_rational and value.rational == 1, (m, k)
    _report(7, "normalized moments identically 1 at quarter-perimeters 1..32, k <= 3")


def test_criterion_8_burnside_and_subexponential_ratio():
    """Orbit counts are nonnegative integers for all ten subgroups to m = 40;
    the cubed-index fixed/total ratio for the full point group decays to zero.

    The d4 ratio is not monotone on consecutive indices (see the xfail test
    below): squares and the diagonal classes are empty at odd half-perimeter,
    so r_m sawtooths with parity.  Strict decrease holds along each parity
    class, and on all of 20..60 for the half-turn subgroup, whose fixed
    counts have no parity gaps."""
    ring = exact_ring()
    for subgroup in SUBGROUP_IDS:
        series = orbit_series(subgroup, 40, ring)
        for c in series.coeffs:
            assert all(v > 0 for v in c.c.values()), subgroup

    values = dict(subexp_ratio_table("d4", 3, list(range(20, 61))))
    for start in (20, 21):
        chain = [values[m] for m in range(start, 61, 2)]
        assert all(b < a for a, b in zip(chain, chain[1:])), start
    assert values[60] < values[20] / 10**9

    r2_values = [v for _, v in subexp_ratio_table("r2", 3, list(range(20, 61)))]
    assert all(b < a for a, b in zip(r2_values, r2_values[1:]))
    _report(8, "orbit integrality (10 subgroups, m <= 40); m^3 r_m/p_m strictly "
               "decreasing per parity class for d4 (and on all of 20..60 for r2), "
               f"falling {float(values[20] / values[60]):.1e}-fold overall")


@pytest.mark.xfail(strict=True,
                   reason="false as stated: squares and diagonal-symmetric "
                          "polygons exist only at even half-perimeter, so the "
                          "d4 fixed count r_m jumps at every even m; e.g. "
                          "r_25/p_25 = 2704204/1289904147324 < r_26/p_26 = "
                          "10608664/4861946401452, and m^3 amplifies the step")
def test_criterion_8_ratio_strictly_decreasing_on_consecutive_indices():
    rows = subexp_ratio_table("d4", 3, list(range(20, 61)))
    values = [v for _, v in rows]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_criterion_9_cross_ring_consistency():
    """Jet-mode and exact-mode solutions agree for all classes, m <= 20, K <= 4."""
    ring = exact_ring()
    for cls in CLASS_IDS:
        exact = solve_series(cls, 20, ring)
        for K in range(5):
            assert exact.collapse(K) == solve_series(cls, 20, jet_ring(K)), (cls, K)
    _report(9, "exact and jet pipelines agree for all classes, m <= 20, K <= 4")
