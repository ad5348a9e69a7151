from fractions import Fraction as F

import pytest

from staircase import feq
from staircase.feq import CLASS_IDS, clear_cache, solve_series
from staircase.laws import class_limit_moment
from staircase.moments import (
    SqrtScaled,
    convergence_report,
    extrapolate_sqrt,
    factorial_moments,
    factorial_moments_from_series,
    normalized_moment,
    power_moments,
    relative_deviation,
    stirling2,
)
from staircase.polygons import enumerate_counts
from staircase.series import jet_ring


def falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


class TestFactorialMoments:
    def test_unit_square_only(self):
        assert factorial_moments("full", 2, 1) == [1, 1]

    def test_half_perimeter_four_by_hand(self):
        # areas 3,3,3,3,4: mean 16/5, second factorial moment 36/5
        assert factorial_moments("full", 4, 2) == [1, F(16, 5), F(36, 5)]

    def test_rect_mean_closed_form(self):
        for m in (2, 3, 17, 60):
            assert factorial_moments("rect", m, 1)[1] == F(m * (m + 1), 6)

    def test_matches_enumeration_for_every_class(self):
        table = enumerate_counts(10)
        for cls in CLASS_IDS:
            series = solve_series(cls, 10, jet_ring(3))
            for m in range(2, 11):
                slice_ = table.class_slice(cls, m)
                if not slice_:
                    with pytest.raises(ValueError, match="class empty"):
                        factorial_moments_from_series(series, m, 3)
                    continue
                total = sum(slice_.values())
                got = factorial_moments_from_series(series, m, 3)
                for k in range(4):
                    want = F(sum(falling(n, k) * c for n, c in slice_.items()), total)
                    assert got[k] == want, (cls, m, k)

    def test_moments_vanish_beyond_max_area(self):
        # at half-perimeter 3 the largest area is 2, so the third factorial
        # moment is zero
        assert factorial_moments("full", 3, 3)[3] == 0

    def test_empty_class_reported(self):
        with pytest.raises(ValueError, match="class empty at this perimeter"):
            factorial_moments("d1", 5, 1)

    def test_jet_order_must_cover_k(self):
        series = solve_series("full", 6, jet_ring(1))
        with pytest.raises(ValueError, match="jet order"):
            factorial_moments_from_series(series, 4, 2)


class TestPowerMoments:
    def test_identity_in_first_order(self):
        assert power_moments([1, F(7, 2)]) == [1, F(7, 2)]

    def test_constant_variable(self):
        assert power_moments([1, 1, 0]) == [1, 1, 1]

    def test_half_perimeter_four_squares(self):
        # E[X^2] = E[(X)_2] + E[X] = 36/5 + 16/5 = 52/5
        assert power_moments([1, F(16, 5), F(36, 5)])[2] == F(52, 5)

    def test_stirling_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(3, 0) == 0

    def test_jensen_inequality(self):
        for cls in CLASS_IDS:
            series = solve_series(cls, 12, jet_ring(2))
            step = 2 if cls in ("d1", "d2", "d1d2", "square") else 1
            for m in range(2, 13, step):
                p = power_moments(factorial_moments_from_series(series, m, 2))
                assert p[2] >= p[1] ** 2, (cls, m)


class TestNormalizedMoments:
    def test_rect_exact_form(self):
        for m in (2, 9, 64, 333):
            value = normalized_moment("rect", m, 1)
            assert value.is_rational
            assert value.rational == F(2, 3) + F(2, 3 * m)

    def test_square_concentration(self):
        for m in (1, 2, 3, 10):
            for k in (1, 2, 3):
                value = normalized_moment("square", m, k)
                assert value.is_rational and value.rational == 1

    def test_quarter_perimeter_indexing(self):
        # d1 polygons live at even half-perimeters; index 3 means x^6
        series = solve_series("d1", 6, jet_ring(1))
        mean = factorial_moments_from_series(series, 6, 1)[1]
        value = normalized_moment("d1", 3, 1)
        assert value.root == 3
        assert value.rational == mean / 27 * 3  # 3^(-3/2) = (1/27)*sqrt(3)... via 1/9/sqrt(3)

    def test_lower_moments_reuse_a_higher_jet_solve(self, monkeypatch):
        clear_cache()
        want = [normalized_moment("full", 4000, k) for k in (1, 2, 3)]
        clear_cache()
        solve_series("full", 4000, jet_ring(4))
        keys = set(feq._SOLVE_CACHE)
        built = []
        real = feq._build_closed_form

        def counting(class_id, jet_order):
            built.append((class_id, jet_order))
            return real(class_id, jet_order)

        monkeypatch.setattr(feq, "_build_closed_form", counting)
        got = [normalized_moment("full", 4000, k) for k in (1, 2, 3)]
        assert built == []
        assert set(feq._SOLVE_CACHE) == keys == {("full", ("jet", 4))}
        assert got == want
        clear_cache()

    def test_perfect_square_index_collapses_root(self):
        value = normalized_moment("full", 16, 1)
        assert value.is_rational

    def test_positive_and_bounded(self):
        report = convergence_report("full", 1, [4, 16, 36, 64])
        for row in report.rows:
            assert row.power_moment > 0
            assert 0 < row.normalized.rational < 1


class TestSqrtScaled:
    def test_perfect_square_folds(self):
        assert SqrtScaled(F(1, 2), 16) == SqrtScaled(F(2), 1)

    def test_rendering(self):
        assert SqrtScaled(F(3, 4), 2).exact_str() == "3/4*sqrt(2)"
        assert SqrtScaled(F(3, 4)).exact_str() == "3/4"
        assert SqrtScaled(F(1, 4), 4).approx(3) == "0.500"

    def test_deviation_exact_direction(self):
        target = class_limit_moment("rect", 1)  # 2/3
        dev = relative_deviation(SqrtScaled(F(2, 3) + F(1, 300)), target)
        assert abs(dev - F(1, 200)) < F(1, 10**20)


class TestConvergenceReport:
    def test_rect_report_rows(self):
        report = convergence_report("rect", 1, [10, 100, 1000])
        devs = [row.rel_dev for row in report.rows]
        # deviation is exactly 1/m here
        for (m, dev) in zip((10, 100, 1000), devs):
            assert abs(dev - F(1, m)) < F(1, 10**20)
        assert report.csv_rows()[0][0] == "rect"

    def test_monotone_input_required(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_report("full", 1, [8, 8, 16])

    def test_empty_index_list_rejected(self):
        with pytest.raises(ValueError, match="need at least one perimeter index"):
            convergence_report("full", 1, [])

    def test_shared_jet_order(self):
        a = convergence_report("full", 1, [4, 9, 25])
        b = convergence_report("full", 1, [4, 9, 25], jet_order=2)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.normalized == rb.normalized
        with pytest.raises(ValueError, match="jet order"):
            convergence_report("full", 2, [4, 9], jet_order=1)


class TestExtrapolation:
    def test_known_tail_recovers_constant(self):
        pts = [(m, F(2, 3) + F(2, 3 * m)) for m in (64, 256, 1024)]
        a = extrapolate_sqrt(pts)
        assert abs(a - F(2, 3)) < F(1, 100) * F(2, 3)

    def test_constant_sequence(self):
        assert extrapolate_sqrt([(4, F(1)), (16, F(1)), (64, F(1))]) == 1

    def test_model_matching_data_is_exact(self):
        pts = [(64, 3 + F(1, 8)), (256, 3 + F(1, 16)), (1024, 3 + F(1, 32))]
        assert extrapolate_sqrt(pts) == 3

    def test_float_fallback(self):
        pts = [(3, 1.0 + 3 ** -0.5), (5, 1.0 + 5 ** -0.5), (7, 1.0 + 7 ** -0.5)]
        assert abs(extrapolate_sqrt(pts) - 1.0) < 1e-12

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError, match="degenerate"):
            extrapolate_sqrt([(4, F(1)), (16, F(1))])
        with pytest.raises(ValueError, match="degenerate"):
            extrapolate_sqrt([(4, F(1)), (4, F(2)), (4, F(3))])
