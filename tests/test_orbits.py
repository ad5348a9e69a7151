import re
from fractions import Fraction as F

import pytest

from staircase import cli, orbits
from staircase.feq import solve_series
from staircase.moments import factorial_moments_from_series, power_moments
from staircase.orbits import (
    SUBGROUP_IDS,
    fix_map,
    orbit_series,
    ratio_rows,
    subexp_ratio_table,
)
from staircase.polygons import SUBGROUPS, enumerate_polygons, transform_cells
from staircase.series import DeltaJet, LaurentQPoly, XSeries, exact_ring, jet_ring


class TestFixMap:
    def test_table(self):
        assert fix_map("e") == "full"
        assert fix_map("r") == "square"
        assert fix_map("r3") == "square"
        assert fix_map("r2") == "r2"
        assert fix_map("h") == "rect"
        assert fix_map("v") == "rect"
        assert fix_map("d1") == "d1"
        assert fix_map("d2") == "d2"
        with pytest.raises(ValueError):
            fix_map("t")


def brute_orbit_counts(subgroup_id, max_m):
    """Count orbits directly: saturate each polygon's cell set under the
    subgroup and keep one canonical representative per orbit."""
    members = SUBGROUPS[subgroup_id]
    reps: dict = {}
    for p in enumerate_polygons(max_m):
        images = {tuple(sorted(transform_cells(g, p.cells()))) for g in members}
        key = (p.half_perimeter, p.area)
        reps.setdefault(key, set()).add(min(images))
    return {key: len(r) for key, r in reps.items()}


# The rectangles (both staircase orientations at once) fixed by each element.
RECT_FIXED_BY = {"e": "rect", "r2": "rect", "h": "rect", "v": "rect",
                 "r": "square", "r3": "square", "d1": "square", "d2": "square"}


def add(a, b, sign=1):
    """Coefficient-wise a + sign * b of two series of one ring and order."""
    return XSeries(a.ring, a.order, [x + y if sign > 0 else x - y
                                     for x, y in zip(a.coeffs, b.coeffs)])


def plain_average(subgroup_id, order, ring):
    """The plain Burnside average of the fixed-class series over the
    subgroup; it is the orbit series only for subgroups that map staircase
    polygons to staircase polygons, so its slots are Fractions that need not
    be integers."""
    members = SUBGROUPS[subgroup_id]
    total = solve_series(fix_map(members[0]), order, ring)
    for g in members[1:]:
        total = add(total, solve_series(fix_map(g), order, ring))
    n = len(members)
    return XSeries(ring, order, [DeltaJet(tuple(F(x, n) for x in c.c))
                                 for c in total.coeffs])


def per_element_burnside(subgroup_id, order, ring):
    """Size of the subgroup times its orbit series, one element at a time:
    the sum of the fixed-class series, doubled and less each element's fixed
    rectangles when the subgroup leaves the staircase family."""
    members = SUBGROUPS[subgroup_id]
    total = solve_series(fix_map(members[0]), order, ring)
    for g in members[1:]:
        total = add(total, solve_series(fix_map(g), order, ring))
    if not set(members) <= {"e", "r2", "d1", "d2"}:
        total = add(total, total)
        for g in members:
            total = add(total, solve_series(RECT_FIXED_BY[g], order, ring), -1)
    return total


class TestOrbitSeries:
    @pytest.mark.parametrize("ring", [exact_ring(), jet_ring(2)], ids=["exact", "jet2"])
    @pytest.mark.parametrize("subgroup", SUBGROUP_IDS)
    def test_matches_per_element_burnside_at_24(self, subgroup, ring):
        series = orbit_series(subgroup, 24, ring)
        total = per_element_burnside(subgroup, 24, ring)
        size = len(SUBGROUPS[subgroup])
        assert series.order == 24
        for m in range(25):
            assert series.coeffs[m] * size == total.coeffs[m], (subgroup, m)

    def test_trivial_subgroup_is_full_class(self):
        assert orbit_series("e", 14, exact_ring()) == solve_series("full", 14, exact_ring())

    @pytest.mark.parametrize("subgroup", SUBGROUP_IDS)
    def test_matches_brute_force_orbits(self, subgroup):
        series = orbit_series(subgroup, 7, exact_ring())
        want = brute_orbit_counts(subgroup, 7)
        got = {(m, n): v for m, c in enumerate(series.coeffs) for n, v in c.c.items()}
        assert got == want

    def test_exact_integrality_all_subgroups(self):
        for subgroup in SUBGROUP_IDS:
            series = orbit_series(subgroup, 24, exact_ring())
            for c in series.coeffs:
                assert all(v > 0 for v in c.c.values())

    def test_unit_square_is_one_orbit(self):
        for subgroup in SUBGROUP_IDS:
            series = orbit_series(subgroup, 4, exact_ring())
            assert dict(series.coeffs[2].c) == {1: 1}

    def test_larger_subgroups_have_fewer_orbits(self):
        at_q1 = {}
        for subgroup in SUBGROUP_IDS:
            series = orbit_series(subgroup, 20, jet_ring(0))
            at_q1[subgroup] = series.values_at_q1()
        for small, small_members in SUBGROUPS.items():
            for large, large_members in SUBGROUPS.items():
                if set(small_members) <= set(large_members):
                    for m in range(2, 21):
                        assert at_q1[large][m] <= at_q1[small][m], (small, large, m)

    def test_jet_mode_and_exact_mode_agree(self):
        for subgroup in ("d1d2", "d4", "r"):
            exact = orbit_series(subgroup, 12, exact_ring())
            jet = orbit_series(subgroup, 12, jet_ring(2))
            assert exact.collapse(2) == jet

    def test_unknown_subgroup(self):
        with pytest.raises(ValueError):
            orbit_series("c3", 8, exact_ring())


# One coefficient of the r2 series off by one, per ring: a q^5 term at x^6 in
# exact mode, slot 1 at x^6 in jet mode.
OFF_BY_ONE = {"exact": (LaurentQPoly.term(1, 5), "x^6 q^5"),
              ("jet", 2): (DeltaJet((0, 1, 0)), "x^6 delta^1")}


@pytest.fixture
def broken_r2(monkeypatch):
    def solve(class_id, order, ring):
        series = solve_series(class_id, order, ring)
        if class_id != "r2":
            return series
        coeffs = list(series.coeffs)
        coeffs[6] = coeffs[6] + OFF_BY_ONE[ring.key][0]
        return XSeries(ring, order, coeffs)

    monkeypatch.setattr(orbits, "solve_series", solve)


class TestBurnsideIntegrality:
    @pytest.mark.parametrize("ring", [exact_ring(), jet_ring(2)], ids=["exact", "jet2"])
    def test_violation_names_subgroup_and_term(self, broken_r2, ring):
        where = OFF_BY_ONE[ring.key][1]
        with pytest.raises(RuntimeError, match=re.escape(f"subgroup r2 at {where}") + "$"):
            orbit_series("r2", 12, ring)

    @pytest.mark.parametrize("mode", [[], ["--mode", "jet", "--jet", "2"]],
                             ids=["exact", "jet2"])
    def test_cli_exits_2(self, broken_r2, capsys, mode):
        assert cli.main(["orbits", "--subgroup", "r2", "--order", "12"] + mode) == 2
        assert "Burnside integrality violated" in capsys.readouterr().err


class TestBurnsideAverage:
    def test_full_group_formula(self):
        # average over the whole point group: (P + S + 2*Sq + D1 + D2 + 2*H)/8
        ring = jet_ring(1)
        avg = plain_average("d4", 12, ring)
        names = ("full", "r2", "square", "square", "d1", "d2", "rect", "rect")
        total = solve_series("full", 12, ring)
        for name in names[1:]:
            total = add(total, solve_series(name, 12, ring))
        for m in range(13):
            assert avg.coeffs[m] * 8 == total.coeffs[m]

    def test_average_equals_orbits_for_acting_subgroups(self):
        ring = jet_ring(0)
        for subgroup in ("e", "r2", "d1", "d2", "d1d2"):
            assert plain_average(subgroup, 14, ring) == orbit_series(subgroup, 14, ring)

    def test_moments_transfer_to_orbit_ensemble(self):
        # the orbit-ensemble area moments differ from the full-class ones by
        # at most m^(2k) * r_m / p_m
        ring = jet_ring(3)
        full = solve_series("full", 14, ring)
        for subgroup in ("d4", "d1d2", "r"):
            avg = plain_average(subgroup, 14, ring)
            p, r = _q1_counts(subgroup, 14)
            for m in range(10, 15):
                em_full = power_moments(factorial_moments_from_series(full, m, 3))
                em_orbit = power_moments(factorial_moments_from_series(avg, m, 3))
                for k in (1, 2, 3):
                    bound = F(m ** (2 * k)) * F(r[m], p[m])
                    assert abs(em_orbit[k] - em_full[k]) <= bound, (subgroup, m, k)


def _q1_counts(subgroup, order):
    from staircase.orbits import fixed_point_counts

    return fixed_point_counts(subgroup, order)


class TestSubexpRatios:
    def test_everything_fixes_the_unit_square(self):
        rows = subexp_ratio_table("d4", 0, [2])
        assert rows == [(2, F(7))]

    def test_trivial_subgroup_ratio_zero(self):
        assert subexp_ratio_table("e", 5, [4, 9]) == [(4, F(0)), (9, F(0))]

    def test_half_turn_cubed_ratio_decreases(self):
        rows = subexp_ratio_table("r2", 3, list(range(20, 41)))
        values = [v for _, v in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_fractional_alpha_needs_perfect_powers(self):
        assert subexp_ratio_table("d4", F(3, 2), [4])[0][0] == 4
        with pytest.raises(ValueError, match="irrational"):
            subexp_ratio_table("d4", F(1, 2), [3])

    def test_ratio_rows_format(self):
        rows = ratio_rows("d4", 0, [2], digits=6)
        assert rows == [("d4", "0", 2, 7, 1, "7.00000", 6)]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            subexp_ratio_table("d4", 1, [])
        with pytest.raises(ValueError):
            subexp_ratio_table("d4", 1, [1, 5])
