import pytest

from staircase.feq import CLASS_IDS
from staircase.polygons import (
    ELEMENTS,
    SUBGROUPS,
    Polygon,
    compose,
    enumerate_counts,
    enumerate_polygons,
    inverse,
    is_fixed,
    symmetry_signature,
    transform_cells,
)

UNIT_SQUARE = Polygon.from_columns([(0, 1)])
RECT_1x2 = Polygon.from_columns([(0, 1), (0, 1)])  # two cells wide, one tall
RECT_1x3 = Polygon.from_columns([(0, 1), (0, 1), (0, 1)])
BEND = Polygon.from_columns([(0, 2), (1, 2)])  # area-3 bend, anti-diagonal mirror
# two-step staircase of area 7, symmetric across the main diagonal
DOUBLE_BEND = Polygon.from_columns([(0, 2), (0, 3), (1, 3)])


def _recount(max_m):
    """Counts per (class, half-perimeter, area) from the walk-pair generator
    and the stabilizer of each polygon."""
    recount: dict = {}
    for p in enumerate_polygons(max_m):
        sig = symmetry_signature(p)
        key = (p.half_perimeter, p.area)
        members = {
            "full": True,
            "r2": "r2" in sig,
            "d1": "d1" in sig,
            "d2": "d2" in sig,
            "d1d2": {"d1", "d2"} <= sig,
            "rect": "h" in sig,
            "square": "r" in sig,
        }
        for cls, hit in members.items():
            if hit:
                recount[(cls, *key)] = recount.get((cls, *key), 0) + 1
    return recount


class TestPolygonBasics:
    def test_unit_square_from_walks(self):
        p = Polygon.from_walks("RU", "UR")
        assert p == UNIT_SQUARE
        assert p.half_perimeter == 2 and p.area == 1

    def test_walk_validation(self):
        with pytest.raises(ValueError, match="interior vertex"):
            Polygon.from_walks("RURU", "URRU")
        with pytest.raises(ValueError, match="same vertex"):
            Polygon.from_walks("RR", "UR")
        with pytest.raises(ValueError, match="crossed"):
            Polygon.from_walks("UR", "RU")

    def test_column_validation(self):
        with pytest.raises(ValueError, match="touch"):
            Polygon.from_columns([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="nondecreasing"):
            Polygon.from_columns([(0, 2), (0, 1)])
        with pytest.raises(ValueError, match="empty"):
            Polygon.from_columns([(1, 1)])

    def test_canonical_translation(self):
        assert Polygon.from_columns([(3, 4)]) == UNIT_SQUARE

    def test_measurements(self):
        assert BEND.width == 2 and BEND.height == 2
        assert BEND.half_perimeter == 4 and BEND.area == 3
        assert DOUBLE_BEND.half_perimeter == 6 and DOUBLE_BEND.area == 7

    def test_walks_round_trip(self):
        assert UNIT_SQUARE.walks() == ("RU", "UR")
        assert RECT_1x2.walks() == ("RRU", "URR")
        for p in enumerate_polygons(8):
            lower, upper = p.walks()
            assert Polygon.from_walks(lower, upper) == p


class TestGroupStructure:
    def test_composition_closes(self):
        for g in ELEMENTS:
            for h in ELEMENTS:
                assert compose(g, h) in ELEMENTS

    def test_inverses(self):
        for g in ELEMENTS:
            assert compose(g, inverse(g)) == "e"

    def test_rotation_order_four(self):
        assert compose("r", "r") == "r2"
        assert compose("r2", "r") == "r3"
        assert compose("r", "r3") == "e"

    def test_reflections_are_involutions(self):
        for g in ("h", "v", "d1", "d2"):
            assert compose(g, g) == "e"

    def test_subgroups_closed(self):
        for members in SUBGROUPS.values():
            assert "e" in members
            for g in members:
                assert inverse(g) in members
                for h in members:
                    assert compose(g, h) in members


class TestTransforms:
    def test_action_respects_composition(self):
        for p in (UNIT_SQUARE, BEND, DOUBLE_BEND, RECT_1x3):
            base = p.cells()
            for g in ELEMENTS:
                for h in ELEMENTS:
                    assert transform_cells(compose(g, h), base) == \
                        transform_cells(g, transform_cells(h, base))


class TestIsFixed:
    def test_unit_square_fixed_by_everything(self):
        for g in ELEMENTS:
            assert is_fixed(g, UNIT_SQUARE)

    def test_rectangle_quarter_turn(self):
        assert not is_fixed("r", RECT_1x2)
        assert is_fixed("r2", RECT_1x2)

    def test_bend_mirrors(self):
        # the area-3 bend is symmetric across the anti-diagonal, not the main one
        assert is_fixed("d2", BEND)
        assert not is_fixed("d1", BEND)

    def test_double_bend_klein_symmetric(self):
        # the symmetric two-step staircase is fixed by both diagonals and
        # therefore by the half turn as well
        assert symmetry_signature(DOUBLE_BEND) == frozenset({"e", "r2", "d1", "d2"})

    def test_polygon_with_only_main_diagonal_symmetry_exists(self):
        found = [p for p in enumerate_polygons(8)
                 if symmetry_signature(p) == frozenset({"e", "d1"})]
        assert found
        p = found[0]
        assert is_fixed("d1", p) and not is_fixed("d2", p) and not is_fixed("r2", p)


class TestSignature:
    def test_unit_square(self):
        assert symmetry_signature(UNIT_SQUARE) == frozenset(ELEMENTS)

    def test_rectangle(self):
        assert symmetry_signature(RECT_1x3) == frozenset({"e", "r2", "h", "v"})

    def test_generic_polygon_trivial(self):
        p = Polygon.from_columns([(0, 3), (1, 3)])  # m = 5, asymmetric
        assert symmetry_signature(p) == frozenset({"e"})

    def test_signatures_are_subgroups(self):
        allowed = {frozenset(m) for m in SUBGROUPS.values()}
        for p in enumerate_polygons(10):
            sig = symmetry_signature(p)
            assert sig in allowed
            for g in sig:
                for h in sig:
                    assert compose(g, h) in sig


class TestEnumeration:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            enumerate_counts(1)
        with pytest.raises(ValueError):
            enumerate_counts(17)

    def test_unit_square_in_every_class(self):
        table = enumerate_counts(4)
        for cls in CLASS_IDS:
            assert table.count(cls, 2, 1) == 1

    def test_half_perimeter_four_by_hand(self):
        # five polygons: 1x3 and 3x1 rectangles, a 2x2 square, two bends
        table = enumerate_counts(4)
        assert table.class_slice("full", 4) == {3: 4, 4: 1}
        assert table.class_slice("r2", 4) == {3: 2, 4: 1}
        assert table.class_slice("d1", 4) == {4: 1}
        assert table.class_slice("d2", 4) == {3: 2, 4: 1}
        assert table.class_slice("d1d2", 4) == {4: 1}
        assert table.class_slice("rect", 4) == {3: 2, 4: 1}
        assert table.class_slice("square", 4) == {4: 1}

    def test_total_counts_are_catalan(self):
        from staircase.feq import catalan
        table = enumerate_counts(9)
        for m in range(2, 10):
            assert table.total("full", m) == catalan(m - 1)

    def test_square_class_is_one_per_even_half_perimeter(self):
        table = enumerate_counts(10)
        seen = {key[1:] for key in table.counts if key[0] == "square"}
        assert seen == {(2 * s, s * s) for s in range(1, 6)}
        assert all(table.count("square", 2 * s, s * s) == 1 for s in range(1, 6))

    def test_counts_agree_with_polygon_generator(self):
        assert _recount(8) == enumerate_counts(8).counts

    def test_column_search_agrees_with_walk_pairs_at_10(self):
        # enumerate_counts appends columns, enumerate_polygons walks path
        # pairs: the two agree class by class
        table = enumerate_counts(10)
        recount = _recount(10)
        for cls in CLASS_IDS:
            assert ({k: v for k, v in recount.items() if k[0] == cls}
                    == {k: v for k, v in table.counts.items() if k[0] == cls}), cls

    def test_partial_order_between_classes(self):
        table = enumerate_counts(10)
        for (cls, m, n), v in table.counts.items():
            assert v >= 0
            full = table.count("full", m, n)
            assert v <= full
        for key in {k[1:] for k in table.counts}:
            m, n = key
            assert table.count("square", m, n) <= table.count("rect", m, n)
            assert table.count("square", m, n) <= table.count("r2", m, n)
            assert table.count("d1d2", m, n) <= table.count("d1", m, n)
            assert table.count("d1d2", m, n) <= table.count("d2", m, n)

    def test_conjugate_elements_fix_equally_many(self):
        # conjugating by a symmetry of the family (e, r2, d1, d2) swaps h with v
        # and r with r3, so those pairs fix the same number of polygons at
        # every (half-perimeter, area)
        census: dict = {}
        for p in enumerate_polygons(8):
            sig = symmetry_signature(p)
            for g in sig:
                key = (g, p.half_perimeter, p.area)
                census[key] = census.get(key, 0) + 1
        for (g, m, n), v in census.items():
            twin = {"h": "v", "v": "h", "r": "r3", "r3": "r"}.get(g)
            if twin:
                assert census.get((twin, m, n), 0) == v

    def test_rows_sorted(self):
        table = enumerate_counts(5)
        rows = table.rows()
        assert rows == sorted(rows)
        assert rows[0][3] >= 0
