import copy
import pickle

import pytest

from staircase import feq
from staircase.feq import (
    CLASS_IDS,
    CLASS_EQUATIONS,
    catalan,
    clear_cache,
    closed_form,
    closed_form_coefficient,
    series_rows,
    solve_series,
)
from staircase.feq import _Const, _Unknown, _solve_lazy, _verify_solution
from staircase.polygons import enumerate_counts
from staircase.series import DeltaJet, XSeries, exact_ring, jet_ring
from staircase.surds import Surd


def lazy_series(class_id, order, ring):
    """The lazy interpreter on any ring, prerequisites included: the oracle
    for the closed-form jet path."""
    return _solve_lazy(class_id, order, ring, lazy_series)


def evaluate_rhs(class_id, candidate):
    """One whole-series application of the class's right-hand side to the
    candidate.  The candidate is zero-padded past its order, so coefficients
    within two orders of the truncation feel the cutoff."""
    ring = candidate.ring
    equation = CLASS_EQUATIONS[class_id]
    deps = {dep: solve_series(dep, feq._prerequisite_order(candidate.order), ring)
            for dep in equation.deps}
    padded = XSeries(ring, candidate.order + feq.GAIN, candidate.coeffs)
    rhs = equation.build(_Const(padded), deps, ring)
    return XSeries(ring, candidate.order,
                   [rhs.coeff(n) for n in range(candidate.order + 1)])


class TestKnownSeries:
    def test_square_series_is_one_square_per_even_half_perimeter(self):
        s = solve_series("square", 12, exact_ring())
        for m in range(13):
            if m % 2 == 0 and m >= 2:
                assert dict(s.coeffs[m].c) == {(m // 2) ** 2: 1}
            else:
                assert not s.coeffs[m].c

    def test_full_class_at_q1_is_catalan(self):
        s = solve_series("full", 16, jet_ring(0))
        values = s.values_at_q1()
        assert values[0] == 0 and values[1] == 0
        for m in range(2, 17):
            assert values[m] == catalan(m - 1)

    def test_rectangles_at_q1(self):
        s = solve_series("rect", 20, jet_ring(0))
        values = s.values_at_q1()
        for m in range(2, 21):
            assert values[m] == m - 1

    def test_rect_exact_coefficients(self):
        s = solve_series("rect", 9, exact_ring())
        for m in range(2, 10):
            expected = {}
            for a in range(1, m):
                expected[a * (m - a)] = expected.get(a * (m - a), 0) + 1
            assert dict(s.coeffs[m].c) == expected


class TestOracleEquivalence:
    def test_all_classes_match_enumeration(self):
        table = enumerate_counts(10)
        ring = exact_ring()
        for cls in CLASS_IDS:
            s = solve_series(cls, 10, ring)
            for m in range(2, 11):
                assert dict(s.coeffs[m].c) == table.class_slice(cls, m), (cls, m)


class TestClosedForms:
    def test_full_is_catalan(self):
        assert closed_form_coefficient("full", 7) == 132

    def test_rect_multiplicity(self):
        assert closed_form_coefficient("rect", 5, 4) == 2
        assert closed_form_coefficient("rect", 5, 5) == 0

    def test_square_indicator(self):
        assert closed_form_coefficient("square", 6, 9) == 1
        assert closed_form_coefficient("square", 6, 8) == 0
        assert closed_form_coefficient("square", 5, 4) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            closed_form_coefficient("d1", 4, 4)
        with pytest.raises(ValueError):
            closed_form_coefficient("full", 1)
        with pytest.raises(ValueError):
            closed_form_coefficient("full", 4, 3)
        with pytest.raises(ValueError):
            closed_form_coefficient("rect", 5)


class TestFixedPointIteration:
    @pytest.mark.parametrize("cls", CLASS_IDS)
    def test_iterates_stabilize_with_growing_agreement(self, cls):
        # applying the right-hand side from the zero series gains at least
        # two x-orders of agreement with the solution per application
        ring = exact_ring()
        order = 16
        solution = solve_series(cls, order, ring)
        current = XSeries(ring, order)
        agreements = []
        for _ in range(order):
            current = evaluate_rhs(cls, current)
            agree = 0
            while agree <= order and current.coeffs[agree] == solution.coeffs[agree]:
                agree += 1
            agreements.append(agree)
            if agree > order - feq.GAIN:
                break
        assert agreements[0] >= 2
        for a, b in zip(agreements, agreements[1:]):
            assert b >= a + feq.GAIN or b > order - feq.GAIN
        # truncation pollutes at most the top two orders of the iteration
        assert agreements[-1] >= order - 1

    def test_solution_is_a_fixed_point(self):
        ring = jet_ring(2)
        for cls in CLASS_IDS:
            solution = solve_series(cls, 14, ring)
            image = evaluate_rhs(cls, solution)
            for m in range(13):  # top orders feel the truncation
                assert image.coeffs[m] == solution.coeffs[m], (cls, m)

    def test_unfilled_unknown_read_is_reported(self):
        with pytest.raises(RuntimeError, match="non-productive recursion"):
            _Unknown(exact_ring(), val=2, stride=1).coeff(0)


class TestSolverContracts:
    def test_order_validated(self):
        with pytest.raises(ValueError):
            solve_series("full", 1, exact_ring())
        with pytest.raises(ValueError):
            solve_series("nope", 8, exact_ring())

    def test_cache_returns_consistent_truncations(self):
        clear_cache()
        big = solve_series("r2", 18, exact_ring())
        small = solve_series("r2", 7, exact_ring())
        assert small.order == 7
        assert small.coeffs == big.coeffs[:8]

    def test_prerequisite_truncation_sufficient(self):
        # solving dependent classes directly at several orders gives
        # coefficient-stable prefixes
        clear_cache()
        lo = solve_series("d1d2", 10, exact_ring())
        clear_cache()
        hi = solve_series("d1d2", 16, exact_ring())
        assert lo.coeffs == hi.coeffs[:11]
        clear_cache()

    def test_positivity_and_area_bounds(self):
        ring = exact_ring()
        for cls in CLASS_IDS:
            s = solve_series(cls, 20, ring)
            for m, c in enumerate(s.coeffs):
                for n, v in c.c.items():
                    assert v > 0
                    assert 1 <= n <= m * m / 4

    def test_jet_slots_bounded_by_area_binomials(self):
        # at x^4 every area is <= 4: slot k of two polygons is <= 2 * C(4, k)
        ring = jet_ring(2)
        _verify_solution("full", XSeries(ring, 4, [ring.zero] * 4 + [DeltaJet((2, 8, 12))]))
        for slots in ((2, 9, 12), (2, 8, 13), (2, -1, 0), (-1, 0, 0)):
            bad = XSeries(ring, 4, [ring.zero] * 4 + [DeltaJet(slots)])
            with pytest.raises(RuntimeError, match="out of range"):
                _verify_solution("full", bad)

    def test_cached_coefficients_are_read_only(self):
        clear_cache()
        coeff = solve_series("square", 10, exact_ring()).coeffs[6]
        terms = coeff.c
        with pytest.raises(TypeError):
            terms[9] = 5
        with pytest.raises(TypeError):
            del terms[9]
        writes = [
            lambda: terms.update({9: 5}),
            lambda: terms.setdefault(1, 1),
            lambda: terms.pop(9),
            terms.popitem,
            terms.clear,
            lambda: terms.__ior__({9: 5}),
        ]
        for write in writes:
            with pytest.raises(TypeError):
                write()
        with pytest.raises(AttributeError):
            coeff.c = {9: 5}
        assert isinstance(terms, dict)
        assert pickle.loads(pickle.dumps(coeff)) == coeff
        assert solve_series("square", 10, exact_ring()).coeffs[6].c == {9: 1}
        assert solve_series("square", 8, exact_ring()).coeffs[6].c == {9: 1}


class TestExactPacking:
    def test_width_sized_per_class(self):
        # each solve packs at a width holding 2**16 times the class's largest
        # count at q = 1, so the classes get different widths
        widths = {}
        for cls in CLASS_IDS:
            largest = max(closed_form(cls, 0).series(56).values_at_q1())
            widths[cls] = feq._solve_ring(cls, 56).width
            assert largest << 16 < 2 ** (widths[cls] - 1), cls
            assert widths[cls] % 8 == 0
        assert widths["full"] > widths["r2"] > widths["d1d2"] > widths["square"]

    def test_solved_series_are_handed_out_over_the_shared_ring(self):
        clear_cache()
        for cls in ("full", "r2"):
            assert solve_series(cls, 30, exact_ring()).ring is exact_ring()


class TestCrossRing:
    @pytest.mark.parametrize("cls", CLASS_IDS)
    def test_exact_collapses_to_jet_closed_forms_at_order_64(self, cls):
        exact = solve_series(cls, 64, exact_ring())
        for K in range(4):
            assert exact.collapse(K) == closed_form(cls, K).series(64), (cls, K)

    def test_jet_solution_equals_collapsed_exact(self):
        ring = exact_ring()
        for cls in CLASS_IDS:
            exact = solve_series(cls, 20, ring)
            for K in range(7):
                jet = solve_series(cls, 20, jet_ring(K))
                assert exact.collapse(K) == jet, (cls, K)


class TestRows:
    def test_exact_rows(self):
        rows = series_rows("square", solve_series("square", 6, exact_ring()))
        assert rows == [("square", 2, 1, "1"), ("square", 4, 4, "1"), ("square", 6, 9, "1")]

    def test_jet_rows_have_one_entry_per_slot(self):
        s = solve_series("square", 6, jet_ring(1))
        rows = series_rows("square", s)
        assert len(rows) == 14  # seven x-orders times two slots
        assert rows[4] == ("square", 2, 0, "1")
        assert rows[5] == ("square", 2, 1, "1")


class TestSlotInterpreter:
    @pytest.mark.parametrize("cls", CLASS_IDS)
    def test_equals_lazy_solver(self, cls):
        clear_cache()
        for K in range(5):
            ring = jet_ring(K)
            assert solve_series(cls, 200, ring) == lazy_series(cls, 200, ring), (cls, K)

    def test_full_slots_in_closed_form(self):
        # F_0 = (1 - 2x - sqrt(1 - 4x))/2 and F_1 = x^2/(1 - 4x)
        f0, f1 = closed_form("full", 1).slots
        assert f0 == Surd((1, -2), (-1,), (2,), (1, -4))
        assert f1 == Surd((0, 0, 1), (), (1, -4))

    def test_radicands(self):
        expected = {"full": (1, -4), "r2": (1, 0, -4), "d1": (1, 0, -4),
                    "d2": (1, 0, -4), "d1d2": (1, 0, 0, 0, -4),
                    "rect": None, "square": None}
        for cls, r in expected.items():
            assert {s.r for s in closed_form(cls, 2).slots if s.q} == ({r} if r else set()), cls

    def test_closed_forms_built_once_per_class(self, monkeypatch):
        built = []
        real = feq._build_closed_form

        def counting(class_id, jet_order):
            built.append((class_id, jet_order))
            return real(class_id, jet_order)

        monkeypatch.setattr(feq, "_build_closed_form", counting)
        clear_cache()
        low = solve_series("full", 513, jet_ring(1))
        high = solve_series("full", 1025, jet_ring(1))
        assert built == [("full", 1)]
        assert high.coeffs[:514] == low.coeffs

        clear_cache()
        built.clear()
        two = solve_series("full", 300, jet_ring(2))
        one = solve_series("full", 300, jet_ring(1))
        assert built == [("full", 2)]
        assert [c.c for c in one.coeffs] == [c.c[:2] for c in two.coeffs]

        # a dependent class reuses its prerequisite's forms
        built.clear()
        solve_series("r2", 100, jet_ring(2))
        assert built == [("r2", 2)]
        clear_cache()

    def test_unknown_under_square_substitution_rejected(self, monkeypatch):
        def build(u, deps, ring):
            return feq._MonoMul(feq._SubX2Q2(u), 2, 0)

        monkeypatch.setitem(CLASS_EQUATIONS, "square",
                            feq.ClassEquation("square", (), 2, build))
        clear_cache()
        with pytest.raises(RuntimeError, match="substitution"):
            solve_series("square", 8, jet_ring(0))
        clear_cache()


def _solved_tree(class_id, order, ring, deps):
    """The right-hand side of the class's equation after the lazy
    interpreter has filled the unknown to the order."""
    unknown = _Unknown(ring, val=2, stride=CLASS_EQUATIONS[class_id].stride)
    rhs = CLASS_EQUATIONS[class_id].build(unknown, deps, ring)
    for n in range(order + 1):
        unknown.fill(n, rhs.coeff(n))
    return rhs


def _tree_nodes(root):
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(getattr(node, name) for name in ("a", "b") if hasattr(node, name))
            todo.extend(child for child, _ in getattr(node, "terms", ()))
    return seen


class TestLatticeZeros:
    """The convolution kernels skip zero operands and test no lattice, so
    every lazy node must hold zeros below its valuation and off its stride."""

    @pytest.mark.parametrize("mode", ["exact", "jet2"])
    @pytest.mark.parametrize("cls", CLASS_IDS)
    def test_memos_are_zero_off_the_lattice(self, cls, mode):
        dep_order = feq._prerequisite_order
        if mode == "exact":
            order = 40
            ring = feq._solve_ring(cls, order)
            deps = {dep: feq._into(ring, solve_series(dep, dep_order(order), exact_ring()))
                    for dep in CLASS_EQUATIONS[cls].deps}
        else:
            order = 80
            ring = jet_ring(2)
            deps = {dep: lazy_series(dep, dep_order(order), ring)
                    for dep in CLASS_EQUATIONS[cls].deps}
        nodes = _tree_nodes(_solved_tree(cls, order, ring, deps))
        off = 0
        for node in nodes:
            assert node.memo
            for i, v in enumerate(node.memo):
                if i < node.val or (i - node.val) % node.stride:
                    assert not v, (type(node).__name__, i)
                    off += 1
        assert off > 0


class TestPickling:
    @pytest.mark.parametrize("ring", [exact_ring(), jet_ring(2)], ids=["exact", "jet"])
    def test_solved_series_round_trip(self, ring):
        series = solve_series("r2", 12, ring)
        for copied in (pickle.loads(pickle.dumps(series)), copy.deepcopy(series)):
            assert copied == series
            assert copied.ring is series.ring
            with pytest.raises(AttributeError):
                copied.order = 3

    def test_coefficient_map_round_trip(self):
        terms = solve_series("r2", 12, exact_ring()).coeffs[6].c
        for copied in (pickle.loads(pickle.dumps(terms)), copy.deepcopy(terms)):
            assert copied == terms and type(copied) is type(terms)
            with pytest.raises(TypeError):
                copied[9] = 5

    def test_closed_form_round_trip(self):
        form = closed_form("r2", 2)
        assert pickle.loads(pickle.dumps(form)) == form
