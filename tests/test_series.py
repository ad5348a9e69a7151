import random
from fractions import Fraction as F

import pytest

from staircase.feq import _Const, _Lin, _MonoMul, _Mul, _Recip, _SubX2Q2, _SubXQ
from staircase.series import (
    DeltaJet,
    ExactRing,
    LaurentQPoly,
    XSeries,
    exact_ring,
    jet_q_power,
    jet_ring,
)
from staircase.surds import Surd


def xp(ring, order, terms):
    """A series from {x_degree: coefficient-like}; ints become constants."""
    coeffs = [ring.zero] * (order + 1)
    for deg, value in terms.items():
        if 0 <= deg <= order:
            coeffs[deg] = ring.one * value
    return XSeries(ring, order, coeffs)


# Whole-series arithmetic runs through the solver's lazy nodes.

def run(node, order):
    return XSeries(node.ring, order, [node.coeff(n) for n in range(order + 1)])


def add(a, b):
    return run(_Lin(a.ring, {}, [(_Const(a), 1), (_Const(b), 1)]), min(a.order, b.order))


def mul(a, b):
    return run(_Mul(_Const(a), _Const(b)), min(a.order, b.order))


def recip(a):
    return run(_Recip(_Const(a)), a.order)


def sub_xq(a):
    return run(_SubXQ(_Const(a)), a.order)


def sub_x2q2(a):
    return run(_SubX2Q2(_Const(a)), a.order)


class TestLaurentQPoly:
    def test_no_zero_coefficients_stored(self):
        p = LaurentQPoly({3: 5, 7: 0})
        assert p.c == {3: 5}
        q = LaurentQPoly({0: 1}) - LaurentQPoly({0: 1})
        assert q.c == {}

    def test_negative_degrees(self):
        p = LaurentQPoly({-2: 3}) * LaurentQPoly({5: 2})
        assert p.c == {3: 6}

    def test_at_q1_and_collapse(self):
        p = LaurentQPoly({1: 2, 3: 1})  # 2q + q^3
        assert p.at_q1() == 3
        jet = p.collapse(2)
        # 2(1+d) + (1+d)^3 = 3 + 5d + 3d^2 + ...
        assert jet == DeltaJet((3, 5, 3))


class TestDeltaJet:
    def test_slot_count_fixed(self):
        jet = DeltaJet((1, 2, 3))
        assert jet.order == 2
        with pytest.raises(ValueError):
            jet + DeltaJet((1, 2))

    def test_truncated_product(self):
        a = DeltaJet((1, 1))       # 1 + d
        b = DeltaJet((2, -3))      # 2 - 3d
        assert a * b == DeltaJet((2, -1))

    def test_recip(self):
        ring = jet_ring(2)
        a = DeltaJet((1, 3, -2))
        r = ring.invert_unit(a)
        assert a * r == DeltaJet((1, 0, 0))
        assert ring.invert_unit(-a) == -r
        # only units +-1 have integral inverses
        for bad in ((2, 1), (0, 1)):
            with pytest.raises(ValueError, match="not invertible"):
                ring.invert_unit(DeltaJet(bad))


def _hashes(value):
    try:
        return hash(value)
    except TypeError:  # unhashable values cannot collide in a set
        return None


class TestEqualityAndHash:
    def test_equal_values_hash_equal(self):
        values = [
            3, 0, F(3), LaurentQPoly.term(3), LaurentQPoly({0: 3}),
            LaurentQPoly.term(3, 1), LaurentQPoly.term(0), LaurentQPoly({}),
            exact_ring().one * 3, DeltaJet((3, 0)), DeltaJet((F(3), 0)),
            DeltaJet((0, 0)), DeltaJet((3,)), Surd.lift(3), Surd.lift(0),
        ]
        for a in values:
            for b in values:
                if a == b:
                    ha, hb = _hashes(a), _hashes(b)
                    if ha is not None and hb is not None:
                        assert ha == hb, (a, b)


class TestJetQPower:
    def test_square(self):
        assert jet_q_power(2, 2) == DeltaJet((1, 2, 1))

    def test_negative_exponent(self):
        assert jet_q_power(-1, 2) == DeltaJet((1, -1, 1))

    def test_truncation(self):
        assert jet_q_power(5, 1) == DeltaJet((1, 5))


class TestXSeriesOps:
    @pytest.mark.parametrize("ring", [exact_ring(), jet_ring(2), jet_ring(0)])
    def test_difference_of_squares(self, ring):
        a = xp(ring, 2, {0: 1, 1: 1})
        b = xp(ring, 2, {0: 1, 1: -1})
        assert mul(a, b) == xp(ring, 2, {0: 1, 2: -1})

    @pytest.mark.parametrize("ring", [exact_ring(), jet_ring(1)])
    def test_geometric_recip(self, ring):
        a = xp(ring, 3, {0: 1, 1: -2})
        assert recip(a) == xp(ring, 3, {0: 1, 1: 2, 2: 4, 3: 8})

    def test_recip_of_one_minus_xq(self):
        ring = exact_ring()
        a = XSeries(ring, 2, [ring.one, LaurentQPoly({1: -1}), ring.zero])
        r = recip(a)
        assert r.coeffs[0] == LaurentQPoly({0: 1})
        assert r.coeffs[1] == LaurentQPoly({1: 1})
        assert r.coeffs[2] == LaurentQPoly({2: 1})

    def test_recip_checks_constant_term(self):
        ring = exact_ring()
        with pytest.raises(ValueError, match="not invertible"):
            recip(xp(ring, 2, {1: 1}))
        with pytest.raises(ValueError, match="not invertible"):
            _Recip(_Const(xp(ring, 2, {1: 1}), val=1))
        # constant terms with several q-monomials are not units either
        bad = XSeries(ring, 2, [LaurentQPoly({0: 1, 1: 1}), ring.zero, ring.zero])
        with pytest.raises(ValueError, match="not invertible"):
            recip(bad)

    def test_recip_times_self_is_one(self):
        ring = jet_ring(2)
        a = _Const(xp(ring, 5, {0: 1, 1: 3, 2: -2, 4: 7}))
        assert run(_Mul(a, _Recip(a)), 5) == xp(ring, 5, {0: 1})

    def test_truncation_is_min_of_orders(self):
        ring = jet_ring(0)
        a = xp(ring, 5, {0: 1, 5: 3})
        b = xp(ring, 3, {1: 1})
        product = _Mul(_Const(a), _Const(b))
        assert run(product, 3) == xp(ring, 3, {1: 1})
        with pytest.raises(RuntimeError, match="solved to order 3"):
            product.coeff(4)

    def test_coeff_beyond_order_rejected(self):
        ring = jet_ring(0)
        with pytest.raises(ValueError, match="beyond truncation"):
            xp(ring, 3, {0: 1}).coeff(4)

    def test_series_immutable(self):
        s = xp(jet_ring(0), 3, {0: 1})
        with pytest.raises(AttributeError):
            s.order = 5
        with pytest.raises(TypeError):
            s.coeffs[0] = None


class TestComposeXQ:
    def test_xq_substitution_on_monomial(self):
        # x^2 q under (x, q) -> (xq, q) becomes x^2 q^3
        ring = exact_ring()
        s = XSeries(ring, 3, [ring.zero, ring.zero, LaurentQPoly({1: 1}), ring.zero])
        out = sub_xq(s)
        assert out.coeffs[2] == LaurentQPoly({3: 1})

    def test_square_substitution(self):
        # x^2 + x^3 q under (x, q) -> (x^2, q^2) becomes x^4 + x^6 q^2
        ring = exact_ring()
        s = xp(ring, 6, {2: 1, 3: LaurentQPoly({1: 1})})
        out = sub_x2q2(s)
        assert out.coeffs[4] == LaurentQPoly({0: 1})
        assert out.coeffs[6] == LaurentQPoly({2: 1})
        assert all(not out.coeffs[i].c for i in (0, 1, 2, 3, 5))

    def test_jet_substitution_multiplies_by_power(self):
        # coefficient (1 + d) at x^3 picks up (1+d)^3, truncated: 1 + 4d
        ring = jet_ring(1)
        s = XSeries(ring, 3, [ring.zero] * 3 + [DeltaJet((1, 1))])
        out = sub_xq(s)
        assert out.coeffs[3] == DeltaJet((1, 4))

    def test_double_xq_shift_doubles_q_degree(self):
        ring = exact_ring()
        s = xp(ring, 6, {2: 1, 3: 2, 5: 1})
        twice = run(_SubXQ(_SubXQ(_Const(s))), 6)
        for n, c in enumerate(s.coeffs):
            assert twice.coeffs[n] == c.q_shift(2 * n)


def _random_laurent(rng):
    return LaurentQPoly({rng.randint(-2, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))})


def _random_jet(rng, K):
    return DeltaJet(tuple(rng.randint(-5, 5) for _ in range(K + 1)))


class TestRingAxioms:
    def test_laurent_axioms_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (_random_laurent(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_jet_axioms_random(self):
        rng = random.Random(8)
        for _ in range(200):
            a, b, c = (_random_jet(rng, 3) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def _sparse_jet(rng, K):
    # zero slots exercise the skips in the kernels, big ones the long ints
    return DeltaJet(tuple(rng.choice((0, rng.randint(-9, 9), rng.getrandbits(90)))
                          for _ in range(K + 1)))


# (j_stride, i_val, i_stride) of A[n - j] * B[j]: both factors on the full
# lattice; A on odd degrees only; both on stride-2 lattices.  As in a lazy
# node, A holds zeros at every index off its lattice i_val + i_stride * k.
LATTICES = [(1, 0, 1), (1, 1, 2), (2, 0, 2)]


def _conv_cases(rng, make, zero, i_val, i_stride, count=40, size=12):
    for _ in range(count):
        A = [make() if i >= i_val and (i - i_val) % i_stride == 0 else zero
             for i in range(size)]
        B = [make() for _ in range(size)]
        n = rng.randrange(size)
        j_lo = rng.randint(0, n)
        yield A, B, n, j_lo, rng.randint(j_lo, n)


class TestKernels:
    """conv_into of each ring against a sum of products of its coefficients."""

    def test_jet_product_is_truncated_convolution(self):
        rng = random.Random(3)
        for K in range(5):
            for _ in range(50):
                a, b = _sparse_jet(rng, K), _sparse_jet(rng, K)
                assert (a * b).c == tuple(sum(a.c[s] * b.c[t - s] for s in range(t + 1))
                                          for t in range(K + 1))

    @pytest.mark.parametrize("K", range(5))
    @pytest.mark.parametrize("j_stride, i_val, i_stride", LATTICES)
    def test_jet_conv_into(self, K, j_stride, i_val, i_stride):
        rng = random.Random(10 * K + i_stride)
        ring = jet_ring(K)
        cases = _conv_cases(rng, lambda: _sparse_jet(rng, K), ring.zero, i_val, i_stride)
        for A, B, n, j_lo, j_hi in cases:
            start = _sparse_jet(rng, K)
            acc = list(start.c)
            ring.conv_into(acc, A, B, n, j_lo, j_hi, j_stride)
            expected = start
            for j in range(j_lo, j_hi + 1, j_stride):
                expected = expected + A[n - j] * B[j]
            assert ring.acc_close(acc) == expected

    @pytest.mark.parametrize("j_stride, i_val, i_stride", LATTICES)
    def test_exact_conv_into(self, j_stride, i_val, i_stride):
        rng = random.Random(i_stride)
        ring = exact_ring()
        cases = _conv_cases(rng, lambda: _random_laurent(rng), ring.zero, i_val, i_stride)
        for A, B, n, j_lo, j_hi in cases:
            start = _random_laurent(rng)
            acc = ring.acc_new()
            ring.conv_into(acc, [start], [ring.one], 0, 0, 0, 1)
            ring.conv_into(acc, A, B, n, j_lo, j_hi, j_stride)
            expected = start
            for j in range(j_lo, j_hi + 1, j_stride):
                expected = expected + A[n - j] * B[j]
            assert ring.acc_close(acc) == expected


    @pytest.mark.parametrize("j_stride, i_val, i_stride", LATTICES)
    def test_exact_conv_into_across_widths(self, j_stride, i_val, i_stride):
        # operands of up to 200 bits, each at its own width, repacked into a
        # 512-bit ring
        rng = random.Random(20 + i_stride)
        ring = ExactRing(512)
        cases = _conv_cases(rng, lambda: _wide_laurent(rng), ring.zero, i_val, i_stride)
        for A, B, n, j_lo, j_hi in cases:
            acc = ring.acc_new()
            ring.conv_into(acc, A, B, n, j_lo, j_hi, j_stride)
            expected = {}
            for j in range(j_lo, j_hi + 1, j_stride):
                expected = _naive_sum(expected, _naive_mul(A[n - j].c, B[j].c), 1)
            assert ring.acc_close(acc).c == expected


def _wide_laurent(rng):
    """Negative degrees and coefficients, from one bit to 200 bits, so that
    sums and products cross packing widths."""
    def coeff():
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 200))
    return LaurentQPoly({rng.randint(-6, 9): coeff() for _ in range(rng.randint(0, 6))})


def _naive_mul(a, b):
    """The product of two {degree: coeff} maps by a written-out double loop."""
    out = {}
    for da, va in a.items():
        for db, vb in b.items():
            out[da + db] = out.get(da + db, 0) + va * vb
    return {d: v for d, v in out.items() if v}


def _naive_sum(a, b, sign):
    out = dict(a)
    for d, v in b.items():
        out[d] = out.get(d, 0) + sign * v
    return {d: v for d, v in out.items() if v}


class TestPackedRing:
    """LaurentQPoly keeps each polynomial as one packed int; every operation
    must agree with plain loops over {degree: coeff} maps."""

    def test_operations_match_naive_loops(self):
        rng = random.Random(12)
        for _ in range(400):
            a, b = _wide_laurent(rng), _wide_laurent(rng)
            ac, bc = a.c, b.c
            assert (a * b).c == _naive_mul(ac, bc)
            assert (a + b).c == _naive_sum(ac, bc, 1)
            assert (a - b).c == _naive_sum(ac, bc, -1)
            assert (-a).c == {d: -v for d, v in ac.items()}
            k = rng.randint(-3, 3)
            assert (a * k).c == (k * a).c == {d: v * k for d, v in ac.items() if k}
            n = rng.randint(-7, 7)
            assert a.q_shift(n).c == {d + n: v for d, v in ac.items()}
            assert a.q_square().c == {2 * d: v for d, v in ac.items()}
            assert a.at_q1() == sum(ac.values())
            # c is read in ascending degree order (divide_exact relies on it)
            for p in (a, b, a * b, a + b, a - b, -a, a.q_shift(n), a.q_square()):
                assert list(p.c) == sorted(p.c)

    def test_norm_bounds_every_result(self):
        rng = random.Random(13)
        for _ in range(300):
            a, b = _wide_laurent(rng), _wide_laurent(rng)
            for p in (a, b, a * b, a + b, a - b, a.q_square(), (a * b) * (a - b)):
                assert sum(abs(v) for v in p.c.values()) <= p.norm < 2 ** (p.w - 1)
                assert p.w % 8 == 0

    def test_equal_polynomials_compare_equal_across_widths(self):
        p = LaurentQPoly({-2: 5, 3: -7})
        wide = ExactRing(256).fit(p)
        assert wide.w == 256 and wide == p and hash(wide) == hash(p)
        assert wide.c == p.c and not (wide != p)
        assert ExactRing(64).fit(wide) == p

    @pytest.mark.parametrize("width", [8, 16, 24, 64, 72, 120, 256])
    def test_repacking_keeps_coefficients(self, width):
        rng = random.Random(width)
        ring = ExactRing(width)
        for _ in range(200):
            p = _wide_laurent(rng)
            if p.norm >= ring.limit:
                with pytest.raises(RuntimeError, match="overflows"):
                    ring.fit(p)
                continue
            packed = ring.fit(p)
            assert packed.w == width and packed.c == p.c
            assert ring.q_square(packed).c == p.q_square().c

    def test_kernel_refuses_a_sum_that_could_overflow(self):
        ring = ExactRing(8)
        x = ring.fit(LaurentQPoly({0: 1, 1: 10}))  # norm 11
        acc = ring.acc_new()
        ring.conv_into(acc, [x], [x], 0, 0, 0, 1)  # bound 121 < 128
        assert ring.acc_close(acc).c == {0: 1, 1: 20, 2: 100}
        with pytest.raises(RuntimeError, match="overflows 8-bit slots"):
            ring.conv_into(acc, [x], [ring.one], 0, 0, 0, 1)  # bound 132
        with pytest.raises(RuntimeError, match="overflows 8-bit slots"):
            ring.fit(LaurentQPoly({0: 128}))
        assert ring.fit(LaurentQPoly({0: 127})).c == {0: 127}

    def test_divide_exact(self):
        p = LaurentQPoly({1: 4, 3: -8})
        assert p.divide_exact(4).c == {1: 1, 3: -2}
        with pytest.raises(ArithmeticError) as info:
            LaurentQPoly({1: 4, 2: 6, 3: 5}).divide_exact(2)
        assert info.value.args == (3,)
        with pytest.raises(ArithmeticError) as info:
            LaurentQPoly({5: 7, 1: 4, -2: 3}).divide_exact(2)
        assert info.value.args == (-2,)


class TestCrossRing:
    def test_collapse_commutes_with_arithmetic(self):
        # computing in q-polynomials then expanding around q = 1 equals
        # computing in jets natively
        rng = random.Random(99)
        exact = exact_ring()
        for K in (0, 1, 2, 4):
            jr = jet_ring(K)
            for _ in range(30):
                terms_a = {d: _random_laurent(rng) for d in range(5)}
                terms_b = {d: _random_laurent(rng) for d in range(5)}
                a = XSeries(exact, 4, [terms_a[d] for d in range(5)])
                b = XSeries(exact, 4, [terms_b[d] for d in range(5)])
                lhs = add(mul(a, b), a).collapse(K)
                rhs = add(mul(a.collapse(K), b.collapse(K)), a.collapse(K))
                assert lhs == rhs

    def test_collapse_commutes_with_substitutions(self):
        rng = random.Random(100)
        exact = exact_ring()
        for _ in range(20):
            a = XSeries(exact, 6, [_random_laurent(rng) for _ in range(7)])
            for substitute in (sub_xq, sub_x2q2):
                assert substitute(a).collapse(3) == substitute(a.collapse(3))


class TestMulXQ:
    def test_monomial_shift(self):
        ring = exact_ring()
        s = xp(ring, 4, {1: 1})
        out = run(_MonoMul(_Const(s), 2, 1), 4)
        assert out.coeffs[3] == LaurentQPoly({1: 1})

    def test_negative_shift_requires_divisibility(self):
        ring = exact_ring()
        s = xp(ring, 4, {2: 1, 3: 1})
        down = run(_MonoMul(_Const(s, val=2), -2, -1), 2)
        assert down.coeffs[0] == LaurentQPoly({-1: 1})
        with pytest.raises(ValueError, match="residue"):
            _MonoMul(_Const(xp(ring, 4, {1: 1}), val=1), -2, 0)
