import math
import pickle
from fractions import Fraction as F

import pytest

from staircase.surds import (
    Surd,
    local_coefficient,
    pgcd,
    pmul,
    pquo,
    read_coefficients,
    solve_quadratic,
    squarefree_split,
)

R = (1, -4)  # 1 - 4x
W = Surd((), (1,), (1,), R)  # sqrt(1 - 4x)


class TestPolynomials:
    def test_gcd_is_primitive(self):
        a = pmul((1, -1), (2, 3))  # (1 - x)(2 + 3x)
        b = pmul((-1, 1), (5, 0, 1))  # -(1 - x)(5 + x^2)
        assert pgcd(a, b) == (-1, 1)
        assert pgcd((6, 4), (3, 2)) == (3, 2)
        assert pgcd((1, 1), (1, 2)) == (1,)

    def test_exact_quotient(self):
        assert pquo(pmul((1, 2), (3, 0, 1)), (3, 0, 1)) == (1, 2)
        with pytest.raises(RuntimeError, match="inexact"):
            pquo((1, 0, 1), (1, 1))

    def test_squarefree_split(self):
        f = pmul(pmul((1, -4), (1, 1)), pmul((1, 1), (3,)))  # 3 (1 - 4x)(1 + x)^2
        c, s, h = squarefree_split(f)
        assert pmul(pmul(s, pmul(h, h)), (c.numerator,)) == pmul(f, (c.denominator,))
        assert s == (-1, 4) and h == (1, 1)


class TestSurd:
    def test_canonical_form(self):
        assert Surd((0, 2), (), (0, 4)) == Surd((1,), (), (2,))
        assert Surd((0, 2), (), (0, 4)) == F(1, 2)
        assert Surd((F(1, 2),), (), (F(3, 4),)) == Surd((2,), (), (3,))
        assert W * W == Surd(R)
        assert (W + 1) * (W - 1) == Surd((0, -4))

    def test_inverse(self):
        u = (W + Surd((0, 3))) / Surd((1, 1))
        assert u * u.inverse() == 1
        with pytest.raises(RuntimeError, match="division by zero"):
            (W - W).inverse()

    def test_theta_of_square_root(self):
        # x d/dx sqrt(1 - 4x) = -2x / sqrt(1 - 4x)
        assert W.theta() == Surd((0, -2)) / W
        # C(theta, 2) x^3 = C(3, 2) x^3
        assert Surd((0, 0, 0, 1)).binomial_theta(2) == Surd((0, 0, 0, 3))

    def test_spread(self):
        assert W.spread(2) == Surd((), (1,), (1,), (1, 0, -4))

    def test_different_radicands_rejected(self):
        with pytest.raises(RuntimeError, match="different radicands"):
            W + W.spread(2)

    def test_immutable_and_picklable(self):
        with pytest.raises(AttributeError):
            W.p = (1,)
        assert pickle.loads(pickle.dumps(W)) == W


class TestReading:
    def test_catalan_numbers(self):
        # (1 - sqrt(1 - 4x)) / 2 = sum Catalan(n - 1) x^n
        (coeffs,) = read_coefficients([(1 - W) / 2], 40)
        assert coeffs == [0] + [math.comb(2 * n - 2, n - 1) // n for n in range(1, 41)]

    def test_rational_function_with_x_power_denominator(self):
        # x^2 / (x (1 - x)^2) = sum n x^n
        (coeffs,) = read_coefficients([Surd((0, 0, 1), (), pmul((0, 1), (1, -2, 1)))], 10)
        assert coeffs == list(range(11))

    def test_failed_reads(self):
        with pytest.raises(RuntimeError, match="not an integer"):
            read_coefficients([Surd((1,), (), (2,))], 5)
        with pytest.raises(RuntimeError, match="not a unit"):
            read_coefficients([Surd((1,), (), (3, 1))], 5)
        with pytest.raises(RuntimeError, match="pole"):
            read_coefficients([Surd((1,), (), (0, 1))], 5)
        with pytest.raises(RuntimeError, match="not of the form"):
            read_coefficients([Surd((), (1,), (1,), (1, 1, 1))], 5)


class TestQuadratic:
    def test_catalan_equation(self):
        # U = x^2 / (1 - U): U^2 - U + x^2 = 0 over Q(x)[sqrt(1 - 4x^2)]
        roots = solve_quadratic(Surd((1,)), Surd((-1,)), Surd((0, 0, 1)))
        assert {r.r for r in roots} == {(1, 0, -4)}
        series = [read_coefficients([r], 12)[0] for r in roots]
        assert sorted(s[0] for s in series) == [0, 1]
        small = min(series)
        assert small[2::2] == [math.comb(2 * n - 2, n - 1) // n for n in range(1, 7)]

    def test_discriminant_without_rational_square_root(self):
        with pytest.raises(RuntimeError, match="rational square"):
            solve_quadratic(Surd((1,)), Surd(()), Surd((-2, 8)))  # U^2 = 2 (1 - 4x)


class TestLocalExpansion:
    def test_pole_and_branch_coefficients(self):
        # x^2 / (1 - 4x) = (1/16) (1 - 4x)^-1 + regular terms
        assert local_coefficient(Surd((0, 0, 1), (), R), F(1, 4), -1) == (F(1, 16), 1)
        assert local_coefficient(Surd((0, 0, 1), (), R), F(1, 4), -2) == (0, 1)
        # sqrt(1 - 4x^2) = sqrt(2) (1 - 2x)^(1/2) (1 - (1 - 2x)/4 + ...)
        w2 = W.spread(2)
        assert local_coefficient(w2, F(1, 2), F(1, 2)) == (1, 2)
        assert local_coefficient(w2, F(1, 2), F(3, 2)) == (F(-1, 4), 2)
