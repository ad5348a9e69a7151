import random
from fractions import Fraction as F

import pytest

from staircase.radicals import RadicalConstant, approx_scaled, gamma_half_integer


def rad(r, a=0, b=0):
    return RadicalConstant(F(r), a, b)


class TestCanonicalForm:
    def test_sqrt2_exponent_folds_into_rational(self):
        assert rad(1, 2, 0) == rad(2)
        assert rad(3, 5, 0) == rad(12, 1, 0)
        assert rad(1, -1, 0) == rad(F(1, 2), 1, 0)

    def test_pi_exponent_untouched(self):
        x = rad(1, 0, 4)
        assert x.a == 0 and x.b == 4

    def test_zero_is_unique(self):
        assert rad(0, 1, 3) == rad(0)
        assert rad(0, 1, 3).a == 0 and rad(0, 1, 3).b == 0

    def test_canonicalization_idempotent(self):
        x = rad(F(7, 3), 9, -2)
        assert RadicalConstant(x.r, x.a, x.b) == x


class TestArithmetic:
    def test_sqrt2_squared(self):
        assert rad(1, 1, 0) * rad(1, 1, 0) == rad(2)

    def test_sqrtpi_squared_is_pi(self):
        assert rad(1, 0, 1) * rad(1, 0, 1) == rad(1, 0, 2)

    def test_mul_associative_commutative_random(self):
        rng = random.Random(20240817)
        sample = [
            rad(F(rng.randint(-8, 8) or 1, rng.randint(1, 7)),
                rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(100)
        ]
        for i in range(0, 99, 3):
            x, y, z = sample[i], sample[i + 1], sample[(i + 2) % 100]
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)

    def test_add_requires_matching_radical_parts(self):
        assert rad(1, 1, 0) + rad(2, 1, 0) == rad(3, 1, 0)
        with pytest.raises(ValueError):
            rad(1, 1, 0) + rad(1, 0, 1)

    def test_inverse(self):
        x = rad(F(3, 8), 1, 1)
        assert x * x.inverse() == rad(1)


class TestGammaHalfInteger:
    def test_known_values(self):
        assert gamma_half_integer(1) == rad(1, 0, 1)  # sqrt(pi)
        assert gamma_half_integer(-1) == rad(-2, 0, 1)
        assert gamma_half_integer(5) == rad(F(3, 4), 0, 1)

    def test_recurrence(self):
        # Gamma(z + 1) = z * Gamma(z) for half-integers z = t/2
        for t in range(-21, 22, 2):
            lhs = gamma_half_integer(t + 2)
            rhs = gamma_half_integer(t) * F(t, 2)
            assert lhs == rhs

    def test_even_argument_rejected(self):
        with pytest.raises(ValueError):
            gamma_half_integer(4)


class TestApprox:
    def test_sqrtpi_ten_digits(self):
        assert rad(1, 0, 1).approx(10) == "1.772453851"

    def test_sqrt2(self):
        assert rad(1, 1, 0).approx(10) == "1.414213562"

    def test_pi_power(self):
        assert rad(1, 0, 2).approx(11) == "3.1415926536"

    def test_exact_rationals_round_half_away(self):
        assert rad(F(1, 8)).approx(2) == "0.13"
        assert rad(F(-1, 8)).approx(2) == "-0.13"
        assert rad(F(2, 3)).approx(6) == "0.666667"

    def test_integers_and_zero(self):
        assert rad(132).approx(2) == "130"
        assert rad(132).approx(5) == "132.00"
        assert rad(0).approx(7) == "0"

    def test_extra_root(self):
        # sqrt(2) * sqrt(8) = 4 exactly
        assert approx_scaled(F(1), 1, 0, 6, extra_root=8) == "4.00000"

    def test_fixed_point_below_one(self):
        assert approx_scaled(F(1, 1000), 1, 0, 6) == "0.00141421"
        assert approx_scaled(F(-1, 1000), 1, 0, 6) == "-0.00141421"

    def test_fixed_point_rounding_carries_into_a_new_digit(self):
        # 7.071067 * sqrt(2) = 9.99999...
        assert approx_scaled(F(7071067, 10**6), 1, 0, 3) == "10.0"

    def test_fixed_point_fewer_digits_than_integer_digits(self):
        assert approx_scaled(F(123456), 1, 0, 3) == "175000"
        assert approx_scaled(F(123456), 0, 1, 4) == "218800"

    def test_digits_validated(self):
        with pytest.raises(ValueError):
            rad(1).approx(0)
