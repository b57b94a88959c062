"""q-numbers and the two splitting identities they satisfy."""

import random
from fractions import Fraction

import pytest

from qbern import (
    InadmissibleArg,
    QContext,
    RatFuncQ,
    qnum,
    qnum_add_split,
    qnum_scale_split,
    ratfunc_limit,
)


def rnd_q(rng):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q not in (0, 1, -1):
            return q


class TestQContext:
    @pytest.mark.parametrize("bad", [0, 1, -1])
    def test_rejects_degenerate_q(self, bad):
        with pytest.raises(ValueError):
            QContext(Fraction(bad))

    @pytest.mark.parametrize("bad_c", [0, -1, Fraction(1, 2), "2"])
    def test_rejects_bad_base_exponent(self, bad_c):
        with pytest.raises(ValueError):
            QContext(Fraction(2), c=bad_c)


class TestQnum:
    def test_integer_argument(self):
        assert qnum(2, QContext(Fraction(3))) == 4

    def test_zero(self):
        assert qnum(0, QContext(Fraction(5, 7))) == 0

    def test_one_is_one(self):
        assert qnum(1, QContext(Fraction(-3, 2), c=3)) == 1

    def test_fractional_argument_with_matching_base(self):
        # (1 - 2^3) / (1 - 2^2) at y = 3/2, c = 2
        assert qnum(Fraction(3, 2), QContext(Fraction(2), c=2)) == Fraction(7, 3)

    def test_non_integral_exponent_rejected(self):
        with pytest.raises(InadmissibleArg):
            qnum(Fraction(1, 2), QContext(Fraction(2)))

    def test_limit_at_one_recovers_argument(self):
        # as a function of q, [y] tends to y when q -> 1
        for y in range(9):
            num_coeffs = [1] + [0] * (y - 1) + [-1] if y else [0]
            f = RatFuncQ(tuple(num_coeffs), (1, -1))     # (1 - q^y) / (1 - q)
            assert ratfunc_limit(f, 1) == y


class TestScaleSplit:
    def test_integer_example(self):
        # [6] = [2] * [3 at base squared]
        assert qnum_scale_split(3, 2, QContext(Fraction(2))) == (63, 63)

    def test_fractional_example(self):
        left, right = qnum_scale_split(Fraction(5, 2), 2, QContext(Fraction(3)))
        assert left == right == 121

    def test_zero_argument(self):
        ctx = QContext(Fraction(7, 5))
        assert qnum_scale_split(0, 3, ctx) == (0, 0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            qnum_scale_split(2, 0, QContext(Fraction(2)))

    def test_random_instances_agree(self):
        rng = random.Random(421)
        for _ in range(200):
            q = rnd_q(rng)
            c0 = rng.randint(1, 3)
            c = rng.randint(1, 4)
            z = Fraction(rng.randint(-9, 9), c * c0)
            left, right = qnum_scale_split(z, c, QContext(q, c=c0))
            assert left == right


class TestAddSplit:
    def test_small_example(self):
        left, right = qnum_add_split(1, 1, QContext(Fraction(3)))
        assert left == right == 4

    def test_spec_example(self):
        assert qnum_add_split(2, 3, QContext(Fraction(2))) == (31, 31)

    def test_zero_second_argument(self):
        left, right = qnum_add_split(Fraction(5, 2), 0, QContext(Fraction(2), c=2))
        assert left == right

    def test_random_instances_agree(self):
        rng = random.Random(422)
        for _ in range(200):
            q = rnd_q(rng)
            c0 = rng.randint(1, 3)
            a = Fraction(rng.randint(-9, 9), c0)
            b = Fraction(rng.randint(-9, 9), c0)
            left, right = qnum_add_split(a, b, QContext(q, c=c0))
            assert left == right
