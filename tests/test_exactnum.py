"""Exact rational helpers: binomials, Stirling numbers, rational-function limits."""

import gc
import sys
import weakref
from fractions import Fraction
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import assume, example, given, strategies as st

from qbern import (
    PoleError,
    RatFuncQ,
    as_rational,
    binom,
    rat_str,
    ratfunc_limit,
    stirling1,
)
import qbern.exactnum as exactnum
from qbern.exactnum import shared_rows, stirling_transform


def falling(z, n):
    """Falling factorial z(z-1)...(z-n+1), the oracle for stirling1."""
    if n < 0:
        raise ValueError(f"falling needs n >= 0, got {n}")
    return prod((Fraction(z) - i for i in range(n)), start=Fraction(1))


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


class TestAsRational:
    def test_int_passthrough(self):
        assert as_rational(7) == Fraction(7)

    def test_string_form(self):
        assert as_rational("-3/4") == Fraction(-3, 4)

    def test_fraction_identity(self):
        x = Fraction(5, 6)
        assert as_rational(x) == x

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    @given(rationals)
    def test_rat_str_round_trip(self, x):
        assert as_rational(rat_str(x)) == x

    def test_rat_str_always_has_slash(self):
        assert rat_str(Fraction(3)) == "3/1"
        assert rat_str(Fraction(-1, 2)) == "-1/2"

    @pytest.mark.parametrize("limit", [640, 4300])      # CPython's least and default limits
    @pytest.mark.parametrize("d", [5001, 6000, 30001])
    def test_rat_str_past_the_digit_limit(self, limit, d):
        # d sevens, and 10^(d-1) + 1, whose zeros run across every split
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert rat_str(Fraction(-7 * (10**d - 1) // 9)) == "-" + "7" * d + "/1"
            assert rat_str(Fraction(3, 10 ** (d - 1) + 1)) == "3/1" + "0" * (d - 2) + "1"
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(saved)


@shared_rows()
def _memo_of_call():
    return exactnum._block()


def _a_fresh_dict_outside_blocks():
    fresh = exactnum._block()
    return fresh == {} and exactnum._block() is not fresh


class TestSharedRows:
    def test_a_decorated_call_in_a_block_runs_in_it_directly(self, monkeypatch):
        # the call takes the open block's memo and enters no block of its own
        entered = []
        real = shared_rows.__enter__
        monkeypatch.setattr(shared_rows, "__enter__",
                            lambda self: entered.append(self) or real(self))
        with shared_rows():
            memo = exactnum._block()
            assert len(entered) == 1
            assert all(_memo_of_call() is memo for _ in range(3))
            assert len(entered) == 1
        assert _a_fresh_dict_outside_blocks()

    def test_a_decorated_call_outside_a_block_opens_one_and_ends_it(self):
        seen = []

        @shared_rows()
        def fails():
            seen.append(exactnum._block())
            seen[0]["kept"] = True
            seen.append(exactnum._block())
            raise ZeroDivisionError

        first, second = _memo_of_call(), _memo_of_call()
        assert first is not second and _a_fresh_dict_outside_blocks()
        with pytest.raises(ZeroDivisionError):
            fails()
        assert seen[0] is seen[1]           # the whole call is one block
        assert "kept" not in exactnum._block() and _a_fresh_dict_outside_blocks()

    def test_one_instance_entered_twice_keeps_one_memo_until_the_outer_exit(self):
        block = shared_rows()
        with block:
            memo = exactnum._block()
            memo["kept"] = True
            with block:
                assert exactnum._block() is memo
            assert exactnum._block() is memo and memo["kept"]
        assert "kept" not in exactnum._block() and _a_fresh_dict_outside_blocks()

    def test_the_outermost_exit_frees_what_the_block_kept(self):
        # rows live no longer than the outermost block that holds them
        class Row(list):                    # a list subclass takes weak references
            pass

        with shared_rows():
            with shared_rows():
                exactnum._block()["row"] = Row([1, 2])
                ref = weakref.ref(exactnum._block()["row"])
            assert ref() is not None        # the outer block still holds it
        gc.collect()
        assert ref() is None

    def test_a_big_int_is_converted_once_per_block(self, monkeypatch):
        # ints past 2^2000 are split once per block; smaller ones never
        # reach the split.  tops records the calls that start a split
        big = 7 * (10**1000 - 1) // 9
        tops, depth = [], []
        real = exactnum._halves

        def halves(n):
            if not depth:
                tops.append(n)
            depth.append(n)
            try:
                return real(n)
            finally:
                depth.pop()

        monkeypatch.setattr(exactnum, "_halves", halves)
        values = [Fraction(big, 3), Fraction(-big, 5), Fraction(3, big), Fraction(10**600, 3)]
        expected = [f"{v.numerator}/{v.denominator}" for v in values]
        with shared_rows():
            assert [rat_str(v) for v in values * 3] == expected * 3
        assert tops == [big, -big]             # big is a numerator and a denominator
        assert [rat_str(v) for v in values] == expected
        assert tops == [big, -big] + [big, -big, big]      # outside a block, once per use


class TestBinom:
    def test_integer_case(self):
        assert binom(4, 2) == 6

    def test_k_zero_is_one(self):
        assert binom(Fraction(9, 7), 0) == 1

    def test_rational_upper_index(self):
        assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binom(5, -1)

    def test_integer_path_is_the_falling_factorial(self):
        for e in range(-20, 21):
            for k in range(16):
                value = binom(e, k)
                assert isinstance(value, Fraction)
                assert value == falling(e, k) / factorial(k)

    @given(rationals, st.integers(min_value=1, max_value=12))
    def test_pascal_rule(self, x, k):
        assert binom(x, k) == binom(x - 1, k - 1) + binom(x - 1, k)


class TestStirlingFirstKind:
    def test_known_values(self):
        assert stirling1(3, 1) == 2
        assert stirling1(3, 2) == -3
        assert stirling1(4, 2) == 11

    def test_diagonal(self):
        for n in range(9):
            assert stirling1(n, n) == 1

    def test_out_of_range(self):
        assert stirling1(3, 5) == 0
        assert stirling1(3, -1) == 0
        assert stirling1(0, 0) == 1

    def test_deep_row(self):
        # row 1200 lies past the interpreter's recursion limit
        assert stirling1(1200, 1199) == -comb(1200, 2)
        assert stirling1(1200, 1) == (-1) ** 1199 * factorial(1199)

    @given(rationals, st.integers(min_value=0, max_value=12))
    def test_generating_identity(self, z, n):
        # sum_m S1(n, m) z^m reproduces the falling factorial
        total = sum(stirling1(n, m) * z**m for m in range(n + 1))
        assert total == falling(z, n)


class TestOverLcm:
    @given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=60), max_size=10))
    @example(values=[])
    @example(values=[Fraction(0), Fraction(0)])
    @example(values=[Fraction(-3, 4), Fraction(0), Fraction(5, 6), Fraction(-7)])
    def test_numerators_over_the_denominator_lcm(self, values):
        nums, L = exactnum._over_lcm(values)
        assert L == lcm(*(v.denominator for v in values))
        assert all(isinstance(n, int) for n in nums)
        assert [Fraction(n, L) for n in nums] == list(values)


class TestStirlingTransform:
    @given(
        st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                 min_size=1, max_size=8),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=9),
    )
    @example(vals=[Fraction(1, 2), Fraction(-3), Fraction(7, 4)], g=0, h=5)   # lam = 0
    def test_matches_term_by_term_sum(self, vals, g, h):
        # one integer sum over a common denominator, against plain Fractions
        lam = Fraction(g, h)
        m = len(vals) - 1
        expected = Fraction(0)
        for l, v in enumerate(vals):
            expected += stirling1(m, l) * lam ** (m - l) * v
        assert stirling_transform(vals, lam) == expected

    @given(rationals, rationals, st.integers(min_value=0, max_value=8))
    def test_powers_become_the_falling_product(self, z, lam, m):
        # the moments z^l go to prod_{i<m} (z - i lam)
        expected = prod((z - i * lam for i in range(m)), start=Fraction(1))
        assert stirling_transform([z**l for l in range(m + 1)], lam) == expected

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            stirling_transform([], 1)


class TestFalling:
    def test_integer_example(self):
        assert falling(5, 3) == 60

    def test_rational_example(self):
        assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)

    def test_empty_product(self):
        assert falling(Fraction(22, 7), 0) == 1

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            falling(3, -1)


def _pmul(a, b):
    """Coefficient product of two polynomials, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class TestRatFuncQ:
    def test_limit_of_removable_singularity(self):
        f = RatFuncQ((1, 0, -1), (1, -1))  # (1 - q^2) / (1 - q)
        assert ratfunc_limit(f, 1) == 2

    def test_pole_raises(self):
        g = RatFuncQ((1,), (-1, 1))  # 1 / (q - 1)
        with pytest.raises(PoleError):
            ratfunc_limit(g, 1)

    def test_limit_at_regular_point_is_evaluation(self):
        f = RatFuncQ((1, 2), (3, 0, 1))
        a = Fraction(1, 3)
        assert ratfunc_limit(f, a) == f(a)

    @given(rationals)
    def test_evaluation_commutes_with_product(self, a):
        f = RatFuncQ((1, -2), (1, 0, 3))
        g = RatFuncQ((0, 1, 1), (2, 5))
        h = RatFuncQ(_pmul(f.num, g.num), _pmul(f.den, g.den))
        if a == Fraction(-2, 5):                   # the pole of g is one of h
            for fn in (g, h):
                with pytest.raises(PoleError):
                    fn(a)
        else:
            assert h(a) == f(a) * g(a)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.integers(min_value=1, max_value=4),
    )
    def test_limit_cancels_common_root(self, a, b, q0, k):
        # a (q - q0)^k / b (q - q0)^k tends to a(q0) / b(q0)
        b_at = RatFuncQ(b)(q0)
        assume(b_at != 0)
        root = (1,)
        for _ in range(k):
            root = _pmul(root, (-q0, 1))
        f = RatFuncQ(_pmul(a, root), _pmul(b, root))
        assert ratfunc_limit(f, q0) == RatFuncQ(a)(q0) / b_at

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFuncQ((1,), (0,))
