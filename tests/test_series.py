"""Truncated power series engine and the two degenerate Bernoulli families."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from qbern import (
    TruncSeries,
    ZeroLambda,
    binom_series,
    carlitz_degenerate,
    carlitz_series,
    classical_poly,
    kim_degenerate,
    kim_series,
    log1p_series,
    log_factor_series,
    stirling1,
)
from qbern.exactnum import binom

small_fracs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)
coeff_lists = st.lists(small_fracs, min_size=1, max_size=7)


def series(coeffs):
    return TruncSeries(tuple(Fraction(c) for c in coeffs))


class TestTruncSeries:
    def test_order_counts_terms_above_constant(self):
        s = series([1, 2, 3])
        assert s.order == 2

    def test_getitem_beyond_order_raises(self):
        # coefficients past the truncation point are unknown, not zero
        with pytest.raises(IndexError):
            series([1])[5]

    def test_getitem_below_zero_raises(self):
        # a power series has no t^-1 term; the tuple's own [-1] is the top one
        with pytest.raises(IndexError, match="no t\\^-1 term"):
            series([1, 2])[-1]

    def test_valuation(self):
        assert series([0, 0, 7, 1]).valuation() == 2
        assert series([3, 1]).valuation() == 0

    def test_valuation_of_zero_is_order_plus_one(self):
        s = series([0, 0, 0])
        assert s.valuation() == s.order + 1

    def test_constant_and_t(self):
        assert TruncSeries.constant(Fraction(5), 3) == series([5, 0, 0, 0])
        assert TruncSeries.t(2) == series([0, 1, 0])

    def test_mul_truncates_to_shorter_operand(self):
        a = series([1, 1, 1, 1])       # order 3
        b = series([1, 1])             # order 1
        assert (a * b).order == 1
        assert (a * b) == series([1, 2])

    def test_inverse_of_unit(self):
        a = series([1, 3, -2, 5])
        prod = a * a.inverse()
        assert prod == TruncSeries.constant(1, a.order)

    def test_inverse_needs_unit_constant(self):
        with pytest.raises(ZeroDivisionError):
            series([0, 1]).inverse()

    def test_division_cancels_common_t_power(self):
        # (t + t^2) / (t) = 1 + t, losing one order of precision
        num = series([0, 1, 1, 0])
        den = series([0, 1, 0, 0])
        quot = num / den
        assert quot == series([1, 1, 0])
        assert quot.order == num.order - 1

    def test_division_requires_matching_valuation(self):
        with pytest.raises(ValueError):
            series([1, 0, 0]) / series([0, 1, 0])

    def test_division_by_zero_series(self):
        with pytest.raises(ZeroDivisionError):
            series([1, 2]) / series([0, 0])

    @given(coeff_lists, coeff_lists)
    def test_mul_commutes(self, a, b):
        assert series(a) * series(b) == series(b) * series(a)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_add_associates(self, a, b, c):
        x, y, z = series(a), series(b), series(c)
        assert (x + y) + z == x + (y + z)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_mul_distributes(self, a, b, c):
        x, y, z = series(a), series(b), series(c)
        assert x * (y + z) == x * y + x * z

    @given(coeff_lists)
    def test_division_round_trip(self, a):
        x = series(a)
        d = series([1, -1, 2])
        prod = x * d
        top = prod.order + 1
        assert prod / series(d.coeffs[:top]) == series(x.coeffs[:top])


def schoolbook_mul(a, b):
    """Coefficients of a * b through the shorter order, one Fraction product at a time."""
    m = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(m)]


def schoolbook_div(a, b):
    """Coefficients of a / b: cancel b's leading t power, then solve b * out = a term by term."""
    v = next(k for k, c in enumerate(b) if c)
    num, den = a[v:] or [Fraction(0)], b[v:]
    out = []
    for k in range(min(len(num), len(den))):
        out.append((num[k] - sum((den[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)))
                   / den[0])
    return out


# zeros drawn often, so sparse rows and zero leading terms are common
sparse_fracs = st.one_of(st.just(Fraction(0)), small_fracs)
sparse_lists = st.lists(sparse_fracs, min_size=1, max_size=9)


@st.composite
def quotient_pairs(draw, valuations=(0, 1, 2)):
    """(dividend, divisor): the divisor has one of the valuations, the dividend vanishes as fast."""
    v = draw(st.sampled_from(valuations))
    lead = draw(small_fracs.filter(bool))
    den = [Fraction(0)] * v + [lead] + draw(st.lists(sparse_fracs, max_size=8))
    num = [Fraction(0)] * v + draw(sparse_lists)
    return num, den


class TestIntegerArithmetic:
    """* and / against the plain Fraction schoolbook forms."""

    @given(sparse_lists, sparse_lists)
    def test_mul_matches_schoolbook(self, a, b):
        assert series(a) * series(b) == series(schoolbook_mul(a, b))

    @given(quotient_pairs())
    def test_div_matches_schoolbook(self, pair):
        a, b = pair
        assert series(a) / series(b) == series(schoolbook_div(a, b))

    @given(quotient_pairs())
    def test_quotient_times_divisor_is_dividend(self, pair):
        a, b = pair
        quot = series(a) / series(b)
        assert quot * series(b) == series(a[: quot.order + 1])

    @given(sparse_lists.filter(lambda a: a[0] != 0))
    def test_inverse_matches_schoolbook(self, a):
        one = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
        assert series(a).inverse() == series(schoolbook_div(one, a))

    @given(quotient_pairs(valuations=(1, 2)), sparse_fracs.filter(bool), st.data())
    def test_dividend_below_divisor_valuation_raises(self, pair, c, data):
        a, b = pair
        k = data.draw(st.integers(0, series(b).valuation() - 1))
        with pytest.raises(ValueError, match="dividend valuation below divisor valuation"):
            series(a[:k] + [c] + a[k + 1:]) / series(b)

    @given(sparse_lists, st.integers(1, 8))
    def test_zero_divisor_and_zero_constant_raise(self, a, order):
        with pytest.raises(ZeroDivisionError, match="division by the zero series"):
            series(a) / TruncSeries.constant(0, order)
        with pytest.raises(ZeroDivisionError, match="inverse needs a nonzero constant term"):
            TruncSeries.t(order).inverse()


class TestBuildingBlocks:
    def test_binom_series_exponent_zero(self):
        assert binom_series(Fraction(3), 0, 4) == TruncSeries.constant(1, 4)

    def test_binom_series_linear(self):
        assert binom_series(Fraction(1), 1, 3) == series([1, 1, 0, 0])

    def test_binom_series_fractional_exponent(self):
        s = binom_series(Fraction(2), Fraction(1, 2), 4)
        assert s[0] == 1
        assert s[1] == 1              # binom(1/2,1) * 2
        assert s[2] == Fraction(-1, 2)  # binom(1/2,2) * 4

    @given(small_fracs, small_fracs)
    def test_binom_series_row_is_binom_times_lam_power(self, lam, e):
        # the row is built coefficient from coefficient; each must still be binom(e, k) lam^k
        s = binom_series(lam, e, 6)
        assert [s[k] for k in range(7)] == [binom(e, k) * lam**k for k in range(7)]

    def test_log1p_series(self):
        s = log1p_series(Fraction(1), 4)
        assert [s[k] for k in range(5)] == [
            Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4),
        ]

    def test_log_factor_starts_at_one(self):
        s = log_factor_series(Fraction(1, 3), 3)
        assert s[0] == 1

    def test_log_factor_rejects_zero(self):
        with pytest.raises(ZeroLambda, match="pole at lam = 0"):
            log_factor_series(Fraction(0), 3)

    @pytest.mark.parametrize("maker", [carlitz_series, kim_series])
    def test_generating_functions_reject_zero(self, maker):
        with pytest.raises(ZeroLambda):
            maker(0, Fraction(0), 5)


class TestCarlitzFamily:
    def test_order_zero_is_one(self):
        assert carlitz_degenerate(0, 0, Fraction(1, 2)) == 1

    def test_first_value_tracks_deformation(self):
        for lam in (Fraction(1), Fraction(-2), Fraction(3, 4)):
            assert carlitz_degenerate(1, 0, lam) == (lam - 1) / 2

    def test_known_point(self):
        assert carlitz_degenerate(2, 3, Fraction(1)) == 6

    def test_order_headroom_is_irrelevant(self):
        # each family's series at order n is already exact through t^n
        x, lam = 1, Fraction(2, 3)
        for gen, fn in ((carlitz_series, carlitz_degenerate), (kim_series, kim_degenerate)):
            for n in range(5):
                for extra in (0, 3, 7):
                    assert factorial(n) * gen(x, lam, n + extra)[n] == fn(n, x, lam)

    def test_zero_deformation_rejected(self):
        with pytest.raises(ZeroLambda):
            carlitz_degenerate(2, 0, Fraction(0))


class TestKimFamily:
    def test_first_value_is_deformation_free(self):
        for lam in (Fraction(1), Fraction(5), Fraction(-1, 7)):
            assert kim_degenerate(1, 0, lam) == Fraction(-1, 2)

    def test_order_zero_is_one(self):
        assert kim_degenerate(0, 2, Fraction(1)) == 1

    def test_stirling_expansion(self):
        # value equals sum_m S1(n,m) lam^{n-m} B_m(x) for every n, x, lam tried
        for n in range(9):
            for x, lam in ((0, Fraction(1)), (2, Fraction(1, 2)), (Fraction(-1, 2), Fraction(3))):
                expected = sum(
                    stirling1(n, m) * lam ** (n - m) * classical_poly(m, x)
                    for m in range(n + 1)
                )
                assert kim_degenerate(n, x, lam) == expected


class TestFactorIdentity:
    def test_series_level_factorization(self):
        # the two generating functions differ by log(1+lam t)/(lam t), exactly
        order = 10
        for x, lam in ((0, Fraction(1)), (1, Fraction(-1, 2)), (Fraction(3, 2), Fraction(2))):
            lhs = kim_series(x, lam, order)
            rhs = log_factor_series(lam, order) * carlitz_series(x, lam, order)
            assert lhs == rhs

    def test_value_level_consequence(self):
        # n! * [t^n] applied to the factored form reproduces kim_degenerate
        n, x, lam = 5, 1, Fraction(2, 5)
        order = n + 4
        prod = log_factor_series(lam, order) * carlitz_series(x, lam, order)
        assert factorial(n) * prod[n] == kim_degenerate(n, x, lam)
