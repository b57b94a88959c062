"""q-Bernoulli numbers/polynomials, degenerate extension, classical tables."""

import asyncio
import contextvars
import functools
import random
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import qbern.bernoulli as bernoulli
import qbern.exactnum as exactnum
from qbern import (
    InadmissibleArg,
    QContext,
    binom,
    carlitz_numbers,
    carlitz_numbers_ratfunc,
    carlitz_poly,
    carlitz_poly_values,
    classical_numbers,
    classical_poly,
    degenerate_qpoly,
    ratfunc_limit,
    stirling1,
)

Q2 = QContext(Fraction(2))


def akiyama_tanigawa(nmax):
    """Independent classical Bernoulli oracle (yields the B_1 = +1/2 convention)."""
    row = []
    out = []
    for n in range(nmax + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def sample_q(rng):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q not in (0, 1, -1):
            return q


class TestCarlitzNumbers:
    def test_seed_value(self):
        assert carlitz_numbers(0, Q2)[0] == 1

    def test_first_two_at_two(self):
        table = carlitz_numbers(2, Q2)
        assert table[1] == Fraction(-1, 3)
        assert table[2] == Fraction(2, 21)

    def test_table_length(self):
        assert len(carlitz_numbers(5, Q2)) == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            carlitz_numbers(-1, Q2)

    @pytest.mark.parametrize("seed", range(10))
    def test_defining_recurrence(self, seed):
        # Q * sum_l C(n,l) Q^l b_l - b_n must be 1 at n = 1 and 0 elsewhere
        rng = random.Random(1000 + seed)
        q = sample_q(rng)
        c = rng.randint(1, 3)
        ctx = QContext(q, c=c)
        Q = q**c
        table = carlitz_numbers(10, ctx)
        assert table[0] == 1
        for n in range(1, 11):
            lhs = Q * sum(binom(n, l) * Q**l * table[l] for l in range(n + 1))
            assert lhs - table[n] == (1 if n == 1 else 0)

    def test_base_exponent_changes_values(self):
        # b_n at base q^2 equals b_n at (q^2)^1
        a = carlitz_numbers(4, QContext(Fraction(2), c=2))
        b = carlitz_numbers(4, QContext(Fraction(4)))
        assert a == b


class TestCarlitzPolynomials:
    def test_at_zero_gives_numbers(self):
        table = carlitz_numbers(6, Q2)
        for n in range(7):
            assert carlitz_poly(n, 0, Q2) == table[n]

    def test_degree_zero_is_one(self):
        assert carlitz_poly(0, Fraction(5, 1), Q2) == 1

    def test_value_at_one(self):
        assert carlitz_poly(1, 1, Q2) == Fraction(1, 3)

    def test_values_list_matches_scalar(self):
        vals = carlitz_poly_values(5, 2, Q2)
        assert vals == [carlitz_poly(n, 2, Q2) for n in range(6)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nmax must be >= 0"):
            carlitz_poly_values(-1, 0, Q2)

    def test_inadmissible_argument(self):
        with pytest.raises(InadmissibleArg):
            carlitz_poly(2, Fraction(1, 3), Q2)

    def test_fractional_argument_with_base(self):
        ctx = QContext(Fraction(2), c=2)
        v = carlitz_poly(1, Fraction(3, 2), ctx)
        assert v.denominator != 0  # admissible: exponent 3 is integral
        # cross-check against the defining sum
        table = carlitz_numbers(1, ctx)
        y = Fraction(3, 2)
        q, c = ctx.q, ctx.c
        bracket = (1 - q ** 3) / (1 - q ** c)
        assert v == table[0] * bracket + q ** 3 * table[1]


class TestValueRowMemo:
    """A shared_rows() block keeps a growing row per (q, c, c*y); the row at y = 0 is the table."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                  st.integers(min_value=1, max_value=9)).filter(lambda q: q not in (0, 1, -1)),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-12, max_value=12),
        st.lists(st.tuples(st.sampled_from(["numbers", "zero", "y"]),
                           st.integers(min_value=0, max_value=7)), min_size=1, max_size=8),
    )
    def test_any_request_order_in_a_block_matches_cold_calls(self, q, c, k, requests):
        # the table grows by the recurrence and a row at y != 0 by its sums
        # from the table; any interleaving of the two in one block must give
        # the values of calls made outside a block, where every call is cold
        ctx = QContext(q, c=c)
        calls = {
            "numbers": lambda n: carlitz_numbers(n, ctx),
            "zero": lambda n: carlitz_poly_values(n, 0, ctx),
            "y": lambda n: carlitz_poly_values(n, Fraction(k, c), ctx),
        }
        with exactnum.shared_rows():
            warm = [calls[kind](nmax) for kind, nmax in requests]
        for (kind, nmax), got in zip(requests, warm):
            assert got == calls[kind](nmax)

    def test_bases_that_share_a_numerator_or_a_denominator_keep_their_own_rows(self):
        # a row is keyed by q's numerator and denominator, c and e = c*y:
        # here every base shares one of them with another, and e = 6 for all
        bases = [QContext(Fraction(2, 3)), QContext(Fraction(2, 5)), QContext(Fraction(4, 5)),
                 QContext(Fraction(2, 3), c=2)]

        def values():
            return [(carlitz_numbers(5, ctx), carlitz_poly_values(5, Fraction(6, ctx.c), ctx))
                    for ctx in bases]

        expected = values()
        with exactnum.shared_rows():
            assert values() == expected

    def test_mutating_a_result_leaves_the_row_alone(self):
        ctx = QContext(Fraction(5, 3), c=2)
        with exactnum.shared_rows():
            got = carlitz_poly_values(4, 3, ctx)
            expected = list(got)
            got[2] = Fraction(99)
            got.append(Fraction(7))
            del got[0]
            assert carlitz_poly_values(4, 3, ctx) == expected
            assert carlitz_poly_values(5, 3, ctx)[:5] == expected

    def test_a_patched_binom_reaches_the_next_call_with_nothing_to_clear(self, monkeypatch):
        # no table outlives its block, so a mutant binom is never served the
        # values computed before it, outside a block or in a new one
        ctx = QContext(Fraction(5, 3), c=2)

        def values():
            return (carlitz_numbers(6, ctx), carlitz_poly_values(6, Fraction(3, 2), ctx),
                    classical_numbers(6))

        with exactnum.shared_rows():
            warm = values()
        monkeypatch.setattr(bernoulli, "binom", lambda n, k: binom(n, k) + 1)
        with exactnum.shared_rows():
            in_block = values()
        for mutant in (values(), in_block):
            for got, was in zip(mutant, warm):
                assert got != was

    def test_a_block_ends_with_its_rows(self, monkeypatch):
        # the rows are bounded by the outermost block's life: inside it a
        # table is built once, a nested block joins it, and after the end
        # nothing is left
        ctx = QContext(Fraction(7, 5))
        calls = []
        real = bernoulli.binom
        monkeypatch.setattr(bernoulli, "binom", lambda n, k: calls.append(n) or real(n, k))
        with exactnum.shared_rows():
            numbers = carlitz_numbers(8, ctx)
            assert carlitz_numbers(8, ctx) == numbers and len(calls) == 36
            with exactnum.shared_rows():
                assert carlitz_numbers(8, ctx) == numbers and len(calls) == 36
            assert carlitz_numbers(8, ctx) == numbers and len(calls) == 36
        fresh = exactnum._block()
        assert fresh == {} and exactnum._block() is not fresh
        assert carlitz_numbers(8, ctx) == numbers and len(calls) == 72

    @pytest.mark.parametrize("start", ["new thread", "copied context", "asyncio.to_thread",
                                       "decorated call"])
    def test_a_thread_started_in_a_block_sees_none_of_its_rows(self, monkeypatch, start):
        # a new thread starts with no block, and so do the other three, though
        # they inherit the opener's context: the memo stays with the thread
        # that opened it, so each builds its own table, all 1 + 2 + ... + 8
        # binomials of it.
        # A decorated call there opens a block of its own, so its two
        # lookups share one table
        ctx = QContext(Fraction(-7, 4), c=3)
        calls = []
        real = bernoulli.binom
        monkeypatch.setattr(bernoulli, "binom", lambda n, k: calls.append(n) or real(n, k))
        seen = []

        def task():
            seen.append(carlitz_numbers(8, ctx))

        def in_thread(target):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()

        with exactnum.shared_rows():
            numbers = carlitz_numbers(8, ctx)
            assert len(calls) == 36
            if start == "new thread":
                in_thread(task)
            elif start == "copied context":
                in_thread(functools.partial(contextvars.copy_context().run, task))
            elif start == "decorated call":
                twice = exactnum.shared_rows()(lambda: carlitz_numbers(8, ctx) and task())
                in_thread(functools.partial(contextvars.copy_context().run, twice))
            else:
                asyncio.run(asyncio.to_thread(task))
            assert seen == [numbers]
            assert len(calls) == 72
            assert carlitz_numbers(8, ctx) == numbers    # the block's own table is still there
            assert len(calls) == 72


class TestDegenerate:
    def test_order_zero(self):
        assert degenerate_qpoly(0, 0, Fraction(3, 7), Q2) == 1

    def test_spec_point(self):
        assert degenerate_qpoly(2, 0, 1, Q2) == Fraction(3, 7)

    def test_zero_deformation_collapses(self):
        for m in range(6):
            assert degenerate_qpoly(m, 1, 0, Q2) == carlitz_poly(m, 1, Q2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            degenerate_qpoly(-1, 0, 0, Q2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_polynomial_in_deformation_of_low_degree(self, m):
        """As a function of the deformation parameter the value is a polynomial
        of degree at most m - 1; interpolation through m nodes must reproduce
        the direct Stirling-sum coefficients."""
        ctx = QContext(Fraction(3), c=1)
        y = 2
        vals = carlitz_poly_values(m, y, ctx)
        # coefficient of lam^j is stirling1(m, m - j) * b_{m-j}(y)
        direct = [stirling1(m, m - j) * vals[m - j] for j in range(m)]
        nodes = [Fraction(i + 1, 2) for i in range(m)]
        samples = [degenerate_qpoly(m, y, lam, ctx) for lam in nodes]
        # solve the Vandermonde system exactly by Newton's divided differences
        coeffs = _poly_from_points(nodes, samples)
        assert coeffs == direct

    def test_fresh_node_matches_interpolant(self):
        m = 4
        ctx = QContext(Fraction(2))
        nodes = [Fraction(i) for i in range(1, m + 1)]
        samples = [degenerate_qpoly(m, 1, lam, ctx) for lam in nodes]
        coeffs = _poly_from_points(nodes, samples)
        fresh = Fraction(9, 4)
        predicted = sum(c * fresh**j for j, c in enumerate(coeffs))
        assert predicted == degenerate_qpoly(m, 1, fresh, ctx)


class TestTermByTermOracle:
    """Each polynomial value against its defining sum, one Fraction term at a time."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                  st.integers(min_value=1, max_value=9)).filter(lambda q: q not in (0, 1, -1)),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=0, max_value=7),
        st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                  st.integers(min_value=1, max_value=9)),
    )
    def test_values_match_defining_sums(self, q, c, k, nmax, lam):
        ctx = QContext(q, c=c)
        y = Fraction(k, c)                           # c*y = k is an integer
        table = carlitz_numbers(nmax, ctx)
        qy = q**k                                    # Q^y with Q = q^c
        bracket = (1 - q**k) / (1 - q**c)            # [y]_Q
        expected = [
            sum((comb(n, l) * qy**l * table[l] * bracket ** (n - l) for l in range(n + 1)),
                Fraction(0))
            for n in range(nmax + 1)
        ]
        assert carlitz_poly_values(nmax, y, ctx) == expected
        for m in range(nmax + 1):
            degenerate = sum((stirling1(m, l) * lam ** (m - l) * expected[l] for l in range(m + 1)),
                             Fraction(0))
            assert degenerate_qpoly(m, y, lam, ctx) == degenerate


def _poly_from_points(xs, ys):
    """Exact interpolating polynomial coefficients, low degree first."""
    n = len(xs)
    divided = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    acc = [divided[n - 1]]
    for i in range(n - 2, -1, -1):              # Horner over Newton nodes
        acc = _poly_mul_linear(acc, xs[i])
        acc[0] += divided[i]
    return acc


def _poly_mul_linear(coeffs, root):
    """coeffs(x) * (x - root), low degree first."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] -= c * root
    return out


class TestClassical:
    def test_known_values(self):
        table = classical_numbers(4)
        assert table[0] == 1
        assert table[1] == Fraction(-1, 2)
        assert table[2] == Fraction(1, 6)
        assert table[3] == 0
        assert table[4] == Fraction(-1, 30)

    def test_odd_vanish(self):
        table = classical_numbers(15)
        for n in range(3, 16, 2):
            assert table[n] == 0

    def test_against_independent_oracle(self):
        table = classical_numbers(12)
        oracle = akiyama_tanigawa(12)
        for n in range(13):
            expected = -oracle[n] if n == 1 else oracle[n]
            assert table[n] == expected

    def test_poly_at_one(self):
        assert classical_poly(2, 1) == Fraction(1, 6)

    def test_poly_at_zero_gives_numbers(self):
        table = classical_numbers(8)
        for m in range(9):
            assert classical_poly(m, 0) == table[m]

    @given(st.integers(min_value=0, max_value=12),
           st.fractions(min_value=-20, max_value=20, max_denominator=50))
    def test_poly_matches_schoolbook_sum(self, m, x):
        # sum_k C(m,k) B_k x^(m-k) term by term in Fractions, B_k from the
        # independent oracle (B_1 = -1/2 here)
        numbers = [-b if k == 1 else b for k, b in enumerate(akiyama_tanigawa(m))]
        expected = sum((comb(m, k) * numbers[k] * x ** (m - k) for k in range(m + 1)),
                       Fraction(0))
        assert classical_poly(m, x) == expected

    def test_forward_difference(self):
        # B_m(x+1) - B_m(x) = m x^{m-1}
        for m in range(1, 8):
            for x in (Fraction(0), Fraction(2), Fraction(-3, 4)):
                diff = classical_poly(m, x + 1) - classical_poly(m, x)
                assert diff == m * x ** (m - 1)


class TestRatFuncRoute:
    def test_limits_are_classical(self):
        fs = carlitz_numbers_ratfunc(10)
        table = classical_numbers(10)
        for n in range(11):
            assert ratfunc_limit(fs[n], 1) == table[n]

    def test_evaluation_matches_number_table(self):
        fs = carlitz_numbers_ratfunc(8)
        direct = carlitz_numbers(8, Q2)
        for n in range(9):
            assert fs[n](Fraction(2)) == direct[n]

    def test_first_function_shape(self):
        # b_1 as a function of q is -1/(q+1)
        f = carlitz_numbers_ratfunc(1)[1]
        for q0 in (Fraction(2), Fraction(-3), Fraction(5, 7)):
            assert f(q0) == Fraction(-1, 1) / (q0 + 1)
