"""p-adic valuations and Riemann-sum convergence checks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import qbern.exactnum as exactnum
import qbern.padic as padic
from qbern import (
    INF,
    PadicParams,
    QContext,
    carlitz_poly,
    convergence_report,
    degenerate_qpoly,
    kim_degenerate,
    oracle_report,
    riemann_sum_carlitz,
    riemann_sum_degenerate,
    riemann_sum_mu1,
    vp,
)

P5 = PadicParams(q=Fraction(6), p=5)


def literal_riemann_sum(n, x0, q, lam, count):
    """(1/[count]_q) sum_{y<count} prod_{i<n}([x0+y]_q - i*lam) q^y, term by term."""
    bracket = lambda e: (1 - q**e) / (1 - q)
    total = Fraction(0)
    for y in range(count):
        term = q**y
        for i in range(n):
            term *= bracket(x0 + y) - i * lam
        total += term
    return total / bracket(count)


class TestValuation:
    def test_examples(self):
        assert vp(50, 5) == 2
        assert vp(Fraction(1, 5), 5) == -1
        assert vp(0, 5) == INF

    def test_unit(self):
        assert vp(Fraction(7, 3), 5) == 0

    @pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 25, 49, 121])
    def test_rejects_non_odd_prime(self, bad):
        with pytest.raises(ValueError):
            vp(10, bad)

    def test_accepts_primes_past_the_first_trial_divisor(self):
        # 11 and 13 take the d += 2 step of the trial division before coming out prime
        assert vp(121, 11) == 2
        assert vp(Fraction(13, 169), 13) == -1

    @given(
        st.fractions(max_denominator=40).filter(lambda r: r != 0),
        st.fractions(max_denominator=40).filter(lambda r: r != 0),
    )
    def test_multiplicative(self, a, b):
        assert vp(a * b, 5) == vp(a, 5) + vp(b, 5)

    @given(st.fractions(max_denominator=40), st.fractions(max_denominator=40))
    def test_ultrametric(self, a, b):
        assert vp(a + b, 7) >= min(vp(a, 7), vp(b, 7))


class TestPadicParams:
    def test_defaults(self):
        assert (P5.p, P5.lam) == (5, 0)

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            PadicParams(q=Fraction(3), p=2)

    def test_rejects_q_far_from_one(self):
        # 1 - 3 = -2 has 5-adic valuation 0
        with pytest.raises(ValueError):
            PadicParams(q=Fraction(3), p=5)

    def test_rejects_q_equal_one(self):
        with pytest.raises(ValueError):
            PadicParams(q=Fraction(1), p=5)

    def test_rejects_non_integral_lam(self):
        with pytest.raises(ValueError):
            PadicParams(q=Fraction(6), lam=Fraction(1, 5), p=5)

    def test_accepts_lam_multiple_of_p(self):
        params = PadicParams(q=Fraction(6), lam=Fraction(5), p=5)
        assert params.lam == 5


class TestCarlitzSums:
    def test_constant_integrand_is_exact(self):
        for N in (1, 2, 3):
            assert riemann_sum_carlitz(0, 0, P5, N) == 1

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("n,x0", [(1, 0), (2, 1), (3, 2)])
    def test_matches_direct_loop(self, n, x0, N):
        # the closed-form moments must equal the sum written out literally
        direct = literal_riemann_sum(n, x0, P5.q, 0, 5**N)
        assert riemann_sum_carlitz(n, x0, P5, N) == direct

    def test_first_moment_convergence(self):
        # the N-th sum approaches -1/(q+1) = -1/7 in the 5-adic metric
        target = Fraction(-1, 7)
        vals = [vp(riemann_sum_carlitz(1, 0, P5, N) - target, 5) for N in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_shifted_argument_convergence(self):
        target = carlitz_poly(2, 1, QContext(Fraction(6)))
        vals = [vp(riemann_sum_carlitz(2, 1, P5, N) - target, 5) for N in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            riemann_sum_carlitz(1, 0, P5, 0)

    def test_rejects_bad_x0(self):
        with pytest.raises(ValueError):
            riemann_sum_carlitz(1, -1, P5, 1)
        with pytest.raises(ValueError):
            riemann_sum_carlitz(1, Fraction(1, 2), P5, 1)


class TestDegenerateSums:
    def test_zero_deformation_collapses(self):
        for n in range(5):
            assert riemann_sum_degenerate(n, 1, P5, 2) == riemann_sum_carlitz(n, 1, P5, 2)

    def test_first_factor_has_no_deformation(self):
        lam_params = PadicParams(q=Fraction(6), lam=Fraction(5), p=5)
        assert riemann_sum_degenerate(1, 0, lam_params, 2) == riemann_sum_carlitz(1, 0, P5, 2)

    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_direct_loop(self, N):
        params = PadicParams(q=Fraction(6), lam=Fraction(1), p=5)
        direct = literal_riemann_sum(3, 1, params.q, params.lam, 5**N)
        assert riemann_sum_degenerate(3, 1, params, N) == direct

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(-6, 6).filter(lambda a: a != 0),
        st.integers(1, 12),
        st.integers(-12, 12),
        st.integers(1, 12),
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(1, 2),
    )
    def test_expansion_matches_term_by_term_loop(self, p, a, da, b, db, n, x0, N):
        # q = 1 + p*a/da has v_p(1-q) >= 1 and lam = b/db is p-integral
        assume(da % p and db % p)
        q, lam = 1 + Fraction(p * a, da), Fraction(b, db)
        count = p**N
        params = PadicParams(q=q, lam=lam, p=p)
        assert riemann_sum_degenerate(n, x0, params, N) == literal_riemann_sum(
            n, x0, q, lam, count)
        assert riemann_sum_carlitz(n, x0, params, N) == literal_riemann_sum(
            n, x0, q, 0, count)

    def test_convergence_to_transform_value(self):
        params = PadicParams(q=Fraction(6), lam=Fraction(5), p=5)
        target = degenerate_qpoly(2, 0, Fraction(5), QContext(Fraction(6)))
        vals = [
            vp(riemann_sum_degenerate(2, 0, params, N) - target, 5) for N in range(1, 6)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSharedExpansions:
    # one q at two primes, a lam that riemann_sum_carlitz must not read, and
    # q, lam pairs that no other point shares
    _points = [PadicParams(q=Fraction(16), lam=Fraction(1), p=3),
               PadicParams(q=Fraction(16), lam=Fraction(1), p=5),
               PadicParams(q=Fraction(16), lam=Fraction(-2, 7), p=5),
               PadicParams(q=Fraction(-2), p=3),
               PadicParams(q=Fraction(4, 7), lam=Fraction(1, 2), p=3)]
    _calls = list(itertools.product((riemann_sum_carlitz, riemann_sum_degenerate), range(4),
                                    (0, 2), _points, (1, 2)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(_calls), min_size=1, max_size=30))
    def test_block_sums_equal_direct_calls(self, calls):
        # a block keeps each expansion per (n, x0, q, lam), free of p and N:
        # a key that dropped one of them would hand a later call another's
        expected = [fn(n, x0, params, N) for fn, n, x0, params, N in calls]
        with exactnum.shared_rows():
            assert [fn(n, x0, params, N) for fn, n, x0, params, N in calls] == expected

    @pytest.mark.parametrize("family,lam", [("carlitz", 0), ("degenerate", 1)])
    def test_a_report_expands_its_integrand_once(self, monkeypatch, family, lam):
        calls = []
        real = padic._expansion
        monkeypatch.setattr(padic, "_expansion", lambda *args: calls.append(args) or real(*args))
        assert oracle_report(family, 3, x0=1, lam=lam, p=7, nmax=6).monotone
        assert len(calls) == 1
        assert oracle_report(family, 3, x0=1, lam=lam, p=7, nmax=6).monotone
        assert len(calls) == 2                 # nothing outlives the report's block


class TestGeometricSums:
    @pytest.mark.parametrize("x0", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family,lam", [("carlitz", 0), ("degenerate", 1), ("degenerate", 5)])
    def test_short_count_mutant_is_caught(self, monkeypatch, family, lam, n, x0):
        # Z = q^(p^N - 1) stops every geometric sum, the normaliser included,
        # one term short; that shifts the limit, so valuations stop growing
        at_level = padic._at_level
        assert oracle_report(family, n, x0=x0, lam=lam, p=5, nmax=4).monotone
        monkeypatch.setattr(padic, "_at_level", lambda e, q, count: at_level(e, q, count - 1))
        assert not oracle_report(family, n, x0=x0, lam=lam, p=5, nmax=4).monotone


class TestUniformSums:
    def test_constant(self):
        assert riemann_sum_mu1(0, 0, Fraction(1), 5, 2) == 1

    def test_linear_closed_form(self):
        # sum of x0 + y over y < c is c*x0 + c(c-1)/2
        for N in (1, 2, 3):
            c = 5**N
            expected = Fraction(c * 2) + Fraction(c * (c - 1), 2)
            assert riemann_sum_mu1(1, 2, Fraction(3), 5, N) == expected / c

    def test_first_moment_tends_to_minus_half(self):
        # S_N + 1/2 = p^N/2 exactly, so the valuation is exactly N; up to
        # 5^20 points, far past what a loop over the points could reach
        for lam in (Fraction(0), Fraction(1), Fraction(7)):
            for N in range(1, 21):
                diff = riemann_sum_mu1(1, 0, lam, 5, N) - Fraction(-1, 2)
                assert diff == Fraction(5**N, 2)
                assert vp(diff, 5) == N

    def test_second_moment_is_faulhaber(self):
        # sum_{y<c} y^2 = (c-1)c(2c-1)/6 at c = 7^12, about 1.4e10 points
        c = 7**12
        assert riemann_sum_mu1(2, 0, 0, 7, 12) == Fraction((c - 1) * (2 * c - 1), 6)

    def test_convergence_to_series_value(self):
        target = kim_degenerate(2, 0, Fraction(1))
        vals = [vp(riemann_sum_mu1(2, 0, Fraction(1), 5, N) - target, 5) for N in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_integer_and_rational_paths_agree(self):
        a = riemann_sum_mu1(3, 2, Fraction(1), 5, 2)
        b = riemann_sum_mu1(3, Fraction(2), Fraction(1), 5, 2)
        assert a == b
        # genuinely fractional (but p-integral) inputs run the generic path
        c = riemann_sum_mu1(2, Fraction(1, 2), Fraction(1, 3), 5, 1)
        direct = sum(
            (Fraction(1, 2) + y) * (Fraction(1, 2) + y - Fraction(1, 3))
            for y in range(5)
        )
        assert c == direct / 5

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(0, 5),
        st.integers(1, 3),
        st.integers(-30, 30),
        st.integers(1, 12),
        st.integers(-30, 30),
        st.integers(1, 12),
    )
    def test_matches_term_by_term_loop(self, p, n, N, a, da, b, db):
        assume(da % p and db % p)              # both inputs p-adically integral
        x0, lam = Fraction(a, da), Fraction(b, db)
        total = Fraction(0)
        for y in range(p**N):
            term = Fraction(1)
            for i in range(n):
                term *= x0 + y - i * lam
            total += term
        assert riemann_sum_mu1(n, x0, lam, p, N) == total / p**N

    def test_rejects_non_integral_inputs(self):
        with pytest.raises(ValueError):
            riemann_sum_mu1(1, Fraction(1, 5), Fraction(0), 5, 1)
        with pytest.raises(ValueError):
            riemann_sum_mu1(1, 0, Fraction(1, 10), 5, 1)


@pytest.mark.parametrize("family", ["carlitz", "degenerate", "mu1"])
@pytest.mark.parametrize("n,N,p", [(1.0, 2, 5), (1, 2.0, 5), (1, 2, 5.0)],
                         ids=["n", "N", "p"])
def test_integer_arguments_reject_floats(family, n, N, p):
    # a float must not reach range() or pow() and be summed as if it were an int
    with pytest.raises(TypeError):
        if family == "mu1":
            riemann_sum_mu1(n, 0, 1, p, N)
        else:
            params = PadicParams(q=Fraction(6), lam=Fraction(1), p=p)
            getattr(padic, f"riemann_sum_{family}")(n, 0, params, N)


class TestConvergenceReport:
    @pytest.mark.parametrize("sums", [[(1, Fraction(6))], []])
    def test_fewer_than_two_levels_is_refused(self, sums):
        # one level or none shows no growth, so it must not pass
        with pytest.raises(ValueError, match=f"at least two levels, got {len(sums)}"):
            convergence_report(Fraction(1), sums, 5)

    @pytest.mark.parametrize("level, error, message", [
        (1.5, TypeError, None),
        (0, ValueError, "level N must be >= 1, got 0"),
        (-3, ValueError, "level N must be >= 1, got -3"),
    ])
    def test_levels_are_counts_from_one(self, level, error, message):
        # a level is checked like every other level argument, not cast with int()
        with pytest.raises(error, match=message):
            convergence_report(Fraction(0), [(level, Fraction(5)), (2, Fraction(25))], 5)

    def test_rows_carry_levels_and_valuations(self):
        sums = [(1, Fraction(26, 25)), (2, Fraction(126, 125))]
        rows, ok = convergence_report(Fraction(1), sums, 5)
        assert rows == [(1, -2), (2, -3)]
        assert not ok

    def test_exact_hit_is_infinite(self):
        sums = [(1, Fraction(3)), (2, Fraction(3, 1))]
        rows, ok = convergence_report(Fraction(3), sums, 5)
        assert [v for _, v in rows] == [INF, INF]
        assert ok

    def test_strict_growth_passes(self):
        sums = [(N, Fraction(2) + Fraction(5) ** N) for N in range(1, 6)]
        rows, ok = convergence_report(Fraction(2), sums, 5)
        assert [v for _, v in rows] == [1, 2, 3, 4, 5]
        assert ok

    def test_wrong_target_is_detected(self):
        # valuations stabilize at v_p(limit - wrong_target): no growth
        sums = [(N, Fraction(2) + Fraction(5) ** N) for N in range(1, 6)]
        rows, ok = convergence_report(Fraction(3), sums, 5)
        assert [v for _, v in rows] == [0, 0, 0, 0, 0]
        assert not ok

    def test_decreasing_valuation_fails(self):
        sums = [(1, Fraction(2 + 25)), (2, Fraction(2 + 5))]
        _, ok = convergence_report(Fraction(2), sums, 5)
        assert not ok

    def test_low_level_plateau_is_accepted(self):
        # shape that the true degenerate sequences produce: one early tie
        sums = [
            (1, Fraction(2) + Fraction(125)),
            (2, Fraction(2) + Fraction(250)),
            (3, Fraction(2) + Fraction(5) ** 4),
            (4, Fraction(2) + Fraction(5) ** 5),
            (5, Fraction(2) + Fraction(5) ** 6),
        ]
        rows, ok = convergence_report(Fraction(2), sums, 5)
        assert [v for _, v in rows] == [3, 3, 4, 5, 6]
        assert ok

    def test_interior_exact_hit_is_skipped(self):
        sums = [
            (1, Fraction(2)),
            (2, Fraction(2) + Fraction(125)),
            (3, Fraction(2) + Fraction(5) ** 4),
            (4, Fraction(2) + Fraction(5) ** 5),
        ]
        rows, ok = convergence_report(Fraction(2), sums, 5)
        assert [v for _, v in rows] == [INF, 3, 4, 5]
        assert ok

    def test_tail_stall_fails_even_after_growth(self):
        sums = [
            (1, Fraction(2) + Fraction(5)),
            (2, Fraction(2) + Fraction(25)),
            (3, Fraction(2) + Fraction(25) * 2),
        ]
        _, ok = convergence_report(Fraction(2), sums, 5)
        assert not ok


class TestMomentIdentity:
    @given(
        st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=9),
        st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=9).filter(
            lambda r: r != 0
        ),
        st.integers(min_value=0, max_value=8),
    )
    def test_scaled_falling_factorial(self, z, lam, n):
        # the division-free product form agrees with the falling factorial of z/lam
        product = Fraction(1)
        falling = Fraction(1)
        for i in range(n):
            product *= z - i * lam
            falling *= z / lam - i
        assert product == lam**n * falling
