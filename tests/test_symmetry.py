"""Permutation-invariance checks for the weighted identity expressions."""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import qbern.bernoulli as bernoulli
import qbern.exactnum as exactnum
import qbern.symmetry as symmetry
from qbern import (
    CapExceeded,
    PadicParams,
    QContext,
    SigmaView,
    WeightVector,
    carlitz_poly,
    degenerate_qpoly,
    kernel_K,
    q_lam_points,
    qnum,
    riemann_sum_carlitz,
    stirling1,
    thm1_coeffs,
    thm2_expr,
    thm3_expr,
    thm_suite,
    verify,
    vp,
)


def views_of(*w):
    return {v.sigma: v for v in WeightVector(tuple(w)).views()}


@pytest.mark.parametrize("call", [
    lambda: verify("thm2", (2.5, 3), 1, q=2),
    lambda: WeightVector((2, Fraction(3))),
    lambda: SigmaView(WeightVector((2, 3)), (1.0, 2)),
    lambda: kernel_K((2.7,), 0, 0, 3),
    lambda: kernel_K((2,), 1.5, 0, 3),
    lambda: kernel_K((2,), 1, 0.5, 3),
    lambda: kernel_K((2,), 0, 0, 3, b=Fraction(3, 2)),
    lambda: vp(10, 5.5),
    lambda: riemann_sum_carlitz(1, 0, PadicParams(q=Fraction(6), p=5), 1.0),
], ids=["verify-weights", "weight-fraction", "sigma", "kernel-u", "kernel-i", "kernel-t",
        "kernel-b", "vp-p", "riemann-N"])
def test_integer_parameters_reject_floats(call):
    # truncating 2.5 to 2 would check a different identity than the one asked for
    with pytest.raises(TypeError):
        call()


class TestWeightVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightVector(())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector((2, 0))

    def test_views_enumerates_lexicographically(self):
        sigmas = [v.sigma for v in WeightVector((5, 7, 11)).views()]
        assert sigmas == sorted(itertools.permutations((1, 2, 3)))
        assert len(sigmas) == 6


class TestSigmaView:
    def test_split_fields(self):
        view = SigmaView(WeightVector((2, 3, 5)), (3, 1, 2))
        assert view.permuted == (5, 2, 3)
        assert view.W == 10
        assert view.v == 3
        assert view.P == (2, 5)
        assert view.head == (5, 2)

    def test_product_is_sigma_independent(self):
        wv = WeightVector((2, 3, 5))
        total = prod(wv.w)
        for view in wv.views():
            assert view.W * view.v == total

    def test_single_weight(self):
        view = SigmaView(WeightVector((4,)), (1,))
        assert view.W == 1 and view.v == 4 and view.P == ()

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            SigmaView(WeightVector((1, 2)), (1, 1))
        with pytest.raises(ValueError):
            SigmaView(WeightVector((1, 2)), (0, 1))


class TestKernel:
    def test_all_ones_box(self):
        assert kernel_K((1, 1), 0, 3, Fraction(2)) == 1
        assert kernel_K((1, 1), 2, 3, Fraction(2)) == 0

    def test_empty_box(self):
        assert kernel_K((), 0, 0, Fraction(5)) == 1
        assert kernel_K((), 3, 0, Fraction(5)) == 0

    def test_geometric_example(self):
        assert kernel_K((2,), 0, 0, Fraction(3)) == 4

    def test_single_power_example(self):
        assert kernel_K((2,), 1, 0, Fraction(3)) == 3

    def test_base_exponent(self):
        # b = 2 squares the effective base: 1 + q^2
        assert kernel_K((2,), 0, 0, Fraction(3), b=2) == 10

    def test_rejects_degenerate_base(self):
        with pytest.raises(ValueError):
            kernel_K((2,), 0, 0, Fraction(1))

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            kernel_K((2, 0), 0, 0, Fraction(2))

    @staticmethod
    def _brute_force(u, i, t, q, b):
        # every box point, the bracket summed term by term
        U = prod(u)
        qb = q**b
        total = Fraction(0)
        for k in itertools.product(*(range(x) for x in u)):
            S = sum(U // x * kx for x, kx in zip(u, k))
            bracket = sum((qb**j for j in range(S)), Fraction(0))
            total += qb ** ((t + 1) * S) * bracket**i
        return total

    # the ranges the suites reach: i + t <= 6 at m <= 6, and b = v = 5 in (2, 3, 5)
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), max_size=3).map(tuple),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                  st.integers(min_value=1, max_value=9)).filter(lambda q: q not in (0, 1, -1)),
        st.integers(min_value=1, max_value=5),
    )
    def test_matches_brute_force_box_sum(self, u, i, t, q, b):
        expected = self._brute_force(u, i, t, q, b)
        assert kernel_K(u, i, t, q, b) == expected

    @staticmethod
    def _count_kernel_calls(monkeypatch):
        calls = []
        real = symmetry.kernel_K
        monkeypatch.setattr(symmetry, "kernel_K", lambda *args: calls.append(args) or real(*args))
        return calls

    def test_permuted_head_is_its_own_box(self, monkeypatch):
        # a block keys the kernel sums on the view's head as given: the views
        # of (1,2,3,4) with v = 4 have the six orderings of (1,2,3) as heads,
        # whose sums are equal, and each is still summed on its own, once
        calls = self._count_kernel_calls(monkeypatch)
        views = [view for view in WeightVector((1, 2, 3, 4)).views() if view.v == 4]
        assert sorted(view.head for view in views) == sorted(itertools.permutations((1, 2, 3)))
        with exactnum.shared_rows():
            for x, lam in itertools.product((0, 1), (Fraction(0), Fraction(1, 2))):
                for view in views:
                    thm3_expr(view, 2, x, lam, Fraction(5, 3))
        # 6 (i, t) pairs with i + t <= 2 per head
        assert Counter(args[0] for args in calls) == {view.head: 6 for view in views}
        assert len(set(calls)) == len(calls)

    def test_suite_sums_each_kernel_once_per_q(self, monkeypatch):
        # thm_suite opens one block per q for every w, x and lam, so each
        # (head, i, t, q) is summed once, not once per x
        calls = self._count_kernel_calls(monkeypatch)
        points = q_lam_points(40, 0)
        distinct_q = len({q for q, _ in points})
        assert distinct_q == 34
        assert thm_suite("thm3", [(1, 2, 3, 4)], 2, points=points).ok
        # 24 heads x 6 (i, t) pairs with i + t <= 2
        assert len(calls) == len(set(calls)) == 24 * 6 * distinct_q == 4896

    def test_bad_arguments_raise_after_a_good_call(self):
        assert kernel_K((2, 3), 1, 0, Fraction(3)) == self._brute_force((2, 3), 1, 0, Fraction(3), 1)
        for q in (Fraction(0), Fraction(1), Fraction(-1)):
            with pytest.raises(ValueError):
                kernel_K((2, 3), 1, 0, q)
        for bad in [((2, 0), 1, 0, 3, 1), ((2, 3), -1, 0, 3, 1),
                    ((2, 3), 1, -1, 3, 1), ((2, 3), 1, 0, 3, 0)]:
            u, i, t, q, b = bad
            with pytest.raises(ValueError):
                kernel_K(u, i, t, Fraction(q), b)


class TestClosedFormExpression:
    def test_order_zero_closed_form(self):
        # both splits of (2,3) give [6]/([2][3]) = 63/21 = 3
        for view in WeightVector((2, 3)).views():
            assert thm2_expr(view, 0, 0, Fraction(0), Fraction(2)) == 3

    def test_symmetric_weights_trivially_agree(self):
        vals = {
            thm2_expr(view, 3, 1, Fraction(1, 2), Fraction(2))
            for view in WeightVector((1, 1)).views()
        }
        assert len(vals) == 1

    def test_frozen_three_weight_fixture(self):
        # recorded once from a brute-force sweep of all six orderings
        expected = Fraction(2239543039, 104)
        for view in WeightVector((1, 2, 3)).views():
            assert thm2_expr(view, 2, 1, Fraction(1, 2), Fraction(3)) == expected

    def test_single_weight_collapses_to_polynomial(self):
        view = SigmaView(WeightVector((3,)), (1,))
        q = Fraction(2)
        lam = Fraction(1, 4)
        for m in range(4):
            expected = degenerate_qpoly(m, 3 * 2, lam, QContext(q))
            assert thm2_expr(view, m, 2, lam, q) == expected

    def test_zero_deformation_is_plain_q_case(self):
        # lam = 0 must reduce to the non-degenerate weighted identity expression
        q = Fraction(3)
        for view in WeightVector((2, 3)).views():
            ctx_w = QContext(q, c=view.W)
            Wq = qnum(view.W, QContext(q))
            m = 2
            expected = Fraction(0)
            for k in itertools.product(*(range(u) for u in view.head)):
                S = sum(Pj * kj for Pj, kj in zip(view.P, k))
                y = view.v * 1 + sum(
                    Fraction(view.v * kj, uj) for uj, kj in zip(view.head, k)
                )
                expected += q ** (view.v * S) * carlitz_poly(m, y, ctx_w)
            expected *= Wq ** (m - 1)
            assert thm2_expr(view, m, 1, Fraction(0), q) == expected

    @staticmethod
    def _brute_force(view, m, x, lam, q):
        # every box point, its y = v x + sum_j v k_j / u_j and its q-power as Fractions
        Wq = qnum(view.W, QContext(q))
        total = Fraction(0)
        for k in itertools.product(*(range(u) for u in view.head)):
            S = sum(view.W // uj * kj for uj, kj in zip(view.head, k))
            y = view.v * x + sum(Fraction(view.v * kj, uj) for uj, kj in zip(view.head, k))
            total += q ** (view.v * S) * degenerate_qpoly(m, y, lam / Wq, QContext(q, c=view.W))
        return Wq ** (m - 1) * total

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).map(tuple)
        .filter(lambda w: prod(w) > 1),
        st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                  st.integers(min_value=1, max_value=9)).filter(lambda q: q not in (0, 1, -1)),
        st.integers(min_value=-30, max_value=30),
        st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-7, 3))),
        st.data(),
    )
    def test_matches_brute_force_box_walk(self, w, q, k, lam, data):
        # x = k / prod(w) keeps every y admissible at base q^W (W y = prod(w) x + v S).
        # Two x, the first never an integer, are mixed in one block, where one
        # plan per (view, q) serves both
        xs = (k + Fraction(data.draw(st.integers(1, prod(w) - 1)), prod(w)),
              Fraction(data.draw(st.integers(-30, 30)), prod(w)))
        views = list(WeightVector(w).views())
        draws = st.lists(st.tuples(st.sampled_from(views), st.integers(0, 4)), min_size=1, max_size=3)
        calls = data.draw(st.permutations([(view, m, x) for x in xs for view, m in data.draw(draws)]))
        expected = [self._brute_force(view, m, x, lam, q) for view, m, x in calls]
        assert [thm2_expr(view, m, x, lam, q) for view, m, x in calls] == expected
        with exactnum.shared_rows():
            assert [thm2_expr(view, m, x, lam, q) for view, m, x in calls] == expected

    def test_negative_w_bracket_at_order_zero(self):
        # (2, 3) with sigma = (1, 2) has W = 2, and [2]_q = 1 + q = -1 at
        # q = -2: m = 0 takes the inverse of a negative [W]_q
        view = SigmaView(WeightVector((2, 3)), (1, 2))
        q = Fraction(-2)
        assert (view.W, qnum(view.W, QContext(q))) == (2, -1)
        for m, x, lam in itertools.product(range(3), (Fraction(5, 6), Fraction(2)),
                                           (Fraction(0), Fraction(1, 2))):
            assert thm2_expr(view, m, x, lam, q) == self._brute_force(view, m, x, lam, q)

    def test_block_plans_once_and_takes_each_value_once(self, monkeypatch):
        # in one block, qnum runs once per plan, one per (S-count class, q)
        # for every x, and degenerate_qpoly once per (l, 0, q, W, y): the six
        # views of (2, 2, 3) fall into two S-count classes (v = 3 at W = 4,
        # v = 2 at W = 6), the views of a class share its plan and row, and
        # the rows are lam-free, so both lam share them too.  Two classes at
        # two q make four plans
        qnum_calls, value_calls = [], []
        real_qnum, real_value = symmetry.qnum, symmetry.degenerate_qpoly
        monkeypatch.setattr(symmetry, "qnum", lambda *a: qnum_calls.append(a) or real_qnum(*a))
        monkeypatch.setattr(symmetry, "degenerate_qpoly",
                            lambda *a: value_calls.append(a) or real_value(*a))
        views = list(WeightVector((2, 2, 3)).views())
        grid = list(itertools.product(views, range(4), (Fraction(0), Fraction(5, 12)),
                                      (Fraction(0), Fraction(2, 5)), (Fraction(3), Fraction(-2, 7))))
        with exactnum.shared_rows():
            for view, m, x, lam, q in grid:
                thm2_expr(view, m, x, lam, q)
        keys = {(m, 0, q, view.W,
                 view.v * x + sum(Fraction(view.v * kj, uj) for uj, kj in zip(view.head, k)))
                for view, m, x, lam, q in grid
                for k in itertools.product(*(range(u) for u in view.head))}
        assert len(qnum_calls) == len({(view.W, view.v) for view in views}) * 2 == 4
        assert len(value_calls) == len(keys) == 144
        assert {(m, lam, ctx.q, ctx.c, y) for m, y, lam, ctx in value_calls} == keys

    def test_suite_block_builds_each_carlitz_row_once(self, monkeypatch):
        # every degree in one q's block, and every view with the same W,
        # asks for the same (q, W, y) rows and the table at base
        # q^W: one row per distinct key, not one per degree or view.  Box
        # points with equal S/W share a key (k/2 = 2k'/4 in the head
        # (1, 2, 4)), so 42 of the 50 points, plus 4 tables (W = 6, 8, 12, 24).
        keys = {(view.W, sum(Pj * kj for Pj, kj in zip(view.P, k)))
                for view in WeightVector((1, 2, 3, 4)).views()
                for k in itertools.product(*(range(u) for u in view.head))}
        tables = {view.W for view in WeightVector((1, 2, 3, 4)).views()}
        assert (len(keys), tables) == (42, {6, 8, 12, 24})
        rows = []                              # kept alive, so each id is one row object
        real = bernoulli._carlitz_row
        monkeypatch.setattr(bernoulli, "_carlitz_row",
                            lambda *key: rows.append(real(*key)) or rows[-1])
        res = thm_suite("thm2", [(1, 2, 3, 4)], 3, xs=(1,), points=[(Fraction(3), Fraction(2, 5))])
        assert res.ok
        assert len({id(row) for row in rows}) == len(keys) + len(tables) == 46

    # views of two weight vectors that share W = 6 at different v, and a
    # repeated weight, so equal heads and equal W meet inside one block
    _block_views = [*WeightVector((2, 2, 3)).views(), *WeightVector((1, 2, 3)).views()]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(_block_views), min_size=1, max_size=4), st.data())
    def test_block_values_equal_direct_calls(self, views, data):
        # a block keys its plans on (view, q) and its rows on the view's
        # class (W, v, counts, q) and W v x: any key that drops one of them
        # hands a later call the row of another, and W v x = 0 occurs at
        # every W when x = 0.  Calls come in any order, so a row read at a
        # low degree grows later, from the top degree down
        calls = data.draw(st.permutations(list(itertools.product(
            (thm2_expr, thm1_coeffs), views, range(4), (Fraction(0), Fraction(1, 2)),
            (Fraction(0), Fraction(-3, 2)), (Fraction(3), Fraction(-7, 3))))))
        expected = [expr(*args) for expr, *args in calls]
        with exactnum.shared_rows():
            assert [expr(*args) for expr, *args in calls] == expected

    def test_block_takes_each_degenerate_value_once(self, monkeypatch):
        # views with the same W ask for the same (W, y) values, and box points
        # with equal S for the same y: one call per distinct (W, y) and degree
        calls = []
        real = symmetry.degenerate_qpoly
        monkeypatch.setattr(symmetry, "degenerate_qpoly",
                            lambda *args: calls.append(args) or real(*args))
        keys = {(view.W, sum(Pj * kj for Pj, kj in zip(view.P, k)))
                for view in WeightVector((1, 2, 3, 4)).views()
                for k in itertools.product(*(range(u) for u in view.head))}
        res = thm_suite("thm2", [(1, 2, 3, 4)], 3, xs=(1,), points=[(Fraction(2), Fraction(2, 5))])
        assert res.ok
        assert len(calls) == 4 * len(keys) == 168

    def test_suite_reuses_the_row_across_lam(self, monkeypatch):
        # thm2 asks only for lam-free values: a second point at the same q
        # (so in the same block) makes no call the first did not, every call
        # is at deformation 0, and each Carlitz row is fetched before it
        # grows, then grows once, to the top degree
        calls, lengths = [], {}
        real_value, real_row = symmetry.degenerate_qpoly, bernoulli._carlitz_row
        monkeypatch.setattr(symmetry, "degenerate_qpoly",
                            lambda *a: calls.append(a) or real_value(*a))

        def row(*key):
            got = real_row(*key)
            lengths.setdefault(key, set()).add(len(got))
            return got

        monkeypatch.setattr(bernoulli, "_carlitz_row", row)
        one = [(Fraction(3), Fraction(2, 5))]
        assert thm_suite("thm2", [(2, 2, 3)], 4, points=one).ok
        single = list(calls)
        calls.clear()
        lengths.clear()
        assert thm_suite("thm2", [(2, 2, 3)], 4, points=one + [(Fraction(3), Fraction(-7))]).ok
        assert calls == single and {args[2] for args in calls} == {0}
        assert all(seen == {1, 5} for seen in lengths.values())

    def test_a_direct_verify_call_is_one_block(self, monkeypatch):
        # outside any block a verify call still shares rows and tables
        # across its views: one row per (W, y) and one table per W
        rows = []                              # kept alive, so each id is one row object
        real = bernoulli._carlitz_row
        monkeypatch.setattr(bernoulli, "_carlitz_row",
                            lambda *key: rows.append(real(*key)) or rows[-1])
        assert verify("thm2", (1, 2, 3, 4), 3, x=1, lam=Fraction(2, 5), q=Fraction(3)).ok
        assert len({id(row) for row in rows}) == 42 + 4

    def test_a_direct_call_fetches_one_number_table(self, monkeypatch):
        # outside any block a thm2_expr call is a block of its own, so its
        # values share one number table, and so do a thm1_coeffs call's
        # degrees: it takes the top degree first, so each value row grows
        # once and fetches the table once, as one thm2_expr call does
        tables = []
        real = bernoulli._carlitz_row

        def row(q, c, e):
            got = real(q, c, e)
            if e == 0:
                tables.append(got)
            return got

        monkeypatch.setattr(bernoulli, "_carlitz_row", row)
        view = SigmaView(WeightVector((1, 2, 3, 4)), (2, 4, 1, 3))
        sums = {sum(Pj * kj for Pj, kj in zip(view.P, k))
              for k in itertools.product(*(range(u) for u in view.head))}
        thm2_expr(view, 4, 1, Fraction(2, 5), Fraction(3))
        assert len(tables) == len(sums) == 6 and len({id(t) for t in tables}) == 1
        tables.clear()
        thm1_coeffs(view, 4, 1, Fraction(2, 5), Fraction(3))
        assert len(tables) == len(sums) and len({id(t) for t in tables}) == 1

    def test_suite_block_spans_weight_vectors_that_share_a_w(self, monkeypatch):
        # every view of (2,3,4) is in an S-count class of (1,2,3,4) too: at
        # the same (W, v) = (6, 4), (8, 3), (12, 2) the weight 1 adds only
        # S = 0, so the counts are equal.  One block per q shares those class
        # rows, and so takes each value once per degree, where a block per
        # weight vector would take those 24 twice
        calls = []
        real = symmetry.degenerate_qpoly
        monkeypatch.setattr(symmetry, "degenerate_qpoly",
                            lambda *args: calls.append(args) or real(*args))

        def values(w):
            return {(view.W, view.v * (1 + Fraction(sum(Pj * kj for Pj, kj in zip(view.P, k)),
                                                    view.W)))
                    for view in WeightVector(w).views()
                    for k in itertools.product(*(range(u) for u in view.head))}

        shared = values((1, 2, 3, 4)) | values((2, 3, 4))
        per_vector = len(values((1, 2, 3, 4))) + len(values((2, 3, 4)))
        assert (len(shared), per_vector) == (42, 42 + 24)
        res = thm_suite("thm2", [(1, 2, 3, 4), (2, 3, 4)], 3, xs=(1,),
                        points=[(Fraction(2), Fraction(2, 5)), (Fraction(-5, 3), Fraction(1))])
        assert res.ok
        assert len(calls) == 2 * 4 * len(shared)

    def test_views_share_a_row_only_with_equal_counts(self):
        # views of (2,3,4) and (2,2,6) with v = 2 share (W, v) = (12, 2), but
        # their heads {3, 4} and {2, 6} count the box sums differently: a row
        # keyed without the counts would hand one vector the other's values
        res = thm_suite("thm2", [(2, 3, 4), (2, 2, 6)], 3, xs=(1,),
                        points=[(Fraction(3), Fraction(2, 5)), (Fraction(-5, 3), Fraction(1))])
        assert res.ok

    @pytest.mark.parametrize("w, classes", [((1, 2, 3, 4, 5), 5), ((2, 2, 3), 2)])
    def test_block_builds_one_row_per_count_class(self, monkeypatch, w, classes):
        # views with the same last weight have the same head multiset, so
        # the same S-counts: one plan and one row per class, not per view.
        # Each plan takes one qnum for [W]_q, and each row entry puts its
        # values over one denominator once
        calls, qnum_calls = [], []
        real, real_qnum = symmetry._over_lcm, symmetry.qnum
        monkeypatch.setattr(symmetry, "_over_lcm", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(symmetry, "qnum", lambda *a: qnum_calls.append(a) or real_qnum(*a))
        with exactnum.shared_rows():
            values = {thm2_expr(view, 1, Fraction(1, 2), Fraction(2, 5), Fraction(3))
                      for view in WeightVector(w).views()}
        assert len(values) == 1
        assert len(calls) == 2 * classes
        assert len(qnum_calls) == classes

    @pytest.mark.parametrize("w, classes", [((1, 2, 3, 4, 5), 5), ((2, 2, 3), 2)])
    def test_block_transforms_each_class_value_once(self, monkeypatch, w, classes):
        # every view of an S-count class returns its class's value: one
        # Stirling transform per (class, x, m, lam), not one per view
        calls = []
        real = symmetry.stirling_transform
        monkeypatch.setattr(symmetry, "stirling_transform", lambda *a: calls.append(a) or real(*a))
        grid = list(itertools.product(range(3, -1, -1), (Fraction(0), Fraction(5, 12)),
                                      (Fraction(0), Fraction(2, 5))))
        with exactnum.shared_rows():
            for m, x, lam in grid:
                assert verify("thm2", w, m, x=x, lam=lam, q=Fraction(3)).ok
        assert len(calls) == classes * len(grid)

    def test_order_dependent_counts_are_not_shared(self, monkeypatch):
        # a box whose first axis is one point short makes the counts depend
        # on the order of the head: views with the same last weight then
        # count differently, each gets a row of its own, and verify sees it
        monkeypatch.setattr(SigmaView, "head",
                            property(lambda view: (view.permuted[0] - 1, *view.permuted[1:-1])))
        views = [view for view in WeightVector((2, 3, 4)).views() if view.v == 4]
        with exactnum.shared_rows():
            assert len({thm2_expr(view, 2, 1, Fraction(0), Fraction(3)) for view in views}) == 2
        assert not verify("thm2", (2, 3, 4), 2, x=1, q=Fraction(3)).ok


class TestKernelExpansion:
    def test_order_zero_matches_closed_form(self):
        for view in WeightVector((2, 3)).views():
            assert thm3_expr(view, 0, 0, Fraction(0), Fraction(2)) == 3

    def test_single_weight_is_degenerate_polynomial(self):
        view = SigmaView(WeightVector((2,)), (1,))
        q = Fraction(3)
        lam = Fraction(2)
        for m in range(4):
            assert thm3_expr(view, m, 1, lam, q) == degenerate_qpoly(m, 2, lam, QContext(q))

    def test_agrees_with_closed_form(self):
        q = Fraction(2)
        lam = Fraction(1)
        for view in WeightVector((1, 2)).views():
            assert thm3_expr(view, 1, 1, lam, q) == thm2_expr(view, 1, 1, lam, q)

    def test_direct_call_builds_the_whole_row(self, monkeypatch):
        # outside a block every call builds T_0..T_m afresh, p + 1 kernels
        # each, whatever lam is
        calls = []
        real = symmetry.kernel_K
        monkeypatch.setattr(symmetry, "kernel_K", lambda *args: calls.append(args) or real(*args))
        view = SigmaView(WeightVector((2, 3)), (1, 2))
        for m, lam in itertools.product(range(5), (0, Fraction(2, 5))):
            calls.clear()
            thm3_expr(view, m, 1, lam, Fraction(3))
            assert len(calls) == (m + 1) * (m + 2) // 2, (m, lam)

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(2, 5)])
    def test_suite_builds_each_term_once_per_degree(self, monkeypatch, lam):
        # inside one (w, x, q, lam) block, degree m only adds T_m to the
        # shared row: p + 1 kernels for each p <= 4, not the whole row again
        calls = []
        real = symmetry.kernel_K
        monkeypatch.setattr(symmetry, "kernel_K", lambda *args: calls.append(args) or real(*args))
        res = thm_suite("thm3", [(2, 3)], 4, xs=(1,), points=[(Fraction(3), lam)])
        assert res.ok
        assert len(calls) == 2 * 15
        assert {args[0] for args in calls} == {(2,), (3,)}

    @staticmethod
    def _term_by_term(view, m, x, lam, q):
        # the row one Fraction per term, from the unpatched layers, then its Stirling transform
        base = QContext(q)
        Wq, vq = qnum(view.W, base), qnum(view.v, base)
        beta = bernoulli.carlitz_poly_values(m, view.v * x, QContext(q, c=view.W))
        row = [sum((comb(p, s) * Wq ** (s - 1) * vq ** (p - s) * beta[s]
                    * kernel_K(view.head, p - s, s, q, view.v) for s in range(p + 1)), Fraction(0))
               for p in range(m + 1)]
        return exactnum.stirling_transform(row, lam)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).map(tuple),
        st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                  st.integers(min_value=1, max_value=9)).filter(lambda q: q not in (0, 1, -1)),
        st.integers(min_value=-30, max_value=30),
        st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-7, 3))),
        st.data(),
    )
    def test_matches_term_by_term_row(self, w, q, k, lam, data):
        # x = k / prod(w) keeps v x admissible at base q^W; the calls come in
        # any order, so a block's row and brackets grow from any degree
        x = Fraction(k, prod(w))
        views = list(WeightVector(w).views())
        calls = data.draw(st.lists(st.tuples(st.sampled_from(views), st.integers(0, 5)),
                                   min_size=1, max_size=6))
        expected = [self._term_by_term(view, m, x, lam, q) for view, m in calls]
        assert [thm3_expr(view, m, x, lam, q) for view, m in calls] == expected
        with exactnum.shared_rows():
            assert [thm3_expr(view, m, x, lam, q) for view, m in calls] == expected

    def test_negative_w_bracket_at_order_zero(self):
        # (2, 3) with sigma = (1, 2) has W = 2, and [2]_q = 1 + q = -1 at
        # q = -2: the common denominator of T_p carries a negative [W]_q
        view = SigmaView(WeightVector((2, 3)), (1, 2))
        q = Fraction(-2)
        assert (view.W, qnum(view.W, QContext(q))) == (2, -1)
        for m, x, lam in itertools.product((0, 3), (Fraction(5, 6), Fraction(2)),
                                           (Fraction(0), Fraction(1, 2))):
            expected = self._term_by_term(view, m, x, lam, q)
            assert thm3_expr(view, m, x, lam, q) == expected == thm2_expr(view, m, x, lam, q)

    def test_suite_takes_each_bracket_pair_once_per_view_and_q(self, monkeypatch):
        # one qnum pair per (permuted, q) in a block: (2, 2, 3) has three
        # distinct permuted tuples, and thm_suite opens one block per q; it
        # sweeps each cell from the top degree down, so the Carlitz values
        # are fetched once per (permuted, x, q), at degree 4
        qnum_calls, beta_calls = [], []
        real_qnum, real_beta = symmetry.qnum, symmetry.carlitz_poly_values
        monkeypatch.setattr(symmetry, "qnum", lambda *a: qnum_calls.append(a) or real_qnum(*a))
        monkeypatch.setattr(symmetry, "carlitz_poly_values",
                            lambda *a: beta_calls.append(a) or real_beta(*a))
        points = [(Fraction(3), Fraction(0)), (Fraction(-2, 7), Fraction(2, 5))]
        assert thm_suite("thm3", [(2, 2, 3)], 4, xs=(0, 1), points=points).ok
        assert len(qnum_calls) == 2 * 3 * 2
        assert Counter(args[0] for args in beta_calls) == {4: 3 * 2 * 2}


class TestDeformationIdentity:
    # lam enters both routes only through one Stirling transform of the
    # lam-free row: expr(m, lam) = sum_l S1(m,l) lam^(m-l) expr(l, 0)
    @pytest.mark.parametrize("expr", [thm2_expr, thm3_expr], ids=["thm2", "thm3"])
    @pytest.mark.parametrize("weights", [(2, 3), (1, 2, 3), (2, 2, 3)])
    def test_degree_values_are_the_transform_of_the_lam_free_row(self, expr, weights):
        lams = (Fraction(0), Fraction(2, 5), Fraction(-3))
        for view, q, x in itertools.product(WeightVector(weights).views(),
                                            (Fraction(3), Fraction(-7, 3)), (0, 1)):
            row = [expr(view, l, x, 0, q) for l in range(6)]
            for lam, m in itertools.product(lams, range(6)):
                expected = Fraction(0)
                for l in range(m + 1):
                    expected += stirling1(m, l) * lam ** (m - l) * row[l]
                assert expr(view, m, x, lam, q) == expected, (view.sigma, q, x, lam, m)


class TestCoefficientLists:
    def test_leading_coefficient(self):
        view = next(iter(WeightVector((2, 3)).views()))
        assert thm1_coeffs(view, 0, 0, Fraction(0), Fraction(2)) == [Fraction(3)]

    def test_all_ones_weights(self):
        view = SigmaView(WeightVector((1, 1, 1)), (1, 2, 3))
        q = Fraction(2)
        lam = Fraction(1, 3)
        coeffs = thm1_coeffs(view, 4, 1, lam, q)
        for m in range(5):
            assert coeffs[m] == degenerate_qpoly(m, 1, lam, QContext(q)) / factorial(m)

    def test_frozen_two_weight_fixture(self):
        expected = [
            Fraction(1, 1),
            Fraction(-1, 4),
            Fraction(2, 13),
            Fraction(-89, 780),
        ]
        for view in WeightVector((1, 2)).views():
            assert thm1_coeffs(view, 3, 0, Fraction(1), Fraction(3)) == expected


class TestVerify:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            verify("thm9", (1, 2), 1)

    def test_closed_form_invariance(self):
        rep = verify("thm2", (2, 3), 3, x=1, lam=Fraction(1, 2), q=Fraction(2))
        assert rep.ok
        assert rep.verdict == "pass"
        assert len(rep.values) == 2
        assert rep.counterexample is None

    def test_cross_equality_three_weights(self):
        rep = verify("eq20", (1, 2, 3), 2, x=1, lam=Fraction(1, 2), q=Fraction(3))
        assert rep.ok
        assert len(rep.values) == 6

    def test_repeated_weights(self):
        # nothing assumes distinct or coprime entries
        rep = verify("eq20", (2, 2, 3), 1, x=1, lam=Fraction(1), q=Fraction(2))
        assert rep.ok

    def test_coefficient_list_invariance(self):
        rep = verify("thm1", (1, 2), 3, x=0, lam=Fraction(1), q=Fraction(3))
        assert rep.ok
        sigma0, coeffs = rep.values[0]
        assert coeffs[0] == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            verify("thm2", (1,) * 7, 0)

    def test_eq20_invariance_counterexample(self, monkeypatch):
        # both routes agree per sigma but move with it: the invariance check fires
        moving = lambda view, m, x, lam, q: Fraction(view.sigma[0])
        monkeypatch.setattr(symmetry, "thm2_expr", moving)
        monkeypatch.setattr(symmetry, "thm3_expr", moving)
        rep = verify("eq20", (2, 3), 1)
        assert rep.counterexample == {
            "sigma": [2, 1],
            "value": "2/1",
            "expected": "1/1",
            "reference_sigma": [1, 2],
            "reason": "value changed under permutation",
        }

    def test_views_are_built_once_per_block(self, monkeypatch):
        # the suite opens one block per distinct q, and its cells and degrees
        # there read the six views of (1, 2, 3) that the first cell built; a
        # verify call outside any block builds its own
        built = []
        real = SigmaView.__init__
        monkeypatch.setattr(SigmaView, "__init__",
                            lambda view, *a: built.append(view) or real(view, *a))
        points = [(Fraction(3), Fraction(2, 5)), (Fraction(3), Fraction(-1)),
                  (Fraction(-5, 3), Fraction(1))]
        assert thm_suite("thm2", [(1, 2, 3)], 3, xs=(0, 1), points=points).ok
        assert len(built) == 6 * 2
        built.clear()
        assert verify("thm2", (1, 2, 3), 2, q=Fraction(3)).ok
        assert verify("thm2", (1, 2, 3), 2, q=Fraction(3)).ok
        assert len(built) == 6 * 2

    def test_json_schema(self):
        rep = verify("thm2", (2, 3), 0)
        doc = rep.to_json_dict()
        assert set(doc) == {"kind", "weights", "params", "values", "verdict", "counterexample"}
        assert doc["weights"] == [2, 3]
        assert doc["values"][0]["sigma"] == [1, 2]
        assert doc["values"][0]["value"] == "3/1"
        assert doc["verdict"] == "pass"

    def test_json_value_rendering_for_pairs(self):
        doc = verify("eq20", (2, 3), 0).to_json_dict()
        assert doc["values"][0]["value"] == {"thm2": "3/1", "thm3": "3/1"}


class TestAlternativeReading:
    """The displayed integrand can be read with unpermuted interior products.

    That reading is NOT permutation invariant, which is why the fully
    permuted form is the one implemented.  This test keeps the decision
    from regressing silently.
    """

    @staticmethod
    def _mixed_expr(view, m, x, lam, q):
        # like the closed form, but the k-sum exponents use the base-order
        # complements prod_{i != j} w_i instead of the permuted ones
        base_w = view.base.w
        n = len(base_w)
        total_prod = prod(base_w)
        P_base = tuple(total_prod // base_w[j] for j in range(n - 1))
        ctx_w = QContext(q, c=view.W)
        Wq = qnum(view.W, QContext(q))
        lam_scaled = lam / Wq
        qv = q**view.v
        total = Fraction(0)
        for k in itertools.product(*(range(u) for u in view.head)):
            S = sum(Pj * kj for Pj, kj in zip(P_base, k))
            y = view.v * x + sum(
                Fraction(view.v * kj, uj) for uj, kj in zip(view.head, k)
            )
            total += qv**S * degenerate_qpoly(m, y, lam_scaled, ctx_w)
        return Wq ** (m - 1) * total

    def test_mixed_reading_is_not_invariant(self):
        q = Fraction(2)
        values = {
            self._mixed_expr(view, 1, 1, Fraction(0), q)
            for view in WeightVector((1, 2, 3)).views()
        }
        assert len(values) > 1

    def test_implemented_reading_is_invariant_on_same_input(self):
        q = Fraction(2)
        values = {
            thm2_expr(view, 1, 1, Fraction(0), q)
            for view in WeightVector((1, 2, 3)).views()
        }
        assert len(values) == 1


class TestMutationSensitivity:
    def test_corrupted_kernel_is_caught(self, monkeypatch):
        real = symmetry.kernel_K

        def corrupted(u, i, t, q, b=1):
            # drop the q-power weighting: a plausible transcription slip
            val = real(u, i, t, q, b)
            return val if i > 0 else Fraction(len(list(itertools.product(*(range(x) for x in u)))))

        monkeypatch.setattr(symmetry, "kernel_K", corrupted)
        rep = symmetry.verify("eq20", (2, 3), 1, x=1, lam=Fraction(1), q=Fraction(2))
        assert not rep.ok
        assert rep.counterexample is not None
        assert "sigma" in rep.counterexample

    def test_shared_rows_never_mask_a_corrupted_kernel(self, monkeypatch):
        # a suite's rows end with its block: a kernel patched after a passing
        # run is reached by the next direct verify and the next suite alike
        points = [(Fraction(2), Fraction(1))]
        assert thm_suite("eq20", [(2, 3)], 2, xs=(1,), points=points).ok

        def no_qpower(u, i, t, q, b=1):
            # criterion 8's mutant: the nested sum without its q^{b(t+1)S} weight
            qq = Fraction(q) ** b
            total = Fraction(0)
            U = prod(u)
            for k in itertools.product(*(range(x) for x in u)):
                S = sum(U // x * kx for x, kx in zip(u, k))
                total += ((1 - qq**S) / (1 - qq)) ** i
            return total

        monkeypatch.setattr(symmetry, "kernel_K", no_qpower)
        assert not verify("eq20", (2, 3), 1, x=1, lam=1, q=2).ok
        res = thm_suite("eq20", [(2, 3)], 2, xs=(1,), points=points)
        assert not res.ok
        assert res.failures[0]["counterexample"]["reason"] == "closed form and kernel expansion disagree"

    def test_shared_rows_never_mask_a_corrupted_bracket(self, monkeypatch):
        # a block's brackets end with it: a qnum patched after a passing run
        # is reached by the next suite and the next direct verify alike.  At
        # m = 1 the closed form never reads [W]_q (S1(1, 0) = 0 drops lam), so
        # there only the kernel expansion's brackets can make eq20 fail
        points = [(Fraction(2), Fraction(1))]
        assert thm_suite("eq20", [(2, 3)], 2, xs=(1,), points=points).ok
        real = symmetry.qnum
        monkeypatch.setattr(symmetry, "qnum", lambda y, ctx: real(y, ctx) + 1)
        assert not thm_suite("eq20", [(2, 3)], 2, xs=(1,), points=points).ok
        assert not verify("eq20", (2, 3), 1, x=1, lam=1, q=2).ok

    def test_shared_values_never_mask_a_corrupted_degenerate_value(self, monkeypatch):
        # a block's plans, rows and values end with it: a degenerate
        # polynomial patched after a passing run reaches direct calls and
        # suites alike.  thm2 asks only for lam-free values, so the mutant
        # corrupts those: the lam-free row's degree 2 then differs between
        # W = 2 and W = 3
        points = [(Fraction(2), Fraction(1))]
        assert thm_suite("thm2", [(2, 3)], 2, xs=(1,), points=points).ok
        real = symmetry.degenerate_qpoly

        def rescaled(m, y, lam, ctx):
            # the degree-2 values multiplied by the base exponent W
            value = real(m, y, lam, ctx)
            return value * ctx.c if m == 2 else value

        monkeypatch.setattr(symmetry, "degenerate_qpoly", rescaled)
        assert not verify("thm2", (2, 3), 2, x=1, lam=1, q=2).ok
        assert not thm_suite("thm2", [(2, 3)], 2, xs=(1,), points=points).ok
        assert not verify("eq20", (2, 3), 2, x=1, lam=1, q=2).ok

    def test_depermuted_closed_form_is_caught(self, monkeypatch):
        real = symmetry.thm2_expr

        def depermuted(view, m, x, lam, q):
            # always evaluate the identity permutation's view
            base_view = SigmaView(view.base, tuple(range(1, view.base.n + 1)))
            return real(base_view, m, x, lam, q) + (0 if view.sigma == base_view.sigma else 1)

        monkeypatch.setattr(symmetry, "thm2_expr", depermuted)
        rep = symmetry.verify("thm2", (2, 3), 2, x=1, lam=Fraction(1), q=Fraction(2))
        assert not rep.ok
        assert rep.counterexample["reason"] == "value changed under permutation"
