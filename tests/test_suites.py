"""Suite drivers: seeded sampling and report assembly."""

import itertools
import sys
import threading
from fractions import Fraction

import pytest

import qbern.bernoulli as bernoulli
import qbern.exactnum as exactnum
import qbern.suites as suites
from qbern.series import TruncSeries
from qbern.suites import (
    OracleReport,
    SuiteResult,
    oracle_report,
    q_lam_points,
    qlemma_suite,
    sample_q,
    sample_rational,
    series_factor_suite,
    stirling_mu1_suite,
    thm_suite,
)
from qbern.symmetry import verify


class TestSampling:
    def test_q_avoids_special_values(self):
        import random

        rng = random.Random(0)
        for _ in range(500):
            assert sample_q(rng) not in (0, 1, -1)

    def test_seed_determinism(self):
        assert q_lam_points(10, 7) == q_lam_points(10, 7)
        assert q_lam_points(10, 7) != q_lam_points(10, 8)

    def test_sample_rational_zero_control(self):
        import random

        rng = random.Random(3)
        vals = [sample_rational(rng, exclude=(Fraction(0),)) for _ in range(300)]
        assert all(v != 0 for v in vals)


class TestThmSuite:
    def test_small_sweep_passes(self):
        res = thm_suite("thm2", [(2, 3)], m_max=2, xs=(0, 1), samples=2, seed=5)
        assert isinstance(res, SuiteResult)
        assert res.ok
        # 1 weight vector x 2 xs x 2 points x 3 degrees
        assert len(res.items) == 12

    def test_json_shape(self):
        res = thm_suite("thm2", [(1, 2)], m_max=1, xs=(0,), samples=1, seed=0)
        doc = res.to_json_dict()
        assert doc["suite"] == "verify-thm2"
        assert doc["verdict"] == "pass"
        assert doc["items"][0]["kind"] == "thm2"

    def test_thm1_uses_single_order_cell(self):
        res = thm_suite("thm1", [(1, 2)], m_max=3, xs=(0,), samples=2, seed=1)
        assert res.ok
        assert len(res.items) == 2
        assert res.params["order"] == 3

    @pytest.mark.parametrize("kind", ["thm2", "eq20"])
    def test_items_keep_their_order_when_points_share_a_q(self, kind):
        # one block per (w, q) runs the two points at q = 3 together, yet each
        # item must sit where a direct sweep of verify calls puts it
        weights, xs = [(2, 3), (1, 2, 2)], (0, Fraction(1, 2))
        points = [(Fraction(3), Fraction(1, 2)), (Fraction(-7, 3), Fraction(0)),
                  (Fraction(3), Fraction(-2))]
        expected = [verify(kind, w, m, x=x, lam=lam, q=q).to_json_dict()
                    for w, x, (q, lam), m in itertools.product(weights, xs, points, range(3))]
        assert list(thm_suite(kind, weights, 2, xs=xs, points=points).items) == expected

    def test_threads_running_one_suite_share_no_rows(self, monkeypatch):
        # two threads run the same suite at once while this thread holds a
        # block and runs it too: every report equals a serial run, and no
        # Carlitz row list reaches more than one thread
        args, kwargs = ("thm2", [(1, 2, 3, 4), (2, 2)], 3), dict(xs=(0, 1, 2), samples=6, seed=4)
        serial = thm_suite(*args, **kwargs)
        rows, reports = {}, {}
        real = bernoulli._carlitz_row

        def recording(q, c, e):
            row = real(q, c, e)
            rows.setdefault(threading.get_ident(), {})[id(row)] = row
            return row

        def run(name):
            reports[name] = thm_suite(*args, **kwargs)

        monkeypatch.setattr(bernoulli, "_carlitz_row", recording)
        threads = [threading.Thread(target=run, args=(name,)) for name in ("a", "b")]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)         # switch threads often, mid-row too
        try:
            with exactnum.shared_rows():
                for thread in threads:
                    thread.start()
                run("held")
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(saved)
        assert reports == {"a": serial, "b": serial, "held": serial}
        assert len(rows) == 3
        ids = [set(kept) for kept in rows.values()]
        assert all(not (mine & theirs) for mine, theirs in itertools.combinations(ids, 2))

    def test_views_share_one_string_per_big_value(self):
        # the 120 views of an item print each value past 2^2000 as one str
        # object; here m = 2 and 3 are past it, the top one about 3,800 bits
        res = thm_suite("thm2", [(1, 2, 3, 4, 5)], 3, xs=(1,),
                        points=[(Fraction(7, 9), Fraction(2, 5))])
        big = [item for item in res.items if item["params"]["m"] in ("2", "3")]
        assert len(big) == 2 and res.ok
        for item in big:
            texts = [entry["value"] for entry in item["values"]]
            assert len(texts) == 120
            assert len({id(text) for text in texts}) == len(set(texts)) == 1

    def test_explicit_points_override_sampling(self):
        pts = [(Fraction(2), Fraction(1))]
        res = thm_suite("thm2", [(2, 2)], m_max=1, xs=(1,), points=pts)
        assert res.params["samples"] == 1
        assert res.ok


class TestQLemmaSuites:
    @pytest.mark.parametrize("which", ["eq12", "eq16"])
    def test_full_runs_pass(self, which):
        res = qlemma_suite(which, samples=200, seed=0)
        assert res.ok
        assert len(res.items) == 200
        assert all(item["equal"] for item in res.items)

    def test_rejects_unknown_lemma(self):
        with pytest.raises(ValueError):
            qlemma_suite("eq99")

    def test_determinism(self):
        a = qlemma_suite("eq12", samples=20, seed=4)
        b = qlemma_suite("eq12", samples=20, seed=4)
        assert a.items == b.items


class TestSeriesSuites:
    def test_factor_suite_passes(self):
        res = series_factor_suite(order=8, samples=6, seed=2)
        assert res.ok
        assert all(item["first_mismatch"] is None for item in res.items)

    def test_stirling_suite_passes(self):
        res = stirling_mu1_suite(n_max=5, samples=4, seed=2)
        assert res.ok

    def test_stirling_suite_builds_one_classical_row_per_sample(self, monkeypatch):
        calls = []
        real = suites.bernoulli.classical_poly
        monkeypatch.setattr(suites.bernoulli, "classical_poly",
                            lambda m, x: calls.append(m) or real(m, x))
        assert stirling_mu1_suite(n_max=8, samples=3, seed=0).ok
        assert calls == list(range(9)) * 3

    def test_stirling_suite_builds_one_series_per_sample(self, monkeypatch):
        orders = []
        real = suites.series.kim_series
        monkeypatch.setattr(suites.series, "kim_series",
                            lambda x, lam, order: orders.append(order) or real(x, lam, order))
        assert stirling_mu1_suite(n_max=8, samples=3, seed=0).ok
        assert orders == [8] * 3

    def test_stirling_suite_without_degrees_builds_no_series(self, monkeypatch):
        orders = []
        monkeypatch.setattr(suites.series, "kim_series",
                            lambda x, lam, order: orders.append(order))
        with pytest.raises(ValueError, match="no checks"):
            stirling_mu1_suite(n_max=-1, samples=3, seed=0)
        assert orders == []

    def test_stirling_suite_sees_a_corrupted_series(self, monkeypatch):
        real = suites.series.kim_series

        def corrupted(x, lam, order):
            gen = real(x, lam, order)
            return TruncSeries(gen.coeffs[:3] + (gen[3] + Fraction(1, 7),) + gen.coeffs[4:])

        monkeypatch.setattr(suites.series, "kim_series", corrupted)
        res = stirling_mu1_suite(n_max=4, samples=2, seed=0)
        assert [(item["index"], item["n"]) for item in res.failures] == [(0, 3), (1, 3)]

    def test_stirling_suite_sees_module_attribute(self, monkeypatch):
        import qbern.exactnum as exactnum

        real = exactnum.stirling1
        monkeypatch.setattr(
            suites.exactnum, "stirling1", lambda n, m: -real(n, m) if n > m else real(n, m)
        )
        res = stirling_mu1_suite(n_max=4, samples=2, seed=0)
        assert not res.ok


class TestOracleReport:
    def test_carlitz_family(self):
        rep = oracle_report("carlitz", n=1, x0=0, p=5)
        assert isinstance(rep, OracleReport)
        assert rep.q == 6
        assert rep.ok
        assert [N for N, _ in rep.rows] == [1, 2, 3, 4, 5]

    def test_degenerate_family_with_lam(self):
        rep = oracle_report("degenerate", n=2, x0=1, lam=Fraction(1), p=5)
        assert rep.ok
        assert rep.lam == 1

    def test_mu1_family_records_unit_q(self):
        rep = oracle_report("mu1", n=2, x0=0, lam=Fraction(1), p=5)
        assert rep.q == 1
        assert rep.ok

    def test_mu1_rejects_other_q(self):
        with pytest.raises(ValueError):
            oracle_report("mu1", n=1, q=Fraction(6))

    def test_carlitz_rejects_lambda(self):
        # the carlitz sums and target ignore lam, so a nonzero one would be recorded unused
        with pytest.raises(ValueError, match="takes no lambda"):
            oracle_report("carlitz", n=2, lam=Fraction(5))

    def test_q_families_reject_fractional_x0(self):
        with pytest.raises(ValueError, match="x0 must be a nonnegative integer, got 7/2"):
            oracle_report("degenerate", n=2, x0=Fraction(7, 2), lam=Fraction(5))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            oracle_report("gauss", n=1)

    def test_json_schema(self):
        doc = oracle_report("carlitz", n=1, x0=0, p=5).to_json_dict()
        assert set(doc) == {
            "family", "p", "q", "lambda", "n", "x0", "target", "rows", "monotone",
        }
        assert doc["rows"][0].keys() == {"N", "valuation"}
        assert doc["monotone"] is True

    @pytest.mark.parametrize("nmax", [1, 0, -1])
    def test_needs_two_levels(self, nmax):
        # one row cannot show growth, so it must not be reported as monotone
        with pytest.raises(ValueError, match="nmax"):
            oracle_report("carlitz", n=1, x0=0, p=5, nmax=nmax)
