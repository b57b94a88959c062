"""Suite drivers: seeded sampling and report assembly."""

from fractions import Fraction

import pytest

import qbern.suites as suites
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
