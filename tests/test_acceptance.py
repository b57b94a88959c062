"""Acceptance gate: every shipped claim, executed at full strictness.

Each criterion prints one PASS/FAIL line on the real stdout (visible even
under pytest capture) and then asserts.  All equality checks are exact
rational comparisons; the p-adic checks are valuation-growth checks.
"""

import json
import random
import sys
import time
from fractions import Fraction
from math import factorial, prod

import pytest

import qbern.cli as cli
import qbern.exactnum as exactnum
import qbern.suites as suites
import qbern.symmetry as symmetry
from qbern import (
    INF,
    PadicParams,
    QContext,
    SigmaView,
    WeightVector,
    binom,
    carlitz_numbers,
    carlitz_numbers_ratfunc,
    carlitz_poly,
    classical_numbers,
    classical_poly,
    convergence_report,
    degenerate_qpoly,
    kim_degenerate,
    qnum,
    ratfunc_limit,
    riemann_sum_carlitz,
    riemann_sum_degenerate,
    riemann_sum_mu1,
    thm1_coeffs,
    thm2_expr,
)

WEIGHT_FIXTURES = [(3,), (1, 2), (2, 3), (2, 2), (1, 2, 3), (2, 3, 5), (2, 2, 3), (1, 2, 3, 4)]
WEIGHT_FIXTURES_N3 = [w for w in WEIGHT_FIXTURES if len(w) <= 3]
GRID_SEED = 0


def _report(request, idx: int, name: str, ok: bool, extra: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    line = f"ACCEPTANCE {idx} ({name}): {state}{suffix}"
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        # bypasses output capture so the verdict always reaches the terminal
        reporter.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    return ok


def test_criterion_1_closed_form_invariance_grid(request):
    t0 = time.time()
    res = suites.thm_suite(
        "thm2", WEIGHT_FIXTURES, m_max=6, xs=(0, 1, 2), samples=10, seed=GRID_SEED
    )
    elapsed = time.time() - t0
    ok = res.ok and elapsed < 120
    assert _report(request, 1, "closed-form invariance grid", ok, f"{elapsed:.1f}s"), (
        res.to_json_dict()["verdict"],
        elapsed,
    )


def test_criterion_2_kernel_expansion_grid(request):
    t0 = time.time()
    res = suites.thm_suite(
        "eq20", WEIGHT_FIXTURES, m_max=6, xs=(0, 1, 2), samples=10, seed=GRID_SEED
    )
    elapsed = time.time() - t0
    # the pair reports contain both routes: cross-equality and invariance of
    # the closed form are res.ok; the expansion's own invariance is read off
    # the recorded per-sigma pairs
    expansion_invariant = all(
        len({entry["value"]["thm3"] for entry in item["values"]}) == 1
        for item in res.items
    )
    ok = res.ok and expansion_invariant
    assert _report(request, 2, "kernel expansion grid + cross-equality", ok, f"{elapsed:.1f}s"), (
        res.to_json_dict()["verdict"],
        expansion_invariant,
    )


def test_criterion_3_coefficient_lists(request):
    t0 = time.time()
    res = suites.thm_suite(
        "thm1", WEIGHT_FIXTURES_N3, m_max=6, xs=(0, 1, 2), samples=10, seed=GRID_SEED
    )
    entrywise = True
    points = suites.q_lam_points(10, GRID_SEED)
    for w in WEIGHT_FIXTURES_N3:
        view = SigmaView(WeightVector(w), tuple(range(1, len(w) + 1)))
        for x in (0, 1, 2):
            for qv, lv in points[:3]:
                coeffs = thm1_coeffs(view, 6, x, lv, qv)
                for m in range(7):
                    if coeffs[m] != thm2_expr(view, m, x, lv, qv) / factorial(m):
                        entrywise = False
    elapsed = time.time() - t0
    ok = res.ok and entrywise
    assert _report(request, 3, "generating-series coefficients", ok, f"{elapsed:.1f}s"), (
        res.to_json_dict()["verdict"],
        entrywise,
    )


def test_criterion_4_qnumber_lemmas(request):
    r12 = suites.qlemma_suite("eq12", samples=200, seed=GRID_SEED)
    r16 = suites.qlemma_suite("eq16", samples=200, seed=GRID_SEED)
    ok = r12.ok and r16.ok and len(r12.items) == 200 and len(r16.items) == 200
    assert _report(request, 4, "q-number scaling and addition splits", ok), (r12.ok, r16.ok)


def test_criterion_5_recurrence_and_limits(request):
    ok = True
    rng = random.Random(510)
    for _ in range(10):
        q = suites.sample_q(rng)
        ctx = QContext(q)
        table = carlitz_numbers(10, ctx)
        ok = ok and table[0] == 1
        for n in range(1, 11):
            residual = q * sum(binom(n, l) * q**l * table[l] for l in range(n + 1)) - table[n]
            ok = ok and residual == (1 if n == 1 else 0)
    classical = classical_numbers(10)
    ok = ok and classical[2] == Fraction(1, 6) and classical[4] == Fraction(-1, 30)
    fs = carlitz_numbers_ratfunc(10)
    for n in range(11):
        ok = ok and ratfunc_limit(fs[n], 1) == classical[n]
    assert _report(request, 5, "recurrence residuals + q->1 limits", ok)


def test_criterion_6_series_oracle(request):
    factor = suites.series_factor_suite(order=12, samples=20, seed=GRID_SEED)
    stirling = suites.stirling_mu1_suite(n_max=8, samples=12, seed=GRID_SEED)
    ok = factor.ok and stirling.ok
    assert _report(request, 6, "series factorization + Stirling cross-check", ok), (
        factor.ok,
        stirling.ok,
    )


# Cells where the exact error sequence genuinely deviates from a strict
# staircase: seven early plateaus and one level landing exactly on the
# limit.  Frozen from independent brute-force recomputation; any drift
# here fails the criterion.
KNOWN_NONSTRICT_CELLS = {
    ("degenerate", 5, 1, 2, 1): (3, 3, 4, 5, 6),
    ("degenerate", 7, 1, 2, 1): (3, 3, 4, 5, 6),
    ("degenerate", 7, 1, 4, 2): (3, 3, 4, 5, 6),
    ("degenerate", 7, 7, 4, 0): (3, 3, 4, 5, 6),
    ("degenerate", 7, 7, 4, 1): (3, 3, 4, 5, 6),
    ("mu1", 7, 7, 4, 0): (3, 3, 4, 5, 6),
    ("mu1", 7, 7, 4, 1): (3, 3, 4, 5, 6),
    ("mu1", 5, 1, 4, 0): (INF, 3, 4, 5, 6),
}


def test_criterion_7_padic_oracle_grid(request):
    ok = True
    details = []
    per_p_elapsed = {}
    for p in (5, 7):
        t0 = time.time()
        q = Fraction(1 + p)
        ctx = QContext(q)
        for lam_int in (0, 1, p):
            lam = Fraction(lam_int)
            params = PadicParams(q=q, lam=lam, p=p)
            for n in range(5):
                for x0 in (0, 1, 2):
                    families = []
                    if lam == 0:
                        families.append((
                            "carlitz",
                            carlitz_poly(n, x0, ctx),
                            [(N, riemann_sum_carlitz(n, x0, params, N)) for N in range(1, 6)],
                        ))
                    families.append((
                        "degenerate",
                        degenerate_qpoly(n, x0, lam, ctx),
                        [(N, riemann_sum_degenerate(n, x0, params, N)) for N in range(1, 6)],
                    ))
                    mu1_target = kim_degenerate(n, x0, lam) if lam != 0 else classical_poly(n, x0)
                    families.append((
                        "mu1",
                        mu1_target,
                        [(N, riemann_sum_mu1(n, x0, lam, p, N)) for N in range(1, 6)],
                    ))
                    for family, target, sums in families:
                        rows, verdict = convergence_report(target, sums, p)
                        vals = tuple(v for _, v in rows)
                        cell = (family, p, lam_int, n, x0)
                        if not verdict:
                            ok = False
                            details.append((cell, vals, "verdict false"))
                        if n == 0:
                            # the level sums all equal the limit: error is 0
                            if any(v != INF for v in vals):
                                ok = False
                                details.append((cell, vals, "expected exact representation"))
                        elif cell in KNOWN_NONSTRICT_CELLS:
                            if vals != KNOWN_NONSTRICT_CELLS[cell]:
                                ok = False
                                details.append((cell, vals, "pinned shape drifted"))
                        else:
                            if not all(b > a for a, b in zip(vals, vals[1:])):
                                ok = False
                                details.append((cell, vals, "not strictly increasing"))
        per_p_elapsed[p] = time.time() - t0
    ok = ok and per_p_elapsed[5] < 60 and per_p_elapsed[7] < 300
    timing = f"p5 {per_p_elapsed[5]:.1f}s, p7 {per_p_elapsed[7]:.1f}s"
    assert _report(request, 7, "p-adic valuation growth grid", ok, timing), details


def test_criterion_8_mutation_sensitivity(request):
    failures = []

    with pytest.MonkeyPatch.context() as mp:
        real_s1 = exactnum.stirling1
        mp.setattr(exactnum, "stirling1", lambda n, m: abs(real_s1(n, m)))
        res = suites.stirling_mu1_suite(n_max=4, samples=3, seed=GRID_SEED)
        recorded = [it for it in res.items if not it["equal"]]
        if res.ok or not recorded:
            failures.append("unsigned Stirling convention was not caught")

    with pytest.MonkeyPatch.context() as mp:
        real_k = symmetry.kernel_K

        def no_qpower(u, i, t, q, b=1):
            # recompute the nested sum without the q^{b(t+1)S} weight
            import itertools as it

            from qbern.exactnum import as_rational

            qq = as_rational(q) ** b
            total = Fraction(0)
            U = prod(u) if u else 1
            P = tuple(U // x for x in u)
            for k in it.product(*(range(x) for x in u)):
                S = sum(Pj * kj for Pj, kj in zip(P, k))
                total += ((1 - qq**S) / (1 - qq)) ** i
            return total

        mp.setattr(symmetry, "kernel_K", no_qpower)
        rep = symmetry.verify("eq20", (2, 3), 1, x=1, lam=Fraction(1), q=Fraction(2))
        if rep.ok or rep.counterexample is None:
            failures.append("dropped kernel q-power was not caught")

    with pytest.MonkeyPatch.context() as mp:
        real_t2 = symmetry.thm2_expr

        def depermuted_subscript(view, m, x, lam, q):
            # deformation scale reads the unpermuted leading weights
            import itertools as it

            W_base = prod(view.base.w[:-1]) if view.base.n > 1 else 1
            ctx_w = QContext(Fraction(q), c=view.W)
            Wq = qnum(view.W, QContext(Fraction(q)))
            Wq_base = qnum(W_base, QContext(Fraction(q)))
            lam_scaled = Fraction(lam) / Wq_base
            qv = Fraction(q) ** view.v
            total = Fraction(0)
            for k in it.product(*(range(u) for u in view.head)):
                S = sum(Pj * kj for Pj, kj in zip(view.P, k))
                y = view.v * Fraction(x) + sum(
                    Fraction(view.v * kj, uj) for uj, kj in zip(view.head, k)
                )
                total += qv**S * degenerate_qpoly(m, y, lam_scaled, ctx_w)
            return Wq ** (m - 1) * total

        mp.setattr(symmetry, "thm2_expr", depermuted_subscript)
        rep = symmetry.verify("thm2", (2, 3), 2, x=1, lam=Fraction(1), q=Fraction(2))
        if rep.ok or rep.counterexample is None:
            failures.append("de-permuted subscript was not caught")

    ok = not failures
    assert _report(request, 8, "mutation sensitivity", ok), failures


def test_criterion_9_byte_determinism(request, capsys):
    configs = [
        ["verify", "thm2", "--weights", "2,3", "--m-max", "3", "--samples", "4",
         "--seed", "13", "--format", "json"],
        ["verify", "eq12", "--samples", "60", "--seed", "13", "--format", "json"],
        ["verify", "series-factor", "--order", "10", "--samples", "8",
         "--seed", "13", "--format", "csv"],
        ["oracle", "degenerate", "--n", "2", "--lambda", "5/1", "--format", "json"],
    ]

    def run_all():
        chunks = []
        for argv in configs:
            code = cli.main(list(argv))
            chunks.append((code, capsys.readouterr().out))
        return chunks

    first = run_all()
    second = run_all()
    ok = first == second and all(code == 0 for code, _ in first)
    assert _report(request, 9, "byte-identical reports", ok)
