"""Seeded verification suites and oracle reports behind the CLI.

Each suite sweeps a deterministic grid (the seed fully fixes every random
rational), evaluates an exact identity at every cell, and returns a
SuiteResult whose JSON form is byte-stable for a fixed configuration.
Suites and oracle reports hold data only; the CLI renders every report
format from that JSON form.
Identity evaluators are reached through their modules rather than by
from-imports, so a test can swap one out and watch the verdict flip.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from . import bernoulli, exactnum, padic, qcore, series, symmetry
from .exactnum import RationalLike, _Value, _count, as_rational, rat_str
from .padic import INF, PadicParams, Valuation
from .qcore import SPECIAL_Q, QContext

__all__ = [
    "SuiteResult",
    "OracleReport",
    "sample_rational",
    "sample_q",
    "q_lam_points",
    "thm_suite",
    "qlemma_suite",
    "series_factor_suite",
    "stirling_mu1_suite",
    "oracle_report",
]

ORACLE_FAMILIES = ("carlitz", "degenerate", "mu1")


# -- seeded rational sampling -------------------------------------------------


def sample_rational(rng: random.Random, exclude: Sequence[Fraction] = ()) -> Fraction:
    """Uniform num/den with num in [-9, 9], den in [1, 9], minus exclusions.

    The small bounds keep the big-integer growth of the nested sums in
    check; they are a sampling choice, not a domain restriction.
    """
    while True:
        val = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if val not in exclude:
            return val


def sample_q(rng: random.Random) -> Fraction:
    """A random base, rejecting 0 and the roots of unity +-1."""
    return sample_rational(rng, exclude=SPECIAL_Q)


def q_lam_points(samples: int, seed: int) -> List[Tuple[Fraction, Fraction]]:
    """The seeded (q, lam) sample list shared across a suite's grid."""
    rng = random.Random(seed)
    return [(sample_q(rng), sample_rational(rng)) for _ in range(samples)]


# -- result containers --------------------------------------------------------


class SuiteResult(_Value):
    """One suite's outcome: one JSON item per check, which the verdict and all reports read."""

    _fields = ("name", "params", "items")
    __hash__ = None                     # params and items are dicts

    def __init__(self, name: str, params: Dict[str, object], items: Tuple[Dict[str, object], ...]):
        # an empty sweep would pass on no evidence at all
        if not items:
            raise ValueError(f"{name}: the selection yields no checks")
        vars(self).update(name=name, params=params, items=items)

    @property
    def failures(self) -> List[Dict[str, object]]:
        """Items with a failing symmetry verdict or an unequal pair of routes."""
        return [item for item in self.items
                if item.get("verdict") == "fail" or item.get("equal") is False]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "params": dict(self.params),
            "verdict": "pass" if self.ok else "fail",
            "items": list(self.items),
        }


class OracleReport(_Value):
    """Valuation-growth record for one Riemann-sum family at one point."""

    _fields = ("family", "p", "q", "lam", "n", "x0", "target", "rows", "monotone")

    def __init__(self, family: str, p: int, q: Fraction, lam: Fraction, n: int, x0: Fraction,
                 target: Fraction, rows: Tuple[Tuple[int, Valuation], ...], monotone: bool):
        vars(self).update(family=family, p=p, q=q, lam=lam, n=n, x0=x0, target=target,
                          rows=rows, monotone=monotone)

    @property
    def ok(self) -> bool:
        return self.monotone

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "q": rat_str(self.q),
            "lambda": rat_str(self.lam),
            "n": self.n,
            "x0": rat_str(self.x0),
            "target": rat_str(self.target),
            "rows": [{"N": N, "valuation": "inf" if v == INF else int(v)} for N, v in self.rows],
            "monotone": self.monotone,
        }


# -- symmetry suites -----------------------------------------------------------


def thm_suite(
    kind: str,
    weights_list: Sequence[Sequence[int]],
    m_max: int,
    xs: Sequence[RationalLike] = (0, 1, 2),
    samples: int = 10,
    seed: int = 0,
    points: Optional[Sequence[Tuple[Fraction, Fraction]]] = None,
) -> SuiteResult:
    """Sweep verify(kind, ...) over weights x degree x argument x samples.

    kind thm1 treats m_max as the series order of a single verify call per
    cell; the other kinds sweep every degree m <= m_max, from m_max down,
    so each lam-free row and Carlitz row is built once, at its top degree.
    points overrides the seeded (q, lam) list when given.  Items come out in
    (w, x, point, m) order, m ascending, each from its own verify call, but
    the calls run in one exactnum.shared_rows() block per distinct q, over
    every weight vector, x and lam: views of any weight vector that share a
    W share that q's Carlitz rows and lam-free values, every lam shares the
    lam-free rows, and no q's work outlives its block.
    """
    if points is None:
        points = q_lam_points(samples, seed)
    degrees = [m_max] if kind == "thm1" else range(m_max + 1)
    blocks: Dict[Fraction, List[Tuple[int, int, int]]] = {}
    for w, i, j in itertools.product(range(len(weights_list)), range(len(xs)), range(len(points))):
        blocks.setdefault(points[j][0], []).append((w, i, j))
    done = {}
    for cells in blocks.values():
        with exactnum.shared_rows():
            for w, i, j in cells:
                q, lam = points[j]
                done[w, i, j] = [symmetry.verify(kind, weights_list[w], m, x=xs[i], lam=lam, q=q)
                                 .to_json_dict() for m in reversed(degrees)][::-1]
    items = [item for cell in sorted(done) for item in done[cell]]
    return SuiteResult(
        name=f"verify-{kind}",
        params={
            "kind": kind,
            "weights": [",".join(map(str, w)) for w in weights_list],
            "m_max" if kind != "thm1" else "order": m_max,
            "xs": [rat_str(as_rational(x)) for x in xs],
            "samples": len(points),
            "seed": seed,
        },
        items=tuple(items),
    )


# -- q-number lemma suites -----------------------------------------------------


def qlemma_suite(which: str, samples: int = 200, seed: int = 0) -> SuiteResult:
    """Exact split checks: 'eq12' scaling [cz] = [c][z]', 'eq16' addition.

    Every instance is admissible by construction: denominators are chosen
    so all exponents of q land in the integers.
    """
    if which not in ("eq12", "eq16"):
        raise ValueError(f"which must be eq12 or eq16, got {which!r}")
    rng = random.Random(seed)
    items: List[Dict[str, object]] = []
    for idx in range(samples):
        q = sample_q(rng)
        c0 = rng.randint(1, 3)
        ctx = QContext(q, c=c0)
        if which == "eq12":
            c = rng.randint(1, 4)
            z = Fraction(rng.randint(-9, 9), c * c0)
            args: Dict[str, object] = {"c": c, "z": rat_str(z)}
            lhs, rhs = qcore.qnum_scale_split(z, c, ctx)
        else:
            a = Fraction(rng.randint(-9, 9), c0)
            b = Fraction(rng.randint(-9, 9), c0)
            args = {"a": rat_str(a), "b": rat_str(b)}
            lhs, rhs = qcore.qnum_add_split(a, b, ctx)
        items.append({"index": idx, "q": rat_str(q), "c0": c0, **args,
                      "lhs": rat_str(lhs), "rhs": rat_str(rhs), "equal": lhs == rhs})
    return SuiteResult(
        name=f"verify-{which}",
        params={"which": which, "samples": samples, "seed": seed},
        items=tuple(items),
    )


# -- series suites ---------------------------------------------------------------


def series_factor_suite(order: int = 12, samples: int = 20, seed: int = 0) -> SuiteResult:
    """log(1+lam t)/(lam t) times the plain series must equal the log-form series.

    Checked coefficientwise through t^order at seeded (lam, x); lam is
    sampled nonzero since both representations are singular at lam = 0
    (the lam -> 0 endpoint is covered by the collapse tests instead).
    """
    order = _count(order, "order")
    rng = random.Random(seed)
    items: List[Dict[str, object]] = []
    for idx in range(samples):
        lam = sample_rational(rng, exclude=(Fraction(0),))
        x = sample_rational(rng)
        lhs = series.kim_series(x, lam, order)
        rhs = series.log_factor_series(lam, order) * series.carlitz_series(x, lam, order)
        mismatch = next((k for k in range(order + 1) if lhs[k] != rhs[k]), None)
        items.append({
            "index": idx, "lambda": rat_str(lam), "x": rat_str(x), "order": order,
            "equal": mismatch is None, "first_mismatch": mismatch,
        })
    return SuiteResult(
        name="verify-series-factor",
        params={"order": order, "samples": samples, "seed": seed},
        items=tuple(items),
    )


@exactnum.shared_rows()
def stirling_mu1_suite(n_max: int = 8, samples: int = 12, seed: int = 0) -> SuiteResult:
    """Series values against their expansion over signed Stirling numbers.

    For each seeded (lam != 0, x) and n <= n_max the log-form degenerate
    value must equal sum_m S1(n, m) lam^(n-m) B_m(x) with B_m the
    classical polynomial.  exactnum.stirling_transform reads stirling1 at
    call time, so sign-convention mutations propagate into this check.
    Each sample builds one log-form series, exact through t^n_max, and
    reads every degree's value from it as n! times its t^n coefficient.
    Each call is one shared_rows() block, which builds the classical table once.
    """
    rng = random.Random(seed)
    items: List[Dict[str, object]] = []
    for idx in range(samples if n_max >= 0 else 0):    # no degree, so no series to build
        lam = sample_rational(rng, exclude=(Fraction(0),))
        x = sample_rational(rng)
        row = [bernoulli.classical_poly(m, x) for m in range(n_max + 1)]
        gen = series.kim_series(x, lam, n_max)
        for n in range(n_max + 1):
            lhs = factorial(n) * gen[n]
            rhs = exactnum.stirling_transform(row[: n + 1], lam)
            items.append({
                "index": idx, "lambda": rat_str(lam), "x": rat_str(x), "n": n,
                "lhs": rat_str(lhs), "rhs": rat_str(rhs), "equal": lhs == rhs,
            })
    return SuiteResult(
        name="verify-stirling-mu1",
        params={"n_max": n_max, "samples": samples, "seed": seed},
        items=tuple(items),
    )


# -- p-adic oracle reports -------------------------------------------------------


@exactnum.shared_rows()
def oracle_report(
    family: str,
    n: int,
    x0: RationalLike = 0,
    q: Optional[RationalLike] = None,
    lam: RationalLike = 0,
    p: int = 5,
    nmax: int = 5,
) -> OracleReport:
    """Riemann sums at levels 1..nmax against the claimed limit.

    family 'carlitz' (lam = 0 only) targets the plain q-polynomial,
    'degenerate' the Stirling-transformed one, 'mu1' the uniform-measure
    value (log-form series for lam != 0, the classical polynomial at
    lam = 0, where the series representation is singular).  q defaults to
    1 + p.  Growth needs at least two levels, so nmax must be >= 2.  Each
    report is one shared_rows() block: its levels share one expansion.
    """
    if family not in ORACLE_FAMILIES:
        raise ValueError(f"family must be one of {ORACLE_FAMILIES}, got {family!r}")
    n, nmax = _count(n, "n"), _count(nmax, "nmax", 2)
    lam = as_rational(lam)
    x0 = as_rational(x0)
    if family == "mu1":
        if q is not None and as_rational(q) != 1:
            raise ValueError("the uniform-measure family is the q -> 1 case; it takes no q")
        qv = Fraction(1)                          # recorded for the report only
        sums = [(N, padic.riemann_sum_mu1(n, x0, lam, p, N)) for N in range(1, nmax + 1)]
        target = (series.kim_degenerate(n, x0, lam) if lam != 0
                  else bernoulli.classical_poly(n, x0))
    else:
        if family == "carlitz" and lam != 0:
            raise ValueError("the carlitz family is the lam = 0 case; it takes no lambda")
        qv = as_rational(q) if q is not None else Fraction(1 + p)
        params = PadicParams(q=qv, lam=lam, p=p)
        ctx = QContext(qv)
        if family == "carlitz":
            sums = [(N, padic.riemann_sum_carlitz(n, x0, params, N)) for N in range(1, nmax + 1)]
            target = bernoulli.carlitz_poly(n, x0, ctx)
        else:
            sums = [(N, padic.riemann_sum_degenerate(n, x0, params, N)) for N in range(1, nmax + 1)]
            target = bernoulli.degenerate_qpoly(n, x0, lam, ctx)
    rows, monotone = padic.convergence_report(target, sums, p)
    return OracleReport(
        family=family, p=p, q=qv, lam=lam, n=n, x0=x0,
        target=target, rows=tuple(rows), monotone=monotone,
    )
