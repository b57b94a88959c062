"""Independent p-adic oracle: valuations and exact Riemann-level sums.

The weighted averages computed here converge p-adically (as the level N
grows) to polynomial values that the rest of the package obtains by
entirely different routes: recurrence tables, Stirling transforms,
generating series.  Convergence is certified by watching the valuation
of (sum at level N) - (claimed limit) climb strictly.

The q-weighted sums expand the integrand once, as a polynomial in
z = q^y, so each power of z sums against q^y as a geometric series and
the p^N-term loop never runs.  Everything stays in exact rational
arithmetic until the final valuation is read off; no modular inverses of
quantities with positive valuation are ever needed, which keeps the
bookkeeping auditable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

from .exactnum import RationalLike, as_rational

__all__ = [
    "INF",
    "PadicParams",
    "vp",
    "riemann_sum_carlitz",
    "riemann_sum_degenerate",
    "riemann_sum_mu1",
    "convergence_report",
]

INF = math.inf
Valuation = Union[int, float]          # an integer, or the INF sentinel for 0


def _check_odd_prime(p: int) -> int:
    p = operator.index(p)
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"p must be an odd prime, got {p}")
        d += 2
    return p


def vp(r: RationalLike, p: int) -> Valuation:
    """p-adic valuation of a rational; the zero rational maps to INF."""
    p = _check_odd_prime(p)
    r = as_rational(r)
    if r == 0:
        return INF
    v = 0
    num = abs(r.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = r.denominator                 # reduced, so at most one side carries p
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class PadicParams:
    """Standing hypotheses: odd p, q within distance 1/p of 1, integral lam.

    Holds no level: each Riemann sum takes its level N >= 1 as an argument.
    """

    q: Fraction
    lam: Fraction = Fraction(0)
    p: int = 5

    def __post_init__(self):
        p = _check_odd_prime(self.p)
        q = as_rational(self.q)
        lam = as_rational(self.lam)
        if q == 1:
            raise ValueError("q = 1 degenerates every bracket")
        if vp(1 - q, p) < 1:
            raise ValueError(f"need v_p(1-q) >= 1; q = {q} sits too far from 1")
        if vp(lam, p) < 0:
            raise ValueError(f"lam = {lam} is not p-adically integral")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lam", lam)


# The oracle workload (criterion-7 grid) reads 50 distinct keys; the bound
# keeps a sweep over many q from growing the cache for the whole process.
@lru_cache(maxsize=256)
def _geometric_sum(q: Fraction, r: int, count: int) -> Fraction:
    """sum_{y<count} q^{r*y} for r >= 1, exact; q^r != 1 since q != +-1."""
    qr = q**r
    return (qr**count - 1) / (qr - 1)


def _check_x0(x0) -> int:
    x0 = as_rational(x0)
    if x0.denominator != 1 or x0 < 0:
        raise ValueError(f"x0 must be a nonnegative integer, got {x0}")
    return int(x0)


def _riemann_sum(n: int, x0, params: PadicParams, N: int, lam: Fraction) -> Fraction:
    # (1/[p^N]_q) sum_{y<p^N} prod_{i<n}([x0+y]_q - i*lam) q^y.  With
    # z = q^y each factor is (1 - i*lam*(1-q) - q^x0 z)/(1-q), and z^j q^y
    # sums to a geometric series in q^(j+1); lam is passed apart from params
    # so the lam = 0 case builds no new params.
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x0 = _check_x0(x0)
    N = operator.index(N)
    if N < 1:
        raise ValueError(f"level N must be >= 1, got {N}")
    q = params.q
    lead = -(q**x0)
    coeffs = [Fraction(1)]
    for i in range(n):
        const = 1 - i * lam * (1 - q)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, cj in enumerate(coeffs):
            nxt[j] += const * cj
            nxt[j + 1] += lead * cj
        coeffs = nxt
    count = params.p**N
    total = sum(cj * _geometric_sum(q, j + 1, count) for j, cj in enumerate(coeffs))
    return total / ((1 - q) ** n * _geometric_sum(q, 1, count))


def riemann_sum_carlitz(n: int, x0: int, params: PadicParams, N: int) -> Fraction:
    """(1/[p^N]_q) sum_{y<p^N} [x0+y]_q^n q^y exactly; params.lam is not read."""
    return _riemann_sum(n, x0, params, N, Fraction(0))


def riemann_sum_degenerate(n: int, x0: int, params: PadicParams, N: int) -> Fraction:
    """Same weighted average with integrand prod_{i<n}([x0+y]_q - i*params.lam).

    The product is expanded in powers of q^y by direct polynomial
    multiplication, deliberately not through any precomputed coefficient
    table, so this oracle cannot inherit a bug from the transform it is
    checking.  lam = 0 collapses to the plain bracket power.
    """
    return _riemann_sum(n, x0, params, N, params.lam)


def riemann_sum_mu1(n: int, x0: RationalLike, lam: RationalLike, p: int, N: int) -> Fraction:
    """(1/p^N) sum_{y<p^N} prod_{i<n}(x0 + y - i*lam), exact.

    Plain uniform averages, evaluated by a direct loop over integers: every
    factor is scaled by d = lcm(den x0, den lam) and d^n divided out at the
    end.  Shares nothing with the series code it cross-checks.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    p = _check_odd_prime(p)
    if N < 1:
        raise ValueError(f"level N must be >= 1, got {N}")
    x0 = as_rational(x0)
    lam = as_rational(lam)
    if vp(x0, p) < 0 or vp(lam, p) < 0:
        raise ValueError("x0 and lam must be p-adically integral")
    d = math.lcm(x0.denominator, lam.denominator)
    a, l = int(x0 * d), int(lam * d)
    count = p**N
    total = 0
    for s in range(a, a + d * count, d):      # s = d*(x0 + y)
        prod = 1
        for i in range(n):
            prod *= s - i * l
        total += prod
    return Fraction(total, count * d**n)


def convergence_report(
    target: RationalLike,
    sums: Sequence[Tuple[int, RationalLike]],
    p: int,
) -> Tuple[List[Tuple[int, Valuation]], bool]:
    """Rows (N, v_p(S_N - target)) plus a valuation-growth verdict.

    The verdict certifies convergence to the target, not a rate.  An INF
    row is an exact hit at that level and is skipped (low levels do land
    on the limit by arithmetic accident).  The finite valuations must
    never decrease, must grow over the range as a whole, and must grow
    strictly at the final step; a wrong target makes the tail stabilize
    at v_p(limit - target), which the last condition catches, while a
    merely bounded sequence fails the net-growth condition.  Low-level
    plateaus (two equal valuations before growth resumes) are accepted:
    they occur in the true sequences and carry no divergence signal.
    """
    target = as_rational(target)
    rows = [(int(N), vp(as_rational(s) - target, p)) for N, s in sums]
    return rows, _growth_verdict([val for _, val in rows])


def _growth_verdict(vals: Sequence[Valuation]) -> bool:
    finite = [v for v in vals if v != INF]
    if len(finite) < 2:
        return True                    # all (or all but one) exact hits
    if any(b < a for a, b in zip(finite, finite[1:])):
        return False
    return finite[-1] > finite[-2] and finite[-1] > finite[0]
