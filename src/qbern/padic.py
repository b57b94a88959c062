"""Independent p-adic oracle: valuations and exact Riemann-level sums.

The weighted averages computed here converge p-adically (as the level N
grows) to polynomial values that the rest of the package obtains by
entirely different routes: recurrence tables, Stirling transforms,
generating series.  Convergence is certified by watching the valuation
of (sum at level N) - (claimed limit) climb strictly.

Both sums are closed forms, so a level costs the same whatever p^N is.
The q-weighted sums expand the integrand once in z = q^y and divide each
power's geometric sum by [p^N]_q symbolically, so the level enters only
through Z = q^(p^N); a shared_rows() block keeps that expansion for every
level until the block ends.  The uniform sums add forward differences of
the integrand on the binomial basis.  Everything stays exact until the
final valuation is read off; no modular inverses of quantities with
positive valuation are ever needed.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .exactnum import RationalLike, _Value, _block, _count, _over_lcm, as_rational

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


class PadicParams(_Value):
    """Standing hypotheses: odd p, q within distance 1/p of 1, integral lam.

    Holds no level: each Riemann sum takes its level N >= 1 as an argument.
    """

    _fields = ("q", "lam", "p")

    def __init__(self, q: RationalLike, lam: RationalLike = Fraction(0), p: int = 5):
        p = _check_odd_prime(p)
        q = as_rational(q)
        lam = as_rational(lam)
        if q == 1:
            raise ValueError("q = 1 degenerates every bracket")
        if vp(1 - q, p) < 1:
            raise ValueError(f"need v_p(1-q) >= 1; q = {q} sits too far from 1")
        if vp(lam, p) < 0:
            raise ValueError(f"lam = {lam} is not p-adically integral")
        vars(self).update(q=q, lam=lam, p=p)


def _at_level(e: Tuple[List[int], int], q: Fraction, count: int) -> Fraction:
    """sum_k e_k (q^count)^k, e_k given as integers over one den, by integer Horner."""
    u, v = (q**count).as_integer_ratio()
    nums, den = e
    acc, vk = 0, 1
    for n in reversed(nums):
        acc = acc * u + n * vk
        vk *= v
    return Fraction(acc, den * v ** (len(nums) - 1))


def _check_x0(x0) -> int:
    x0 = as_rational(x0)
    if x0.denominator != 1 or x0 < 0:
        raise ValueError(f"x0 must be a nonnegative integer, got {x0}")
    return int(x0)


def _expansion(n: int, x0: int, q: Fraction, lam: Fraction) -> List[Fraction]:
    # (1/[p^N]_q) sum_{y<p^N} prod_{i<n}([x0+y]_q - i*lam) q^y.  With
    # z = q^y the product is (1-q)^-n sum_j c_j z^j, each factor being
    # (1 - i*lam*(1-q) - q^x0 z)/(1-q); z^j q^y sums to a geometric series
    # whose ratio to [p^N]_q is (q-1)/(q^(j+1)-1) sum_{k<=j} Z^k, Z = q^(p^N).
    # So the sum is sum_k e_k Z^k; this returns the level-free e_k.
    lead = -(q**x0)
    coeffs = [Fraction(1)]
    for i in range(n):
        const = 1 - i * lam * (1 - q)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, cj in enumerate(coeffs):
            nxt[j] += const * cj
            nxt[j + 1] += lead * cj
        coeffs = nxt
    scale = (q - 1) / (1 - q) ** n
    terms = [cj * scale / (q ** (j + 1) - 1) for j, cj in enumerate(coeffs)]
    return [sum(terms[k:]) for k in range(n + 1)]


def _riemann_sum(n: int, x0, params: PadicParams, N: int, lam: Fraction) -> Fraction:
    # lam is passed apart from params so the lam = 0 case builds no new params
    n = _count(n, "n")
    x0 = _check_x0(x0)
    N = _count(N, "level N", 1)
    memo, key = _block(), ("riemann", n, x0, params.q, lam)
    if key not in memo:
        memo[key] = _over_lcm(_expansion(n, x0, params.q, lam))     # rescaled once per block
    return _at_level(memo[key], params.q, params.p**N)


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

    Plain uniform averages in closed form: with every factor scaled by
    d = lcm(den x0, den lam), f(y) = prod_{i<n}(a + d*y - i*l) is an integer
    polynomial of degree n, summed as sum_j (Delta^j f)(0) C(p^N, j+1); d^n
    is divided out at the end.  Shares nothing with the series code it checks.
    """
    n = _count(n, "n")
    p = _check_odd_prime(p)
    N = _count(N, "level N", 1)
    x0 = as_rational(x0)
    lam = as_rational(lam)
    if vp(x0, p) < 0 or vp(lam, p) < 0:
        raise ValueError("x0 and lam must be p-adically integral")
    d = math.lcm(x0.denominator, lam.denominator)
    a, l = int(x0 * d), int(lam * d)
    diffs = [math.prod(a + d * y - i * l for i in range(n)) for y in range(n + 1)]
    count = p**N
    total = 0
    for j in range(n + 1):              # diffs[0] is (Delta^j f)(0)
        total += diffs[0] * math.comb(count, j + 1)
        diffs = [b - c for c, b in zip(diffs, diffs[1:])]
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
    Growth needs at least two levels; fewer is a ValueError.
    """
    if len(sums) < 2:
        raise ValueError(f"valuation growth needs at least two levels, got {len(sums)}")
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
