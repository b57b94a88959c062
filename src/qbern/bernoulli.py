"""Carlitz q-Bernoulli numbers/polynomials and their degenerate extension.

The q-Bernoulli numbers b_n at base Q solve

    b_0 = 1,   Q * sum_l C(n,l) Q^l b_l  -  b_n  =  [n == 1]   (n >= 1),

which pins b_n = ([n==1] - Q * sum_{l<n} C(n,l) Q^l b_l) / (Q^{n+1} - 1);
the divisor is nonzero because QContext excludes q in {0, 1, -1}.  The
polynomials are

    b_n(y) = sum_l C(n,l) Q^{l*y} b_l [y]_Q^{n-l},        Q = q^c,

and the fully degenerate version is their exactnum.stirling_transform

    b_{n,L}(y) = sum_l S1(n,l) L^{n-l} b_l(y),

which at L = 0 collapses to b_n(y) (0**0 == 1).

Every row b_0(y), b_1(y), ... lives in the exactnum.shared_rows() block,
keyed by q's numerator and denominator (a Fraction hash is a modular
inverse), c and e = c*y: b_n(y) depends on y only through Q^y = q^e and
[y]_Q.  The row e = 0 is the number table, since b_n(0) = b_n; the
classical numbers, the q -> 1 limit, are the row (1, 1, 0), which no
QContext can take.  Rows grow in place, so a block's sweep over degrees
0..M pays one new value per degree and builds each table once; outside a
block every call starts afresh, and no row outlives its block.

A row of values at y != 0 is summed over one common denominator: the
number table over its lcm (exactnum._over_lcm), Q^y and [y]_Q as integer
pairs, one integer sum and one Fraction per value, and no gcd inside the
sums.  classical_poly is the Carlitz binomial row at Q = 1, where Q^y = 1
and [y] = x, over the classical numbers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Tuple

from .exactnum import (RatFuncQ, RationalLike, _block, _count, _over_lcm, as_rational, binom,
                       stirling_transform)
from .qcore import QContext, _int_exponent

__all__ = [
    "carlitz_numbers",
    "carlitz_poly",
    "carlitz_poly_values",
    "degenerate_qpoly",
    "classical_numbers",
    "classical_poly",
    "carlitz_numbers_ratfunc",
]


_ONE = Fraction(1)


def _carlitz_row(q: Fraction, c: int, e: int) -> List[Fraction]:
    return _block().setdefault(("carlitz", q.numerator, q.denominator, c, e), [_ONE])


def carlitz_numbers(nmax: int, ctx: QContext) -> Tuple[Fraction, ...]:
    """The q-Bernoulli numbers (b_0, ..., b_nmax) at base q^c.

    The table is the value row at y = 0, grown in place by the recurrence.
    """
    nmax = _count(nmax, "nmax")
    table = _carlitz_row(ctx.q, ctx.c, 0)
    if len(table) <= nmax:
        Q = ctx.q ** ctx.c
        qpow = [Q ** l for l in range(nmax + 2)]
        for n in range(len(table), nmax + 1):
            acc = Fraction(0)
            for l in range(n):
                acc += binom(n, l) * qpow[l] * table[l]
            delta = 1 if n == 1 else 0
            table.append((delta - Q * acc) / (qpow[n + 1] - 1))
    return tuple(table[: nmax + 1])


def carlitz_poly_values(nmax: int, y: RationalLike, ctx: QContext) -> List[Fraction]:
    """[b_0(y), ..., b_nmax(y)] at base q^c, summed over one common denominator.

    With D the lcm of the table's denominators, b_l = E_l / D, Q^y = u/v and
    [y]_Q = t/w, the value is

        b_n(y) = sum_l C(n,l) a^l E_l r^(n-l) / (D s^n),

    where a = u*w, r = t*v and s = v*w: an integer sum and one Fraction.
    A call extends the block's row for (q, c, c*y) by the degrees it lacks
    and returns a copy of its first nmax + 1 values (see the module docstring).
    """
    nmax = _count(nmax, "nmax")
    y = as_rational(y)
    e = _int_exponent(y, ctx.c)
    if not e:
        return list(carlitz_numbers(nmax, ctx))
    row = _carlitz_row(ctx.q, ctx.c, e)
    if len(row) <= nmax:
        betas = carlitz_numbers(nmax, ctx)
        qy = ctx.q ** e                      # Q^y with Q = q^c
        bracket = (1 - qy) / (1 - ctx.q ** ctx.c)  # [y]_Q
        E, D = _over_lcm(betas)
        a = qy.numerator * bracket.denominator
        r = bracket.numerator * qy.denominator
        s = qy.denominator * bracket.denominator
        a_pow = [1]
        r_pow = [1]
        for _ in range(nmax):
            a_pow.append(a_pow[-1] * a)
            r_pow.append(r_pow[-1] * r)
        for n in range(len(row), nmax + 1):
            acc = sum(comb(n, l) * a_pow[l] * E[l] * r_pow[n - l] for l in range(n + 1))
            row.append(Fraction(acc, D * s**n))
    return row[: nmax + 1]


def carlitz_poly(n: int, y: RationalLike, ctx: QContext) -> Fraction:
    """q-Bernoulli polynomial b_n(y) at base q^c; b_n(0) = b_n."""
    n = _count(n, "n")
    return carlitz_poly_values(n, y, ctx)[n]


def degenerate_qpoly(m: int, y: RationalLike, lam_deg: RationalLike, ctx: QContext) -> Fraction:
    """Fully degenerate q-Bernoulli polynomial: Stirling transform of b_l(y).

    ``lam_deg`` is the (already scaled) deformation parameter; 0 is allowed
    and reproduces the plain q-Bernoulli polynomial.  The transform of the
    row b_0(y), ..., b_m(y) is exactnum.stirling_transform.
    """
    m = _count(m, "m")
    return stirling_transform(carlitz_poly_values(m, y, ctx), lam_deg)


def classical_numbers(nmax: int) -> Tuple[Fraction, ...]:
    """Bernoulli numbers (B_0, ..., B_nmax) from sum_{k<n} C(n,k) B_k = 0 (n >= 2)."""
    nmax = _count(nmax, "nmax")
    table = _carlitz_row(_ONE, 1, 0)
    for n in range(len(table) + 1, nmax + 2):  # recurrence index: B_{n-1} from row n
        table.append(-sum(binom(n, k) * table[k] for k in range(n - 1)) / n)
    return tuple(table[: nmax + 1])


def classical_poly(m: int, x: RationalLike) -> Fraction:
    """Bernoulli polynomial B_m(x) = sum_k C(m,k) B_k x^{m-k}.

    With x = u/w and B_k = E_k / D it is sum_k C(m,k) E_k u^(m-k) w^k / (D w^m).
    """
    m = _count(m, "m")
    u, w = as_rational(x).as_integer_ratio()
    E, D = _over_lcm(classical_numbers(m))
    return Fraction(sum(comb(m, k) * E[k] * u ** (m - k) * w**k for k in range(m + 1)), D * w**m)


def carlitz_numbers_ratfunc(nmax: int) -> List[RatFuncQ]:
    """b_n as rational functions of q (base exponent 1).

    Runs the defining recurrence over integer polynomial numerators against
    the known denominator chain prod_{j=2}^{n+1} (q^j - 1); nothing is
    reduced, and ratfunc_limit cancels the (q - 1) factors when it takes
    the exact q -> 1 limit.
    """
    nmax = _count(nmax, "nmax")

    def padd(a: List[int], b: List[int]) -> List[int]:
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]

    def pmul(a: List[int], b: List[int]) -> List[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return out

    def qj_minus_1(j: int) -> List[int]:
        return [-1] + [0] * (j - 1) + [1]

    nums: List[List[int]] = [[1]]                  # numerator of b_n
    dens: List[List[int]] = [[1]]                  # prod_{j=2}^{n+1} (q^j - 1)
    for n in range(1, nmax + 1):
        # sum_l C(n,l) q^{l+1} num_l den_{n-1}/den_l by Horner over l: since
        # den_{n-1}/den_l = prod_{j=l+2}^{n} (q^j - 1), step l brings (q^{l+1} - 1)
        acc: List[int] = [0]
        for l in range(n):
            term = [0] * (l + 1) + [comb(n, l) * c for c in nums[l]]
            acc = padd(pmul(acc, qj_minus_1(l + 1)), term)
        num = [-c for c in acc]
        if n == 1:
            num = padd(dens[0], num)
        nums.append(num)
        dens.append(pmul(dens[n - 1], qj_minus_1(n + 1)))
    return [RatFuncQ(nums[n], dens[n]) for n in range(nmax + 1)]
