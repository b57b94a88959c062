"""Carlitz q-Bernoulli numbers/polynomials and their degenerate extension.

The q-Bernoulli numbers b_n at base Q solve

    b_0 = 1,   Q * sum_l C(n,l) Q^l b_l  -  b_n  =  [n == 1]   (n >= 1),

which pins b_n = ([n==1] - Q * sum_{l<n} C(n,l) Q^l b_l) / (Q^{n+1} - 1);
the divisor is nonzero because QContext excludes q in {0, 1, -1}.  The
polynomials are

    b_n(y) = sum_l C(n,l) Q^{l*y} b_l [y]_Q^{n-l},        Q = q^c,

and the fully degenerate version is their Stirling transform

    b_{n,L}(y) = sum_l stirling1(n,l) L^{n-l} b_l(y),

which at L = 0 collapses to b_n(y) (0**0 == 1).  Number tables are
memoized per (q, c), up to CARLITZ_CACHE_TABLES of them, because symmetry
verification reuses the same bases thousands of times.

A row of values is summed over one common denominator: the number table,
Q^y, [y]_Q and L are split into integer numerators and denominators, each
value is an integer sum over their product, and one Fraction is built per
value.  No Fraction arithmetic (and no gcd) happens inside the sums.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import List, Tuple

from .exactnum import RatFuncQ, RationalLike, as_rational, binom, stirling1
from .qcore import QContext, _int_exponent, qnum

__all__ = [
    "carlitz_numbers",
    "carlitz_poly",
    "carlitz_poly_values",
    "degenerate_qpoly",
    "classical_numbers",
    "classical_poly",
    "carlitz_numbers_ratfunc",
]


# Number tables kept, least recently used evicted first, so a sweep over
# many sampled bases stays bounded in memory (`verify thm2 --weights 2,3
# --samples 300` asks for 196 tables).
CARLITZ_CACHE_TABLES = 256

_cache_lock = threading.Lock()


@lru_cache(maxsize=CARLITZ_CACHE_TABLES)
def _carlitz_table(q: Fraction, c: int) -> List[Fraction]:
    # the number table of one base, which _carlitz_values grows in place
    return [Fraction(1)]


def _carlitz_values(nmax: int, ctx: QContext) -> List[Fraction]:
    with _cache_lock:
        table = _carlitz_table(ctx.q, ctx.c)
        if len(table) <= nmax:
            Q = ctx.q ** ctx.c
            qpow = [Q ** l for l in range(nmax + 2)]
            for n in range(len(table), nmax + 1):
                acc = Fraction(0)
                for l in range(n):
                    acc += binom(n, l) * qpow[l] * table[l]
                delta = 1 if n == 1 else 0
                table.append((delta - Q * acc) / (qpow[n + 1] - 1))
        return table[: nmax + 1]


def carlitz_numbers(nmax: int, ctx: QContext) -> Tuple[Fraction, ...]:
    """The q-Bernoulli numbers (b_0, ..., b_nmax) at base q^c."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    return tuple(_carlitz_values(nmax, ctx))


def carlitz_poly_values(nmax: int, y: RationalLike, ctx: QContext) -> List[Fraction]:
    """[b_0(y), ..., b_nmax(y)] at base q^c, summed over one common denominator.

    With D the lcm of the table's denominators, b_l = E_l / D, Q^y = u/v and
    [y]_Q = t/w, the value is

        b_n(y) = sum_l C(n,l) a^l E_l r^(n-l) / (D s^n),

    where a = u*w, r = t*v and s = v*w: an integer sum and one Fraction.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    y = as_rational(y)
    e = _int_exponent(y, ctx.c)
    betas = _carlitz_values(nmax, ctx)
    qy = ctx.q ** e                    # Q^y with Q = q^c
    bracket = qnum(y, ctx)
    D = lcm(*(b.denominator for b in betas))
    E = [b.numerator * (D // b.denominator) for b in betas]
    a = qy.numerator * bracket.denominator
    r = bracket.numerator * qy.denominator
    s = qy.denominator * bracket.denominator
    a_pow = [1]
    r_pow = [1]
    for _ in range(nmax):
        a_pow.append(a_pow[-1] * a)
        r_pow.append(r_pow[-1] * r)
    out = []
    den = D
    for n in range(nmax + 1):
        acc = sum(comb(n, l) * a_pow[l] * E[l] * r_pow[n - l] for l in range(n + 1))
        out.append(Fraction(acc, den))
        den *= s
    return out


def carlitz_poly(n: int, y: RationalLike, ctx: QContext) -> Fraction:
    """q-Bernoulli polynomial b_n(y) at base q^c; b_n(0) = b_n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return carlitz_poly_values(n, y, ctx)[n]


def degenerate_qpoly(m: int, y: RationalLike, lam_deg: RationalLike, ctx: QContext) -> Fraction:
    """Fully degenerate q-Bernoulli polynomial: Stirling transform of b_l(y).

    ``lam_deg`` is the (already scaled) deformation parameter; 0 is allowed
    and reproduces the plain q-Bernoulli polynomial.  With lam_deg = g/h and
    L the lcm of the denominators of b_l(y), the transform is one integer
    sum over L h^m.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    lam_deg = as_rational(lam_deg)
    vals = carlitz_poly_values(m, y, ctx)
    g, h = lam_deg.numerator, lam_deg.denominator
    L = lcm(*(v.denominator for v in vals))
    acc = 0
    for l, v in enumerate(vals):
        s = stirling1(m, l)
        if s:
            acc += s * g ** (m - l) * h ** l * v.numerator * (L // v.denominator)
    return Fraction(acc, L * h ** m)


_classical_cache: List[Fraction] = [Fraction(1)]
_classical_lock = threading.Lock()


def classical_numbers(nmax: int) -> Tuple[Fraction, ...]:
    """Bernoulli numbers (B_0, ..., B_nmax) from sum_{k<n} C(n,k) B_k = 0 (n >= 2)."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    with _classical_lock:
        while len(_classical_cache) <= nmax:
            n = len(_classical_cache) + 1          # recurrence index
            acc = Fraction(0)
            for k in range(n - 1):
                acc += binom(n, k) * _classical_cache[k]
            _classical_cache.append(-acc / n)
        return tuple(_classical_cache[: nmax + 1])


def classical_poly(m: int, x: RationalLike) -> Fraction:
    """Bernoulli polynomial B_m(x) = sum_k C(m,k) B_k x^{m-k}."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    x = as_rational(x)
    table = classical_numbers(m)
    acc = Fraction(0)
    xp = Fraction(1)
    for k in range(m, -1, -1):                     # x^{m-k} built low to high
        acc += binom(m, k) * table[k] * xp
        xp *= x
    return acc


def carlitz_numbers_ratfunc(nmax: int) -> List[RatFuncQ]:
    """b_n as rational functions of q (base exponent 1).

    Runs the defining recurrence over integer polynomial numerators against
    the known denominator chain prod_{j=2}^{n+1} (q^j - 1); nothing is
    reduced, and ratfunc_limit cancels the (q - 1) factors when it takes
    the exact q -> 1 limit.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")

    def shift(p: List[int], k: int) -> List[int]:
        return [0] * k + p

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
        acc: List[int] = [0]
        for l in range(n):
            # binom(n,l) * q^{l+1} * num_l * (den_{n-1} / den_l)
            term = pmul([binom(n, l).numerator], shift(list(nums[l]), l + 1))
            for j in range(l + 2, n + 1):
                term = pmul(term, qj_minus_1(j))
            acc = padd(acc, term)
        num = [-c for c in acc]
        if n == 1:
            num = padd(dens[0], num)
        nums.append(num)
        dens.append(pmul(dens[n - 1], qj_minus_1(n + 1)))
    return [RatFuncQ(nums[n], dens[n]) for n in range(nmax + 1)]
