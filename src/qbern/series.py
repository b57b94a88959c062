"""Exact truncated power series in t and the degenerate generating functions.

A :class:`TruncSeries` of order M carries coefficients of t^0..t^M; sums
and products are exact through t^M.  Division is valuation-aware: the
divisor's lowest nonzero power of t is cancelled explicitly against the
dividend (there is no Laurent support), which is all the generating
functions here need since both denominators vanish to first order at
t = 0.

Two families are realized, for nonzero deformation lam:

* ``carlitz_series``:  t / ((1+lam*t)^(1/lam) - 1) * (1+lam*t)^(x/lam)
* ``kim_series``:      log(1+lam*t) / (lam*(1+lam*t)^(1/lam) - lam)
                       * (1+lam*t)^(x/lam)

whose n-th coefficients times n! give the degenerate Bernoulli
polynomial values.  The two differ by the factor log(1+lam*t)/(lam*t),
which the test suite checks as an exact series identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Tuple

from .exactnum import RationalLike, as_rational, binom

__all__ = [
    "ZeroLambda",
    "TruncSeries",
    "binom_series",
    "log1p_series",
    "log_factor_series",
    "carlitz_series",
    "kim_series",
    "carlitz_degenerate",
    "kim_degenerate",
]


class ZeroLambda(ValueError):
    """The series representation is singular at lam = 0."""


@dataclass(frozen=True)
class TruncSeries:
    """Polynomial truncation of a power series in t; coeffs[k] is the t^k term."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_rational(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a TruncSeries needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    @classmethod
    def constant(cls, c: RationalLike, order: int) -> "TruncSeries":
        return cls((as_rational(c),) + (Fraction(0),) * order)

    @classmethod
    def t(cls, order: int) -> "TruncSeries":
        if order < 1:
            raise ValueError("order must be >= 1 to represent t")
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; order+1 for the zero series."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return self.order + 1

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        m = min(self.order, other.order)
        return TruncSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(m + 1)))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        m = min(self.order, other.order)
        return TruncSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(m + 1)))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(tuple(-c for c in self.coeffs))

    def scale(self, c: RationalLike) -> "TruncSeries":
        c = as_rational(c)
        return TruncSeries(tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        m = min(self.order, other.order)
        out = [Fraction(0)] * (m + 1)
        for i, a in enumerate(self.coeffs[: m + 1]):
            if a == 0:
                continue
            for j in range(m + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncSeries(tuple(out))

    def inverse(self) -> "TruncSeries":
        """Reciprocal of a series with nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("inverse needs a nonzero constant term")
        inv = [1 / c0] + [Fraction(0)] * self.order
        for m in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                acc += self.coeffs[k] * inv[m - k]
            inv[m] = -acc / c0
        return TruncSeries(tuple(inv))

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        """Valuation-aware division: cancels the divisor's leading t power.

        Requires the dividend to vanish at least as fast as the divisor.
        The quotient's order drops by the divisor's valuation.
        """
        v = other.valuation()
        if v > other.order:
            raise ZeroDivisionError("division by the zero series")
        if v > 0:
            if any(c != 0 for c in self.coeffs[:v]):
                raise ValueError(
                    f"dividend valuation below divisor valuation {v}; quotient is not a power series"
                )
            num = TruncSeries(self.coeffs[v:] if self.order >= v else (Fraction(0),))
            den = TruncSeries(other.coeffs[v:])
            return num * den.inverse()
        return self * other.inverse()


def binom_series(lam: RationalLike, e: RationalLike, order: int) -> TruncSeries:
    """(1 + lam*t)^e truncated at t^order: coefficients binom(e, k) lam^k."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    lam = as_rational(lam)
    e = as_rational(e)
    coeffs = []
    lam_pow = Fraction(1)
    for k in range(order + 1):
        coeffs.append(binom(e, k) * lam_pow)
        lam_pow *= lam
    return TruncSeries(tuple(coeffs))


def log1p_series(lam: RationalLike, order: int) -> TruncSeries:
    """log(1 + lam*t) truncated at t^order."""
    lam = as_rational(lam)
    coeffs = [Fraction(0)]
    lam_pow = lam
    for k in range(1, order + 1):
        coeffs.append(Fraction((-1) ** (k + 1), k) * lam_pow)
        lam_pow *= lam
    return TruncSeries(tuple(coeffs))


def log_factor_series(lam: RationalLike, order: int) -> TruncSeries:
    """log(1 + lam*t) / (lam*t): the exact ratio of the two families."""
    lam = as_rational(lam)
    if lam == 0:
        raise ZeroLambda("lam must be nonzero")
    coeffs = []
    lam_pow = Fraction(1)
    for k in range(order + 1):
        coeffs.append(Fraction((-1) ** k, k + 1) * lam_pow)
        lam_pow *= lam
    return TruncSeries(tuple(coeffs))


def _check_lam(lam: Fraction) -> Fraction:
    if lam == 0:
        raise ZeroLambda("the generating series has a pole at lam = 0")
    return lam


def carlitz_series(x: RationalLike, lam: RationalLike, order: int) -> TruncSeries:
    """Degenerate Bernoulli generating series (no log factor), exact to t^order."""
    lam = _check_lam(as_rational(lam))
    x = as_rational(x)
    work = order + 1
    denom = binom_series(lam, 1 / lam, work) - TruncSeries.constant(1, work)
    quotient = TruncSeries.t(work) / denom        # valuation 1 cancels; order drops to `order`
    return quotient * binom_series(lam, x / lam, order)


def kim_series(x: RationalLike, lam: RationalLike, order: int) -> TruncSeries:
    """Fully degenerate Bernoulli generating series (log numerator), exact to t^order."""
    lam = _check_lam(as_rational(lam))
    x = as_rational(x)
    work = order + 1
    denom = (binom_series(lam, 1 / lam, work) - TruncSeries.constant(1, work)).scale(lam)
    quotient = log1p_series(lam, work) / denom
    return quotient * binom_series(lam, x / lam, order)


def _coefficient(gen, n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    # n! times the t^n coefficient of gen(x, lam, n), which is exact through t^n
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return factorial(n) * gen(x, lam, n)[n]


def carlitz_degenerate(n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    """n! times the t^n coefficient of the plain degenerate generating series."""
    return _coefficient(carlitz_series, n, x, lam)


def kim_degenerate(n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    """n! times the t^n coefficient of the fully degenerate generating series."""
    return _coefficient(kim_series, n, x, lam)
