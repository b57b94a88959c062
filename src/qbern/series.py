"""Exact truncated power series in t and the degenerate generating functions.

A :class:`TruncSeries` of order M carries coefficients of t^0..t^M; sums
and products are exact through t^M.  Division is valuation-aware: the
divisor's lowest nonzero power of t is cancelled explicitly against the
dividend (there is no Laurent support), which is all the generating
functions here need since both denominators vanish to first order at
t = 0.  Products and quotients work in integers: an operand's
coefficients are scaled to integers over the lcm of their denominators
(exactnum._over_lcm), so each output coefficient is one integer sum and
one Fraction, not one Fraction multiply-add per term.

Two families are realized, for nonzero deformation lam:

* ``carlitz_series``:  t / ((1+lam*t)^(1/lam) - 1) * (1+lam*t)^(x/lam)
* ``kim_series``:      log(1+lam*t) / (lam*(1+lam*t)^(1/lam) - lam)
                       * (1+lam*t)^(x/lam)

whose n-th coefficients times n! give the degenerate Bernoulli
polynomial values.  The two differ by the factor log(1+lam*t)/(lam*t),
which the test suite checks as an exact series identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import List, Sequence, Tuple

from .exactnum import RationalLike, _Value, _count, _over_lcm, as_rational

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


class TruncSeries(_Value):
    """Polynomial truncation of a power series in t; coeffs[k] is the t^k term."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalLike]):
        coeffs = tuple(as_rational(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a TruncSeries needs at least the constant term")
        vars(self).update(coeffs=coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    @classmethod
    def constant(cls, c: RationalLike, order: int) -> "TruncSeries":
        return cls((as_rational(c),) + (Fraction(0),) * _count(order, "order"))

    @classmethod
    def t(cls, order: int) -> "TruncSeries":
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (_count(order, "order", 1) - 1))

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
        """Product through the shorter order, in integers over one denominator.

        Each operand is scaled to integers over the lcm of its denominators,
        so each output coefficient is one integer sum and one Fraction.
        """
        m = min(self.order, other.order)
        a, la = _over_lcm(self.coeffs[: m + 1])
        b, lb = _over_lcm(other.coeffs[: m + 1])
        return TruncSeries(tuple(
            Fraction(sum(a[i] * b[k - i] for i in range(k + 1)), la * lb) for k in range(m + 1)))

    def inverse(self) -> "TruncSeries":
        """Reciprocal of a series with nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("inverse needs a nonzero constant term")
        return TruncSeries.constant(1, self.order) / self

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        """Valuation-aware division: cancels the divisor's leading t power.

        Requires the dividend to vanish at least as fast as the divisor.
        The quotient's order drops by the divisor's valuation.  It comes from
        one long division den * out = num with den scaled to integers once:
        each term is one integer sum over the lcm of the terms already found
        and one Fraction.
        """
        v = other.valuation()
        if v > other.order:
            raise ZeroDivisionError("division by the zero series")
        if any(c != 0 for c in self.coeffs[:v]):
            raise ValueError(
                f"dividend valuation below divisor valuation {v}; quotient is not a power series"
            )
        num = self.coeffs[v:] if self.order >= v else (Fraction(0),)
        d, ld = _over_lcm(other.coeffs[v:])
        out: List[Fraction] = []
        L = 1                       # lcm of the denominators of out
        for k, n in enumerate(num[: len(d)]):
            # out_k = (n_k - sum_j (d_j/ld) out_(k-j)) / (d_0/ld), with each out_i over L
            acc = sum(d[j] * c.numerator * (L // c.denominator)
                      for j, c in zip(range(k, 0, -1), out))
            out.append(Fraction(n.numerator * ld * L - n.denominator * acc,
                                n.denominator * L * d[0]))
            L = lcm(L, out[-1].denominator)
        return TruncSeries(tuple(out))


def binom_series(lam: RationalLike, e: RationalLike, order: int) -> TruncSeries:
    """(1 + lam*t)^e truncated at t^order: coefficients binom(e, k) lam^k.

    With e = a/b and lam = g/h, that is prod_{i<k} (a - i b) g^k / (b^k h^k k!).
    """
    order = _count(order, "order")
    g, h = as_rational(lam).as_integer_ratio()
    a, b = as_rational(e).as_integer_ratio()
    coeffs, num, den = [Fraction(1)], 1, 1
    for k in range(1, order + 1):
        num, den = num * (a - (k - 1) * b) * g, den * b * h * k
        coeffs.append(Fraction(num, den))
    return TruncSeries(tuple(coeffs))


def log1p_series(lam: RationalLike, order: int) -> TruncSeries:
    """log(1 + lam*t) truncated at t^order."""
    lam, order = as_rational(lam), _count(order, "order")
    coeffs = [Fraction(0)]
    lam_pow = lam
    for k in range(1, order + 1):
        coeffs.append(Fraction((-1) ** (k + 1), k) * lam_pow)
        lam_pow *= lam
    return TruncSeries(tuple(coeffs))


def log_factor_series(lam: RationalLike, order: int) -> TruncSeries:
    """log(1 + lam*t) / (lam*t): the exact ratio of the two families."""
    lam, order = _check_lam(as_rational(lam)), _count(order, "order")
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


def _degenerate_series(top: TruncSeries, x, lam: Fraction, order: int) -> TruncSeries:
    # top/((1+lam*t)^(1/lam) - 1) * (1+lam*t)^(x/lam); top runs to order+1: the divisor's t cancels
    denom = binom_series(lam, 1 / lam, order + 1) - TruncSeries.constant(1, order + 1)
    return top / denom * binom_series(lam, as_rational(x) / lam, order)


def carlitz_series(x: RationalLike, lam: RationalLike, order: int) -> TruncSeries:
    """Degenerate Bernoulli generating series (no log factor), exact to t^order."""
    lam, order = _check_lam(as_rational(lam)), _count(order, "order")
    return _degenerate_series(TruncSeries.t(order + 1), x, lam, order)


def kim_series(x: RationalLike, lam: RationalLike, order: int) -> TruncSeries:
    """Fully degenerate Bernoulli generating series (log numerator), exact to t^order."""
    lam, order = _check_lam(as_rational(lam)), _count(order, "order")
    return _degenerate_series(log1p_series(lam, order + 1).scale(1 / lam), x, lam, order)


def _coefficient(gen, n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    # n! times the t^n coefficient of gen(x, lam, n), which is exact through t^n
    n = _count(n, "n")
    return factorial(n) * gen(x, lam, n)[n]


def carlitz_degenerate(n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    """n! times the t^n coefficient of the plain degenerate generating series."""
    return _coefficient(carlitz_series, n, x, lam)


def kim_degenerate(n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    """n! times the t^n coefficient of the fully degenerate generating series."""
    return _coefficient(kim_series, n, x, lam)
