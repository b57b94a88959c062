"""Exact rational scalars and the combinatorial quantities built on them.

Everything in this package computes with arbitrary-precision rationals
(`fractions.Fraction`); there is no floating point anywhere.  This module
supplies the shared scalar toolbox:

* generalized binomial coefficients ``binom(e, k)`` for rational ``e``,
* ``_count(value, name, low=0)``: a degree, order or level as an int at or
  above its floor; a float raises TypeError, a smaller int ValueError,
* ``_over_lcm(values)``: a row of Fractions as integer numerators over the
  lcm of their denominators, so that every exact row is one integer sum,
* signed Stirling numbers of the first kind ``stirling1(n, m)`` and
  their transform ``stirling_transform(vals, lam)`` of a row of values,
  which at ``lam == 0`` is the row's last value,
* ``_Value``, the frozen base of the package's value classes: fields set
  once in ``__init__``, compared, hashed and printed in ``_fields`` order,
* ``RatFuncQ``, a univariate rational function over the rationals kept
  as an unreduced numerator/denominator pair, and ``ratfunc_limit``,
  which takes its exact limits such as ``q -> 1``,
* ``shared_rows()``, the scope of every layer's shared rows, sums and expansions:
  a thread's block keeps them in one dict, and none outlives its outermost end.

Stirling numbers use the signed convention fixed by

    z(z-1)...(z-n+1) == sum(stirling1(n, m) * z**m for m in 0..n)

and the empty product / ``0**0 == 1`` conventions hold throughout.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, wraps
from math import comb, factorial, lcm
from threading import local
from typing import Callable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "RationalLike",
    "PoleError",
    "as_rational",
    "rat_str",
    "binom",
    "stirling1",
    "RatFuncQ",
    "ratfunc_limit",
]

RationalLike = Union[Fraction, int, str]


class _Rows(local):
    # this thread's block depth and memo; class defaults spare new threads the AttributeError path
    depth = 0
    memo: Optional[dict] = None


_rows = _Rows()


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a genuine pole."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, or "num/den" strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # floats carry binary rounding; exactness is the whole point here
        raise TypeError("floats are not accepted; pass a Fraction or 'num/den' string")
    return Fraction(value)


def _count(value: int, name: str, low: int = 0) -> int:
    """value as an int at or above low: a float raises TypeError, a smaller int ValueError."""
    n = operator.index(value)
    if n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")
    return n


def rat_str(value: Fraction) -> str:
    """Serialize a rational as "num/den" (denominator always present), at any size.

    A shared_rows() block keeps the digits of each numerator or denominator
    past 2^2000, so a value printed n! times is converted once per block.
    """
    v = as_rational(value)
    return f"{_digits(v.numerator)}/{_digits(v.denominator)}"


def _digits(n: int) -> str:
    """Decimal digits of an int of any size; an open block keeps those of each n past 2^2000."""
    if n.bit_length() <= 2000:
        return str(n)
    memo, key = _block(), ("digits", n)
    if key not in memo:
        memo[key] = _halves(n)
    return memo[key]


def _halves(n: int) -> str:
    """Decimal digits whatever sys.get_int_max_str_digits() is: halves n by a power of
    ten until each piece is below 2^2000, fewer than the 640 digits that CPython's
    smallest limit allows; as fast as str().
    """
    if n < 0:
        return "-" + _halves(-n)
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20            # about half n's digits, and 10^k < n
    hi, lo = divmod(n, 10**k)
    return _halves(hi) + _halves(lo).zfill(k)


class shared_rows:
    """Let the calls in a block, and blocks nested in it, share one memo until it ends.

    ``with shared_rows():`` opens a block, or joins the one this thread has open,
    whose memo goes when its outermost ``with`` ends.  ``@shared_rows()`` makes each
    call of a function one block, or runs it directly in the one its thread has open.
    A block is its thread's: a new thread, a copied context or ``asyncio.to_thread``
    starts with none, while a coroutine run on the thread during the block joins it.
    """

    def __enter__(self) -> None:
        if not _rows.depth:
            _rows.memo = {}
        _rows.depth += 1

    def __exit__(self, *exc_info) -> None:
        _rows.depth -= 1
        if not _rows.depth:
            _rows.memo = None

    def __call__(self, func: Callable) -> Callable:
        @wraps(func)
        def in_block(*args, **kwargs):
            if _rows.depth:
                return func(*args, **kwargs)
            with self:
                return func(*args, **kwargs)

        return in_block


def _block() -> dict:
    """The memo of the block this thread has open, or a fresh one outside a block."""
    return _rows.memo if _rows.depth else {}


def _over_lcm(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """values as integers over the lcm L of their denominators: (numerators, L)."""
    L = lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def binom(e: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient e(e-1)...(e-k+1) / k!.

    ``e`` may be any rational; for integer e >= 0 this is the ordinary
    binomial coefficient, counted by ``math.comb``.  ``binom(e, 0) == 1``
    (empty product).
    """
    if k < 0:
        raise ValueError(f"binom needs k >= 0, got {k}")
    e = as_rational(e)
    if e.denominator == 1 and e.numerator >= 0:
        return Fraction(comb(e.numerator, k))
    num = Fraction(1)
    for i in range(k):
        num *= e - i
    return num / factorial(k)


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> Tuple[int, ...]:
    # Row n of the signed triangle, built up from row 0 without recursion
    # (so any n works) by S1(j+1, m) = S1(j, m-1) - j*S1(j, m).
    row = (1,)
    for j in range(n):
        row = tuple(left - j * right for left, right in zip((0,) + row, row + (0,)))
    return row


def stirling1(n: int, m: int) -> int:
    """Signed Stirling number of the first kind; 0 outside 0 <= m <= n."""
    if n < 0:
        raise ValueError("stirling1 needs n >= 0")
    if m < 0 or m > n:
        return 0
    return _stirling1_row(n)[m]


def stirling_transform(vals: Sequence[Fraction], lam: RationalLike) -> Fraction:
    """sum_l stirling1(m, l) lam^(m-l) vals[l], with m = len(vals) - 1.

    With lam = g/h and L the lcm of the denominators of vals[1:], one
    integer sum over L h^m and one Fraction: S1(m, 0) = 0 for m >= 1, so
    vals[0] enters only at m = 0.  At lam = 0 only S1(m, m) = 1 survives,
    so the value is vals[m] itself, and so it is at m <= 1.  stirling1 is
    read at call time.
    """
    if not vals:
        raise ValueError("stirling_transform needs at least one value")
    m = len(vals) - 1
    g, h = as_rational(lam).as_integer_ratio()
    if not g or m < 2:
        return vals[m]
    E, L = _over_lcm(vals[1:])
    acc = sum(stirling1(m, l) * g ** (m - l) * h**l * n for l, n in enumerate(E, 1))
    return Fraction(acc, L * h**m)


def _peval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _deflate(p: Sequence[Fraction], x: Fraction) -> Tuple[Fraction, ...]:
    # Quotient of p by (q - x) when p(x) == 0: synthetic division, top down.
    out = []
    acc = Fraction(0)
    for c in reversed(p[1:]):
        acc = acc * x + c
        out.append(acc)
    return tuple(reversed(out))


class _Value:
    """A frozen value: its ``_fields``, set once by ``__init__``, give ==, hash and repr."""

    _fields: Tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class RatFuncQ(_Value):
    """A rational function num(q) / den(q) of one variable q.

    ``num`` and ``den`` are coefficient tuples, constant term first.  No
    common factor is cancelled; :func:`ratfunc_limit` strips the ones that
    vanish at the point it is asked about.
    """

    _fields = ("num", "den")

    def __init__(self, num: Sequence[RationalLike], den: Sequence[RationalLike] = (Fraction(1),)):
        num = tuple(as_rational(c) for c in num)
        den = tuple(as_rational(c) for c in den)
        if not any(den):
            raise ZeroDivisionError("RatFuncQ with zero denominator")
        vars(self).update(num=num, den=den)

    def __call__(self, q0: RationalLike) -> Fraction:
        q0 = as_rational(q0)
        d = _peval(self.den, q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return _peval(self.num, q0) / d


def ratfunc_limit(f: RatFuncQ, q0: RationalLike) -> Fraction:
    """Exact limit of ``f`` at ``q0``.

    While numerator and denominator both vanish at ``q0``, their common
    factor (q - q0) is divided out; then the limit is plain evaluation,
    and a denominator that still vanishes is a genuine pole
    (:class:`PoleError`).
    """
    q0 = as_rational(q0)
    num, den = f.num, f.den
    while _peval(num, q0) == 0 and _peval(den, q0) == 0:
        num, den = _deflate(num, q0), _deflate(den, q0)
    return RatFuncQ(num, den)(q0)
