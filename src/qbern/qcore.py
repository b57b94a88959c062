"""q-number algebra with rational arguments over a base q^c.

The q-analogue of a number y at base Q is [y]_Q = (1 - Q^y) / (1 - Q).
Here the base is always an integer power q^c of the evaluation point q,
and an argument y is admissible iff c*y is an integer, which keeps every
[y]_{q^c} inside the rationals.  Two structural identities drive the
symmetry verification and are exposed as split pairs so both sides can
be computed independently and compared:

* scaling:   [c*z]_Q        == [c]_Q * [z]_{Q^c}
* addition:  [a+b]_Q        == [a]_Q + Q^a * [b]_Q
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .exactnum import RationalLike, _Value, as_rational

__all__ = ["InadmissibleArg", "QContext", "qnum", "qnum_scale_split", "qnum_add_split"]

# The points QContext refuses (see its docstring) and sample_q never draws.
SPECIAL_Q = (Fraction(0), Fraction(1), Fraction(-1))


class InadmissibleArg(ValueError):
    """A q-number argument whose scaled exponent is not an integer."""


class QContext(_Value):
    """An evaluation point q and a base exponent c.

    q must avoid {0, 1, -1} so that 1 - q^k != 0 for every k >= 1.
    """

    _fields = ("q", "c")

    def __init__(self, q: RationalLike, c: int = 1):
        q = as_rational(q)
        if q in SPECIAL_Q:
            raise ValueError(f"q must avoid 0, 1, -1; got {q}")
        if not isinstance(c, int) or c < 1:
            raise ValueError(f"base exponent c must be a positive integer; got {c}")
        vars(self).update(q=q, c=c)


def _int_exponent(y: Fraction, c: int) -> int:
    e, r = divmod(y.numerator * c, y.denominator)
    if r:
        raise InadmissibleArg(f"argument {y} is not admissible at base exponent {c}")
    return e


def qnum(y: RationalLike, ctx: QContext) -> Fraction:
    """[y] at base q^c, i.e. (1 - q^(c*y)) / (1 - q^c).  Needs c*y integral."""
    y = as_rational(y)
    e = _int_exponent(y, ctx.c)
    q = ctx.q
    return (1 - q ** e) / (1 - q ** ctx.c)


def qnum_scale_split(z: RationalLike, c: int, ctx: QContext) -> Tuple[Fraction, Fraction]:
    """Both sides of the scaling identity, computed independently.

    Returns ([c*z] at base q^c0, [c] at base q^c0 times [z] at base q^(c0*c)),
    where c0 is the context's base exponent.  The identity says the two
    components are equal; callers assert it.
    """
    if not isinstance(c, int) or c < 1:
        raise ValueError(f"scale factor must be a positive integer; got {c}")
    z = as_rational(z)
    left = qnum(z * c, ctx)
    right = qnum(c, ctx) * qnum(z, QContext(ctx.q, ctx.c * c))
    return left, right


def qnum_add_split(a: RationalLike, b: RationalLike, ctx: QContext) -> Tuple[Fraction, Fraction]:
    """Both sides of the addition identity ([a+b], [a] + Q^a [b]) at base Q = q^c."""
    a = as_rational(a)
    b = as_rational(b)
    left = qnum(a + b, ctx)
    ea = _int_exponent(a, ctx.c)
    right = qnum(a, ctx) + ctx.q ** ea * qnum(b, ctx)
    return left, right
