"""Permutation-invariant weighted sums of degenerate q-Bernoulli values.

Positive integer weights w_1..w_n and a permutation sigma split into
W = product of the first n-1 permuted weights and v = the last one.
Three expressions are built on that split: a box-weighted sum of
degenerate polynomial values (thm2_expr), its expansion over Stirling
numbers and a power-sum kernel (thm3_expr), and the generating-series
coefficient list (thm1_coeffs).  Each is invariant under sigma, and the
first two agree identically; verify() certifies both claims by exhaustive
enumeration of the symmetric group, reporting exact per-sigma values.
In both routes lam enters only through one Stirling transform of a
lam-free row.  Each verify, thm1_coeffs and thm2_expr call is one
exactnum.shared_rows() block, or runs directly in the one its thread has
open, which holds until it ends: the n! views of each weight vector; per
(view, q), the thm3 brackets, QContext(q, c=W) and kernel sums, and a link
to the view's thm2 plan; the thm3 rows per (view, x, q); and one thm2 plan
per (S-count class, q), with its rows per x and its values per (x, m, lam),
shared by the views whose own convolutions counted the same box sums
(thm3_expr needs no block).  Each row term is one integer sum and one Fraction.

The kind tokens thm1/thm2/thm3/eq20 are the CLI vocabulary: the three
expression families and the closed-form-vs-expansion cross check.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb, factorial, lcm, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .bernoulli import carlitz_poly_values, degenerate_qpoly
from .exactnum import (RationalLike, _Value, _block, _count, _over_lcm, as_rational, rat_str,
                       shared_rows, stirling_transform)
from .qcore import QContext, _int_exponent, qnum

__all__ = [
    "CapExceeded",
    "WeightVector",
    "SigmaView",
    "SymmetryReport",
    "kernel_K",
    "thm2_expr",
    "thm3_expr",
    "thm1_coeffs",
    "verify",
]

DEFAULT_PERMUTATION_CAP = 6           # n! enumeration stays trivial up to here

VERIFY_KINDS = ("thm1", "thm2", "thm3", "eq20")


class CapExceeded(ValueError):
    """Refused to enumerate a symmetric group larger than the cap allows."""


class WeightVector(_Value):
    """Positive integer weights; repeats are allowed and must be harmless."""

    _fields = ("w",)

    def __init__(self, w: Sequence[int]):
        w = tuple(operator.index(x) for x in w)
        if not w:
            raise ValueError("need at least one weight")
        if any(x < 1 for x in w):
            raise ValueError(f"weights must be positive integers, got {w}")
        vars(self).update(w=w)

    @property
    def n(self) -> int:
        return len(self.w)

    def views(self) -> Iterator["SigmaView"]:
        """All n! views, in lexicographic one-line order."""
        for sigma in itertools.permutations(range(1, self.n + 1)):
            yield SigmaView(self, sigma)


class SigmaView(_Value):
    """One permutation's (W, v, P) split of a weight vector.

    sigma is one-line notation on {1..n}.  W multiplies the first n-1
    permuted weights (empty product 1 when n = 1), v is the last permuted
    weight, and P_j = W / w_{sigma(j)} for j < n; the three and the
    permuted weights are derived fields, set here and not passed in.
    """

    _fields = ("base", "sigma", "permuted", "W", "v", "P")

    def __init__(self, base: WeightVector, sigma: Sequence[int]):
        sigma = tuple(operator.index(s) for s in sigma)
        n = base.n
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError(f"{sigma} is not one-line notation for a permutation of 1..{n}")
        permuted = tuple(base.w[s - 1] for s in sigma)
        W = prod(permuted[:-1])
        vars(self).update(base=base, sigma=sigma, permuted=permuted, W=W, v=permuted[-1],
                          P=tuple(W // u for u in permuted[:-1]))

    @property
    def head(self) -> Tuple[int, ...]:
        """The first n-1 permuted weights: the ranges of the k-sum box."""
        return self.permuted[:-1]


def kernel_K(
    u: Sequence[int],
    i: int,
    t: int,
    q: RationalLike,
    b: int = 1,
) -> Fraction:
    """Nested power sum over the lattice box prod_l [0, u_l).

    Each point k contributes q^{b(t+1)S} * [S]_{q^b}^i with
    S = sum_j (prod_{l != j} u_l) k_j.  The empty box (no u at all) has
    the single point k = (), so the value is 1 when i = 0 and 0 otherwise
    (0^0 = 1 throughout).  Every call checks its arguments (q as QContext
    does, b >= 1) and sums the box in closed form, without walking it.
    With Q = q^b, U = prod(u) and P_l = U / u_l, expanding [S]_Q^i by the
    binomial theorem splits the box into one geometric sum per axis:

        K = (1 - Q)^(-i) sum_j C(i,j) (-1)^j prod_l [u_l]_{Q^((t+1+j) P_l)}.

    For Q = a/d, each [u_l]_r is N / d^(e P_l (u_l - 1)) with e = t+1+j and
    the integer N = (d^(eU) - a^(eU)) / (d^(e P_l) - a^(e P_l)); that
    divisor is never 0, because QContext excludes q in {0, +-1}.  So one
    product over the axes is an integer over d^(eG), G = len(u) U - sum P,
    and the whole sum is one Fraction.
    """
    i, t, b = _count(i, "i"), _count(t, "t"), operator.index(b)
    if b < 1:
        raise ValueError(f"kernel base exponent b must be a positive integer; got {b}")
    ctx = QContext(q, b)
    u = tuple(operator.index(x) for x in u)
    if any(x < 1 for x in u):
        raise ValueError(f"box weights must be positive integers, got {u}")
    Q = ctx.q**ctx.c
    a, d = Q.numerator, Q.denominator
    U = prod(u)
    P = [U // x for x in u]
    G = len(u) * U - sum(P)
    total = 0
    for j in range(i + 1):
        e = t + 1 + j
        top = d ** (e * U) - a ** (e * U)
        term = comb(i, j) * d ** ((i - j) * G)
        for Pl in P:
            term *= top // (d ** (e * Pl) - a ** (e * Pl))
        total += -term if j % 2 else term
    return Fraction(total * d**i, (d - a) ** i * d ** ((t + 1 + i) * G))


@shared_rows()
def thm2_expr(
    view: SigmaView,
    m: int,
    x: RationalLike,
    lam: RationalLike,
    q: RationalLike,
) -> Fraction:
    """Box-weighted sum of degenerate polynomial values for one view.

    [W]_q^(m-1) * sum over the box of q^{v * sum_j P_j k_j} times the
    degree-m degenerate polynomial with deformation lam/[W]_q at base
    q^W, evaluated at v*x + sum_j (v/u_j) k_j = v*(x + S/W), where
    S = sum_j P_j k_j.  Exact; m = 0 uses the rational inverse of [W]_q.

    Since [W]_q^(m-1) (lam/[W]_q)^(m-l) = lam^(m-l) [W]_q^(l-1), this is
    sum_l S1(m,l) lam^(m-l) R_l (exactnum.stirling_transform) of the
    lam-free row R_0..R_m, where R_l is the same sum at degree l and
    lam = 0.  The box is never walked: counts[S], the number of its points
    with sum S, comes from convolving the view's own axes (P_j, u_j) one at
    a time.  With q^v = a/d and top the largest S, the weight of S is the
    integer counts[S] a^S d^(top-S) over d^top, keyed by v*S.  Each R_l is
    one integer sum over the lcm D of its values' denominators, and d^top,
    D and [W]_q^(l-1) meet in one Fraction.  x enters only as the integer
    W*y = (prod w)*x + v*S.  In a shared_rows() block each view runs its own
    convolution once per q and keeps, under (view.permuted, q), the plan of
    the count class (W, v, counts, q) it computed: [W]_q, QContext(q, c=W),
    d^top, the weights, the rows per W*v*x and the values per (W*v*x, m, lam),
    each transformed once and returned to every view of the class, the
    views with one last weight.  The class is never a sorted head or (W, v)
    alone: a view whose own convolution went wrong gets a plan of its own,
    which verify sees, and eq20 still compares each view with its own
    thm3_expr.  The values come from the block's Carlitz rows, one table
    per W, and each grows once, since a row grows from the top degree down.
    """
    m = _count(m, "m")
    q = as_rational(q)
    lam = as_rational(lam)
    e0 = _int_exponent(view.v * as_rational(x), view.W)      # W*y at S = 0
    memo = _block()
    plan = memo.get(("thm2", view.permuted, q))
    if plan is None:
        counts = {0: 1}
        for Pj, uj in zip(view.P, view.head):
            step: Dict[int, int] = {}
            for S, c in counts.items():
                for T in range(S, S + Pj * uj, Pj):
                    step[T] = step.get(T, 0) + c
            counts = step
        key = ("thm2", view.W, view.v, tuple(sorted(counts.items())), q)
        if key not in memo:
            top, (a, d) = max(counts), (q**view.v).as_integer_ratio()
            memo[key] = ({}, {}, qnum(view.W, QContext(q)).as_integer_ratio(),
                         QContext(q, c=view.W), d**top,
                         {view.v * S: c * a**S * d ** (top - S) for S, c in counts.items()})
        plan = memo[("thm2", view.permuted, q)] = memo[key]
    rows, transformed, (wn, wd), ctx_w, scale, weights = plan
    if (e0, m, lam) in transformed:
        return transformed[e0, m, lam]
    row = rows.setdefault(e0, [])
    grown = []
    for l in range(m, len(row) - 1, -1):        # top degree first: each Carlitz row grows once
        values = [degenerate_qpoly(l, Fraction(e0 + vS, view.W), 0, ctx_w) for vS in weights]
        nums, D = _over_lcm(values)
        total = sum(w * n for w, n in zip(weights.values(), nums))
        grown.append(Fraction(total * wd * wn**l, D * scale * wn * wd**l))     # [W]_q^(l-1)
    row.extend(reversed(grown))
    transformed[e0, m, lam] = stirling_transform(row[: m + 1], lam)
    return transformed[e0, m, lam]


def thm3_expr(
    view: SigmaView,
    m: int,
    x: RationalLike,
    lam: RationalLike,
    q: RationalLike,
) -> Fraction:
    """Stirling-and-kernel expansion of thm2_expr; identically equal to it.

    sum_p S1(m,p) lam^(m-p) T_p (exactnum.stirling_transform) of the
    lam-free row T_0..T_m, where

        T_p = sum_{s <= p} binom(p,s) [W]_q^(s-1) [v]_q^(p-s)
              beta_{s,q^W}(v x) K(u | p-s, s),

    with the kernel at base exponent v.  With [W]_q = wn/wd, [v]_q = vn/vd
    and L the lcm of the denominators of the products beta_s K, each T_p is
    one integer sum over wn (wd vd)^p L, and one Fraction.  A shared_rows()
    block keeps the row per (view.permuted, x, q), and per (view.permuted, q),
    never per sorted head, the two brackets, QContext(q, c=W) and the kernel
    sums; later degrees extend the row and the kernel sums in place.  Outside
    a block all are built afresh.  Kept as a genuinely different route: it
    runs through kernel_K, so eq20 has teeth.
    """
    m = _count(m, "m")
    q = as_rational(q)
    x = as_rational(x)
    memo = _block()
    row = memo.setdefault(("thm3", view.permuted, x, q), [])
    if len(row) <= m:
        entry = memo.get(("kernel", view.permuted, q))
        if entry is None:
            base = QContext(q)
            entry = memo[("kernel", view.permuted, q)] = (
                qnum(view.W, base).as_integer_ratio(), qnum(view.v, base).as_integer_ratio(),
                QContext(q, c=view.W), [])
        (wn, wd), (vn, vd), ctx_w, kernel = entry
        # anti-diagonals [K(p - s, s) for s <= p] of the view's kernel sums
        kernel.extend([kernel_K(view.head, p - s, s, q, view.v) for s in range(p + 1)]
                      for p in range(len(kernel), m + 1))
        beta = carlitz_poly_values(m, view.v * x, ctx_w)
        for p in range(len(row), m + 1):
            dens = [beta[s].denominator * kernel[p][s].denominator for s in range(p + 1)]
            L = lcm(*dens)
            # over wn (wd vd)^p, [W]^(s-1) [v]^(p-s) is wd wn^s wd^(p-s) vn^(p-s) vd^s, s = 0 too
            acc = sum(comb(p, s) * wn**s * wd ** (p - s) * vn ** (p - s) * vd**s
                      * beta[s].numerator * kernel[p][s].numerator * (L // dens[s])
                      for s in range(p + 1))
            row.append(Fraction(acc * wd, wn * (wd * vd) ** p * L))
    return stirling_transform(row[: m + 1], lam)


@shared_rows()
def thm1_coeffs(
    view: SigmaView,
    order: int,
    x: RationalLike,
    lam: RationalLike,
    q: RationalLike,
) -> List[Fraction]:
    """Coefficients through t^order, thm2_expr(m)/m!, in one block from the top degree down."""
    order = _count(order, "order")
    return [thm2_expr(view, m, x, lam, q) / factorial(m) for m in range(order, -1, -1)][::-1]


ReportValue = Union[Fraction, List[Fraction], Tuple[Fraction, Fraction]]


class SymmetryReport(_Value):
    """Per-sigma values plus an exact-equality verdict ("pass" | "fail") for one identity."""

    _fields = ("kind", "weights", "params", "values", "verdict", "counterexample")
    __hash__ = None                     # params and counterexample are dicts

    def __init__(self, kind: str, weights: Tuple[int, ...], params: Dict[str, str],
                 values: Tuple[Tuple[Tuple[int, ...], ReportValue], ...], verdict: str,
                 counterexample: Optional[Dict[str, object]]):
        vars(self).update(kind=kind, weights=weights, params=params, values=values,
                          verdict=verdict, counterexample=counterexample)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "weights": list(self.weights),
            "params": dict(self.params),
            "values": [
                {"sigma": list(sigma), "value": _value_json(val)}
                for sigma, val in self.values
            ],
            "verdict": self.verdict,
            "counterexample": self.counterexample,
        }


def _value_json(val: ReportValue):
    if isinstance(val, Fraction):
        return rat_str(val)
    if isinstance(val, tuple):
        return {"thm2": rat_str(val[0]), "thm3": rat_str(val[1])}
    return [rat_str(c) for c in val]


@shared_rows()
def verify(
    kind: str,
    weights: Union[WeightVector, Sequence[int]],
    m: int,
    x: RationalLike = 0,
    lam: RationalLike = 0,
    q: RationalLike = Fraction(2),
) -> SymmetryReport:
    """Evaluate one identity for every permutation and compare exactly.

    kind thm2/thm3 require one common value over the whole group, thm1
    the same for the coefficient list through order m, and eq20 pins the
    closed form against the kernel expansion permutation by permutation
    (on top of the invariance of the closed form).  The sweep covers all
    of S_n in lexicographic order and refuses more than
    DEFAULT_PERMUTATION_CAP weights (CapExceeded).  The expression
    evaluators are looked up as module globals at call time, so a test
    can swap in a corrupted variant and watch the verdict flip.
    """
    if kind not in VERIFY_KINDS:
        raise ValueError(f"kind must be one of {VERIFY_KINDS}, got {kind!r}")
    wv = weights if isinstance(weights, WeightVector) else WeightVector(tuple(weights))
    if wv.n > DEFAULT_PERMUTATION_CAP:
        raise CapExceeded(f"n = {wv.n} weights would need {wv.n}! permutations; "
                          f"cap is {DEFAULT_PERMUTATION_CAP}")

    q = as_rational(q)
    x = as_rational(x)
    lam = as_rational(lam)
    params = {
        "order" if kind == "thm1" else "m": str(m),
        "x": rat_str(x),
        "lambda": rat_str(lam),
        "q": rat_str(q),
    }

    memo = _block()
    if ("views", wv.w) not in memo:
        memo["views", wv.w] = list(wv.views())
    values: List[Tuple[Tuple[int, ...], ReportValue]] = []
    for view in memo["views", wv.w]:
        if kind == "thm1":
            val: ReportValue = thm1_coeffs(view, m, x, lam, q)
        elif kind == "thm2":
            val = thm2_expr(view, m, x, lam, q)
        elif kind == "thm3":
            val = thm3_expr(view, m, x, lam, q)
        else:
            val = (thm2_expr(view, m, x, lam, q), thm3_expr(view, m, x, lam, q))
        values.append((view.sigma, val))

    counterexample = _find_counterexample(kind, values)
    return SymmetryReport(
        kind=kind,
        weights=wv.w,
        params=params,
        values=tuple(values),
        verdict="pass" if counterexample is None else "fail",
        counterexample=counterexample,
    )


def _find_counterexample(kind, values) -> Optional[Dict[str, object]]:
    if kind == "eq20":
        for sigma, (lhs, rhs) in values:
            if lhs != rhs:
                return {
                    "sigma": list(sigma),
                    "thm2": rat_str(lhs),
                    "thm3": rat_str(rhs),
                    "reason": "closed form and kernel expansion disagree",
                }
        values = [(sigma, lhs) for sigma, (lhs, _) in values]   # then invariance of thm2
    reference = values[0][1]
    for sigma, val in values[1:]:
        if val != reference:
            return {
                "sigma": list(sigma),
                "value": _value_json(val),
                "expected": _value_json(reference),
                "reference_sigma": list(values[0][0]),
                "reason": "value changed under permutation",
            }
    return None
