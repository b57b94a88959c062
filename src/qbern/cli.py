"""Command-line front end: compute values, run suites, run oracles.

Exit status: 0 when everything asked for passed (or a value was printed),
1 when a verification suite or oracle found a mismatch, 2 on usage errors
(a flag the chosen subcommand does not use is one), on a selection that
yields no checks, and when --out cannot be written.
Reports go to stdout or --out, as text, JSON (sorted keys, no timestamps,
byte-stable for a fixed config and seed), or CSV flattened one row per
item.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import bernoulli, exactnum, series, suites, symmetry
from .exactnum import rat_str
from .qcore import QContext

__all__ = ["main", "entry", "build_parser"]

COMPUTE_WHAT = ("stirling", "qbern", "qpoly", "degenerate", "kernel", "classical", "series")
VERIFY_WHAT = ("thm1", "thm2", "thm3", "eq20", "eq12", "eq16", "series-factor", "stirling-mu1")


class UsageError(Exception):
    """Bad or missing arguments discovered after parsing."""


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 3/4, got {text!r}") from exc


def _weights_arg(text: str) -> Tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not parts or any(x < 1 for x in parts):
        raise argparse.ArgumentTypeError(f"weights must be positive integers, got {text!r}")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbern",
        description="Exact q-Bernoulli values, identity verification suites, "
                    "and p-adic convergence oracles.",
    )
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("parameters")
    g.add_argument("--n", type=int, help="degree / max degree, meaning depends on subcommand")
    g.add_argument("--m", type=int, help="second index (e.g. for stirling)")
    g.add_argument("--m-max", dest="m_max", type=int, help="sweep degrees 0..m-max")
    g.add_argument("--x", type=_fraction_arg, help="evaluation point")
    g.add_argument("--weights", type=_weights_arg, help="comma-separated positive integers")
    g.add_argument("--q", type=_fraction_arg, help="base, as num/den")
    g.add_argument("--lambda", dest="lam", type=_fraction_arg, help="deformation, as num/den")
    g.add_argument("--p", type=int, help="odd prime for oracles (default 5)")
    g.add_argument("--nmax", type=int, help="largest Riemann level N (default 5)")
    g.add_argument("--order", type=int, help="series truncation order")
    g.add_argument("--samples", type=int, help="number of seeded sample points")
    g.add_argument("--seed", type=int, help="sampling seed (default 0)")
    g.add_argument("--i", type=int, help="kernel bracket power")
    g.add_argument("--t", type=int, help="kernel exponent shift")
    g.add_argument("--b", type=int, help="kernel base exponent (default 1)")
    g.add_argument("--c", type=int, help="base exponent: values taken at q^c (default 1)")
    g.add_argument("--variant", choices=("carlitz", "kim"),
                   help="series family for `compute series` (default kim)")
    out = common.add_argument_group("output")
    out.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    out.add_argument("--out", help="write the report here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)
    pc = sub.add_parser("compute", parents=[common], help="print one exact value")
    pc.add_argument("what", choices=COMPUTE_WHAT)
    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("what", choices=VERIFY_WHAT)
    po = sub.add_parser("oracle", parents=[common], help="p-adic convergence report")
    po.add_argument("what", choices=suites.ORACLE_FAMILIES, metavar="family")
    return parser


# The parameter flags, by argparse dest, that each (command, what) reads.
# Any other parameter given is a usage error rather than a silent no-op.
_SYMMETRY_READS = ("weights", "x", "q", "lam", "samples", "seed")
_READS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("compute", "stirling"): ("n", "m"),
    ("compute", "qbern"): ("n", "q", "c"),
    ("compute", "qpoly"): ("n", "x", "q", "c"),
    ("compute", "degenerate"): ("n", "x", "lam", "q", "c"),
    ("compute", "kernel"): ("weights", "i", "t", "q", "b"),
    ("compute", "classical"): ("n", "x"),
    ("compute", "series"): ("n", "x", "lam", "variant", "order"),
    ("verify", "thm1"): _SYMMETRY_READS + ("order",),
    **{("verify", what): _SYMMETRY_READS + ("m_max", "m") for what in ("thm2", "thm3", "eq20")},
    ("verify", "eq12"): ("samples", "seed"),
    ("verify", "eq16"): ("samples", "seed"),
    ("verify", "series-factor"): ("order", "samples", "seed"),
    ("verify", "stirling-mu1"): ("n", "samples", "seed"),
    **{("oracle", family): ("n", "x", "q", "lam", "p", "nmax") for family in suites.ORACLE_FAMILIES},
}
_OUTPUT_DESTS = ("command", "what", "fmt", "out")
# Defaults of the shared flags, filled in only after the check above, so
# that a flag given at its default value still counts as given.
_DEFAULTS = {"p": 5, "nmax": 5, "seed": 0, "b": 1, "c": 1, "variant": "kim"}


def _flag(dest: str) -> str:
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


def _check_flags(ns: argparse.Namespace) -> None:
    """Reject parameters the selected subcommand would ignore, then fill defaults."""
    reads = _READS[(ns.command, ns.what)]
    unused = [_flag(dest) for dest, value in vars(ns).items()
              if value is not None and dest not in _OUTPUT_DESTS and dest not in reads]
    if unused:
        raise UsageError(f"`{ns.command} {ns.what}` does not use {', '.join(unused)}")
    for dest, default in _DEFAULTS.items():
        if getattr(ns, dest) is None:
            setattr(ns, dest, default)


def _need(**named) -> None:
    for name, value in named.items():
        if value is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for this subcommand")


Document = Tuple[dict, Tuple[str, ...], Tuple[Tuple[object, ...], ...], List[str], bool]
# (json_dict, csv_header, csv_rows, text_lines, failed)


def _run_compute(cfg: argparse.Namespace) -> Document:
    what = cfg.what
    params: Dict[str, object] = {}
    if what == "stirling":
        _need(n=cfg.n, m=cfg.m)
        params = {"n": cfg.n, "m": cfg.m}
        rendered = str(exactnum.stirling1(cfg.n, cfg.m))
    elif what == "qbern":
        _need(n=cfg.n, q=cfg.q)
        params = {"n": cfg.n, "q": rat_str(cfg.q), "c": cfg.c}
        table = bernoulli.carlitz_numbers(cfg.n, QContext(cfg.q, c=cfg.c))
        rendered = rat_str(table[cfg.n])
    elif what == "qpoly":
        _need(n=cfg.n, x=cfg.x, q=cfg.q)
        params = {"n": cfg.n, "x": rat_str(cfg.x), "q": rat_str(cfg.q), "c": cfg.c}
        rendered = rat_str(bernoulli.carlitz_poly(cfg.n, cfg.x, QContext(cfg.q, c=cfg.c)))
    elif what == "degenerate":
        _need(n=cfg.n, x=cfg.x, **{"lambda": cfg.lam}, q=cfg.q)
        params = {"n": cfg.n, "x": rat_str(cfg.x), "lambda": rat_str(cfg.lam),
                  "q": rat_str(cfg.q), "c": cfg.c}
        rendered = rat_str(bernoulli.degenerate_qpoly(cfg.n, cfg.x, cfg.lam, QContext(cfg.q, c=cfg.c)))
    elif what == "kernel":
        _need(weights=cfg.weights, i=cfg.i, t=cfg.t, q=cfg.q)
        params = {"weights": ",".join(map(str, cfg.weights)), "i": cfg.i, "t": cfg.t,
                  "q": rat_str(cfg.q), "b": cfg.b}
        rendered = rat_str(symmetry.kernel_K(cfg.weights, cfg.i, cfg.t, cfg.q, cfg.b))
    elif what == "classical":
        _need(n=cfg.n)
        if cfg.x is not None:
            params = {"n": cfg.n, "x": rat_str(cfg.x)}
            rendered = rat_str(bernoulli.classical_poly(cfg.n, cfg.x))
        else:
            params = {"n": cfg.n}
            rendered = rat_str(bernoulli.classical_numbers(cfg.n)[cfg.n])
    else:  # series
        _need(n=cfg.n, x=cfg.x, **{"lambda": cfg.lam})
        fn = series.kim_degenerate if cfg.variant == "kim" else series.carlitz_degenerate
        params = {"n": cfg.n, "x": rat_str(cfg.x), "lambda": rat_str(cfg.lam),
                  "variant": cfg.variant}
        if cfg.order is not None:
            params["order"] = cfg.order
        rendered = rat_str(fn(cfg.n, cfg.x, cfg.lam, cfg.order))

    json_dict = {"command": "compute", "what": what, "params": params, "value": rendered}
    header = ("what", "params", "value")
    rows = ((what, json.dumps(params, sort_keys=True), rendered),)
    return json_dict, header, rows, [rendered], False


def _run_verify(cfg: argparse.Namespace) -> Document:
    what = cfg.what
    if what in ("thm1", "thm2", "thm3", "eq20"):
        _need(weights=cfg.weights)
        if cfg.q is not None and cfg.samples is not None:
            raise UsageError("--q pins the single (q, lambda) point; --samples would draw them")
        if cfg.q is None and cfg.lam is not None:
            raise UsageError("--lambda pins a point only together with --q")
        if cfg.m is not None and cfg.m_max is not None:
            raise UsageError("--m and --m-max both set the top degree; give one")
        xs: Sequence = (cfg.x,) if cfg.x is not None else (0, 1, 2)
        points = None
        if cfg.q is not None:
            points = [(cfg.q, cfg.lam if cfg.lam is not None else Fraction(0))]
        samples = cfg.samples if cfg.samples is not None else 5
        if what == "thm1":
            order = cfg.order if cfg.order is not None else 3
            suite = suites.thm_suite("thm1", [cfg.weights], order, xs=xs,
                                     samples=samples, seed=cfg.seed, points=points)
        else:
            m_max = cfg.m_max if cfg.m_max is not None else (cfg.m if cfg.m is not None else 3)
            suite = suites.thm_suite(what, [cfg.weights], m_max, xs=xs,
                                     samples=samples, seed=cfg.seed, points=points)
    elif what in ("eq12", "eq16"):
        suite = suites.qlemma_suite(what, cfg.samples if cfg.samples is not None else 200, cfg.seed)
    elif what == "series-factor":
        suite = suites.series_factor_suite(cfg.order if cfg.order is not None else 12,
                                           cfg.samples if cfg.samples is not None else 20, cfg.seed)
    else:  # stirling-mu1
        suite = suites.stirling_mu1_suite(cfg.n if cfg.n is not None else 8,
                                          cfg.samples if cfg.samples is not None else 12, cfg.seed)

    lines = [f"{suite.name}: {len(suite.items)} checks"]
    shown = 0
    for item in suite.items:
        failing = item.get("verdict") == "fail" or item.get("equal") is False
        if failing and shown < 5:
            detail = item.get("counterexample") or item
            lines.append("  fail: " + json.dumps(detail, sort_keys=True))
            shown += 1
    lines.append(f"verdict: {'pass' if suite.ok else 'fail'}")
    return suite.to_json_dict(), suite.csv_header, suite.csv_rows, lines, not suite.ok


def _run_oracle(cfg: argparse.Namespace) -> Document:
    n = cfg.n if cfg.n is not None else 2
    x0 = cfg.x if cfg.x is not None else Fraction(0)
    lam = cfg.lam if cfg.lam is not None else Fraction(0)
    rep = suites.oracle_report(cfg.what, n, x0=x0, q=cfg.q, lam=lam,
                               p=cfg.p, nmax=cfg.nmax)
    lines = [
        f"oracle {rep.family}: p={rep.p} q={rat_str(rep.q)} lambda={rat_str(rep.lam)} "
        f"n={rep.n} x0={rat_str(rep.x0)} target={rat_str(rep.target)}"
    ]
    for N, v in rep.rows:
        lines.append(f"  N={N} valuation={'inf' if v == suites.INF else v}")
    lines.append(f"monotone: {'true' if rep.monotone else 'false'}")
    return rep.to_json_dict(), rep.csv_header, rep.csv_rows, lines, not rep.ok


def _render(doc: Document, fmt: str) -> str:
    json_dict, header, rows, text_lines, _ = doc
    if fmt == "json":
        return json.dumps(json_dict, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return "\n".join(text_lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:                     # argparse handles usage/help itself
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        _check_flags(ns)
        if ns.command == "compute":
            doc = _run_compute(ns)
        elif ns.command == "verify":
            doc = _run_verify(ns)
        else:
            doc = _run_oracle(ns)
    except UsageError as exc:
        print(f"qbern: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"qbern: error: {exc}", file=sys.stderr)
        return 2
    payload = _render(doc, ns.fmt)
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"qbern: error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 1 if doc[4] else 0


def entry() -> None:
    sys.exit(main())
