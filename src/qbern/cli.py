"""Command-line front end: compute values, run suites, run oracles.

Each `qbern <command> <what>` takes only the flags it reads, and
`qbern <command> <what> --help` lists them with their defaults.  Flags
follow `<command> <what>` and must be spelled in full; a prefix such as
--sam is not expanded.  A negative fraction needs the = form
(--q=-3/2), since argparse reads a separate -3/2 as a flag; a negative
integer (--q -3) works either way.
Exit status: 0 when everything asked for passed (or a value was printed),
1 when a verification suite or oracle found a mismatch, 2 on usage errors
(a flag the chosen subcommand does not use is one), on a selection that
yields no checks, and when --out cannot be written.  On the symmetry grids
(thm1, thm2, thm3, eq20) --q pins one (q, lambda) point, so --samples or
--seed together with --q, and --lambda without --q, are usage errors.
Reports go to stdout or --out, as text, JSON (sorted keys, no timestamps,
byte-stable for a fixed config and seed), or CSV built from that JSON: a
suite with one row per item (eq12, eq16, series-factor, stirling-mu1) has
the header `suite` followed by its JSON item's fields; the symmetry grids
write one row per item and sigma, the oracle one row per level N.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import bernoulli, exactnum, series, suites, symmetry
from .exactnum import rat_str
from .qcore import QContext

__all__ = ["main", "entry", "build_parser"]


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


# The add_argument keywords of every parameter flag, by argparse dest.
_SPECS: Dict[str, dict] = {
    "n": dict(type=int, help="degree, or top degree of a sweep"),
    "m": dict(type=int, help="second Stirling index"),
    "m_max": dict(type=int, help="sweep degrees 0..m-max"),
    "x": dict(type=_fraction_arg, help="evaluation point, as num/den"),
    "weights": dict(type=_weights_arg, help="comma-separated positive integers"),
    "q": dict(type=_fraction_arg, help="base, as num/den"),
    "lam": dict(type=_fraction_arg, help="deformation, as num/den"),
    "p": dict(type=int, help="odd prime"),
    "nmax": dict(type=int, help="largest Riemann level N"),
    "order": dict(type=int, help="series truncation order"),
    "samples": dict(type=int, help="number of seeded sample points"),
    "seed": dict(type=int, help="sampling seed"),
    "i": dict(type=int, help="kernel bracket power"),
    "t": dict(type=int, help="kernel exponent shift"),
    "b": dict(type=int, help="kernel base exponent"),
    "c": dict(type=int, help="base exponent: values taken at q^c"),
    "variant": dict(choices=("carlitz", "kim"), help="series family"),
}

# Each (command, what) maps the parameter flags it reads, by argparse dest,
# to its default: REQUIRED must be given, None is optional with no default.
# Its parser declares these flags and no others.
REQUIRED = object()
_GRID = {"weights": REQUIRED, "x": None, "q": None, "lam": Fraction(0), "samples": 5, "seed": 0}
_READS: Dict[Tuple[str, str], Dict[str, object]] = {
    ("compute", "stirling"): {"n": REQUIRED, "m": REQUIRED},
    ("compute", "qbern"): {"n": REQUIRED, "q": REQUIRED, "c": 1},
    ("compute", "qpoly"): {"n": REQUIRED, "x": REQUIRED, "q": REQUIRED, "c": 1},
    ("compute", "degenerate"): {"n": REQUIRED, "x": REQUIRED, "lam": REQUIRED, "q": REQUIRED,
                                "c": 1},
    ("compute", "kernel"): {"weights": REQUIRED, "i": REQUIRED, "t": REQUIRED, "q": REQUIRED,
                            "b": 1},
    ("compute", "classical"): {"n": REQUIRED, "x": None},
    ("compute", "series"): {"n": REQUIRED, "x": REQUIRED, "lam": REQUIRED, "variant": "kim"},
    ("verify", "thm1"): dict(_GRID, order=3),
    **{("verify", what): dict(_GRID, m_max=3) for what in ("thm2", "thm3", "eq20")},
    ("verify", "eq12"): {"samples": 200, "seed": 0},
    ("verify", "eq16"): {"samples": 200, "seed": 0},
    ("verify", "series-factor"): {"order": 12, "samples": 20, "seed": 0},
    ("verify", "stirling-mu1"): {"n": 8, "samples": 12, "seed": 0},
    **{("oracle", family): {"n": 2, "x": Fraction(0), "q": None, "lam": Fraction(0),
                            "p": 5, "nmax": 5} for family in suites.ORACLE_FAMILIES},
}
_COMMANDS = {"compute": "print one exact value", "verify": "run a verification suite",
             "oracle": "p-adic convergence report"}


def _flag(dest: str) -> str:
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


_FLAGS = [_flag(dest) for dest in _SPECS]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="qbern",
        description="Exact q-Bernoulli values, identity verification suites, "
                    "and p-adic convergence oracles.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    whats = {command: commands.add_parser(command, help=text, allow_abbrev=False)
             .add_subparsers(dest="what", required=True)
             for command, text in _COMMANDS.items()}
    for (command, what), reads in _READS.items():
        sub = whats[command].add_parser(what, allow_abbrev=False)
        for dest, default in reads.items():
            note = ("" if default is None else " (required)" if default is REQUIRED
                    else f" (default {default})")
            sub.add_argument(_flag(dest), dest=dest,
                             **dict(_SPECS[dest], help=_SPECS[dest]["help"] + note))
        sub.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text",
                         help="report format (default text)")
        sub.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _check_flags(ns: argparse.Namespace, rest: List[str]) -> None:
    """Reject flags the subcommand ignores or lacks, then fill in its defaults."""
    # argparse leaves over a parameter flag this subcommand's parser lacks, with its value
    named = set()
    tokens = iter(rest)
    for token in tokens:
        flag, eq, _ = token.partition("=")
        if flag not in _FLAGS:
            raise UsageError(f"unrecognized argument: {token}")
        named.add(flag)
        if not eq:
            next(tokens, None)                    # every parameter flag takes one value
    if named:
        unused = ", ".join(flag for flag in _FLAGS if flag in named)
        raise UsageError(f"`{ns.command} {ns.what}` does not use {unused}")
    reads = _READS[(ns.command, ns.what)]
    # decided before the defaults go in, so that a flag given at its default still counts
    given = [dest for dest in reads if getattr(ns, dest) is not None]
    for dest, default in reads.items():
        if default is REQUIRED and dest not in given:
            raise UsageError(f"{_flag(dest)} is required for this subcommand")
    if reads.keys() >= _GRID.keys():  # the symmetry grids
        drawn = [_flag(dest) for dest in ("samples", "seed") if dest in given]
        if "q" in given and drawn:
            raise UsageError(f"--q pins the single (q, lambda) point; {drawn[0]} would draw them")
        if "lam" in given and "q" not in given:
            raise UsageError("--lambda pins a point only together with --q")
    for dest, default in reads.items():
        if dest not in given:
            setattr(ns, dest, default)


Document = Tuple[dict, List[str], bool]
# (json_dict, text_lines, failed)


def _param(value: object) -> object:
    if isinstance(value, Fraction):
        return rat_str(value)
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


def _run_compute(cfg: argparse.Namespace) -> Document:
    what = cfg.what
    params = {"lambda" if dest == "lam" else dest: _param(getattr(cfg, dest))
              for dest in _READS[("compute", what)] if getattr(cfg, dest) is not None}
    if what == "stirling":
        rendered = str(exactnum.stirling1(cfg.n, cfg.m))
    elif what == "qbern":
        rendered = rat_str(bernoulli.carlitz_numbers(cfg.n, QContext(cfg.q, c=cfg.c))[cfg.n])
    elif what == "qpoly":
        rendered = rat_str(bernoulli.carlitz_poly(cfg.n, cfg.x, QContext(cfg.q, c=cfg.c)))
    elif what == "degenerate":
        rendered = rat_str(bernoulli.degenerate_qpoly(cfg.n, cfg.x, cfg.lam, QContext(cfg.q, c=cfg.c)))
    elif what == "kernel":
        rendered = rat_str(symmetry.kernel_K(cfg.weights, cfg.i, cfg.t, cfg.q, cfg.b))
    elif what == "classical":
        if cfg.x is None:
            rendered = rat_str(bernoulli.classical_numbers(cfg.n)[cfg.n])
        else:
            rendered = rat_str(bernoulli.classical_poly(cfg.n, cfg.x))
    else:  # series
        fn = series.kim_degenerate if cfg.variant == "kim" else series.carlitz_degenerate
        rendered = rat_str(fn(cfg.n, cfg.x, cfg.lam))

    json_dict = {"command": "compute", "what": what, "params": params, "value": rendered}
    return json_dict, [rendered], False


def _run_verify(cfg: argparse.Namespace) -> Document:
    what = cfg.what
    if what in ("eq12", "eq16"):
        suite = suites.qlemma_suite(what, cfg.samples, cfg.seed)
    elif what == "series-factor":
        suite = suites.series_factor_suite(cfg.order, cfg.samples, cfg.seed)
    elif what == "stirling-mu1":
        suite = suites.stirling_mu1_suite(cfg.n, cfg.samples, cfg.seed)
    else:  # the symmetry grids: thm1 takes a series order, the others a top degree
        suite = suites.thm_suite(what, [cfg.weights], cfg.order if what == "thm1" else cfg.m_max,
                                 xs=(0, 1, 2) if cfg.x is None else (cfg.x,),
                                 samples=cfg.samples, seed=cfg.seed,
                                 points=None if cfg.q is None else [(cfg.q, cfg.lam)])

    doc = suite.to_json_dict()
    failures = suite.failures
    lines = [f"{suite.name}: {len(suite.items)} checks"]
    for item in failures[:5]:
        # a symmetry item names its cell by weights and params; the others are their cell
        detail = ({key: item[key] for key in ("weights", "params", "counterexample")}
                  if "counterexample" in item else item)
        lines.append("  fail: " + json.dumps(detail, sort_keys=True))
    if len(failures) > 5:
        lines.append(f"  ({len(failures) - 5} more failures left out)")
    lines.append(f"verdict: {doc['verdict']}")
    return doc, lines, bool(failures)


def _run_oracle(cfg: argparse.Namespace) -> Document:
    rep = suites.oracle_report(cfg.what, cfg.n, x0=cfg.x, q=cfg.q, lam=cfg.lam,
                               p=cfg.p, nmax=cfg.nmax)
    doc = rep.to_json_dict()
    lines = [
        f"oracle {doc['family']}: p={doc['p']} q={doc['q']} lambda={doc['lambda']} "
        f"n={doc['n']} x0={doc['x0']} target={doc['target']}"
    ]
    lines += [f"  N={row['N']} valuation={row['valuation']}" for row in doc["rows"]]
    lines.append(f"monotone: {json.dumps(doc['monotone'])}")
    return doc, lines, not rep.ok


_ORACLE_POINT = ("family", "p", "q", "lambda", "n", "x0")


def _csv_table(doc: dict) -> List[Sequence[object]]:
    """The CSV rows of a JSON report, header first: one layout per report shape."""
    if "command" in doc:                          # compute: one row
        return [("what", "params", "value"),
                (doc["what"], json.dumps(doc["params"], sort_keys=True), doc["value"])]
    if "family" in doc:                           # an oracle: one row per level N
        point = [doc[key] for key in _ORACLE_POINT]
        return [(*_ORACLE_POINT, "N", "valuation", "monotone"),
                *((*point, row["N"], row["valuation"], doc["monotone"]) for row in doc["rows"])]
    tag = doc["suite"].removeprefix("verify-")
    items = doc["items"]
    if "values" not in items[0]:                  # a flat suite: one row per item, None -> ""
        return [("suite", *items[0]), *((tag, *item.values()) for item in items)]
    # a symmetry grid: one row per item and sigma
    table: List[Sequence[object]] = [
        ("suite", "weights", "m_or_order", "x", "q", "lambda", "sigma", "value", "verdict")]
    for item in items:
        cell = item["params"]
        head = (tag, ",".join(map(str, item["weights"])), cell.get("m", cell.get("order")),
                cell["x"], cell["q"], cell["lambda"])
        table.extend((*head, ",".join(map(str, entry["sigma"])), _flat(entry["value"]),
                      item["verdict"]) for entry in item["values"])
    return table


def _flat(value) -> str:
    """Collapse a report value (scalar, list, or pair dict) to one CSV cell."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(value)
    return ";".join(f"{k}={v}" for k, v in sorted(value.items()))


def _render(doc: Document, fmt: str) -> str:
    json_dict, text_lines, _ = doc
    if fmt == "json":
        return json.dumps(json_dict, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_csv_table(json_dict))
        return buf.getvalue()
    return "\n".join(text_lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns, rest = parser.parse_known_args(argv)
    except SystemExit as exc:                     # argparse handles usage/help itself
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        _check_flags(ns, rest)
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
    return 1 if doc[2] else 0


def entry() -> None:
    sys.exit(main())
