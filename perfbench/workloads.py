"""The four workloads: each runs once through qbern's public entry points.

`run(workload, seed)` is the timed part and ends at the verdict.
`check(workload, outcome)` is untimed: it counts checks and failures and
digests the byte-stable JSON report (sorted keys, as the CLI writes it).
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from math import factorial

from qbern import cli, suites

import spec

CELL_FUNCTION = {                     # what one latency sample times
    "closed-form": ("qbern.symmetry", "verify"),
    "kernel": ("qbern.symmetry", "verify"),
    "cli-many-q": ("qbern.symmetry", "verify"),
    "oracle": ("qbern.suites", "oracle_report"),
}


class Sink:
    """Stands in for stdout: keeps what the CLI writes without copying it."""

    def __init__(self) -> None:
        self.chunks = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)


def run(workload: str, seed: int):
    if workload in ("closed-form", "kernel"):
        kind = "thm2" if workload == "closed-form" else "thm3"
        return suites.thm_suite(kind, spec.FIXTURES, spec.M_MAX, xs=spec.XS,
                                seed=seed, points=spec.thm_points(seed))
    if workload == "oracle":
        reports = {cell: suites.oracle_report(cell[0], cell[3], x0=cell[4], lam=Fraction(cell[2]),
                                              p=cell[1], nmax=spec.ORACLE_LEVELS)
                   for cell in spec.oracle_cells(seed)}
        factor = suites.series_factor_suite(seed=seed, **spec.SERIES_FACTOR)
        stirling = suites.stirling_mu1_suite(seed=seed, **spec.STIRLING_MU1)
        return reports, factor, stirling
    if workload == "cli-many-q":
        sink, stdout = Sink(), sys.stdout
        sys.stdout = sink
        try:
            code = cli.main(list(spec.CLI_ARGV) + ["--seed", str(seed)])
        finally:
            sys.stdout = stdout
        return code, "".join(sink.chunks)
    raise ValueError(f"unknown workload {workload!r}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _render(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _symmetry_failures(items) -> int:
    """Items whose verdict is not pass or that skipped a permutation."""
    return sum(1 for it in items
               if it["verdict"] != "pass" or len(it["values"]) != factorial(len(it["weights"])))


def check(workload: str, outcome) -> dict:
    """{"checks", "failures", "digest", "output_bytes"} for one outcome."""
    output_bytes = 0
    if workload in ("closed-form", "kernel"):
        doc = outcome.to_json_dict()
        checks = len(doc["items"])
        failures = _symmetry_failures(doc["items"]) + (doc["verdict"] != "pass")
        text = _render(doc)
    elif workload == "oracle":
        reports, factor, stirling = outcome
        checks = len(reports) + len(factor.items) + len(stirling.items)
        failures = sum(1 for r in reports.values()
                       if not r.ok or len(r.rows) != spec.ORACLE_LEVELS)
        failures += sum(1 for it in factor.items + stirling.items if not it["equal"])
        text = _render({
            "oracle": [reports[cell].to_json_dict() for cell in sorted(reports)],
            "series-factor": factor.to_json_dict(),
            "stirling-mu1": stirling.to_json_dict(),
        })
    elif workload == "cli-many-q":
        code, text = outcome
        doc = json.loads(text)
        checks = len(doc["items"])
        failures = _symmetry_failures(doc["items"]) + (doc["verdict"] != "pass") + (code != 0)
        output_bytes = len(text.encode("utf-8"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if checks != spec.expected_checks(workload):
        failures += 1
    return {"checks": checks, "failures": failures, "digest": _digest(text),
            "output_bytes": output_bytes}
