"""What the qbern benchmark runs and what it expects: pure data, no qbern import.

The parent process (run.py) and the child process (child.py) both read
this module; only the child imports qbern, after its set-up clock stops.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import List, Tuple

# Every workload runs the same grid in each child process of a run; the
# seed picks the grid, so two runs with one seed do identical work.
WORKLOADS = ("closed-form", "kernel", "oracle", "cli-many-q")
DEFAULT_SEED = 0

# closed-form / kernel: the n <= 3 acceptance fixtures, degrees 0..6,
# x in {0, 1, 2}, and POINTS seeded (q, lam) pairs.
FIXTURES = ((3,), (1, 2), (2, 3), (2, 2), (1, 2, 3), (2, 3, 5), (2, 2, 3))
M_MAX = 6
XS = (0, 1, 2)
POINTS = 2

# oracle: the acceptance criterion 7 grid (210 cells) plus the two
# criterion 6 series suites at their acceptance sizes.
ORACLE_PRIMES = (5, 7)
ORACLE_N = 5
ORACLE_X0 = (0, 1, 2)
ORACLE_LEVELS = 5
SERIES_FACTOR = {"order": 12, "samples": 20}
STIRLING_MU1 = {"n_max": 8, "samples": 12}

# cli-many-q: one plain CLI invocation; the seed is appended as --seed.
CLI_ARGV = ("verify", "thm2", "--weights", "2,3", "--m-max", "3",
            "--samples", "300", "--format", "json")
CLI_CELLS = 4 * 3 * 300               # degrees x xs x samples


def banded_rational(rng: random.Random) -> Fraction:
    """+-a/b with a != b coprime in 7..9: one of 12 values.

    Cost grows with the bit size of q (the kernel's box sums raise q to
    powers in the hundreds), so every sampled value has numerator and
    denominator of 3 to 3.17 bits: a seed changes the values but hardly
    the amount of work, which keeps runs on different seeds comparable.
    None of these values is 0 or +-1.
    """
    while True:
        a, b = rng.randint(7, 9), rng.randint(7, 9)
        if a != b and gcd(a, b) == 1:
            return Fraction(rng.choice((-1, 1)) * a, b)


def thm_points(seed: int) -> List[Tuple[Fraction, Fraction]]:
    """The (q, lam) pairs shared by closed-form and kernel for one seed."""
    rng = random.Random(seed)
    return [(banded_rational(rng), banded_rational(rng)) for _ in range(POINTS)]


def oracle_cells(seed: int) -> List[Tuple[str, int, int, int, int]]:
    """(family, p, lam, n, x0) for the criterion 7 grid, in seeded order.

    The carlitz family exists only at lam = 0.  The order is shuffled so
    the seed also varies how the p-adic caches fill; the report is put
    back in grid order before it is digested.
    """
    cells = []
    for p in ORACLE_PRIMES:
        for lam in (0, 1, p):
            families = (("carlitz",) if lam == 0 else ()) + ("degenerate", "mu1")
            for n in range(ORACLE_N):
                for x0 in ORACLE_X0:
                    cells.extend((family, p, lam, n, x0) for family in families)
    random.Random(seed).shuffle(cells)
    return cells


def expected_checks(workload: str) -> int:
    """Checks one child must report: one per cell or suite item."""
    if workload in ("closed-form", "kernel"):
        return len(FIXTURES) * (M_MAX + 1) * len(XS) * POINTS
    if workload == "oracle":
        return (len(oracle_cells(DEFAULT_SEED)) + SERIES_FACTOR["samples"]
                + STIRLING_MU1["samples"] * (STIRLING_MU1["n_max"] + 1))
    if workload == "cli-many-q":
        return CLI_CELLS
    raise ValueError(f"unknown workload {workload!r}")


# SHA-256 of each workload's byte-stable JSON report at DEFAULT_SEED.  A
# change to report bytes or values shows here; for any other seed the
# digest is printed so two commits can be compared byte for byte.
PINNED_DIGESTS = {
    "closed-form": "f9af525db71576de9faef47f8e4a1c54f27cdbf5262e897bf06f3b2246cc19c0",
    "kernel": "d387235e3ffd15c35a714bab56690255027f2a03c0787923fa03ff4fb6eaec85",
    "oracle": "31f799946cb9b9d4213be8d0617ab0b08ddcebded4e1260ce331db1cf2928fce",
    "cli-many-q": "8a8a88fe939de62603ecbcafbc7e67caa0318130ddb3ca1003838bd985f0d732",
}

# Every child's times are scaled to a machine on which one run of
# child.calibration_work() takes this long: about its time on the 2-vCPU
# VM of the first baseline.  A constant, so that two commits' numbers
# compare directly.
CALIBRATION_REFERENCE_S = 0.005

END_TO_END = {                        # name -> unit
    "wall_s": "s",
    "cell_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans of the traced run: span name -> (module, attributes).  Functions
# are wrapped in every qbern namespace that binds them; "Class.method"
# wraps a method on its class.
SPANS = {
    "exactnum.binom": ("qbern.exactnum", ("binom",)),
    "exactnum.stirling1": ("qbern.exactnum", ("stirling1",)),
    "qcore.qnum": ("qbern.qcore", ("qnum",)),
    "bernoulli.carlitz_poly_values": ("qbern.bernoulli", ("carlitz_poly_values",)),
    "bernoulli.degenerate_qpoly": ("qbern.bernoulli", ("degenerate_qpoly",)),
    "symmetry.kernel_K": ("qbern.symmetry", ("kernel_K",)),
    "symmetry.thm2_expr": ("qbern.symmetry", ("thm2_expr",)),
    "symmetry.thm3_expr": ("qbern.symmetry", ("thm3_expr",)),
    "symmetry.verify": ("qbern.symmetry", ("verify",)),
    "padic.riemann_sum_carlitz": ("qbern.padic", ("riemann_sum_carlitz",)),
    "padic.riemann_sum_degenerate": ("qbern.padic", ("riemann_sum_degenerate",)),
    "padic.riemann_sum_mu1": ("qbern.padic", ("riemann_sum_mu1",)),
    "padic.convergence_report": ("qbern.padic", ("convergence_report",)),
    "series.kim_degenerate": ("qbern.series", ("kim_degenerate",)),
    "series.TruncSeries": ("qbern.series", tuple(
        f"TruncSeries.{op}" for op in
        ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse", "scale"))),
    "suites": ("qbern.suites", ("thm_suite", "oracle_report", "series_factor_suite",
                                "stirling_mu1_suite", "qlemma_suite")),
    "cli.main": ("qbern.cli", ("main",)),
}

# Counters the traced run adds beside calls and self time: name -> unit.
COUNTERS = {
    "bernoulli.carlitz_poly_values.max_bits": "bits",
    "bernoulli.tables_requested": "count",
    "symmetry.kernel_K.box_points": "count",
    "symmetry.kernel_K.max_bits": "bits",
    "symmetry.thm2_expr.box_points": "count",
    "symmetry.sigma_evals": "count",
    "padic.mu1_points": "count",
    "cli.output_bytes": "bytes",
}


def count_metric(span: str) -> str:
    """A span over a class's methods counts ops; any other span, calls."""
    methods = any("." in attr for attr in SPANS[span][1])
    return f"{span}.ops" if methods else f"{span}.calls"


def per_layer_metrics() -> dict:
    """Every metric of the traced run: name -> unit, in report order."""
    out = {}
    for span in SPANS:
        out[count_metric(span)] = "count"
        out[f"{span}.self_s"] = "s"
    out.update(COUNTERS)
    out["trace_overhead_ratio"] = "ratio"
    return out


# The layer -> metric -> workload map: which end-to-end metrics a layer
# metric should move, and on which workloads.  The coverage guard reads
# it: every count listed in a row must be above zero on each of the
# row's workloads, so a renamed or bypassed function fails loudly instead
# of reading zero.
LAYER_MAP = (
    (("exactnum.binom.calls", "exactnum.binom.self_s", "exactnum.stirling1.calls"),
     ("wall_s",), ("closed-form", "kernel", "cli-many-q")),
    (("qcore.qnum.calls", "qcore.qnum.self_s"),
     ("wall_s",), ("cli-many-q", "closed-form")),
    (("bernoulli.carlitz_poly_values.calls", "bernoulli.carlitz_poly_values.self_s",
      "bernoulli.carlitz_poly_values.max_bits", "bernoulli.degenerate_qpoly.calls",
      "bernoulli.degenerate_qpoly.self_s"),
     ("wall_s", "cell_p90_ms"), ("closed-form",)),
    (("bernoulli.tables_requested",),
     ("peak_rss_mb", "wall_s"), ("cli-many-q",)),
    (("symmetry.kernel_K.calls", "symmetry.kernel_K.self_s", "symmetry.kernel_K.box_points",
      "symmetry.kernel_K.max_bits", "symmetry.thm3_expr.calls", "symmetry.thm3_expr.self_s"),
     ("wall_s", "cell_p90_ms"), ("kernel",)),
    (("symmetry.thm2_expr.calls", "symmetry.thm2_expr.self_s", "symmetry.thm2_expr.box_points",
      "symmetry.verify.calls", "symmetry.sigma_evals"),
     ("wall_s", "cell_p90_ms"), ("closed-form", "cli-many-q")),
    (("padic.riemann_sum_carlitz.calls", "padic.riemann_sum_carlitz.self_s",
      "padic.riemann_sum_degenerate.calls", "padic.riemann_sum_degenerate.self_s",
      "padic.riemann_sum_mu1.calls", "padic.riemann_sum_mu1.self_s",
      "padic.mu1_points", "padic.convergence_report.calls"),
     ("wall_s", "cell_p90_ms"), ("oracle",)),
    (("series.kim_degenerate.calls", "series.kim_degenerate.self_s",
      "series.TruncSeries.ops", "series.TruncSeries.self_s"),
     ("wall_s",), ("oracle",)),
    (("suites.calls", "suites.self_s"),
     ("wall_s",), ("cli-many-q",)),
    (("cli.main.calls", "cli.main.self_s", "cli.output_bytes"),
     ("wall_s", "peak_rss_mb"), ("cli-many-q",)),
)

# Metrics that must read exactly zero on a workload: every metric whose
# name starts with one of the prefixes.
PREDICTED_ZERO = {
    "closed-form": ("symmetry.kernel_K.", "symmetry.thm3_expr.", "padic.", "cli."),
    "kernel": ("symmetry.thm2_expr.", "padic.", "cli."),
    "oracle": ("symmetry.", "cli."),
    "cli-many-q": ("symmetry.kernel_K.", "symmetry.thm3_expr.", "padic."),
}


def is_count(metric: str) -> bool:
    """Counts repeat exactly from run to run; times and ratios do not."""
    return not metric.endswith(".self_s") and metric != "trace_overhead_ratio"


def guard_violations(workload: str, metrics: dict) -> List[str]:
    """Where a traced run's counts contradict the layer map."""
    out = []
    for names, _, workloads in LAYER_MAP:
        if workload in workloads:
            out += [f"{name} is 0 on {workload}" for name in names
                    if is_count(name) and metrics[name] <= 0]
    out += [f"{name} = {value} on {workload}, predicted exactly 0"
            for name, value in metrics.items()
            if name.startswith(PREDICTED_ZERO[workload]) and value != 0]
    return out
