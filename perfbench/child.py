"""One cold run of one workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE
    python3 perfbench/child.py --setup-only

run.py starts this with PYTHONPATH pointing at the checkout's src/ and
QBERN_THREADS unset.  Set-up ends the moment qbern and its command line
(qbern.cli, as the `qbern` command loads it) are imported; the monotonic
clock is system-wide, so the parent subtracts its launch time.  The child
prints one JSON line: its timings, peak memory, check counts, report
digest, its speed probes (timings of calibration_work() just before and
just after the workload and, in an untraced child, between cells) and,
when TRACE is 1, the per-layer metrics.  With --setup-only it prints the
set-up clock and three probes taken right after set-up, and stops.
"""

import sys
import time

import qbern
import qbern.cli  # noqa: F401  (part of set-up: the `qbern` command imports it)

READY = time.monotonic()

import json  # noqa: E402  (imported after the set-up clock stops)
import math  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def calibration_work() -> float:
    """Seconds for one run of fixed work that uses no qbern code.

    The work is of qbern's two kinds: exact rational sums of big binomials,
    and interpreted small-integer and dict work.  Each kind alone followed
    the machine's speed on some workloads and not on others; the mix
    followed it on all four.  run.py scales each child's times by the
    child's own runs of it, taken on the same CPU during the timed work,
    which takes the machine's momentary speed out of the time metrics.
    """
    t0 = time.perf_counter()
    total, table = Fraction(0), {}
    for k in range(1, 70):
        total += Fraction(math.comb(2 * k, k), k * k + 1)
        for j in range(k % 20):
            table[k, j] = table.get((k - 1, j), 0) + j
    for i in range(20000):
        table[i & 1023] = table.get(i & 1023, 0) + (i * 7) // 3
    return time.perf_counter() - t0


def main() -> int:
    if sys.argv[1:] == ["--setup-only"]:
        print(json.dumps({"ready": READY, "probes_s": [calibration_work() for _ in range(3)]}))
        return 0
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(qbern.__file__).resolve().parents:
        print(f"qbern was imported from {qbern.__file__}, not from {src}", file=sys.stderr)
        return 2
    # A traced child gets no probes between cells: they would land inside spans.
    tracer = timer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    else:
        timer = spans.CellTimer(calibration_work)
        spans.rebind(*workloads.CELL_FUNCTION[workload], timer.wrap)

    before = calibration_work()
    t0 = time.perf_counter()
    outcome = workloads.run(workload, seed)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes_s = [before] + (timer.probes_s if timer else []) + [calibration_work()]
    wall_s -= sum(probes_s[1:-1])

    record = workloads.check(workload, outcome)
    record.update(ready=READY, wall_s=wall_s, peak_rss_mb=peak_rss_mb, probes_s=probes_s)
    if tracer is not None:
        record["layers"] = dict(tracer.metrics(), **{"cli.output_bytes": record["output_bytes"]})
    else:
        record["cells_ms"] = timer.cells_ms
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
