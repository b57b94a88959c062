"""The qbern benchmark: cold-process runs of four workloads, checked and timed.

    python3 perfbench/run.py --workload closed-form --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Each run starts fresh single-threaded interpreters (child.py) one after
another until --seconds is used up, in two lanes side by side, each lane
pinned to its own CPU; every child imports qbern, runs the workload once
through its public entry points and checks the result, so module-level
caches are paid cold each time, as a CLI user pays them.  After each
untraced child, set-up-only interpreters add samples of set-up time.

On a shared machine each CPU runs up to twice as slow for seconds at a
time, independently of the other CPU.  So every child also times a fixed
piece of work that uses no qbern code (child.calibration_work) on its
CPU: just before and just after its timed work and, in an untraced child,
between cells every spans.PROBE_INTERVAL_S (not counted in any timing).
Each of the child's times is scaled by its mean speed over these probes
(run.speed): the time it would have taken on a machine on which the
probe takes spec.CALIBRATION_REFERENCE_S.

--trace 0 reports the end-to-end metrics, all times scaled:
  wall_s       median over children of time to verdict, import excluded
  cell_p90_ms  90th percentile of one cell's latency (a symmetry.verify or
               oracle_report call), pooled over children
  setup_s      median over set-ups of interpreter start plus
               `import qbern, qbern.cli`
  peak_rss_mb  median peak resident memory of a child
--trace 1 alternates untraced and traced children and reports the
per-layer metrics of spec.per_layer_metrics(): counts from the traced
children (which must agree exactly), median scaled self times, and the
ratio of traced to untraced median scaled wall time.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 0 only if every child passed every
check: verdict pass, the expected check count, one report digest across
children and, at the default seed, the pinned digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CHILDREN = 3                      # per kind of child in a run
SETUPS_PER_CHILD = 3                  # set-up-only interpreters after each child
LANES = 2                             # children run side by side, one per CPU
HARD_LIMIT_S = 150                    # a run never starts a child past this
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("QBERN_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_child(args: List[str]) -> dict:
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py")] + args, cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record.pop("ready") - launched
    return record


def run_child(workload: str, seed: int, traced: bool) -> dict:
    return start_child([workload, str(seed), "1" if traced else "0"])


def setup_only() -> dict:
    """{"setup_s", "probes_s"} of one set-up-only interpreter."""
    return start_child(["--setup-only"])


def speed(record: dict) -> float:
    """A child's mean speed relative to the reference, from its probes.

    Probes are spread evenly over the timed work, so the mean of reference
    over probe time is the factor that turns the child's times into times
    at the reference speed.
    """
    return statistics.fmean(spec.CALIBRATION_REFERENCE_S / p for p in record["probes_s"])


def scaled(record: dict, seconds: float) -> float:
    """A time of one child at the reference speed."""
    return seconds * speed(record)


def warm_up() -> None:
    """Compile qbern's bytecode once so no timed child pays for it."""
    subprocess.run([sys.executable, "-c", "import qbern"], cwd=ROOT, env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)


def run_lane(cpu: int, workload: str, seed: int, seconds: float, traced: bool):
    """One CPU's children: untraced until `seconds` is used; with traced, pairs of both.

    The lane's thread is pinned to `cpu` and its children inherit that.
    Untraced lanes put SETUPS_PER_CHILD set-up-only interpreters after each
    child.  Returns (untraced, traced, set-up-only records).
    """
    os.sched_setaffinity(0, {cpu})
    kinds = (False, True) if traced else (False,)
    children: Dict[bool, List[dict]] = {kind: [] for kind in kinds}
    setups: List[dict] = []
    start = time.monotonic()
    rounds = 0
    while True:
        for kind in kinds:
            children[kind].append(run_child(workload, seed, kind))
        if not traced:
            setups += [setup_only() for _ in range(SETUPS_PER_CHILD)]
        rounds += 1
        elapsed = time.monotonic() - start
        projected = elapsed + elapsed / rounds
        if projected > HARD_LIMIT_S or (rounds >= MIN_CHILDREN and projected > seconds):
            return children[False], children.get(True, []), setups


def run_children(workload: str, seed: int, seconds: float, traced: bool):
    """Lanes side by side, one per CPU of lane_cpus(); their results pooled."""
    cpus = lane_cpus()
    with ThreadPoolExecutor(max_workers=len(cpus)) as pool:
        lanes = [pool.submit(run_lane, cpu, workload, seed, seconds, traced) for cpu in cpus]
        results = [lane.result() for lane in lanes]
    return tuple([item for result in results for item in result[part]] for part in range(3))


def lane_cpus() -> List[int]:
    """The first LANES CPUs this process may use."""
    return sorted(os.sched_getaffinity(0))[:LANES]


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def check_children(workload: str, seed: int, children: List[dict]):
    """(attempted, failed, notes) over every child's checks and digests."""
    attempted = sum(c["checks"] for c in children)
    failed = sum(c["failures"] for c in children)
    notes = []
    digests = {c["digest"] for c in children}
    if len(digests) != 1:
        failed += len(children)
        notes.append(f"report digest differs between children: {sorted(digests)}")
    digest = children[0]["digest"]
    if seed == spec.DEFAULT_SEED:
        attempted += 1
        if digest != spec.PINNED_DIGESTS[workload]:
            failed += 1
            notes.append(f"digest {digest} != pinned {spec.PINNED_DIGESTS[workload]}")
    if any(c["failures"] for c in children):
        notes.append(f"{failed} of {attempted} checks failed")
    return attempted, failed, notes, digest


def end_to_end(children: List[dict], setups: List[dict]):
    """End-to-end values and their sample counts; times scaled by each child's speed."""
    cells = [scaled(c, ms) for c in children for ms in c["cells_ms"]]
    set_up = children + setups
    values = {
        "wall_s": statistics.median(scaled(c, c["wall_s"]) for c in children),
        "cell_p90_ms": percentile(cells, 90),
        "setup_s": statistics.median(scaled(c, c["setup_s"]) for c in set_up),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    samples = {"wall_s": len(children), "cell_p90_ms": len(cells),
               "setup_s": len(set_up), "peak_rss_mb": len(children)}
    return values, samples


def per_layer(workload: str, plain: List[dict], traced: List[dict]):
    """Per-layer values plus the violations that make the run incorrect."""
    layers = [c["layers"] for c in traced]
    units = spec.per_layer_metrics()
    values, problems = {}, []
    for name in units:
        if name == "trace_overhead_ratio":
            values[name] = (statistics.median(scaled(c, c["wall_s"]) for c in traced)
                            / statistics.median(scaled(c, c["wall_s"]) for c in plain))
        elif spec.is_count(name):
            seen = {run[name] for run in layers}
            if len(seen) != 1:
                problems.append(f"{name} differs between traced runs: {sorted(seen)}")
            values[name] = layers[0][name]
        else:
            values[name] = statistics.median(scaled(c, c["layers"][name]) for c in traced)
    problems += spec.guard_violations(workload, values)
    samples = {name: len(traced) for name in units}
    samples["trace_overhead_ratio"] = len(plain) + len(traced)
    return values, samples, problems


def provenance(seed: int, results: Dict[str, dict]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
        "samples": {name: r["samples"] for name, r in results.items()},
        "calibration_reference_s": spec.CALIBRATION_REFERENCE_S,
        "median_probe_s": {name: r["median_probe_s"] for name, r in results.items()},
    }


def git_commit() -> str:
    """HEAD of the checkout, or unknown outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run's values, units, samples, checks, notes, digest and median probe time."""
    plain, traced_children, setups = run_children(workload, seed, seconds, traced)
    attempted, failed, notes, digest = check_children(workload, seed, plain + traced_children)
    median_probe_s = statistics.median(p for c in plain + traced_children for p in c["probes_s"])
    if traced:
        values, samples, problems = per_layer(workload, plain, traced_children)
        units = spec.per_layer_metrics()
        failed += len(problems)
        notes += problems
    else:
        values, samples = end_to_end(plain, setups)
        units = spec.END_TO_END
    return {"values": values, "units": units, "samples": samples, "attempted": attempted,
            "failed": failed, "notes": notes, "digest": digest, "median_probe_s": median_probe_s}


def print_block(workload: str, seed: int, result: dict) -> None:
    digest = result["digest"]
    pinned = ("match" if digest == spec.PINNED_DIGESTS[workload] else "MISMATCH") \
        if seed == spec.DEFAULT_SEED else f"not pinned at seed {seed}"
    print(f"{workload} (seed {seed}) report sha256 {digest} [{pinned}]")
    for name, value in result["values"].items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:44s} {shown} {result['units'][name]:6s} n={result['samples'][name]}")
    print(f"  (times scaled from a median probe of {result['median_probe_s'] * 1000:.4f} ms "
          f"to the reference {spec.CALIBRATION_REFERENCE_S * 1000:.4f} ms)")
    for note in result["notes"]:
        print(f"  FAIL: {note}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qbern" / "__init__.py").is_file():
        print(f"run.py: no qbern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        warm_up()
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (ChildFailed, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, result in results.items():
        print_block(name, args.seed, result)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in result["values"].items():
            metrics[prefix + metric] = {"value": value, "unit": result["units"][metric]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print("provenance " + json.dumps(provenance(args.seed, results), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
