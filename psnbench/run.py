"""Run one workload of the pseudospace benchmark and print its metrics.

    python3 psnbench/run.py --workload words --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and the brute-force oracles from ``tests/brute.py``.  The
run builds the workload (set-up), then executes whole rounds of timed
operations until ``--seconds`` have passed and the workload's minimum number
of rounds is reached, checking every answer.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  See psnbench/README.md.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# one set-up in a fresh process: import, build the workload, then scale the
# time like every other time of the run
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = {path!r}
import workloads
workloads.WORKLOADS[{workload!r}]({seed!r})
took = time.perf_counter() - start
import run
print(took * run.speed_scale([run.probe() for _ in range(run.PROBE_WINDOW)]))
"""
MAX_MEASURE_S = 150  # a run must end within 180 s however slow the program is
TAIL_LADDER = (99.9, 99, 95, 90)
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 5  # the scale is the median of the last probes, about 0.25 s
PROBE_REFERENCE_S = 0.001  # the probe time that counts as full speed
# Measured over 25 runs per workload on this machine, the workloads' times
# move with the probe's time to the power 0.5-0.9: part of their work waits
# on memory, which a change of processor speed does not move.  Scaling by a
# power of 0.7 rather than 1 keeps a change of machine speed from moving the
# scaled figures the other way.
PROBE_ELASTICITY = 0.7


def speed_scale(probe_times) -> float:
    """The factor that brings a time measured now to the reference speed."""
    return (PROBE_REFERENCE_S / statistics.median(probe_times)) ** PROBE_ELASTICITY


def probe_work() -> int:
    """A fixed piece of pure-Python work: dict, set, tuple and int operations
    of the kind the library spends its time on, independent of the library."""
    counts: dict = {}
    seen: set = set()
    acc = 0
    for i in range(1500):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
        seen.add((k, i & 15))
        acc += len(seen) & 3
    return acc


def probe() -> float:
    """Seconds the probe work takes now, the faster of two tries, with the
    collector off so the program's heap does not enter into it."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(2):
            start = perf_counter()
            probe_work()
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(samples_at_least: int) -> float:
    """The highest percentile of the ladder that leaves at least ten samples
    beyond it in a run of ``samples_at_least`` operations."""
    return next((p for p in TAIL_LADDER if (100 - p) / 100 * samples_at_least >= 10), TAIL_LADDER[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["words", "flags", "verify", "build"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    try:
        import pseudospace
    except ImportError as exc:
        print(f"psnbench: cannot import pseudospace from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(pseudospace.__file__).startswith(SRC + os.sep):
        print(f"psnbench: pseudospace came from {pseudospace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import_s = perf_counter() - START

    began = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    build_s = perf_counter() - began
    # set-up runs again in fresh processes, one at a time, for its median
    child = SETUP_CHILD.format(path=[SRC, os.path.join(ROOT, "tests"), HERE],
                               workload=args.workload, seed=args.seed)
    setups = [
        float(subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                             check=True, timeout=60).stdout)
        for _ in range(0 if tracer else SETUP_REPEATS)
    ]

    samples: list[float] = []
    raw_samples: list[float] = []
    probes: list[float] = []
    round_rates: list[float] = []
    by_kind: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    wrong: list[str] = []
    rounds = 0
    peak_rss_mb = None
    min_rounds = 1 if tracer else workload.min_rounds
    ops = workload.round(0)
    tail = tail_percentile(workload.min_rounds * len(ops))
    # the benchmark's own set-up objects stay out of the collector's way
    gc.collect()
    gc.freeze()
    began = perf_counter()
    probed_at = -math.inf
    while True:
        round_s = 0.0
        for op in ops:
            if perf_counter() - probed_at >= PROBE_EVERY_S:
                probes.append(probe())
                scale = speed_scale(probes[-PROBE_WINDOW:])
                probed_at = perf_counter()
            if tracer:
                tracer.on = True
            start = perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            took = perf_counter() - start
            if tracer:
                tracer.on = False
            attempted += 1
            raw_samples.append(took)
            took *= scale
            round_s += took
            samples.append(took)
            by_kind[op.kind].append(took)
            if op.expect is not None:
                failed += not isinstance(error, op.expect)
                continue
            if error is not None:
                failed += 1
                print(f"psnbench: {op.kind} raised {error!r}", file=sys.stderr)
                continue
            if tracer:
                tracer.observe(result)
            try:
                op.check(result)
            except Exception as exc:  # CheckFailure, or a malformed answer
                wrong.append(f"{op.kind}: {exc!r}")
        rounds += 1
        round_rates.append(len(ops) / round_s)
        if rounds == workload.min_rounds:
            # the bookkeeping kept here grows with the number of rounds, so
            # memory is read after the same work in every run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = perf_counter() - began
        if elapsed >= MAX_MEASURE_S or (elapsed >= args.seconds and rounds >= min_rounds):
            break
        try:
            ops = workload.round(rounds)
        except workloads.Exhausted as exc:
            print(f"psnbench: stopping after {rounds} rounds: {exc}", file=sys.stderr)
            break

    samples.sort()
    ops_per_s = statistics.median(round_rates)
    beyond = len(samples) - math.ceil(tail / 100 * len(samples))
    print(f"# psnbench workload={args.workload} seed={args.seed} backend={pseudospace.BACKEND} "
          f"python={platform.python_version()} trace={args.trace}")
    print(f"# rounds={rounds} attempted={attempted} failed={failed} wrong={len(wrong)} "
          f"tail=p{tail:g} ({beyond} samples beyond) measured_s={elapsed:.2f}")
    print(f"# setup: [{', '.join(f'{s:.4f}' for s in setups)}] s scaled, in fresh processes; this process: "
          f"import {import_s:.4f} s, build {build_s:.4f} s (unscaled)")
    print(f"# speed probe: {len(probes)} probes, median {statistics.median(probes) * 1e3:.4f} ms "
          f"(reference {PROBE_REFERENCE_S * 1e3:g} ms); unscaled: "
          f"p50 {statistics.median(raw_samples) * 1e3:.4f} ms, "
          f"ops/s {len(raw_samples) / sum(raw_samples):.2f} (mean), setup {import_s + build_s:.4f} s")
    for kind, times in sorted(by_kind.items()):
        print(f"#   {kind:24s} n={len(times):6d} p50={statistics.median(times) * 1e3:9.3f} ms "
              f"total={sum(times):8.3f} s")
    for line in wrong[:5]:
        print(f"psnbench: wrong answer: {line}", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics(rounds, ops_per_s)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json"), "w") as fh:
            json.dump({"rounds": rounds, "calls": tracer.counts, "self_s": tracer.self_s}, fh, indent=1)
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(samples) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": percentile(samples, tail) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
