"""Benchmark entry point: one workload, one seed, one closed-loop pass.

Usage, from the repository root::

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout that holds this
file.  One caller runs items back to back (the next starts when the
previous one returns; no threads, no worker processes) in whole rounds
until ``--seconds`` have passed.  The last line of standard output is one
JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one extra, traced round.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import setup_probe
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class SetupProbes:
    """Set-up time in fresh interpreters, spread over the pass.

    The host's speed drifts over seconds, so the probes run at evenly
    spaced points of the pass (between items, never inside one) rather
    than back to back, and the median is reported.
    """

    def __init__(self, workload: str, seconds: float, repeats: int) -> None:
        self.workload = workload
        self.due = [i * seconds / repeats for i in range(repeats)]
        self.times: list[float] = []
        self.raw: list[float] = []

    def maybe(self, elapsed: float) -> float:
        """Run a probe if one is due; return the wall time it took."""
        if len(self.times) >= len(self.due) or elapsed < self.due[len(self.times)]:
            return 0.0
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), self.workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        calibrated, raw = done.stdout.split()[-2:]
        self.times.append(float(calibrated))
        self.raw.append(float(raw))
        return time.perf_counter() - start

    def finish(self) -> None:
        while len(self.times) < len(self.due):
            self.maybe(float("inf"))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Pass:
    """Closed-loop rounds over a workload's items, one caller.

    An item's raw time is the CPU time the process spends in it
    (``time.process_time``).  The work is single-threaded and CPU-bound,
    so on an idle machine that equals wall time; on a shared host it leaves
    out the time the scheduler gave to other processes.  The host still
    slows CPU time too, in phases of seconds to many minutes, so each raw
    time is divided by the slowdown that the calibration kernel measured
    around it (see calibrate.py).  ``samples[i]`` holds item i's
    (raw time, kernel position) in every round.
    """

    def __init__(self) -> None:
        self.samples: list[list[tuple[float, int]]] = []
        self.speed = calibrate.Speed()
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.reported = False

    def round(self, workload, tracer=None, between=None) -> None:
        clock = time.process_time
        speed = self.speed
        speed.tick()
        for i, (run, check) in enumerate(workload.round()):
            if tracer is not None:
                tracer.active = True
            start = clock()
            try:
                out = run()
                ok = True
            except Exception:
                ok = False
                self._report_first(traceback.format_exc())
            elapsed = clock() - start
            if tracer is not None:
                tracer.active = False
            if i == len(self.samples):
                self.samples.append([])
            self.samples[i].append((elapsed, speed.position()))
            speed.after_item(elapsed)
            self.attempted += 1
            if ok:
                try:
                    ok = check(out)
                except Exception:
                    ok = False
                    self._report_first(traceback.format_exc())
                if not ok:
                    self._report_first("oracle check failed\n")
            if not ok:
                self.failed += 1
            if between is not None:
                between()
        speed.tick()
        self.failed += workload.end_round()
        self.rounds += 1

    def times(self, calibrated: bool = True) -> list[list[float]]:
        """Every item's time in every round, calibrated or raw."""
        slow = self.speed.slowdown if calibrated else (lambda at: 1.0)
        return [[t / slow(at) for t, at in s] for s in self.samples]

    def item_latencies(self, calibrated: bool = True) -> list[float]:
        """Per-item median over rounds, ascending."""
        return sorted(statistics.median(s) for s in self.times(calibrated))

    def busy(self, calibrated: bool = True) -> float:
        """Summed item time over all rounds."""
        return sum(map(sum, self.times(calibrated)))

    def _report_first(self, text: str) -> None:
        if not self.reported:
            self.reported = True
            print(f"first failure:\n{text}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tensorgraphs" / "__init__.py").is_file():
        print(f"error: no tensorgraphs package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tensorgraphs
    import tensorgraphs.cli

    setup_probe.lazy_setup(args.workload, tensorgraphs)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.CLASSES[args.workload](tensorgraphs, args.seed, str(workdir))
        gc.collect()
        stats = Pass()
        probes = None if args.trace else SetupProbes(args.workload, args.seconds, SETUP_REPEATS)
        start = time.perf_counter()
        paused = 0.0

        def between():
            nonlocal paused
            paused += probes.maybe(time.perf_counter() - start - paused)

        while True:  # whole rounds, at least one
            stats.round(wl, between=between if probes else None)
            if time.perf_counter() - start - paused >= args.seconds:
                break
        if probes:
            probes.finish()
        if args.trace:
            traced = Pass()
            tr = tracing.Tracer()
            tr.install(tensorgraphs)
            try:
                traced.round(wl, tr)
            finally:
                tr.uninstall()
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tr.write(str(out_dir / f"spans-{args.workload}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = stats.item_latencies()
    raw = stats.item_latencies(calibrated=False)
    attempted, failed = stats.attempted, stats.failed
    if args.trace:
        attempted += traced.attempted
        failed += traced.failed
        metrics = tr.metrics()
        metrics["trace.overhead_ratio"] = traced.busy() / (stats.busy() / stats.rounds)
        metrics["fail_ratio"] = failed / attempted
        units = tracing.metric_units()
    else:
        metrics = {
            "setup_s": statistics.median(probes.times),
            "items_per_s": stats.attempted / stats.busy(),
            "item_p50_ms": percentile(lat, 0.50) * 1e3,
            "item_p90_ms": percentile(lat, 0.90) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    print(
        f"workload={args.workload} seed={args.seed} rounds={stats.rounds} "
        f"items_per_round={len(lat)} p90_items_beyond={len(lat) - math.ceil(0.9 * len(lat))} "
        f"fail_ratio={failed / attempted} busy_s={stats.busy():.3f} "
        f"raw_busy_s={stats.busy(calibrated=False):.3f} "
        f"raw_p50_ms={percentile(raw, 0.50) * 1e3:.4g} raw_p90_ms={percentile(raw, 0.90) * 1e3:.4g} "
        f"slowdown={calibrate.median([t / calibrate.REFERENCE_S for t in stats.speed.ticks]):.3f}"
        + (f" setup_runs={[round(x, 4) for x in probes.times]} raw_setup_s={statistics.median(probes.raw):.4f}" if probes else "")
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
