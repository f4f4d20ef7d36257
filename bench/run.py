"""Fixed-work benchmark of rankmech's library API.

Run from the root of a checkout:

    python3 bench/run.py --workload assign-ties --seed 1 --seconds 20 --trace 0

One process, one thread, one operation at a time (a closed loop with one
client).  The run works through a fixed list of operations made from the
seed; ``--seconds`` sets how many whole rounds of operations the list holds,
and the run never stops on the clock.  Each operation's output is checked
against the computations in ``reference.py`` outside the timed region.
Timings are reported at a fixed reference speed of the host, measured by a
calibration computation run after every timed piece of work.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The run leaves no bytecode caches behind, and every set-up compiles rankmech afresh.
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import MAX_AGENTS, WORKLOADS  # noqa: E402

# Set-ups per run, spread evenly through it so that they meet the machine's
# speed at different moments; setup_s is their median.
SETUPS = 9

# The host's speed drifts by itself, by up to half, in states that last from
# under a second to minutes.  A fixed computation of the benchmark's own,
# which never touches rankmech, is timed after every operation and set-up.
# Each of those is reported at the speed at which this computation takes
# REFERENCE_CALIBRATION_S: its wall time times REFERENCE_CALIBRATION_S over
# the mean of the calibrations made from CALIBRATION_WINDOW_S before its start
# to CALIBRATION_WINDOW_S after its end.  A calibration is the median of
# enough samples to take about CALIBRATION_SHARE of the time of the work it
# follows.
CALIBRATION_MARKET = ((2, 2, 1, 6), ((0, 1, 2, 3),) * 5 + ((1, 0, 2, 3),))
REFERENCE_CALIBRATION_S = 0.008
CALIBRATION_SHARE = 0.05
MAX_CALIBRATION_SAMPLES = 9
CALIBRATION_WINDOW_S = 2.0


def calibrate(samples: int = 1) -> float:
    """Median wall seconds of the calibration computation, garbage collection held off."""
    times = []
    gc.disable()
    try:
        for _ in range(samples):
            start = time.perf_counter()
            reference.brute_uniform_rows(*CALIBRATION_MARKET)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


class SteadyClock:
    """Records timings of the run, calibrating after each; scales them at the end."""

    def __init__(self) -> None:
        calibrate()  # the first call pays for cold caches
        self.calibrations: list[tuple[float, float]] = []  # (when, seconds)
        self.pieces: list[tuple[str, float, float]] = []  # (kind, middle, seconds)
        self._calibrate(3)

    def _calibrate(self, samples: int) -> None:
        start = time.perf_counter()
        seconds = calibrate(samples)
        self.calibrations.append(((start + time.perf_counter()) / 2, seconds))

    def record(self, kind: str, elapsed: float) -> None:
        """Record ``elapsed`` seconds of work of ``kind`` that ended just now, then calibrate."""
        self.pieces.append((kind, time.perf_counter() - elapsed / 2, elapsed))
        samples = round(CALIBRATION_SHARE * elapsed / REFERENCE_CALIBRATION_S)
        self._calibrate(min(MAX_CALIBRATION_SAMPLES, max(1, samples)))

    def scaled(self, kind: str) -> list[float]:
        """Seconds at the reference speed of each recorded piece of ``kind``, in order."""
        out = []
        for piece_kind, middle, elapsed in self.pieces:
            if piece_kind == kind:
                reach = elapsed / 2 + CALIBRATION_WINDOW_S
                near = [c for when, c in self.calibrations if abs(when - middle) <= reach]
                out.append(elapsed * REFERENCE_CALIBRATION_S / statistics.fmean(near))
        return out


class Program:
    """rankmech freshly imported from the checkout's ``src/``, with no state left over."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "rankmech" or n.startswith("rankmech.")]:
            del sys.modules[name]
        package = importlib.import_module("rankmech")
        if Path(package.__file__).resolve().parent != SRC / "rankmech":
            raise RuntimeError(f"imported rankmech from {package.__file__}, not from {SRC}")
        self.specfile = importlib.import_module("rankmech.specfile")
        self.market = importlib.import_module("rankmech.market")
        self.assignment = importlib.import_module("rankmech.assignment")
        self.mechanisms = importlib.import_module("rankmech.mechanisms")
        self.strategy = importlib.import_module("rankmech.strategy")
        self.sweeps = importlib.import_module("rankmech.sweeps")
        self.budget = self.mechanisms.Budget(max_agents=MAX_AGENTS)


def set_up(workload, warmups) -> tuple[Program, float]:
    """Import rankmech and run the warm-up operations; return the seconds taken."""
    start = time.perf_counter()
    rm = Program()
    for inp in warmups:
        workload.op(rm, inp)
    return rm, time.perf_counter() - start


def run_ops(workload, programs, inputs, first=0, clock=None) -> tuple[list[list[float]], int]:
    """Run each operation on each (program, tracer) in turn, timing it, then checking it.

    Returns the seconds each program spent per operation, also recorded on
    ``clock`` if one is given, and the number of failed operations.  Giving
    the traced run an untraced twin program, op by op, keeps the machine's
    speed drift out of the tracing overhead.
    """
    times: list[list[float]] = [[] for _ in programs]
    failed = 0
    for i, inp in enumerate(inputs, first):
        for (rm, tracer), spent in zip(programs, times):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                out = workload.op(rm, inp)
            except Exception:  # a failed operation is counted, and the run goes on
                spent.append(time.perf_counter() - start)
                if clock:
                    clock.record("op", spent[-1])
                failed += 1
                print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            spent.append(time.perf_counter() - start)
            if clock:
                clock.record("op", spent[-1])
            try:
                problems = workload.check(inp, out)
            except Exception:  # output of an unexpected shape fails its check
                problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"op {i} failed its checks: {'; '.join(problems)}", file=sys.stderr)
    return times, failed


def run_timed(workload, warmups, inputs, clock) -> tuple[list[float], list[float], int]:
    """Set up, then time the operations, setting up afresh between even slices of them.

    The operations all run on the first set-up's program; the later set-ups
    are only timed.  Returns (set-up seconds, seconds per op, failures), all
    timings at the reference speed of ``clock``.
    """
    rm, elapsed = set_up(workload, warmups)
    clock.record("setup", elapsed)
    failed = 0
    cuts = [len(inputs) * k // SETUPS for k in range(SETUPS + 1)]
    for k in range(SETUPS):
        _, slice_failed = run_ops(workload, [(rm, None)], inputs[cuts[k]:cuts[k + 1]], cuts[k], clock)
        failed += slice_failed
        if k + 1 < SETUPS:
            clock.record("setup", set_up(workload, warmups)[1])
    return clock.scaled("setup"), clock.scaled("op"), failed


def timing_metrics(times, setup_times) -> dict[str, tuple[float, str]]:
    ms = [1000.0 * t for t in times]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; sets the number of rounds of operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankmech" / "__init__.py").is_file():
        print(f"error: no rankmech sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    reference.self_test(random.Random(args.seed))
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    warmups = workload.inputs(rng, "w", workload.warmup_shapes, warmup=True)
    shapes = workload.shapes * workload.rounds(args.seconds)
    inputs = workload.inputs(rng, "t", shapes)

    if args.trace:
        plain, _ = set_up(workload, warmups)
        traced, _ = set_up(workload, warmups)
        tracer = Tracer()
        tracer.install(traced)
        (plain_s, traced_s), failed = run_ops(workload, [(plain, None), (traced, tracer)], inputs)
        attempted = 2 * len(inputs)
        metrics = tracer.metrics()
        metrics["trace.op_ms"] = (1000.0 * sum(traced_s), "ms")
        metrics["trace.overhead_pct"] = (100.0 * (sum(traced_s) / sum(plain_s) - 1), "%")
        for name in tracer.absent():
            print(f"per-layer metric {name} is absent: its layer was not found", file=sys.stderr)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz")
    else:
        clock = SteadyClock()
        setup_times, times, failed = run_timed(workload, warmups, inputs, clock)
        attempted = len(inputs)
        metrics = timing_metrics(times, setup_times)
        ms = [1000.0 * c for _, c in clock.calibrations]
        raw_s = sum(elapsed for _, _, elapsed in clock.pieces)
        print(f"calibration: median {statistics.median(ms):.2f} ms, range {min(ms):.2f}-{max(ms):.2f} ms, "
              f"reference {1000.0 * REFERENCE_CALIBRATION_S:.2f} ms; timings unscaled "
              f"{raw_s:.3f} s, scaled {sum(setup_times) + sum(times):.3f} s", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
