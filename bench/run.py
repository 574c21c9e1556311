"""chainsweep benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload fig4-trajectory --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from anywhere; it imports chainsweep from the ``src`` directory next to
``bench`` and nothing else.  ``--trace 0`` times whole passes through the CLI
and prints the end-to-end metrics; ``--trace 1`` replays the same items as
direct library calls with spans and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every reference
check passed, 1 when one failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 5
REFERENCE_PERIOD = 0.02    # seconds between reference samples during a pass
REFERENCE_STEPS = 300      # about 1 ms per sample on a 2-core x86 VM


class Tally:
    """Items attempted and failed, and the lowest digits per digits metric."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digits: dict[str, float] = {}

    def record(self, item, outputs) -> None:
        self.attempted += 1
        problems = []
        for out in outputs:
            if isinstance(out, Exception):
                problems.append(f"raised {type(out).__name__}: {out}")
                continue
            try:
                checks = item.check(out)
            except Exception:
                problems.append("malformed output:\n" + traceback.format_exc())
                continue
            for c in checks:
                self.digits[c.metric] = min(self.digits.get(c.metric, c.digits), c.digits)
            problems += [f"{c.name}: got {c.got!r}, want {c.ref!r} (tol {c.tol:g})"
                         for c in checks if not c.passed][:MAX_REPORTED_FAILURES]
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAIL {item.id}: " + "; ".join(problems), file=sys.stderr)


def attempt(fn):
    """Call one item form; an exception is the item's output, not the run's."""
    try:
        return fn()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return exc


def timed(fn):
    start = time.perf_counter()
    out = attempt(fn)
    return time.perf_counter() - start, out


def runtime_warnings(log) -> int:
    return sum(1 for w in log if issubclass(w.category, RuntimeWarning))


class ReferenceSampler:
    """Times a fixed loop of small complex numpy products, the kind of work
    chainsweep does, from a timer signal every REFERENCE_PERIOD seconds of a
    pass.

    The host's speed swings by tens of percent within seconds and between
    minutes.  Sampled at the same moments as the pass, the loop slows down
    with it, so a pass's time in units of the loop's mean time stays put.
    ``spent`` is the time the samples took, to be taken off the pass time.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._e = 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        v = self._np.ones(4, dtype=self._np.complex128)
        start = time.perf_counter()
        for _ in range(REFERENCE_STEPS):
            v = v @ self._e
            v = v / (abs(v[0]) + 1.0)
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # first sample at once, so even a very short pass has one
        signal.setitimer(signal.ITIMER_REAL, 1e-6, REFERENCE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def keep_going(start: float, durations: list[float], seconds: float) -> bool:
    """Start another pass only if a median pass still fits in the budget."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter -> import chainsweep -> inputs generated, timed from
    outside, once per repeat."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: waiting with one polls, which quantizes the time
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return out


def context(args, np) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def measure(args, np, workloads, metrics, workdir: Path):
    """Untraced passes through the CLI: the end-to-end metrics."""
    setup = setup_seconds(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed, workdir)
    items = workloads.make_items(args.workload, inputs)
    tally = Tally()
    durations, relative, references, warned = [], [], [], []
    sampler = ReferenceSampler(np)
    start = time.perf_counter()
    while True:
        with warnings.catch_warnings(record=True) as log, sampler:
            warnings.simplefilter("always", RuntimeWarning)
            t0 = time.perf_counter()
            outputs = [attempt(item.cli or item.lib) for item in items]
            elapsed = time.perf_counter() - t0 - sampler.spent
        durations.append(elapsed)
        relative.append(elapsed / statistics.fmean(sampler.samples))
        references += sampler.samples
        warned.append(runtime_warnings(log))
        for item, out in zip(items, outputs):
            tally.record(item, [out])
        if not keep_going(start, durations, args.seconds):
            break
    measured = {
        "wall_rel": statistics.median(relative),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "correct_digits": tally.digits.get("correct_digits", 0.0),
    }
    values = {name: {"value": measured[name], "unit": unit}
              for name, (unit, _) in metrics.END_TO_END.items()}
    print(f"passes {len(durations)} of {len(items)} items; pass seconds "
          + " ".join(f"{d:.4f}" for d in durations))
    print("pass / reference " + " ".join(f"{r:.1f}" for r in relative))
    print(f"reference sample seconds: median {statistics.median(references):.6f}, "
          f"{len(references)} samples")
    print("setup seconds " + " ".join(f"{s:.4f}" for s in setup))
    for name, entry in values.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(f"metric wall_s {statistics.median(durations):.6g} s")
    # Reported for reading only: fail_frac is failed/attempted in the result
    # line; the rest can be 0 or exist on one workload only, which a bounded
    # metric must not.
    print(f"metric fail_frac {tally.failed / tally.attempted:.6g} ratio")
    print(f"metric runtime_warnings {statistics.median(warned):g} count (per pass)")
    for name, value in sorted(tally.digits.items()):
        if name != "correct_digits":
            print(f"metric {name} {value:.6g} digits")
    return tally, values


def trace(args, workloads, metrics, tracing, workdir: Path):
    """Per item: CLI untraced, library untraced, library traced; spans from
    the traced replay give the per-layer metrics."""
    inputs = workloads.make_inputs(args.workload, args.seed, workdir)
    items = workloads.make_items(args.workload, inputs)
    tally = Tally()
    spans, durations, cli_extra, trace_extra, warned = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cli_s = trace_s = 0.0
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always", RuntimeWarning)
            tracer = tracing.Tracer(log)
            warned_pass = 0
            for item in items:
                outputs = []
                if item.cli is not None:
                    cli_time, out = timed(item.cli)
                    outputs.append(out)
                lib_time, _ = timed(item.lib)
                if item.cli is not None:
                    cli_s += cli_time - lib_time
                tracer.item = item.id
                seen = len(log)
                with tracing.instrument(tracer, "chainsweep", metrics.TRACED):
                    traced_time, out = timed(item.lib)
                warned_pass += runtime_warnings(log[seen:])
                trace_s += traced_time - lib_time
                outputs.append(out)
                tally.record(item, outputs)
        spans += tracer.spans
        durations.append(time.perf_counter() - t0)
        cli_extra.append(cli_s)
        trace_extra.append(trace_s)
        warned.append(warned_pass)
        if not keep_going(start, durations, args.seconds):
            break
    passes = len(durations)
    stats = tracing.aggregate(spans)
    direct = {
        "squeezing.sm_bound.digits": tally.digits.get("bound_digits", 0.0),
        "cli.overhead_ms": 1e3 * statistics.median(cli_extra),
        "trace.overhead_ms": 1e3 * statistics.median(trace_extra),
        "runtime_warnings": statistics.median(warned),
    }
    values = {}
    for name, (unit, _) in metrics.PER_LAYER.items():
        value = direct[name] if name in direct else tracing.layer_value(stats, name, passes)
        values[name] = {"value": value, "unit": unit}
        print(f"layer {name} {value:.6g} {unit}")
    print(f"traced passes {passes} of {len(items)} items, {len(spans)} spans")
    return tally, values


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    import workloads
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result line (exit {proc.returncode})", file=sys.stderr)
            merged["correct"] = False
            continue
        print(f"[{name}] {lines[-1]}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="fig4-trajectory, long-chain, gate-census or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measurement budget; a pass starts only if it fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "chainsweep" / "__init__.py").is_file():
        print(f"error: no chainsweep sources under {SRC}", file=sys.stderr)
        return 2
    # numpy reads the thread settings when it is imported, below.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import metrics
    import tracing
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workdir = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        if args.setup_probe:
            workloads.make_inputs(args.workload, args.seed, workdir)
            return 0
        print("context " + json.dumps(context(args, np)))
        if args.trace:
            tally, values = trace(args, workloads, metrics, tracing, workdir)
        else:
            tally, values = measure(args, np, workloads, metrics, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": values}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
