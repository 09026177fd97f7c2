"""One workload process of the benchmark (started by ``run.py``).

Runs set-up, then the workload's CLI calls in-process, checks every
call and prints one JSON line with the timings, the checks' findings
and the environment.  Importing ``ionjump`` (and with it numpy) is part
of set-up, so nothing at module level imports either.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (set-up is timed from the first line)
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

speed.pin_to_one_cpu()


def call_cli(cli, call: workloads.Call) -> None:
    """One in-process CLI call, timed; output captured for the checks."""
    out, err = io.StringIO(), io.StringIO()
    call.start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call.code = cli.main(call.argv)
    except SystemExit as exc:   # argparse rejects bad arguments this way
        call.code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:   # the run goes on; the call counts as failed
        call.code = None
        call.problems.append(f"raised {type(exc).__name__}: {exc}")
    call.end = time.perf_counter()
    call.stdout = out.getvalue()
    if call.code not in (0, 3) and err.getvalue():
        call.problems.append(err.getvalue().strip()[-500:])


def run_rounds(cli, workload, first: int, *, seconds: float | None = None,
               rounds: int | None = None, tracer: Tracer | None = None,
               on_call=None) -> list[list[workloads.Call]]:
    """Run rounds from index ``first``: a fixed number, or at least
    ``workload.min_rounds`` until ``seconds`` of wall time have passed."""
    done: list[list[workloads.Call]] = []
    start = time.perf_counter()
    index = first
    while True:
        if rounds is not None and len(done) >= rounds:
            break
        if (rounds is None and len(done) >= workload.min_rounds
                and time.perf_counter() - start >= seconds):
            break
        calls = workload.round(index)
        for call in calls:
            if tracer is not None:
                tracer.run += 1
            call_cli(cli, call)
            workload.check(call)
            call.stdout = ""   # checked; kept calls must not grow the process
            if on_call is not None:
                on_call(call)
        done.append(calls)
        index += 1
    return done


def round_seconds(rounds) -> list[float]:
    return [sum(call.seconds for call in calls) for calls in rounds]


def end_to_end(rounds, setup_s: float) -> dict:
    """End-to-end metrics; every workload reports the same set."""
    calls = [call for calls in rounds for call in calls]
    busy = sum(call.seconds for call in calls)
    ms = [1e3 * call.seconds for call in calls]
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(round_seconds(rounds)), "s"),
        "calls_per_s": (len(calls) / busy, "calls/s"),
        "call_p50_ms": (statistics.median(ms), "ms"),
        "call_p99_ms": (p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


class TracedRun:
    """Untraced then traced rounds of the same size (``--trace 1``)."""

    def __init__(self, cli, workload, ctx) -> None:
        self.workload = workload
        self.ctx = ctx
        n = workload.traced_rounds
        self.plain = run_rounds(cli, workload, 0, rounds=n)
        self.pulses = None
        if isinstance(workload, workloads.DftWorkload):
            self.pulses = workload.pulse_intervals(ctx, workload.run_gamma())
        self.tracer = Tracer()
        self.write_bytes = 0
        self.tracer.install()
        try:
            self.spanned = run_rounds(cli, workload, n, rounds=n, tracer=self.tracer,
                                      on_call=self._count_bytes)
        finally:
            self.tracer.uninstall()

    def _count_bytes(self, call) -> None:
        if call.code == 0 and isinstance(self.workload, workloads.DftWorkload):
            self.write_bytes += self.workload.artifact_bytes()

    def metrics(self, probe: speed.SpeedProbe) -> dict:
        from ionjump.program import InstantGate

        pulses = 0
        pulse_times: list[float] | None = []
        if isinstance(self.workload, workloads.DftWorkload):
            pulses = sum(1 for item in self.ctx.program.items
                         if not isinstance(item, InstantGate))
            pulse_times = (None if self.pulses is None
                           else [probe.correct(s, e) for s, e in self.pulses])
        self.tracer.correct(probe)
        metrics = self.tracer.layer_metrics(pulses, self.write_bytes, pulse_times)
        metrics["trace.overhead_s"] = (statistics.median(round_seconds(self.spanned))
                                       - statistics.median(round_seconds(self.plain)), "s")
        return metrics


def environment() -> dict:
    import numpy

    import ionjump

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ionjump": getattr(ionjump, "__version__", None),
        "ionjump_file": os.path.relpath(ionjump.__file__),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "pinned_cpus": (sorted(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        "blas_threads": {key: os.environ.get(key) for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "speed_reference_s": speed.REFERENCE_S,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work_dir = args.out / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, work_dir)
    ctx = workloads.setup(getattr(workload, "ions", 5))
    setup_end = time.perf_counter()

    from ionjump import cli

    traced = None
    rounds: list[list[workloads.Call]] = []
    with speed.SpeedProbe() as probe:
        if args.setup_only:
            time.sleep(speed.WINDOW_S)   # samples to correct set-up by
        elif args.trace:
            traced = TracedRun(cli, workload, ctx)
            rounds = traced.plain + traced.spanned
        else:
            rounds = run_rounds(cli, workload, 0, seconds=args.seconds)
    setup_s = probe.correct(_PROCESS_START, setup_end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_end - _PROCESS_START}))
        return 0

    calls = [call for calls in rounds for call in calls]
    for call in calls:
        call.seconds = probe.correct(call.start, call.end)
    derived: dict[str, float] = {}   # recorded, not reported as metrics
    if traced is not None:
        traced.tracer.write(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        metrics = traced.metrics(probe)
    else:
        metrics = end_to_end(rounds, setup_s)
        if isinstance(workload, workloads.DftWorkload):
            derived["traj_per_s"] = metrics["calls_per_s"][0] * workload.traj
    run_problems = workload.run_checks(ctx)
    failed = [call for call in calls if call.problems]
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_end - _PROCESS_START,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "attempted": len(calls),
        "failed": len(failed),
        "failed_frac": len(failed) / len(calls),
        "run_problems": run_problems,
        "call_problems": [{"argv": call.argv, "problems": call.problems}
                          for call in failed[:20]],
        "missing_symbols": traced.tracer.missing if traced else [],
        "derived": derived,
        "rounds": len(rounds),
        "round_seconds": round_seconds(rounds),
        "round_raw_seconds": [sum(c.end - c.start for c in calls) for calls in rounds],
        "speed_samples": len(probe.durations),
        "speed_sample_median_s": statistics.median(probe.durations),
        "params": workload.params(),
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
