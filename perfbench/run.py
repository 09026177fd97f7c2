"""ionjump benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (environment, checks, set-up samples) is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
#: Processes whose set-up time is sampled; setup_s is their median.
SETUP_SAMPLES = 5
#: Whole-run limit, kept under the 180 s a run may take.
DEADLINE_S = 170.0
#: Single-threaded BLAS and a fixed string hash for every worker.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha(root: Path) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_worker(args: argparse.Namespace, root: Path, out: Path, deadline: float,
               setup_only: bool = False) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        argv.append("--setup-only")
    env = {**os.environ, **WORKER_ENV, "PYTHONPATH": str(root / "src")}
    try:
        done = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {DEADLINE_S:.0f} s limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {done.returncode}")
    record = json.loads(lines[-1])
    if not setup_only and not record["environment"]["ionjump_file"].startswith("src" + os.sep):
        raise BenchError("imported ionjump from outside src/")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "ionjump" / "cli.py").is_file():
        print(f"error: no ionjump sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)

    try:
        samples = [] if args.trace else [
            run_worker(args, root, out, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        record = run_worker(args, root, out, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = record["metrics"]
    if not args.trace:
        samples.append(record["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    correct = record["failed"] == 0 and not record["run_problems"]
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, git_sha=git_sha(root), setup_samples=samples,
                  correct=correct)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {record['git_sha'] or 'unknown'}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} calls)")
    for problem in record["run_problems"]:
        print(f"  check failed: {problem}")
    for entry in record["call_problems"]:
        print(f"  call {' '.join(entry['argv'])}: {'; '.join(entry['problems'])}")
    if record["missing_symbols"]:
        print("  absent (symbol not in this version): "
              + ", ".join(record["missing_symbols"]))
    print(f"record: {path.relative_to(root) if path.is_relative_to(root) else path}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
