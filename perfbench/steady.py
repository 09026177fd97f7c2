"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/steady.py [--workloads A,B] [--seeds 1-10] [--trace 0|1] \
        [--write perfbench/baseline.json]

Run from the repository root.  Runs ``run.py`` once per seed and
workload, one run at a time, and reports for every metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median.  For the end-to-end metrics it
checks that this spread stays under a third of the metric's bound in
``BENCHMARK.json`` (``setup_s`` excepted).  ``--write`` stores the runs
and the summary, with the environment, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    config = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            argv = config["command"] + ["--workload", workload, "--seed", str(seed),
                                        "--seconds", str(args.seconds),
                                        "--trace", str(args.trace)]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record_path = HERE / "out" / f"{workload}-seed{seed}-trace{args.trace}.json"
            record = json.loads(record_path.read_text(encoding="utf-8"))
            runs.append({"seed": seed, "exit": done.returncode, **result,
                         "derived": record.get("derived", {}),
                         "git_sha": record["git_sha"], "environment": record["environment"],
                         "params": record["params"]})
            print(f"{workload} seed {seed}: exit {done.returncode} correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        names = list(runs[0]["metrics"])
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in names}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, stats in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] > bound / 3:
                flag = f"  SPREAD ABOVE bound/3 = {bound / 3:.3f}"
                steady = False
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"  {workload:15s} {name:30s} median {stats['median']:.6g}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {spread}{flag}")
        if not all(r["correct"] for r in runs):
            steady = False
            print(f"  {workload}: some runs were not correct")
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
