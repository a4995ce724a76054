"""Collect sets of benchmark runs and compare them.

    python3 perfbench/sets.py collect -o perfbench/results/a.jsonl [--seeds 10]
    python3 perfbench/sets.py compare perfbench/results/a.jsonl [perfbench/results/b.jsonl]

`collect` runs run.py untraced, for BENCHMARK.json's run_seconds, once per
workload of BENCHMARK.json and seed 1 to --seeds, and appends one JSON
line per run. `compare` prints, per workload and metric, the median, the
quartiles and the spread (interquartile distance over the median) of each
set, with the bound from BENCHMARK.json. Given two sets it also prints how
far the second median moved from the first, flags a move worse than the
bound, and compares the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(args) -> int:
    spec = _spec()
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed; {shown}", flush=True)
            status |= 0 if result["correct"] else 1
    return status


def _load(path: str) -> dict:
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs[run["workload"]].append(run)
    return runs


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def compare(args) -> int:
    spec = _spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [_load(p) for p in args.sets]
    status = 0
    for workload in sets[0]:
        print(f"{workload}")
        runs = [s.get(workload, []) for s in sets]
        shares = [sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                  for rs in runs]
        correct = [all(r["correct"] for r in rs) for rs in runs]
        print(f"  runs {[len(rs) for rs in runs]}, all correct {correct}, failed share {shares}")
        if len(set(shares)) > 1:
            print("  FAILED SHARE DIFFERS")
            status = 1
        for name in runs[0][0]["metrics"] if runs[0] else []:
            bound = bounds.get(name)
            parts = []
            medians = []
            for rs in runs:
                values = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                if not values:
                    parts.append("no runs")
                    medians.append(0.0)
                    continue
                median, q1, q3, spread = _summary(values)
                medians.append(median)
                flag = ""
                # set-up time follows the machine's speed; only its median
                # is held to the bound
                if bound is not None and spread > bound and name != "setup_s":
                    flag, status = " OVER BOUND", 1
                elif bound is not None and spread > bound / 3:
                    flag = " over a third of the bound"
                parts.append(f"median {median:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}{flag}")
            line = f"  {name:<36} " + " | ".join(parts)
            if len(medians) == 2 and bound is not None and medians[0]:
                change = medians[1] / medians[0] - 1.0
                worse = change > bound if better[name] == "lower" else -change > bound
                line += f" | change {100 * change:+.1f}%{' WORSE THAN BOUND' if worse else ''}"
                status |= int(worse)
            if bound is not None:
                line += f" (bound {bound})"
            print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(fn=collect)
    p = sub.add_parser("compare")
    p.add_argument("sets", nargs="+")
    p.set_defaults(fn=compare)
    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.sets) > 2:
        parser.error("compare takes one or two result sets")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
