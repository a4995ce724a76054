"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is two program operations (see workloads.py) run in turn, once
per round. With ``--trace 0`` the run makes their inputs from the seed,
then starts worker processes one after another: eleven set the workload
up (import rlgames, parse the configs, load the games), and two of them
then run whole rounds, half of the measured seconds each. Before each
operation of a round, and after the last round, a worker waits while this
process times a fixed reference computation (reference_s). It checks the
last round's outputs against the independent computations in checks.py and
prints the end-to-end metrics:

    setup_s      median set-up time of the eleven workers
    wall_ref     mean wall time of one round over the mean time of the
                 reference computation: the round's cost with the shared
                 machine's changing speed divided out
    peak_rss_mb  median peak resident memory of the two working workers

With ``--trace 1`` one worker profiles all four operations with spans
around the program's layers and prints the per-layer metrics; the spans go
to perfbench/results/. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. `attempted` counts the
program calls of the rounds and `failed` those that raised; the checks
speak of the calls that did not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))
from checks import CHECKS  # noqa: E402
from worker import REFERENCE_DONE, REFERENCE_REQUEST  # noqa: E402
from workloads import OPERATIONS, WORKLOADS, make_inputs  # noqa: E402

SETUP_WORKERS = 11  # each imports rlgames afresh; set-up time is their median
OP_WORKERS = (3, 7)  # which of them also run rounds
CHECKED_WORKER = OP_WORKERS[-1]  # whose last round is checked
RUN_LIMIT_S = 170  # a run, workers included, ends within this or fails


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["RLGAMES_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def reference_s() -> float:
    """Time a fixed computation that calls nothing of rlgames: twice over, a
    pure-Python loop, float formatting, small-array numpy calls and one pass
    over fresh 48 MB arrays, the kinds of work the program's rounds do. Its
    time follows the speed the shared machine gives the benchmark at the
    moment. It runs here, while the worker that asked for it waits, so its
    memory does not count in the worker's peak."""
    t0 = time.perf_counter()
    for _ in range(2):
        acc = 0
        for k in range(250_000):
            acc += k * k % 7
        text = ",".join(format(k / 7.0, ".17g") for k in range(25_000))
        x = np.linspace(0.1, 1.0, 108).reshape(27, 4)
        for _ in range(4_000):
            e = np.exp(x - x.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
        big = np.empty(6_000_000)
        big.fill(1.5)
        total = float(np.add.reduce(big * big))
    seconds = time.perf_counter() - t0
    assert acc > 0 and len(text) > 0 and e.shape == x.shape and total > 0
    return seconds


def run_worker(job: dict, folder: Path, deadline: float) -> dict:
    """Run worker.py on `job` in a fresh process and return its result,
    with the times of the reference computations it asked for (see
    worker._ask_reference) under "reference_s".

    The worker is killed if it is still running at `deadline`
    (a time.monotonic() value)."""
    job = dict(job, result=str(folder / "result.json"))
    job_file = folder / "job.json"
    job_file.write_text(json.dumps(job))
    references = []
    with open(folder / "stderr.txt", "w+", encoding="utf-8") as err, subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(job_file)],
            env=worker_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=err, text=True) as proc:
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line == REFERENCE_REQUEST:
                    references.append(reference_s())
                    proc.stdin.write(REFERENCE_DONE)
                    proc.stdin.flush()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"worker failed with exit code {proc.returncode}:\n{err.read()}")
    result = json.loads(Path(job["result"]).read_text())
    if Path(result["rlgames_file"]).resolve().parent != (SRC / "rlgames").resolve():
        raise RuntimeError(f"worker imported rlgames from {result['rlgames_file']}, "
                           f"not from {SRC}")
    result["reference_s"] = references
    return result


def measure(workload: str, seed: int, seconds: float, work: Path,
            deadline: float) -> tuple[bool, int, int, dict]:
    operations = WORKLOADS[workload]
    manifests = [make_inputs(op, seed, work / "inputs" / op) for op in operations]
    results = []
    for k in range(SETUP_WORKERS):
        folder = work / f"worker_{k}"
        folder.mkdir()
        budget = seconds / len(OP_WORKERS) if k in OP_WORKERS else 0.0
        job = {"mode": "ops", "budget": budget, "capture": k == CHECKED_WORKER,
               "operations": [{"manifest": m, "outdir": str(folder / "out" / m["operation"])}
                              for m in manifests]}
        results.append(run_worker(job, folder, deadline))
    working = [results[k] for k in OP_WORKERS]
    checked = results[CHECKED_WORKER]
    correct = check_outputs(operations, manifests, work / f"worker_{CHECKED_WORKER}" / "out",
                            checked["last_failed"])
    if len({tuple(d) for r in working for d in r["digests"]}) != 1:
        report(workload, ["rounds of the same inputs gave different outputs"])
        correct = False
    rounds = [s for r in working for s in r["round_s"]]
    references = [s for r in working for s in r["reference_s"]]
    wall_s = statistics.fmean(rounds)
    reference_s = statistics.fmean(references)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "wall_ref": (wall_s / reference_s, "x"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in working), "MB"),
    }
    attempted = sum(r["ops"] for r in working)
    failed = sum(r["failed"] for r in working)
    report_errors(r for w in working for r in w["errors"])
    print(f"{workload} seed {seed}: {attempted} program calls, {failed} failed, in rounds of "
          + ", ".join(f"{s:.3f}" for s in rounds) + f" s (mean {wall_s:.4f} s); reference "
          + ", ".join(f"{s:.3f}" for s in references) + f" s (mean {reference_s:.4f} s); "
          + "set-up " + ", ".join(f"{r['setup_s']:.3f}" for r in results) + " s")
    return correct, attempted, failed, metrics


def check_outputs(operations, manifests, out: Path, last_failed) -> bool:
    """Run each operation's check on its output. The calls that failed are
    left out of the check; an operation whose every call failed is not
    checked."""
    correct = True
    for op, manifest, failed in zip(operations, manifests, last_failed):
        if failed is None:
            print(f"{op}: every call failed; output not checked")
            continue
        problems = CHECKS[op](out / op, dict(manifest, failed=failed))
        report(op, problems)
        correct &= not problems
    return correct


def trace(seed: int, work: Path, label: str, deadline: float) -> tuple[bool, int, int, dict]:
    RESULTS.mkdir(exist_ok=True)
    entries = [{"manifest": make_inputs(op, seed, work / "inputs" / op),
                "outdir": str(work / "out" / op)} for op in OPERATIONS]
    job = {"mode": "trace", "seed": seed, "operations": entries,
           "trace": str(RESULTS / f"trace-{label}-{seed}.json")}
    result = run_worker(job, work, deadline)
    correct = check_outputs(OPERATIONS, [e["manifest"] for e in entries], work / "out",
                            result["last_failed"])
    for op, digest in zip(OPERATIONS, result["digests"]):
        if digest == "differs":
            report(op, ["traced and untraced rounds gave different outputs"])
            correct = False
    report_errors(result["errors"])
    for name in result["missing"]:
        print(f"missing: {name} is no longer in the program; its spans read 0")
    units = per_layer_units()
    metrics = {name: (result["metrics"][name], units[name]) for name in units}
    return correct, result["ops"], result["failed"], metrics


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report_errors(errors) -> None:
    for line in sorted(set(errors)):
        print(f"FAILED CALL: {line}")


def report(what: str, problems: list[str]) -> None:
    for line in problems[:20]:
        print(f"{what}: INCORRECT: {line}")
    if len(problems) > 20:
        print(f"{what}: ... and {len(problems) - 20} more problems")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rlgames" / "__init__.py").is_file():
        print(f"no rlgames sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # one CPU for this process and every worker: the reference computation
    # then times the CPU the rounds ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            correct, attempted, failed, metrics = trace(args.seed, work, args.workload,
                                                        deadline)
        else:
            correct, attempted, failed, metrics = measure(args.workload, args.seed,
                                                          args.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
