"""One benchmark process: set operations up, then run them.

Usage: python3 perfbench/worker.py JOB.json

The job file names the mode, the operations with their input manifests
(see workloads.py) and output folders, and where to write the result.
``ops`` mode times set-up and then whole rounds, each making every
program call of every operation of the job once, untraced, as many rounds
as should fit in the budget. A call that raises is counted as failed and
the round goes on. Before each operation of a round, and after the last
round, the worker asks run.py to time its reference computation and waits
until it has. An in-memory batch keeps the runs that run_many hands it
until the next round starts, so they add nothing to that round's peak
memory; with ``capture`` set, the last round's runs are then saved for
the checks to replay.

``trace`` mode sets up every operation in the job, runs each one untraced,
traced and untraced again (saving an in-memory batch's last runs), then
times per-call figures on the workloads' own shapes.

Only the standard library is imported before the set-up clock starts, so
set-up time counts importing rlgames (and numpy with it).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path


def _digest_files(folder: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(folder.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


FAILED = "failed"  # stands in the results for a program call that raised
# the lines of the reference protocol with run.py (see _ask_reference)
REFERENCE_REQUEST = "reference?\n"
REFERENCE_DONE = "reference done\n"


def _setup(manifest: dict, outdir: Path, span):
    """Parse the operation's config and load its games through the program.

    Returns (calls, keep, runs). `calls` are the operation's program
    calls, in order. keep(results) saves what the checks read and returns a
    digest of the operation's output; a call that raised has FAILED in
    `results`. `runs`, when not None, is the _KeptRuns of the operation's
    last call. `span(name, fn, *args)` times a set-up call (plain call
    when untraced).
    """
    from rlgames import cli, experiments
    from rlgames.config import config_from_json

    operation = manifest["operation"]
    outdir.mkdir(parents=True, exist_ok=True)
    if operation == "club-analyze":
        specs = manifest["games"]
        for spec in specs:
            span("game.load", experiments.load_game_spec, spec)
        result_file = outdir / "reports.json"
        # looked up at call time, so a traced round sees the wrapper
        calls = [lambda spec=spec: cli.analyze_game(spec) for spec in specs]

        def keep(reports):
            reports = [None if r is FAILED else r for r in reports]
            result_file.write_text(json.dumps(reports, indent=1) + "\n")
            return _digest_json(reports)

        return calls, keep, None

    config = span("config.parse", config_from_json, manifest["config"])
    span("game.load", experiments.load_game_spec, config.game)

    def keep_files(results):
        return FAILED if results[0] is FAILED else _digest_files(outdir)

    if operation == "bandit-batch-csv":
        return [lambda: experiments.run_batch(config, out_dir=outdir)], keep_files, None
    if operation == "power-report":
        return [lambda: experiments.run_experiment(config, out_dir=outdir)], keep_files, None
    result_file = outdir / "aggregate.json"

    def keep_aggregate(results):
        if results[0] is FAILED:
            return FAILED
        _, aggregate = results[0]
        result_file.write_text(json.dumps(aggregate, indent=1) + "\n")
        return _digest_json(aggregate)

    kept = _KeptRuns(outdir / "runs.npz")
    return [lambda: _keeping_batch(config, kept)], keep_aggregate, kept


class _KeptRuns(list):
    """The trajectories that run_many handed an in-memory batch's last
    call, and where to save them for the checks to replay."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path

    def save(self) -> None:
        """Save every kept run's profiles and sampled actions."""
        import numpy as np

        np.savez(self.path, n=self[0].n, gamma=self[0].gamma,
                 y0=np.stack([t.y0 for t in self]), x=np.stack([t.x for t in self]),
                 realized=np.stack([t.realized for t in self]))


def _keeping_batch(config, kept: list):
    """execute_batch(config), keeping in `kept` the trajectories that
    run_many hands it. run_many is wrapped as found at call time, so a
    traced round keeps its spans."""
    from rlgames import experiments

    run_many = experiments.run_many

    def keeping(*args, **kwargs):
        trajectories = run_many(*args, **kwargs)
        kept.extend(trajectories)
        return trajectories

    experiments.run_many = keeping
    try:
        return experiments.execute_batch(config)
    finally:
        experiments.run_many = run_many


def _run_round(prepared, errors: list, between=None) -> tuple[float, list]:
    """Make every call of every operation once, after letting the previous
    round's kept runs go. A call that raises leaves FAILED in its place and
    its message in `errors`; the others go on. `between`, when given, is
    called before each operation's calls, outside the returned time."""
    for _, _, runs in prepared:
        if runs is not None:
            runs.clear()
    seconds = 0.0
    results = []
    for calls, _, _ in prepared:
        if between is not None:
            between()
        t0 = time.perf_counter()
        out = []
        for call in calls:
            try:
                out.append(call())
            except Exception as exc:  # counted as a failed call
                errors.append(f"{type(exc).__name__}: {exc}")
                out.append(FAILED)
        seconds += time.perf_counter() - t0
        results.append(out)
    return seconds, results


def _ask_reference() -> None:
    """Ask run.py, which started this worker, to time its reference
    computation now, and wait until it has."""
    sys.stdout.write(REFERENCE_REQUEST)
    sys.stdout.flush()
    if sys.stdin.readline() != REFERENCE_DONE:
        raise RuntimeError("run.py did not answer a reference request")


def _failed_calls(results) -> list[list[int] | None]:
    """Per operation, the indices of its calls that failed, or None when
    every call failed."""
    failed = [[k for k, r in enumerate(out) if r is FAILED] for out in results]
    return [None if len(f) == len(out) else f for f, out in zip(failed, results)]


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, from VmHWM, which counts from
    this process's own start. (ru_maxrss can also hold the peak of the
    process that started it.)"""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_ops(job: dict) -> dict:
    t0 = time.perf_counter()
    import rlgames

    prepared = [_setup(entry["manifest"], Path(entry["outdir"]), lambda _, fn, *a: fn(*a))
                for entry in job["operations"]]
    setup_s = time.perf_counter() - t0

    rounds, digests, errors, last_failed = [], [], [], []
    start = time.perf_counter()
    # a further round only when it should end within half a round of the budget
    while job["budget"] > 0 and (not rounds or (time.perf_counter() - start)
                                 * (1 + 0.5 / len(rounds)) <= job["budget"]):
        seconds, results = _run_round(prepared, errors, between=_ask_reference)
        rounds.append(seconds)
        digests.append([keep(r) for (_, keep, _), r in zip(prepared, results)])
        last_failed = _failed_calls(results)
        del results
    if rounds:
        _ask_reference()
    peak_rss_mb = _peak_rss_mb()
    if job.get("capture"):
        for (_, _, runs), failed in zip(prepared, last_failed):
            if runs is not None and failed == []:
                runs.save()
    return {
        "rlgames_file": rlgames.__file__,
        "setup_s": setup_s,
        "round_s": rounds,
        "ops": sum(len(calls) for calls, _, _ in prepared) * len(rounds),
        "failed": len(errors),
        "errors": sorted(set(errors)),
        "last_failed": last_failed,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# traced run


def _record_bytes(trajectories) -> int:
    fields = ("y0", "n", "gamma", "tau", "x", "scores", "vhat", "bias", "noise",
              "realized", "gaps")
    return sum(getattr(t, f).nbytes for t in trajectories for f in fields)


def _install(tracer) -> None:
    import os
    from math import prod

    def run_many_facts(args, kwargs, result):
        horizon = kwargs.get("horizon", args[4] if len(args) > 4 else None)
        starts = kwargs.get("starts", args[5] if len(args) > 5 else ())
        return {"steps": len(starts) * horizon,
                "record_bytes": _record_bytes(result or ())}

    def csv_facts(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    def face_facts(args, kwargs, result):
        return {"faces": prod((1 << m) - 1 for m in args[0].n_actions)}

    tracer.wrap("rlgames.experiments", "run_many", facts=run_many_facts)
    tracer.wrap("rlgames.learning", "run_many", facts=run_many_facts)
    tracer.wrap("rlgames.experiments", "write_trajectory_csv", facts=csv_facts)
    tracer.wrap("rlgames.experiments", "check_limit_resilience")
    tracer.wrap("rlgames.experiments", "estimate_limit_set")
    tracer.wrap("rlgames.analysis", "estimate_limit_set")
    tracer.wrap("rlgames.experiments", "minimal_clubs")
    tracer.wrap("rlgames.cli", "minimal_clubs")
    tracer.wrap("rlgames.faces", "enumerate_clubs", facts=face_facts)
    tracer.wrap("rlgames.cli", "enumerate_clubs", facts=face_facts)
    tracer.wrap("rlgames.cli", "analyze_game")
    tracer.wrap("rlgames.experiments", "regret")
    tracer.wrap("rlgames.experiments", "fit_rate")
    tracer.wrap("rlgames.learning", "choice_map_profile",
                counter_key=lambda args: args[0].name)


def _per_call_us(fn, *args) -> float:
    """Median of five timed batches, each of at least 20 ms."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - t0 >= 0.02:
            break
        n *= 2
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def _per_call_figures(seed: int) -> dict:
    """Per-call costs on the shapes the workloads step: 27 vz4x4 rows for
    the bandit blocks, one parity profile for the payoff operator, and a
    three-point vz4x4 limit set for the resilience LP."""
    import numpy as np
    from rlgames import (builtin_game, iwe, payoff_mixed, payoff_vector,
                         payoff_vectors, sample_actions)
    from rlgames.minimax_lp import solve_minimax_lp

    rng = np.random.default_rng([seed, 3])
    vz = builtin_game("vz4x4")
    explored = [rng.dirichlet(np.ones(m), 27) for m in vz.n_actions]
    uniforms = rng.random((27, vz.n_players))
    realized = sample_actions(explored, uniforms)
    parity = builtin_game("parity")
    profile = [rng.dirichlet(np.ones(m)) for m in parity.n_actions]
    pieces = []
    for _ in range(3):
        xs = [rng.dirichlet(np.ones(m)) for m in vz.n_actions]
        pieces.append((payoff_mixed(vz, 0, xs), payoff_vector(vz, 0, xs)))
    return {
        "learning.sample_actions_us": _per_call_us(sample_actions, explored, uniforms),
        "learning.iwe_us": _per_call_us(iwe, vz, explored, realized),
        "game.payoff_vectors_us": _per_call_us(payoff_vectors, parity, profile),
        "minimax_lp.solve_us": _per_call_us(solve_minimax_lp, pieces, vz.n_actions[0]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, overhead_pct: float, per_call: dict) -> dict:
    enum = ("faces.enumerate_clubs", "cli.enumerate_clubs")
    runs = ("experiments.run_many", "learning.run_many")
    csv = ("experiments.write_trajectory_csv",)
    enumerate_s = tracer.total(*enum)
    run_many_s = tracer.total(*runs)
    csv_s = tracer.total(*csv)
    csv_mb = tracer.fact_sum("bytes", *csv) / 2**20

    def choice_us(kernel):
        calls, seconds = tracer.counters.get(f"learning.choice_map_profile.{kernel}", (0, 0.0))
        return _ratio(seconds, calls) * 1e6

    return {
        "config.parse_s": tracer.total("config.parse"),
        "game.load_s": tracer.total("game.load"),
        "faces.enumerate_clubs_s": enumerate_s,
        "faces.enumerate_clubs_calls": sum(1 for s in tracer.spans if s.name in enum),
        "faces.minimal_clubs_s": tracer.total("experiments.minimal_clubs", "cli.minimal_clubs",
                                              self_time=True),
        "faces.faces_per_s": _ratio(tracer.fact_sum("faces", *enum), enumerate_s),
        "cli.analyze_game_s": tracer.total("cli.analyze_game"),
        "learning.run_many_s": run_many_s,
        "learning.steps_per_s": _ratio(tracer.fact_sum("steps", *runs), run_many_s),
        "learning.record_mb": tracer.fact_sum("record_bytes", *runs) / 2**20,
        "learning.sample_actions_us": per_call["learning.sample_actions_us"],
        "learning.iwe_us": per_call["learning.iwe_us"],
        "regularizers.choice_map_us.logit": choice_us("logit"),
        "regularizers.choice_map_us.tsallis": choice_us("tsallis"),
        "game.payoff_vectors_us": per_call["game.payoff_vectors_us"],
        "trajectory.write_csv_s": csv_s,
        "trajectory.csv_mb": csv_mb,
        "trajectory.csv_mb_per_s": _ratio(csv_mb, csv_s),
        "analysis.regret_s": tracer.total("experiments.regret"),
        "analysis.fit_rate_s": tracer.total("experiments.fit_rate"),
        "analysis.limit_set_s": tracer.total("analysis.estimate_limit_set",
                                             "experiments.estimate_limit_set"),
        "analysis.resilience_s": tracer.total("experiments.check_limit_resilience",
                                              self_time=True),
        "minimax_lp.solve_us": per_call["minimax_lp.solve_us"],
        "trace.overhead_pct": overhead_pct,
    }


def run_trace(job: dict) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    import rlgames

    tracer = Tracer()
    prepared = [_setup(entry["manifest"], Path(entry["outdir"]), tracer.call)
                for entry in job["operations"]]

    untraced_s = traced_s = 0.0
    digests, errors, last_failed = [], [], []
    for entry in prepared:
        _, keep, runs = entry
        seconds, results = _run_round([entry], errors)
        untraced_s += seconds
        first = keep(results[0])
        _install(tracer)
        try:
            seconds, results = _run_round([entry], errors)
        finally:
            tracer.uninstall()
        traced_s += seconds
        same = keep(results[0]) == first
        seconds, results = _run_round([entry], errors)
        untraced_s += seconds
        same = same and keep(results[0]) == first
        last_failed += _failed_calls(results)
        if runs is not None and last_failed[-1] == []:
            runs.save()
        digests.append(first if same else "differs")
    # the untraced rounds bracket each traced one; compare with their mean
    overhead_pct = 100.0 * (traced_s - untraced_s / 2) / (untraced_s / 2)
    metrics = layer_metrics(tracer, overhead_pct, _per_call_figures(job["seed"]))
    Path(job["trace"]).write_text(json.dumps(tracer.dump()) + "\n")
    return {
        "rlgames_file": rlgames.__file__,
        "ops": 3 * sum(len(calls) for calls, _, _ in prepared),
        "failed": len(errors),
        "errors": sorted(set(errors)),
        "last_failed": last_failed,
        "digests": digests,
        "missing": tracer.missing,
        "metrics": metrics,
    }


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    result = run_trace(job) if job["mode"] == "trace" else run_ops(job)
    Path(job["result"]).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
