"""Run orchestration: configs to trajectories, reports, and batch aggregates.

A single run writes ``trajectory.csv`` and ``report.json``. A batch expands
a grid init into one run per grid point (``run_000.csv``, ...) plus an
``aggregate.json`` with per-run convergence summaries. Every run's
randomness is derived from (master seed, run index), so reruns are
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .analysis import (
    LIMIT_EPSILON,
    LIMIT_WINDOW,
    RESILIENCE_TOL,
    check_limit_resilience,
    estimate_limit_set,
    fit_rate,
    regret,
)
from .builtin import BUILTIN_GAMES, builtin_game
from .config import AUTO_FACES, ExperimentConfig
from .errors import ConfigError, DiagnosticError, InputError
from .faces import Face, _outside_mass, check_face, minimal_clubs
from .game import Game, load_game
from .learning import derive_run_seed, perturbation_stream, run, run_many
from .regularizers import kernel_from_name
from .trajectory import Trajectory, _write_csvs, write_trajectory_csv

CONVERGENCE_THRESHOLD = 0.05


def load_game_spec(spec: str) -> Game:
    """Resolve a config game field: builtin name first, then file path."""
    if spec in BUILTIN_GAMES:
        return builtin_game(spec)
    if Path(spec).exists():
        return load_game(spec)
    raise InputError(
        f"game {spec!r} is neither a builtin ({', '.join(sorted(BUILTIN_GAMES))}) "
        "nor a readable file"
    )


def resolve_faces(game: Game, spec) -> list[Face]:
    """Turn a config faces field into checked Face objects."""
    if spec == AUTO_FACES:
        return minimal_clubs(game)
    return [check_face(game, Face(supports=s)) for s in spec]


def _perturbed_starts(config: ExperimentConfig, game: Game):
    """All (run_seed, y0) pairs the config expands to, in grid order."""
    bases = config.init.base_starts(game)
    radius = config.init.perturbation_radius
    out = []
    for index, base in enumerate(bases):
        seed = derive_run_seed(config.seed, index)
        if radius > 0:
            stream = perturbation_stream(seed)
            y0 = [y + stream.uniform(-radius, radius, y.shape[0]) for y in base]
        else:
            y0 = [y.copy() for y in base]
        out.append((seed, y0))
    return out


def _write_json(obj, fh) -> None:
    """Write `obj` to the text stream `fh` as one JSON document: two-space
    indent, then a newline. Every report and error document goes out here."""
    json.dump(obj, fh, indent=2)
    fh.write("\n")


def _face_key(face: Face) -> str:
    return "x".join("{" + ",".join(str(a) for a in s) + "}" for s in face.supports)


def _final_distances(game: Game, traj: Trajectory, faces) -> dict:
    """Each face's `distance_to_face` from the run's last row, unchecked."""
    final = traj.x[-1:]
    return {_face_key(f): float(_outside_mass(game.n_actions, f, final)[0]) for f in faces}


def _rate_fit_entry(traj, face, kernel):
    try:
        fit = fit_rate(traj, face, kernel)
    except DiagnosticError as exc:
        return {"face": _face_key(face), "error": str(exc)}
    return {
        "face": _face_key(face),
        "model": fit.model,
        "hit_index": fit.hit_index,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "shift": fit.shift,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }


def diagnostic_report(game: Game, traj: Trajectory, kernel, faces) -> dict:
    """The per-run JSON report: regret, rate fits, limit set, resilience."""
    final_regret = regret(traj, game)[-1].tolist()
    points = estimate_limit_set(traj)
    resilience = check_limit_resilience(traj, game)
    return {
        "horizon": traj.horizon,
        "seed": traj.seed,
        "kernel": traj.kernel_name,
        "feedback": traj.feedback_label,
        "regret_final": final_regret,
        "rate_fit": [_rate_fit_entry(traj, f, kernel) for f in faces],
        "limit_set": {
            "window_fraction": LIMIT_WINDOW,
            "epsilon": LIMIT_EPSILON,
            "n_points": len(points),
            "points": [[x.tolist() for x in p] for p in points],
        },
        "resilience": {
            "resilient": resilience.resilient,
            "tol": RESILIENCE_TOL,
            "min_gap": min(resilience.gaps),
        },
        "tracked_faces": [_face_key(f) for f in faces],
        "final_distances": _final_distances(game, traj, faces),
    }


def run_experiment(config: ExperimentConfig, out_dir=None):
    """Execute a single-run config; returns (trajectory, report).

    Writes ``trajectory.csv`` and ``report.json`` under ``out_dir`` (or the
    config's own output field) when a directory is given.
    """
    game = load_game_spec(config.game)
    kernel = kernel_from_name(config.kernel)
    starts = _perturbed_starts(config, game)
    if len(starts) != 1:
        raise ConfigError(
            f"config expands to {len(starts)} initial points; single runs need "
            "exactly one (use batch for grids)"
        )
    seed, y0 = starts[0]
    traj = run(game, kernel, config.feedback, config.step, config.horizon,
               y0=y0, seed=seed)
    faces = resolve_faces(game, config.faces)
    report = diagnostic_report(game, traj, kernel, faces)

    target = out_dir if out_dir is not None else config.output
    if target is not None:
        target = Path(target)
        target.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, target / "trajectory.csv", faces=faces)
        with open(target / "report.json", "w", encoding="utf-8") as fh:
            _write_json(report, fh)
    return traj, report


def execute_batch(config: ExperimentConfig, out_dir=None):
    """Run every grid point of a batch config, optionally writing CSVs.

    All starts advance together in one lockstep engine call. One writer
    call then writes every run's CSV, formatting the n, gamma and tau
    columns the runs share once, and the per-run face distances and
    resilience audit follow in grid order in the calling thread. Returns
    (per_run summaries in grid order, aggregate dict).
    """
    game = load_game_spec(config.game)
    kernel = kernel_from_name(config.kernel)
    faces = resolve_faces(game, config.faces)
    starts = _perturbed_starts(config, game)
    target = Path(out_dir) if out_dir is not None else None
    if target is not None:
        target.mkdir(parents=True, exist_ok=True)
    trajectories = run_many(game, kernel, config.feedback, config.step,
                            config.horizon, starts)

    if target is not None:
        paths = [target / f"run_{index:03d}.csv" for index in range(len(trajectories))]
        _write_csvs(trajectories, paths, faces)
    summaries = []
    for index, traj in enumerate(trajectories):
        distances = _final_distances(game, traj, faces)
        min_dist = min(distances.values()) if distances else float("inf")
        resilience = check_limit_resilience(traj, game)
        summaries.append({
            "run": index,
            "seed": traj.seed,
            "final_distances": distances,
            "min_distance": min_dist,
            "converged": bool(min_dist <= CONVERGENCE_THRESHOLD),
            "resilient": resilience.resilient,
        })

    converged = sum(s["converged"] for s in summaries)
    aggregate = {
        "game": config.game,
        "kernel": config.kernel,
        "feedback": config.feedback.label,
        "horizon": config.horizon,
        "master_seed": config.seed,
        "runs": len(summaries),
        "tracked_faces": [_face_key(f) for f in faces],
        "convergence_threshold": CONVERGENCE_THRESHOLD,
        "converged_runs": converged,
        "convergence_fraction": converged / len(summaries),
        "all_resilient": all(s["resilient"] for s in summaries),
        "per_run": summaries,
    }
    return summaries, aggregate


def run_batch(config: ExperimentConfig, out_dir=None):
    """Execute a batch and write per-run CSVs plus ``aggregate.json``."""
    target = out_dir if out_dir is not None else config.output
    summaries, aggregate = execute_batch(config, out_dir=target)
    if target is not None:
        with open(Path(target) / "aggregate.json", "w", encoding="utf-8") as fh:
            _write_json(aggregate, fh)
    return summaries, aggregate
