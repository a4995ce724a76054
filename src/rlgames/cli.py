"""Command line front end.

Subcommands:
  analyze <game>            equilibrium / club report for a builtin or file
  run <config.json> -o DIR  single trajectory plus diagnostic report
  batch <config.json> -o DIR  grid of runs plus aggregate report
  verify [--list] [--filter ID[,ID...]]  acceptance checks

Exit codes: 0 success, 1 verification failures, 2 errors. Errors print a
JSON object on stderr so callers never have to scrape tracebacks.
"""

from __future__ import annotations

import argparse
import sys

from .errors import RLGamesError
from .experiments import _face_key, _write_json, load_game_spec, run_batch, run_experiment
from .faces import _minimal_faces, club_margin, enumerate_clubs
from .game import enumerate_pure_nash, strictly_dominated_pure
from .config import config_from_json


def analyze_game(spec: str) -> dict:
    """Structure report: equilibria, dominated actions, clubs and margins."""
    game = load_game_spec(spec)
    clubs = enumerate_clubs(game)
    return {
        "game": spec,
        "n_players": game.n_players,
        "n_actions": list(game.n_actions),
        "strict_nash": [list(p) for p in enumerate_pure_nash(game, strict_only=True)],
        "pure_nash": [list(p) for p in enumerate_pure_nash(game)],
        "dominated": [
            list(strictly_dominated_pure(game, i)) for i in range(game.n_players)
        ],
        "clubs": [
            {"face": _face_key(f), "margin": club_margin(game, f)} for f in clubs
        ],
        "minimal_clubs": [_face_key(f) for f in _minimal_faces(clubs)],
    }


def _cmd_analyze(args) -> int:
    _write_json(analyze_game(args.game), sys.stdout)
    return 0


def _cmd_run(args) -> int:
    _, report = run_experiment(config_from_json(args.config), out_dir=args.output)
    _write_json(report, sys.stdout)
    return 0


def _cmd_batch(args) -> int:
    _, aggregate = run_batch(config_from_json(args.config), out_dir=args.output)
    _write_json(aggregate, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    # imported here so that the other subcommands never load the checks
    from .verify import list_checks, run_suite

    if args.list:
        for cid, title in list_checks():
            print(f"{cid}  {title}")
        return 0
    filter_ids = [part.strip() for part in (args.filter or "").split(",") if part.strip()]
    results = run_suite(filter_ids=filter_ids)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlgames",
        description="Normal-form game analysis and regularized-learning runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="equilibrium and club structure of a game")
    p.add_argument("game", help="builtin name or path to a game JSON file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("run", help="run one configured trajectory")
    p.add_argument("config", help="path to a config JSON file")
    p.add_argument("-o", "--output", help="directory for trajectory.csv and report.json")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("batch", help="run a grid of trajectories")
    p.add_argument("config", help="path to a config JSON file with a grid init")
    p.add_argument("-o", "--output", help="directory for run CSVs and aggregate.json")
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--list", action="store_true", help="list checks without running")
    p.add_argument("--filter", help="comma-separated check ids to run")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RLGamesError, OSError) as exc:
        name = type(exc).__name__ if isinstance(exc, RLGamesError) else "OSError"
        _write_json({"error": name, "message": str(exc)}, sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
