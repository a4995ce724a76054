"""The benchmark's workloads, their operations and the inputs each
operation makes from the seed.

Nothing here imports rlgames: inputs are plain config and game JSON
documents written in the formats the program reads, so the program
receives only what the seed generated.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BUILTINS = ("vz4x4", "parity", "spectator", "twisted_mp", "outside_mp",
            "matching_pennies_2p")

# club-analyze: random games of 2 to 4 players. Only the payoffs depend on
# the seed, so every seed enumerates the same 16129 + 6975 + 5145 + 2401
# faces.
RANDOM_SHAPES = ((7, 7), (5, 4, 4), (4, 3, 3, 3), (3, 3, 3, 3))

# the c08 bandit setting: logit kernel, importance-weighted payoff
# estimates over an explored play, the default 27-start grid
STEP = {"base": 0.2, "exponent": 0.5}
EXPLORATION = {"base": 0.1, "exponent": 0.15}

# horizons: each operation takes one to four seconds on a 2-CPU machine
HORIZON = {"bandit-batch-csv": 1000, "bandit-batch-mem": 10_000, "power-report": 4000}

# power-report starts near the strict equilibrium (0, 0, 0) of parity; the
# log-log slope check needs the run to be well inside its tau^-2 regime
POWER_BASE = (1.0, -1.0)
POWER_RADIUS = 0.1
POWER_FACE = [[0], [0], [0]]

# Each workload runs its operations in turn, once per round. Pairing them
# doubles the work behind each round time, so a run of the length the
# budget allows still gives a steady median on a machine whose speed
# drifts from second to second.
WORKLOADS = {
    "bandit-batches": ("bandit-batch-csv", "bandit-batch-mem"),
    "report-analyze": ("power-report", "club-analyze"),
}
OPERATIONS = tuple(op for ops in WORKLOADS.values() for op in ops)


def _bandit_config(game: str, horizon: int, seed: int) -> dict:
    return {
        "game": game,
        "kernel": "logit",
        "feedback": "bandit",
        "exploration": EXPLORATION,
        "step": STEP,
        "horizon": horizon,
        "seed": seed,
        "init": {"kind": "grid"},
        "faces": "auto:minimal_clubs",
    }


def _power_config(horizon: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    scores = [
        [float(b + rng.uniform(-POWER_RADIUS, POWER_RADIUS)) for b in POWER_BASE]
        for _ in range(3)
    ]
    return {
        "game": "parity",
        "kernel": "tsallis",
        "feedback": "full",
        "step": STEP,
        "horizon": horizon,
        "seed": seed,
        "init": {"kind": "explicit", "scores": scores},
        "faces": [POWER_FACE],
    }


def _random_game_doc(rng: np.random.Generator, shape) -> dict:
    """Game JSON: iid uniform payoffs in [-1, 1], flat row-major tables."""
    size = int(np.prod(shape))
    return {
        "players": len(shape),
        "actions": list(shape),
        "payoffs": [rng.uniform(-1.0, 1.0, size).tolist() for _ in shape],
    }


def make_inputs(operation: str, seed: int, folder: Path) -> dict:
    """Write the operation's input files under `folder`; return its manifest.

    The manifest lists the files to hand the program (`config` or `games`)
    and, for the checks, the parameters the inputs were made from.
    """
    folder.mkdir(parents=True, exist_ok=True)
    manifest = {"operation": operation, "seed": seed}
    if operation == "club-analyze":
        rng = np.random.default_rng([seed, 2])
        games = list(BUILTINS)
        for k, shape in enumerate(RANDOM_SHAPES):
            path = folder / f"random_{k}_{'x'.join(map(str, shape))}.json"
            path.write_text(json.dumps(_random_game_doc(rng, shape)) + "\n")
            games.append(str(path))
        manifest["games"] = games
        return manifest
    if operation == "bandit-batch-csv":
        config = _bandit_config("parity", HORIZON[operation], seed)
    elif operation == "bandit-batch-mem":
        config = _bandit_config("vz4x4", HORIZON[operation], seed)
    elif operation == "power-report":
        config = _power_config(HORIZON[operation], seed)
    else:
        raise ValueError(f"unknown operation {operation!r}")
    path = folder / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    manifest["config"] = str(path)
    manifest["settings"] = config
    return manifest
