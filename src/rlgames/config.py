"""Experiment configuration: parsing, validation, and initial-score specs.

Configs arrive as JSON objects. Parsing is strict: unknown fields and
malformed values are rejected with a message naming the offending field,
so a config that loads is a config that runs.
"""

from __future__ import annotations

import itertools
import json
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .game import Game, _is_count
from .learning import Bandit, FeedbackKind, Schedule
from .regularizers import kernel_from_name

AUTO_FACES = "auto:minimal_clubs"

# each feedback class by the label it carries, in the order FeedbackKind lists them
_FEEDBACK_KINDS = {cls.label: cls for cls in typing.get_args(FeedbackKind)}


@dataclass(frozen=True)
class ExplicitInit:
    """One initial score vector per player, used verbatim."""

    scores: tuple[tuple[float, ...], ...]

    def base_starts(self, game: Game) -> list[list[np.ndarray]]:
        if len(self.scores) != game.n_players:
            raise ConfigError(
                f"explicit init lists scores for {len(self.scores)} players, "
                f"game has {game.n_players}"
            )
        for i, row in enumerate(self.scores):
            if len(row) != game.n_actions[i]:
                raise ConfigError(
                    f"explicit init for player {i} has {len(row)} scores, "
                    f"player has {game.n_actions[i]} actions"
                )
        return [[np.array(row, dtype=float) for row in self.scores]]

    @property
    def perturbation_radius(self) -> float:
        return 0.0


@dataclass(frozen=True)
class GridInit:
    """Cartesian grid of initial scores on a few leading coordinates.

    The grid values are placed on `dims` score coordinates, assigned round
    robin over players (player 0 action 0, player 1 action 0, ..., then
    action 1, and so on); all other coordinates start at zero. Each start
    is then shifted by a uniform draw in [-radius, radius] on every
    coordinate, seeded per run so reruns are reproducible.
    """

    values: tuple[float, ...] = (-1.0, 0.0, 1.0)
    dims: int = 3
    radius: float = 0.1

    def coordinate_slots(self, game: Game) -> list[tuple[int, int]]:
        total = sum(game.n_actions)
        if self.dims > total:
            raise ConfigError(
                f"grid dims {self.dims} exceeds the game's {total} score coordinates"
            )
        slots: list[tuple[int, int]] = []
        action = 0
        while len(slots) < self.dims:
            for player in range(game.n_players):
                if action < game.n_actions[player] and len(slots) < self.dims:
                    slots.append((player, action))
            action += 1
        return slots

    def base_starts(self, game: Game) -> list[list[np.ndarray]]:
        slots = self.coordinate_slots(game)
        starts = []
        for combo in itertools.product(self.values, repeat=self.dims):
            y0 = [np.zeros(m) for m in game.n_actions]
            for (player, action), value in zip(slots, combo):
                y0[player][action] = value
            starts.append(y0)
        return starts

    @property
    def perturbation_radius(self) -> float:
        return self.radius


InitSpec = ExplicitInit | GridInit


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run (or one batch of runs) needs, fully validated."""

    game: str
    kernel: str
    horizon: int
    feedback: FeedbackKind
    step: Schedule
    seed: int
    init: InitSpec
    faces: str | tuple
    output: str | None


def _require(data: dict, key: str, kind, what: str):
    if key not in data:
        raise ConfigError(f"config is missing required field {key!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"config field {key!r} must be {what}")
    return value


def _finite_number(value, what: str) -> float:
    """`value` as a float, if it is a JSON number (not a bool) that a
    double holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number")
    # ints compare exactly, so this rejects NaN, Inf and any integer too
    # large for a double
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{what} must be finite")
    return float(value)


def _schedule_from(data, where: str) -> Schedule:
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object with base and exponent")
    extra = set(data) - {"base", "exponent"}
    if extra:
        raise ConfigError(f"{where} has unknown fields {sorted(extra)}")
    if "base" not in data:
        raise ConfigError(f"{where} is missing its base")
    base = _finite_number(data["base"], f"{where} base")
    exponent = _finite_number(data.get("exponent", 0.0), f"{where} exponent")
    try:
        return Schedule(base, exponent)
    except Exception as exc:
        raise ConfigError(f"{where} is invalid: {exc}") from exc


def _feedback_from(data: dict) -> FeedbackKind:
    spec = data.get("feedback", "full")
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ConfigError("config field 'feedback' must be a kind name or object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _FEEDBACK_KINDS:
        raise ConfigError(
            f"feedback kind must be one of {list(_FEEDBACK_KINDS)}, got {kind!r}"
        )
    if set(spec) - {"kind"}:
        raise ConfigError(f"feedback kind {kind!r} takes no extra fields")
    cls = _FEEDBACK_KINDS[kind]
    if not fields(cls):
        return cls()
    # bandit: the exploration schedule lives in its own top-level field
    if "exploration" not in data:
        raise ConfigError("bandit feedback requires an 'exploration' schedule")
    exploration = _schedule_from(data["exploration"], "exploration")
    try:
        return Bandit(exploration=exploration)
    except Exception as exc:
        raise ConfigError(f"exploration is invalid: {exc}") from exc


def _init_from(spec) -> InitSpec:
    if spec is None:
        return GridInit(values=(0.0,), dims=1, radius=0.0)
    if not isinstance(spec, dict):
        raise ConfigError("config field 'init' must be an object")
    kind = spec.get("kind")
    if kind == "explicit":
        extra = set(spec) - {"kind", "scores"}
        if extra:
            raise ConfigError(f"explicit init has unknown fields {sorted(extra)}")
        scores = spec.get("scores")
        if not isinstance(scores, list) or not scores:
            raise ConfigError("explicit init requires a nonempty 'scores' list")
        rows = []
        for row in scores:
            if not isinstance(row, list):
                raise ConfigError("explicit init scores must be lists of numbers")
            rows.append(tuple(_finite_number(v, "explicit init score") for v in row))
        return ExplicitInit(scores=tuple(rows))
    if kind == "grid":
        extra = set(spec) - {"kind", "values", "dims", "radius"}
        if extra:
            raise ConfigError(f"grid init has unknown fields {sorted(extra)}")
        values = spec.get("values", [-1.0, 0.0, 1.0])
        dims = spec.get("dims", 3)
        radius = spec.get("radius", 0.1)
        if not isinstance(values, list) or not values:
            raise ConfigError("grid init values must be a nonempty list of finite numbers")
        values = tuple(_finite_number(v, "grid init value") for v in values)
        if not _is_count(dims):
            raise ConfigError("grid init dims must be a positive integer")
        radius = _finite_number(radius, "grid init radius")
        if radius < 0:
            raise ConfigError("grid init radius must be a finite number >= 0")
        return GridInit(values=values, dims=dims, radius=radius)
    raise ConfigError("init kind must be 'explicit' or 'grid'")


def _faces_from(spec):
    if spec is None:
        return AUTO_FACES
    if spec == AUTO_FACES:
        return AUTO_FACES
    if isinstance(spec, str):
        raise ConfigError(f"faces must be {AUTO_FACES!r} or a list of support lists")
    if not isinstance(spec, list):
        raise ConfigError("faces must be a string sentinel or a list")
    faces = []
    for entry in spec:
        if not isinstance(entry, list) or not all(isinstance(s, list) for s in entry):
            raise ConfigError("each tracked face must be a list of per-player action lists")
        for s in entry:
            if not s or not all(isinstance(a, int) and not isinstance(a, bool) for a in s):
                raise ConfigError("face supports must be nonempty lists of action indices")
        faces.append(tuple(tuple(int(a) for a in s) for s in entry))
    return tuple(faces)


_KNOWN_FIELDS = {
    "game",
    "kernel",
    "feedback",
    "step",
    "exploration",
    "horizon",
    "seed",
    "init",
    "faces",
    "output",
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _KNOWN_FIELDS
    if unknown:
        raise ConfigError(f"config has unknown fields {sorted(unknown)}")

    game = _require(data, "game", str, "a builtin name or a file path")
    kernel = _require(data, "kernel", str, "a kernel name")
    try:
        kernel_from_name(kernel)
    except Exception as exc:
        raise ConfigError(f"config kernel is invalid: {exc}") from exc

    horizon = _require(data, "horizon", int, "a positive integer")
    if horizon < 1:
        raise ConfigError("config horizon must be at least 1")

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("config seed must be a nonnegative integer")

    feedback = _feedback_from(data)
    if not isinstance(feedback, Bandit) and "exploration" in data:
        raise ConfigError("only bandit feedback takes an 'exploration' schedule")

    step = _schedule_from(data.get("step", {"base": 0.2, "exponent": 0.5}), "step")
    init = _init_from(data.get("init"))
    faces = _faces_from(data.get("faces"))

    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("config output must be a directory path string")

    return ExperimentConfig(
        game=game,
        kernel=kernel,
        horizon=horizon,
        feedback=feedback,
        step=step,
        seed=seed,
        init=init,
        faces=faces,
        output=output,
    )


def config_from_json(path) -> ExperimentConfig:
    """Load and validate a config file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also integers past Python's digit limit
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(data)
