"""Finite normal-form games with dense payoff tensors.

Conventions used throughout the package:

* A game with N players stores one payoff tensor per player, each of shape
  ``n_actions`` (player 1's action indexes the first axis, so flattening is
  row-major with player 1 slowest).
* A mixed strategy for player i is a 1-D float array of length
  ``n_actions[i]`` on the probability simplex.
* A mixed profile is a sequence of per-player mixed strategies.
* A flat row (length D = sum(n_actions)) puts a profile's strategies side
  by side, player-major; the engine's state and every trajectory are (R, D)
  stacks of such rows. :func:`_layout`, the one owner of that layout, says
  which columns belong to which player.
* A correlated distribution is a single joint tensor of shape ``n_actions``.

Functions validate their inputs and raise :class:`InputError` on contract
violations rather than letting numpy produce silently wrong answers.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import InputError

PROB_ATOL = 1e-9  # mixed strategies must sum to 1 within this
_NASH_TIE = 1e-9  # a weak pure equilibrium's deviations tie within this


@dataclass(frozen=True, eq=False)
class Game:
    """A finite N-player normal-form game.

    ``payoffs[i]`` is player i's payoff tensor, indexed by the full action
    profile. Tensors are made read-only so a Game can be shared freely
    between threads.
    """

    n_actions: tuple[int, ...]
    payoffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.n_actions) < 1:
            raise InputError("game needs at least one player")
        if any(int(m) < 1 for m in self.n_actions):
            raise InputError("every player needs at least one action")
        if len(self.payoffs) != len(self.n_actions):
            raise InputError("one payoff tensor per player is required")
        fixed = []
        for i, table in enumerate(self.payoffs):
            arr = np.asarray(table, dtype=float)
            if arr.shape != self.n_actions:
                raise InputError(
                    f"payoff tensor for player {i} has shape {arr.shape}, "
                    f"expected {self.n_actions}"
                )
            if not np.all(np.isfinite(arr)):
                raise InputError(f"payoff tensor for player {i} contains NaN or Inf")
            arr = arr.copy()
            arr.setflags(write=False)
            fixed.append(arr)
        object.__setattr__(self, "n_actions", tuple(int(m) for m in self.n_actions))
        object.__setattr__(self, "payoffs", tuple(fixed))

    @property
    def n_players(self) -> int:
        return len(self.n_actions)

    @functools.cached_property
    def _stacks(self) -> tuple[_Stack, ...]:
        """The payoff tensors stacked once per layout block, read-only."""
        return tuple(_Stack(self, players, cols)
                     for players, cols, _ in _layout(self.n_actions).blocks)

    @functools.cached_property
    def _payoff_table(self) -> np.ndarray:
        """The payoffs as one read-only (prod n_actions, N) array: row p
        holds every player's payoff at the pure profile of flat index p,
        ``actions @ _layout(n_actions).strides``."""
        table = np.stack([t.reshape(-1) for t in self.payoffs], axis=1)
        table.flags.writeable = False
        return table


def make_game(payoffs) -> Game:
    """Build a Game from a sequence of per-player payoff tensors."""
    tables = [np.asarray(t, dtype=float) for t in payoffs]
    if not tables:
        raise InputError("game needs at least one player")
    return Game(n_actions=tables[0].shape, payoffs=tuple(tables))


# ---------------------------------------------------------------------------
# profile and distribution validation


def _is_count(n) -> bool:
    """Whether `n` is an integer of at least 1 (a bool is not a count)."""
    return isinstance(n, Integral) and not isinstance(n, bool) and n >= 1


def check_player(game: Game, player: int) -> None:
    """Reject a player index that is not an integer in 0..N-1 (numpy would
    wrap a negative one, and a bool would pass as 0 or 1)."""
    if isinstance(player, bool) or not isinstance(player, Integral):
        raise InputError(f"player index {player!r} is not an integer")
    if not 0 <= player < game.n_players:
        raise InputError(f"player index {player} out of range")


def _index(value) -> int:
    """`value` as an action index: an integer, or a float with no fractional
    part. int() would read True as 1, "1" as 1 and 0.7 as 0, so a bool, a
    string or a number with a fractional part raises InputError."""
    if isinstance(value, Real) and not isinstance(value, bool) and (
            isinstance(value, Integral) or float(value).is_integer()):
        return int(value)
    raise InputError(f"action {value!r} is not an integer")


def _indices(values) -> np.ndarray:
    """:func:`_index` over an array of any shape, as int64; integer arrays
    pass as they are. An index that int64 cannot hold raises InputError."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        # astype would wrap uint64 values of 2**63 and above to negatives
        big = values[values >= 2**63] if values.dtype == np.uint64 else ()
        if len(big):
            raise InputError(f"action {big[0]} out of range")
        return values.astype(np.int64)
    obj = np.asarray(values, dtype=object)
    ints = [_index(v) for v in obj.flat]
    try:
        return np.array(ints, dtype=np.int64).reshape(obj.shape)
    except OverflowError:
        big = next(a for a in ints if not -2**63 <= a < 2**63)
        raise InputError(f"action {big} out of range") from None


def check_strategy(game: Game, player: int, x, rows: bool = False) -> np.ndarray:
    """Validate a mixed strategy for one player and return it as an array.

    With ``rows=True``, `x` is a stack of strategies, one per row (R, m),
    and every row is checked.
    """
    check_player(game, player)
    v = np.asarray(x, dtype=float)
    m = game.n_actions[player]
    if v.ndim != (2 if rows else 1) or v.shape[-1] != m:
        expected = f"(R, {m})" if rows else f"({m},)"
        raise InputError(
            f"strategy for player {player} has shape {v.shape}, expected {expected}"
        )
    return _check_simplex(v)


def _check_simplex(v: np.ndarray, what: str = "mixed strategy") -> np.ndarray:
    """Reject `v` unless each row (last axis) is finite, has no entry below
    -PROB_ATOL and sums to 1 within PROB_ATOL; `what` names it in errors."""
    if not np.isfinite(v).all():
        raise InputError(f"{what} contains NaN or Inf")
    if (v < -PROB_ATOL).any():
        raise InputError(f"{what} has a negative entry")
    if (np.abs(v.sum(axis=-1) - 1.0) > PROB_ATOL).any():
        raise InputError(f"{what} does not sum to 1")
    return v


def check_profile(game: Game, profile, rows: bool = False) -> list[np.ndarray]:
    """Validate a mixed profile (one strategy per player).

    With ``rows=True`` each strategy is a stack of R rows (R, m_i), one
    profile per row, and all players must have the same R.
    """
    if len(profile) != game.n_players:
        raise InputError(
            f"profile has {len(profile)} strategies, expected {game.n_players}"
        )
    xs = [check_strategy(game, i, x, rows) for i, x in enumerate(profile)]
    if rows and len({len(x) for x in xs}) > 1:
        raise InputError("profile rows disagree on the number of profiles")
    return xs


class _Layout:
    """The columns of flat (..., D) rows that hold one vector per player,
    side by side: player i owns ``cols[i]``, which starts at ``offsets[i]``,
    ``dim`` is D and ``m_col`` holds each column's own m_i as a float.
    ``blocks`` lists (players, columns, m) for each run of consecutive
    players with equal action counts m; its columns view as (R, n_b, m).
    ``strides`` weighs each player's action in the row-major flat index of
    a pure profile."""

    def __init__(self, sizes):
        sizes = [int(m) for m in sizes]
        self.dim = sum(sizes)
        self.offsets = np.cumsum([0] + sizes[:-1])
        self.cols = tuple(slice(a, a + m) for a, m in zip(self.offsets.tolist(), sizes))
        self.m_col = np.repeat(np.asarray(sizes, dtype=float), sizes)
        self.strides = np.cumprod([1] + sizes[:0:-1])[::-1]
        for a in (self.offsets, self.m_col, self.strides):
            a.flags.writeable = False
        blocks, p = [], 0
        for m, run in itertools.groupby(sizes):
            n = len(list(run))
            cols = slice(self.cols[p].start, self.cols[p + n - 1].stop)
            blocks.append((slice(p, p + n), cols, m))
            p += n
        self.blocks = tuple(blocks)

    def split(self, flat) -> list[np.ndarray]:
        """Per-player views (..., m_i) of flat (..., D) rows."""
        return [flat[..., c] for c in self.cols]


# one shared, read-only layout per tuple of action counts
_layout = functools.lru_cache(maxsize=256)(_Layout)


def _flat(profile) -> tuple[np.ndarray, _Layout]:
    """A profile's strategies, or stacks of R rows, as flat rows and layout."""
    xs = [np.asarray(x, dtype=float) for x in profile]
    return np.concatenate(xs, axis=-1), _layout(tuple(x.shape[-1] for x in xs))


def check_distribution(game: Game, dist) -> np.ndarray:
    """Validate a correlated distribution (joint tensor over profiles)."""
    d = np.asarray(dist, dtype=float)
    if d.shape != game.n_actions:
        raise InputError(
            f"distribution has shape {d.shape}, expected {game.n_actions}"
        )
    _check_simplex(d.reshape(-1), "distribution")
    return d


def pure_profile(game: Game, actions) -> list[np.ndarray]:
    """The point-mass mixed profile at a pure action profile."""
    actions = tuple(_index(a) for a in actions)
    _check_pure(game, actions)
    out = []
    for i, a in enumerate(actions):
        v = np.zeros(game.n_actions[i])
        v[a] = 1.0
        out.append(v)
    return out


def _check_pure(game: Game, actions: tuple[int, ...]):
    if len(actions) != game.n_players:
        raise InputError(
            f"pure profile has {len(actions)} actions, expected {game.n_players}"
        )
    for i, a in enumerate(actions):
        if not 0 <= a < game.n_actions[i]:
            raise InputError(f"action {a} out of range for player {i}")


# ---------------------------------------------------------------------------
# payoff operators


def payoff_pure(game: Game, player: int, actions) -> float:
    """Payoff to `player` at a pure action profile."""
    actions = tuple(_index(a) for a in actions)
    _check_pure(game, actions)
    check_player(game, player)
    return float(game.payoffs[player][actions])


def payoff_mixed(game: Game, player: int, profile) -> float:
    """Expected payoff to `player` under an independent mixed profile."""
    v = payoff_vector(game, player, profile)
    return float((v * np.asarray(profile[player], dtype=float)).sum())


def payoff_vector(game: Game, player: int, profile) -> np.ndarray:
    """Expected payoff to `player` of each own action against the others.

    Entry a is the payoff of playing a while everyone else follows the
    profile; the player's own strategy in `profile` is ignored.
    """
    check_player(game, player)
    return payoff_vectors(game, profile)[player]


def payoff_vectors(game: Game, profile) -> list[np.ndarray]:
    """Payoff vectors of every player under one mixed profile."""
    x, layout = _flat(x[None] for x in check_profile(game, profile))
    return layout.split(_payoff_vectors_unchecked(game, x)[0])


class _Stack:
    """The payoff tensors of one layout block (consecutive players with
    equal action counts), stacked once per game for the payoff operator.

    Moving a player's own axis last leaves its opponents' axes in
    ascending order, and within a block those shapes agree, so ``table``
    stacks them as (o_1, ..., o_{N-1}, 1, n_b, m): opponent axes first,
    then a unit axis that broadcasts over profiles, the block's players
    and their own actions. Row a of the (o_1 + ... + o_{N-1}, n_b) array
    ``gather`` holds, for each block player, the flat column of its
    opponents' a-th action, counted across the opponents in ascending
    order.
    """

    def __init__(self, game: Game, players: slice, cols: slice):
        layout = _layout(game.n_actions)
        members = range(players.start, players.stop)
        self.players, self.cols = players, cols
        self.table = np.stack(
            [np.moveaxis(game.payoffs[i], i, -1) for i in members], axis=-2
        )[..., None, :, :]
        self.opponent_sizes = self.table.shape[:-3]
        # player i's opponents, ascending, own every flat column but i's
        self.gather = np.stack(
            [np.delete(np.arange(layout.dim), layout.cols[i]) for i in members], axis=1
        )
        self.table.flags.writeable = self.gather.flags.writeable = False

    def contract(self, x) -> np.ndarray:
        """v of every block player on flat (R, D) rows, as (R, n_b, m).

        Each opponent is contracted as plain multiply-adds in action
        order, opponents ascending, so every entry is the same sum of the
        same products as the player's tensor contracted alone, whatever
        other rows it is computed with.
        """
        val = self.table
        xs = x[:, self.gather, None]  # (R, sum o_s, n_b, 1)
        a = 0
        for size in self.opponent_sizes:
            acc = val[0] * xs[:, a]
            for b in range(1, size):
                acc = acc + val[b] * xs[:, a + b]
            val = acc
            a += size
        return val if len(val) == len(x) else np.repeat(val, len(x), axis=0)


def _payoff_vectors_unchecked(game: Game, x, out=None) -> np.ndarray:
    """The payoff operator v(x) on flat (R, D) rows, as flat rows.

    Two players' tensors, each with its own axis moved aside, share a
    shape exactly when the players lie in one layout block (a run of
    consecutive players with equal action counts). So each block is one
    stacked contraction, written into the block's columns. Every entry is
    the same sum of the same products as that player's contraction alone,
    so a caller that needs one player's vector takes its columns. On
    one-hot rows (pure profiles) every product is with 1.0 or 0.0, so
    the entries are the payoffs themselves, exactly.
    """
    out = np.empty(x.shape) if out is None else out
    for stack in game._stacks:
        out[:, stack.cols] = stack.contract(x).reshape(len(x), -1)
    return out


def payoff_bound(game: Game) -> float:
    """Largest absolute pure payoff across all players."""
    return max(float(np.abs(t).max()) for t in game.payoffs)


def deviation_gap(game: Game, player: int, dist) -> np.ndarray | float:
    """Best fixed-action improvement over the payoff of a joint distribution.

    Returns max_a [u_i(a; dist_-i) - u_i(dist)] where both terms are
    expectations under the correlated distribution `dist`. A negative value
    certifies that no fixed action beats the distribution itself. Note the
    maximum runs over all actions including any the distribution plays, so
    the gap of a point mass is never negative (it is 0 at a strict
    equilibrium, where only the equilibrium action attains it).
    """
    return float(deviation_gaps(game, player, dist).max())


def deviation_gaps(game: Game, player: int, dist) -> np.ndarray:
    """Per-action version of :func:`deviation_gap` (one entry per action)."""
    d = check_distribution(game, dist)
    check_player(game, player)
    fixed, value = _correlated_payoffs(game, player, d)
    return fixed - value


def _correlated_payoffs(game: Game, player: int, dists):
    """Fixed-action payoffs u_i(a; d_-i) and the value u_i(d) of `player`.

    `dists` is one joint tensor (shape ``n_actions``) or a stack of K of
    them; the results are (m_player,) and a scalar, or (K, m_player) and
    (K,) to match.
    """
    u = game.payoffs[player]
    lead = dists.ndim - game.n_players
    value = (dists * u).sum(axis=tuple(range(lead, dists.ndim)))
    # each fixed action meets the others' marginal of the distribution
    marginal = dists.sum(axis=lead + player, keepdims=True)
    fixed = np.moveaxis(marginal * u, lead + player, -1)
    return fixed.sum(axis=tuple(range(lead, dists.ndim - 1))), value


# ---------------------------------------------------------------------------
# equilibria and dominance


def enumerate_pure_nash(game: Game, strict_only: bool = False):
    """All pure Nash profiles, sorted lexicographically.

    Weak equilibria allow deviations to tie within `_NASH_TIE`; strict mode
    requires every unilateral deviation to be strictly worse (exact
    comparison, no tolerance, matching the exact treatment of ties in the
    setwise tests).
    """
    ok = np.ones(game.n_actions, dtype=bool)
    for i in range(game.n_players):
        u = game.payoffs[i]
        best = u.max(axis=i, keepdims=True)
        if strict_only:
            # strict: the action is the unique maximizer
            count = (u == best).sum(axis=i, keepdims=True)
            ok &= (u == best) & (count == 1)
        else:
            ok &= u >= best - _NASH_TIE
    return [tuple(int(a) for a in idx) for idx in np.argwhere(ok)]


def strictly_dominated_pure(game: Game, player: int) -> tuple[int, ...]:
    """Actions strictly dominated by some other pure action (exact >)."""
    check_player(game, player)
    u = np.moveaxis(game.payoffs[player], player, 0)
    m = game.n_actions[player]
    flat = u.reshape(m, -1)
    # diff[b, a] > 0 everywhere means b strictly dominates a
    diff = flat[:, None, :] - flat[None, :, :]
    dominated = np.any(np.all(diff > 0, axis=2), axis=0)
    return tuple(int(a) for a in np.flatnonzero(dominated))


def random_game(rng: np.random.Generator, n_actions) -> Game:
    """A game with iid uniform payoffs in [-1, 1], for property tests and
    calibration."""
    shape = tuple(int(m) for m in n_actions)
    tables = [rng.uniform(-1.0, 1.0, size=shape) for _ in shape]
    return make_game(tables)


# ---------------------------------------------------------------------------
# JSON interchange format


def game_to_dict(game: Game) -> dict:
    """Plain-dict form: row-major flat payoff lists, player 1 slowest."""
    return {
        "players": game.n_players,
        "actions": list(game.n_actions),
        "payoffs": [t.ravel(order="C").tolist() for t in game.payoffs],
    }


def game_from_dict(data: dict) -> Game:
    """Inverse of :func:`game_to_dict`, with full validation."""
    if not isinstance(data, dict):
        raise InputError("game document must be a JSON object")
    for key in ("players", "actions", "payoffs"):
        if key not in data:
            raise InputError(f"game document is missing the '{key}' field")
    players = data["players"]
    actions = data["actions"]
    if not _is_count(players):
        raise InputError("'players' must be a positive integer")
    if not isinstance(actions, list) or len(actions) != players:
        raise InputError("'actions' must list one action count per player")
    if not all(_is_count(m) for m in actions):
        raise InputError("every action count must be a positive integer")
    payoffs = data["payoffs"]
    if not isinstance(payoffs, list) or len(payoffs) != players:
        raise InputError("'payoffs' must list one flat table per player")
    shape = tuple(actions)
    size = math.prod(shape)
    tables = []
    for i, flat in enumerate(payoffs):
        # ints compare exactly, so this rejects NaN, Inf and any integer too
        # large for a double
        if not isinstance(flat, list) or len(flat) != size or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max for v in flat
        ):
            raise InputError(
                f"payoff table for player {i} must be a flat list of {size} finite numbers"
            )
        tables.append(np.asarray(flat, dtype=float).reshape(shape, order="C"))
    return make_game(tables)


def game_to_json(game: Game) -> str:
    """Canonical JSON serialization (stable key order, repr-exact floats)."""
    return json.dumps(game_to_dict(game), indent=2, sort_keys=False)


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also integers past Python's digit limit
            raise InputError(f"could not parse game file: {exc}") from exc
    return game_from_dict(data)
