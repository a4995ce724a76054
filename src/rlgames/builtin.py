"""Bundled benchmark games.

Each builder returns a fresh :class:`Game`. The payoff tables are written
out literally; the test suite pins them against checked-in JSON fixtures so
accidental edits are caught. Flat 2x2x2 tables are ordered row-major over
profiles (a1, a2, a3), player 1 slowest.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .game import Game, make_game

THIRD = 1.0 / 3.0
TWO_THIRDS = 2.0 / 3.0


def vz4x4() -> Game:
    """4x4 bimatrix game where actions 1 and 3 are strictly dominated for
    both players, yet the half-half correlated mixture on profiles (1,1) and
    (3,3) pays more than any fixed action against it."""
    u1 = [
        [1.0, 1.0, 0.0, 0.0],
        [TWO_THIRDS, TWO_THIRDS, -THIRD, -THIRD],
        [0.0, 0.0, 1.0, 1.0],
        [-THIRD, -THIRD, TWO_THIRDS, TWO_THIRDS],
    ]
    u2 = [
        [1.0, TWO_THIRDS, 0.0, -THIRD],
        [1.0, TWO_THIRDS, 0.0, -THIRD],
        [0.0, -THIRD, 1.0, TWO_THIRDS],
        [0.0, -THIRD, 1.0, TWO_THIRDS],
    ]
    return make_game([u1, u2])


def parity() -> Game:
    """Three players each earn 1 when the sum of actions is even."""
    even = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0]
    return _from_flat_222([even, even, even])


def spectator() -> Game:
    """Players 1 and 2 earn 1 by matching; player 3 is always indifferent."""
    match = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    zero = [0.0] * 8
    return _from_flat_222([match, match, zero])


def twisted_mp() -> Game:
    """Player 1 collects a flat 0.1 for the second action while players 2
    and 3 play matching pennies on the joint parity."""
    u1 = [0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 0.1]
    u2 = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0]
    u3 = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    return _from_flat_222([u1, u2, u3])


def outside_mp() -> Game:
    """Zero-sum-flavored 2x2x2 game: player 1 chases mismatches with player
    3 while the other two payoffs follow fixed sign patterns."""
    u1 = [-1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0]
    u2 = [1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0]
    u3 = [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0]
    return _from_flat_222([u1, u2, u3])


def matching_pennies_2p() -> Game:
    """Classic two-player matching pennies."""
    u1 = [[1.0, -1.0], [-1.0, 1.0]]
    u2 = [[-1.0, 1.0], [1.0, -1.0]]
    return make_game([u1, u2])


def _from_flat_222(flats) -> Game:
    tables = [np.asarray(f, dtype=float).reshape((2, 2, 2)) for f in flats]
    return make_game(tables)


BUILTIN_GAMES = {
    "vz4x4": vz4x4,
    "parity": parity,
    "spectator": spectator,
    "twisted_mp": twisted_mp,
    "outside_mp": outside_mp,
    "matching_pennies_2p": matching_pennies_2p,
}


def builtin_game(name: str) -> Game:
    """Look up a bundled game by name."""
    try:
        builder = BUILTIN_GAMES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_GAMES))
        raise InputError(f"unknown builtin game '{name}' (known: {known})") from None
    return builder()
