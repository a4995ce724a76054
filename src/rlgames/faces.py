"""Faces of the strategy polytope and setwise stability tests.

A face is a product of nonempty pure-action subsets, one per player. The
closedness test (`is_club`) asks that every action outside a player's
subset earn strictly less than every action inside it against every pure
profile the other players can form inside the face; because payoffs are
multilinear in the opponents' mixtures, checking the pure vertices of the
opposing face is exact. `club_margin` measures that test on one face.

The face lattice indexes a player's support by its bitmask: action a is
bit a, and the nonempty supports are masks 1 .. 2^m - 1. `face_margins`
returns the margin of every face as one array with one axis per player,
entry mask - 1 on each, built from subset-max and subset-min tables that
double along each axis; `enumerate_clubs` keeps its positive entries.

`is_curb` checks the coarser best-reply closure with one minimax LP per
player and outside action, over beliefs on the opposing face's vertices:
exact for two players, and for three or more a sufficient test, since the
beliefs may be correlated. `is_resilient` solves, per player, a small
minimax LP certifying that no prepared mixture beats the face's candidate
points uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .game import Game, _flat, _layout, _payoff_vectors_unchecked, check_profile
from .minimax_lp import solve_minimax_lp

# `face_margins` refuses a face lattice larger than this
MAX_FACES = 1_000_000
# `is_curb` counts an LP value within this fraction of its gaps' spread as a tie
_CURB_TIE = 1e-12


@dataclass(frozen=True)
class Face:
    """Product of per-player action subsets, canonically sorted."""

    supports: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = []
        for i, sub in enumerate(self.supports):
            acts = tuple(sorted(int(a) for a in sub))
            if not acts:
                raise InputError(f"support for player {i} is empty")
            if len(set(acts)) != len(acts):
                raise InputError(f"support for player {i} repeats an action")
            canon.append(acts)
        object.__setattr__(self, "supports", tuple(canon))

    @property
    def n_players(self) -> int:
        return len(self.supports)

    def size(self) -> int:
        return sum(len(s) for s in self.supports)

    def contains(self, other: "Face") -> bool:
        """True when every support of `other` sits inside this face's."""
        if self.n_players != other.n_players:
            raise InputError("faces belong to games of different player counts")
        return all(
            set(o).issubset(set(s)) for s, o in zip(self.supports, other.supports)
        )


@dataclass(frozen=True)
class DeviationVector:
    """A single unilateral swap: `player` moves mass from `inside` to `outside`."""

    player: int
    inside: int
    outside: int


def check_face(game: Game, face: Face) -> Face:
    """Reject a face that does not fit the game's per-player action counts."""
    n_actions = game.n_actions
    if face.n_players != len(n_actions):
        raise InputError(
            f"face has {face.n_players} supports, game has {len(n_actions)} players"
        )
    for i, sub in enumerate(face.supports):
        for a in (sub[0], sub[-1]):  # supports are sorted
            if not 0 <= a < n_actions[i]:
                raise InputError(f"face support for player {i} mentions action {a}, "
                                 f"but the player has {n_actions[i]} actions")
    return face


def face_from_lists(supports) -> Face:
    return Face(supports=tuple(tuple(int(a) for a in s) for s in supports))


def singleton_face(game: Game, actions) -> Face:
    face = face_from_lists([[a] for a in actions])
    return check_face(game, face)


# ---------------------------------------------------------------------------
# geometry


def distance_to_face(game: Game, profile, face: Face) -> float:
    """Total probability mass the profile puts outside the face's supports."""
    x, _ = _flat(check_profile(game, profile))
    return float(_outside_mass(game, face, x[None])[0])


def _outside_mass(game: Game, face: Face, flat) -> np.ndarray:
    """Mass each flat (R, D) profile row of the game puts outside the face:
    one sum over the outside columns, in column order. `distance_to_face`
    and `trajectory.face_distances` both come here, so they agree bit for
    bit."""
    check_face(game, face)
    layout = _layout(game.n_actions)
    outside = np.ones(layout.dim, dtype=bool)
    for part, sub in zip(layout.split(outside), face.supports):
        part[list(sub)] = False
    return flat[:, outside].sum(axis=1)


def deviation_vectors(game: Game, face: Face) -> list[DeviationVector]:
    """All (player, inside, outside) swaps leaving the face, in index order."""
    check_face(game, face)
    out = []
    for i in range(game.n_players):
        for a in face.supports[i]:
            for b in _outside(game, face, i):
                out.append(DeviationVector(player=i, inside=a, outside=b))
    return out


# ---------------------------------------------------------------------------
# closedness under better replies


def club_margin(game: Game, face: Face) -> float:
    """Worst-case inside-minus-outside payoff gap over the face's vertices.

    Positive means every outside action loses strictly to every inside
    action at every vertex of the opposing face; the face is closed under
    better replies exactly when the margin is positive. The full face has
    no deviations and gets +inf.
    """
    check_face(game, face)
    margin = np.inf
    for i in range(game.n_players):
        inside = list(face.supports[i])
        outside = _outside(game, face, i)
        if not outside:
            continue
        u = _vertex_payoffs(game, face, i)
        gaps = u[outside][:, None] - u[inside][None, :]
        margin = min(margin, float(-gaps.max()))
    return float(margin)


def _outside(game: Game, face: Face, i: int) -> list[int]:
    """Player i's actions outside the face, in index order."""
    return [b for b in range(game.n_actions[i]) if b not in face.supports[i]]


def _vertex_payoffs(game: Game, face: Face, i: int) -> np.ndarray:
    """Player i's payoff table: one row per own action, one column per
    vertex of the opposing face (opponents in player order, C order)."""
    u = np.moveaxis(game.payoffs[i], i, 0)
    opp = [s for j, s in enumerate(face.supports) if j != i]
    for axis, keep in enumerate(opp, start=1):
        u = u.take(keep, axis=axis)
    return u.reshape(len(u), -1)


def is_club(game: Game, face: Face) -> bool:
    """Closed under better replies (strict vertex test; ties fail)."""
    return club_margin(game, face) > 0.0


def _subset_reduce(arr: np.ndarray, axis: int, op) -> np.ndarray:
    """Replace `axis` (length m) by its 2^m - 1 nonempty action subsets.

    Entry mask - 1 along the axis is `op` (np.maximum or np.minimum) over
    the actions whose bits are set in mask. Each action k doubles the
    table: the subsets with top bit k are those below it joined with k.
    """
    arr = arr.swapaxes(0, axis)
    out = np.empty(((1 << arr.shape[0]) - 1,) + arr.shape[1:])
    for k, row in enumerate(arr):
        low = (1 << k) - 1  # out[:low] holds the subsets of actions below k
        out[low] = row
        op(out[:low], row, out=out[low + 1 : 2 * low + 1])
    return out.swapaxes(0, axis)


def face_margins(game: Game) -> np.ndarray:
    """`club_margin` of every face at once, bit for bit.

    The array has one axis per player; a face whose player-i support has
    bitmask mask_i sits at index (mask_0 - 1, mask_1 - 1, ...). Per player,
    the rounded gap u(b; v) - u(a; v) is largest where u(b; v) is largest
    and u(a; v) smallest, because rounding is monotone. So the worst gap
    at each opposing vertex v is the best outside payoff (a max over the
    complement mask, -inf for a full support) minus the worst inside one,
    and the max over the opposing face's vertices is a subset-max along
    each opponent axis. Raises ResourceLimitError before allocating if the
    lattice has more than `MAX_FACES` faces.
    """
    total = 1
    for m in game.n_actions:
        total *= (1 << m) - 1
        if total > MAX_FACES:
            raise ResourceLimitError(f"face lattice has more than {MAX_FACES} faces")
    margins = None
    for i in range(game.n_players):
        u = game.payoffs[i].swapaxes(0, i)
        worst_in = _subset_reduce(u, 0, np.minimum)
        best = _subset_reduce(u, 0, np.maximum)
        # row k is support mask k + 1, and its complement's row is the
        # k-th from the end but one; the full support (last row) has no
        # outside action
        gaps = np.empty_like(worst_in)
        np.subtract(best[-2::-1], worst_in[:-1], out=gaps[:-1])
        gaps[-1] = -np.inf
        for axis in range(1, game.n_players):
            gaps = _subset_reduce(gaps, axis, np.maximum)
        gaps = gaps.swapaxes(0, i)
        np.negative(gaps, out=gaps)
        margins = gaps if margins is None else np.minimum(margins, gaps, out=margins)
    return margins


def _mask_support(mask: int) -> tuple[int, ...]:
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


def enumerate_clubs(game: Game) -> list[Face]:
    """Every club face, sorted by total support size then lexicographically.

    Raises ResourceLimitError if the face lattice has more than `MAX_FACES`
    faces.
    """
    margins = face_margins(game)
    found = [
        Face(supports=tuple(_mask_support(int(k) + 1) for k in index))
        for index in zip(*np.nonzero(margins > 0.0))
    ]
    found.sort(key=lambda f: (f.size(), f.supports))
    return found


def minimal_clubs(game: Game) -> list[Face]:
    """Clubs containing no strictly smaller club (`MAX_FACES` bounds the
    lattice, as in :func:`enumerate_clubs`)."""
    return _minimal_faces(enumerate_clubs(game))


def _minimal_faces(faces: list[Face]) -> list[Face]:
    """The faces of the list that contain no other face of it, in order."""
    return [f for f in faces if not any(g is not f and f.contains(g) for g in faces)]


# ---------------------------------------------------------------------------
# closedness under best replies


def is_curb(game: Game, face: Face) -> bool:
    """Closed under best replies (strict; ties fail, as in `is_club`).

    For each player i and outside action b, one minimax LP over beliefs σ
    on the opposing face's vertices decides whether min_σ max_{a in S_i}
    u_i(a, σ) - u_i(b, σ) is positive, i.e. whether b is never a best
    reply. A value within `_CURB_TIE` times the spread of the gaps
    u_i(b, v) - u_i(a, v) over the vertices v counts as a tie and fails:
    the LP returns exact ties as round-off of either sign. For two players
    the beliefs are exactly the opposing mixtures, so the test is exact;
    for three or more they may be correlated, a larger set than the
    product mixtures, so a face that passes is curb but a curb face can
    fail.
    """
    check_face(game, face)
    for i in range(game.n_players):
        u = _vertex_payoffs(game, face, i)
        for b in _outside(game, face, i):
            slopes = u[b] - u[list(face.supports[i])]
            value, _ = solve_minimax_lp([(0.0, s) for s in slopes], u.shape[1])
            if not value > _CURB_TIE * (slopes.max() - slopes.min()):
                return False
    return True


# ---------------------------------------------------------------------------
# resilience


@dataclass(frozen=True, eq=False)
class ResilienceReport:
    """Per-player minimax certificates for a candidate point set:
    `resilient` is the verdict at the tolerance its caller audited with,
    `gaps` the per-player LP values and `witnesses` their minimizers."""

    resilient: bool
    gaps: tuple[float, ...]
    witnesses: tuple[np.ndarray, ...]  # minimizing prepared mixture per player


def is_resilient(game: Game, points) -> ResilienceReport:
    """Decide whether a finite point set defends every player's payoff.

    For each player the LP computes min over prepared mixtures z of the
    best excess max_x [u_i(x) - <v_i(x), z>] across the candidate points x.
    Nonnegative gaps for all players, with no tolerance, certify that no
    fixed mixture beats the set uniformly.
    """
    pts = [check_profile(game, p) for p in points]
    if not pts:
        raise InputError("at least one candidate point is required")
    x, _ = _flat(np.stack(col) for col in zip(*pts))
    return _resilience_unchecked(game, x, 0.0)


def _resilience_unchecked(game: Game, x, tol: float) -> ResilienceReport:
    """:func:`is_resilient` on K candidate points given as flat (K, D)
    profile rows, which it does not validate, with gaps down to -`tol`
    counted as nonnegative."""
    layout = _layout(game.n_actions)
    v = _payoff_vectors_unchecked(game, x)
    gaps = []
    witnesses = []
    for i, cols in enumerate(layout.cols):
        slopes = v[:, cols]
        offsets = (slopes * x[:, cols]).sum(axis=1)
        value, z = solve_minimax_lp(zip(offsets, slopes), game.n_actions[i])
        gaps.append(value)
        witnesses.append(z)
    return ResilienceReport(
        resilient=all(g >= -tol for g in gaps),
        gaps=tuple(gaps),
        witnesses=tuple(witnesses),
    )
