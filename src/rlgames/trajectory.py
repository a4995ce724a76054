"""Time-indexed run records and their CSV interchange format.

A Trajectory holds a run step by step as flat (T, D) rows, player-major
in the layout ``game._layout`` owns. It stores the played profiles, and
the sampled actions and surrogate gain vectors where they are given: by
hand-built records, by runs that never sample (a block of -1) and, for
the gains, by mirror-prox and clairvoyant runs, which cannot recompute
them from the play. Scores, a bandit run's sampled actions, the gains
that were not stored, the bias/noise split of the gains and the
per-player instantaneous regret summands are derived from them on first
read, each field on its own, and then cached, so a caller pays only for
the fields it reads. The CSV format is a strict subset with a fixed
column order:

    n, gamma, tau,
    x_<player>_<action> ... (player-major, action-major),
    realized_<player> ...   (-1 when the run had no sampling),
    regret_<player> ...     (instantaneous summands),
    dist_<k> ...            (one column per tracked face)

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import InitVar, dataclass, field
from itertools import groupby
from operator import methodcaller

import numpy as np

from .errors import InputError
from .faces import Face, _outside_mass
from .game import _layout

_FMT = "%.17g"
_CSV_ROWS = 16  # rows per %-format: larger blocks leave freed heap resident
_CSV_CHUNK = 1024  # rows stacked per np.concatenate


@dataclass(eq=False)
class Trajectory:
    """Record of one learning run.

    Stored: y0, n, gamma, tau and x, plus realized and vhat when they
    are given. `derive(traj, name)` returns the array of the derived
    field `name`, which is then cached; the engine passes one, a
    hand-built trajectory may not. The derived fields are:

    - scores: (T, D) scores y_n matching x rows
    - realized: (T, N) sampled actions, -1 where the run did not sample,
      unless given (the engine gives the block of -1 for runs that never
      sample and replays the bandit draws from x and the run's seed)
    - vhat: (T, D) surrogate gains, unless given (the engine gives them
      for mirror-prox and clairvoyant runs, whose gains depend on the
      scores, and derives the full, optimistic and bandit ones)
    - bias, noise: (T, D) split of vhat around v(x_n)
    - gaps: (T, N) per-player instantaneous regret summands
    """

    n_actions: tuple[int, ...]
    kernel_name: str
    feedback_label: str
    seed: int
    y0: np.ndarray  # flat initial scores
    n: np.ndarray  # (T,) step indices, 1-based
    gamma: np.ndarray  # (T,)
    tau: np.ndarray  # (T,) running sum of gamma
    x: np.ndarray  # (T, D) played profiles, flattened player-major
    realized: InitVar[np.ndarray | None] = None  # (T, N) sampled actions, when stored
    vhat: InitVar[np.ndarray | None] = None  # (T, D) surrogate gains, when stored
    derive: Callable | None = field(default=None, repr=False)
    _derived: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self, realized, vhat):
        self.n_actions = tuple(int(m) for m in self.n_actions)
        for name, given in (("realized", realized), ("vhat", vhat)):
            if given is not None:
                self._derived[name] = given

    def _read(self, name: str) -> np.ndarray:
        if name not in self._derived:
            if self.derive is None:
                raise InputError(f"trajectory has no source to derive {name!r} from")
            self._derived[name] = self.derive(self, name)
        return self._derived[name]

    @property
    def n_players(self) -> int:
        return len(self.n_actions)

    @property
    def dim(self) -> int:
        return _layout(self.n_actions).dim

    @property
    def horizon(self) -> int:
        return len(self.n)

    def player_slice(self, i: int) -> slice:
        if not 0 <= i < self.n_players:
            raise InputError(f"player index {i} out of range")
        return _layout(self.n_actions).cols[i]

    def profile_at(self, k: int) -> list[np.ndarray]:
        return [x.copy() for x in _layout(self.n_actions).split(self.x[k])]


# set after the class body, where realized and vhat no longer read as the
# InitVars' defaults
for _name in ("scores", "realized", "vhat", "bias", "noise", "gaps"):
    setattr(Trajectory, _name, property(methodcaller("_read", _name)))


def face_distances(traj: Trajectory, face: Face) -> np.ndarray:
    """Outside-support mass of every recorded profile, as a (T,) series;
    entry k is ``distance_to_face`` of ``traj.profile_at(k)``, bit for bit."""
    return _outside_mass(traj.n_actions, face, traj.x)


def csv_header(traj: Trajectory, n_faces: int = 0) -> list[str]:
    head = ["n", "gamma", "tau"]
    for i, m in enumerate(traj.n_actions):
        head.extend(f"x_{i}_{a}" for a in range(m))
    head.extend(f"realized_{i}" for i in range(traj.n_players))
    head.extend(f"regret_{i}" for i in range(traj.n_players))
    head.extend(f"dist_{k}" for k in range(n_faces))
    return head


def write_trajectory_csv(traj: Trajectory, path, faces=()) -> None:
    """Write the contracted CSV columns; `faces` adds one distance column each.

    Rows go out in blocks of ``_CSV_ROWS``, each written with a single
    %-format: ``%d`` for integer columns and ``%.17g`` for floats, which
    writes exactly what ``"{:.17g}".format`` would. A block's n, gamma and
    tau enter that format as text formatted for the block alone.
    """
    _write_csvs([traj], [path], faces)


def _write_csvs(trajectories, paths, faces) -> None:
    """Write each trajectory's CSV to its path, as `write_trajectory_csv`.

    Consecutive runs with the same action counts whose n, gamma and tau
    are the same arrays (a batch's runs are) share their lead text: the
    first run formats each block's ``n,gamma,tau,`` columns into the
    block's %-format, which the others reuse. A formatted number holds no
    ``%``, so the text cannot change the bytes. A run that shares with no
    other keeps no per-step text.
    """
    faces = list(faces)
    pairs = list(zip(trajectories, paths))

    def lead_arrays(pair):
        t = pair[0]
        return id(t.n), id(t.gamma), id(t.tau), t.n_actions

    for _, group in groupby(pairs, key=lead_arrays):
        group = list(group)
        first = group[0][0]
        N = first.n_players
        row = ",".join(
            [_FMT] * first.dim + ["%d"] * N + [_FMT] * (N + len(faces))
        ) + "\n"
        header = ",".join(csv_header(first, len(faces))) + "\n"
        formats = _block_formats(first, row)
        if len(group) > 1:
            formats = list(formats)
        for traj, path in group:
            columns = [traj.x, traj.realized, traj.gaps]
            columns.extend(face_distances(traj, f)[:, None] for f in faces)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(header)
                for fmt, block in zip(formats, _row_blocks(columns, traj.horizon)):
                    fh.write(fmt % tuple(block.ravel().tolist()))


def _block_formats(traj: Trajectory, row: str):
    """Yield, block by block, the %-format of a run's rows: each row's n,
    gamma and tau as text, then `row` for its other columns."""
    lead = "%d," + _FMT + "," + _FMT + "," + row.replace("%", "%%")
    columns = [traj.n[:, None], traj.gamma[:, None], traj.tau[:, None]]
    for block in _row_blocks(columns, traj.horizon):
        yield (lead * len(block)) % tuple(block.ravel().tolist())


def _row_blocks(columns, horizon: int):
    """Yield the columns side by side as float blocks of ``_CSV_ROWS``
    rows (step indices and actions are exact there), stacked with one
    ``np.concatenate`` per ``_CSV_CHUNK`` rows."""
    for a in range(0, horizon, _CSV_CHUNK):
        table = np.concatenate([c[a:a + _CSV_CHUNK] for c in columns], axis=1)
        for b in range(0, len(table), _CSV_ROWS):
            yield table[b:b + _CSV_ROWS]
