"""Regularized-learning drivers.

Every algorithm here is one template: accumulate a surrogate gain vector
into scores and map scores to strategies,

    y_{n+1} = y_n + gamma_n * vhat_n,      x_{n+1} = Q(y_{n+1}),

with the feedback kind deciding how vhat_n is produced from the current
play. Each vhat splits as vhat = v(x_n) + bias + noise, and a trajectory
derives both parts so tests can check the advertised envelopes directly.

One engine steps R runs in lockstep. Its state is the flat (R, D)
scores, laid out like the recorded x rows, plus the field v(x) of the
step before under optimistic feedback; the current play x_n = Q(y_n)
goes straight into the record. Each player's (R, m_i) columns are a view
into those rows; consecutive players with equal action counts form a
block, viewed as (R, n_b, m_b), and each step makes one numpy call per
block and operation. Under bandit feedback the step explores the play
into one (R, D) buffer laid out like the scores. Each block draws from
an action-major (m_b, R, n_b) view of its columns, so the running sums
and the draw reduce over the short action axis one (R, n_b) slab at a
time. The estimate, N entries per row, is added into the N scores at the
realized actions' flat positions alone, and one gather of the explored
buffer at those positions reads their probabilities. The payoff operator
v(x) works per block too: the game stacks each block's payoff tensors
once, and one multiply-add per (opponent, action) gives the whole
block's payoff vectors. Every operation treats a row the same whatever
other rows share the batch, so run r of a batch is bit for bit the
single run from the same seed and start. :func:`run` is the one-run
case.

The step loop computes only what the recursion needs and records only
what cannot be recomputed from the play: x, and vhat under mirror-prox
and clairvoyant feedback, whose half-step or fixed point depends on the
scores. This module alone decides what is stored: a trajectory holds
its play and the game, kernel and feedback kind that made it, and each
run's :class:`_Derivation` owns the run's stored vhat and, for runs that
never sample, the batch's one block of -1 as their realized actions; it
reads the game and feedback kind from the trajectory it is handed. A
bandit draw is a function of the recorded x_n, the exploration weight
delta_n and the run's Philox streams, so the step draws into one scratch
row and a trajectory replays its draws on read through :func:`_draw`,
the draw :func:`sample_actions` makes. Every
other vhat is a row-wise function of the play, written once in
:func:`_gain`, which a trajectory calls on B steps of one run and the
full and optimistic step on R runs at one step. The bandit estimate's
entries have one owner, :func:`_iwe_entries`: the step adds them into
the scores, and :func:`_gain` and :func:`iwe` write them into zeros.
Scores, the realized actions, that vhat, bias, noise and the regret
summands are derived from the recorded rows on first read, with the
step's arithmetic in the step's order, so the record is the same bits
either way and a caller that never reads them never pays for them.

Randomness (bandit sampling only) comes from the counter-based Philox
generator, keyed per (run seed, player): the draw used by player i at step
n is the n-th output of that player's stream (row n - 1 of
:func:`uniform_table`), so results never depend on execution interleaving
and batches stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ResourceLimitError
from .game import Game, _check_simplex, _flat, _indices, _is_count, _layout, check_profile
from .game import _payoff_vectors_unchecked as _field
from .regularizers import Kernel, _choice_blocks
from .trajectory import Trajectory

_INIT_STREAM = 0xFFFFFFFF  # reserved substream for initial-score perturbation
_DERIVE_ROWS = 1024  # steps per block of uniform draws and of derived rows
# the clairvoyant fixed point: a row stops once its residual is at most
# _PICARD_TOL, and a row still open after _PICARD_ITERS iterations stalls
_PICARD_TOL = 1e-10
_PICARD_ITERS = 1000


@dataclass(frozen=True)
class Schedule:
    """Polynomial schedule base / n^exponent, n >= 1."""

    base: float
    exponent: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.base) or self.base <= 0:
            raise InputError("schedule base must be positive and finite")
        if not 0.0 <= self.exponent <= 1.0:
            raise InputError("schedule exponent must lie in [0, 1]")

    def value(self, n: int) -> float:
        if n < 1:
            raise InputError("schedules are indexed from 1")
        return self.base / float(n) ** self.exponent


@dataclass(frozen=True)
class Full:
    """Oracle feedback: vhat = v(x_n)."""

    label = "full"


@dataclass(frozen=True)
class Optimistic:
    """Gradient extrapolation: vhat = 2 v(x_n) - v(x_{n-1})."""

    label = "optimistic"


@dataclass(frozen=True)
class MirrorProx:
    """Extra-gradient: evaluate v at the half-step profile Q(y + gamma v)."""

    label = "mirror_prox"


@dataclass(frozen=True)
class Clairvoyant:
    """Implicit step: vhat = v(x+) at the damped fixed point
    x+ = Q(y + gamma v(x+)), solved to an L1 residual of `_PICARD_TOL`
    within `_PICARD_ITERS` iterations."""

    label = "clairvoyant"


@dataclass(frozen=True)
class Bandit:
    """Payoff-only feedback with importance weighting over an explored play."""

    exploration: Schedule
    label = "bandit"

    def __post_init__(self):
        if self.exploration.base > 1.0:
            raise InputError("exploration schedule must stay within (0, 1]")


FeedbackKind = Full | Optimistic | MirrorProx | Clairvoyant | Bandit
# the kinds whose gain depends on the scores, so the step loop records vhat
_RECORDED = (MirrorProx, Clairvoyant)


# ---------------------------------------------------------------------------
# randomness


def player_stream(seed: int, player: int) -> np.random.Generator:
    """The Philox substream feeding one player's action draws."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(player)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_table(seed: int, n_players: int, horizon: int) -> np.ndarray:
    """Column i holds the draws of player i's substream for steps 1..horizon."""
    table = np.empty((horizon, n_players))
    for i in range(n_players):
        table[:, i] = player_stream(seed, i).random(horizon)
    return table


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Stable per-run seed for batch execution; both inputs must be >= 0."""
    if master_seed < 0 or run_index < 0:
        raise InputError("master seed and run index must be nonnegative")
    ss = np.random.SeedSequence([int(master_seed), int(run_index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def perturbation_stream(seed: int) -> np.random.Generator:
    """Substream reserved for initial-score perturbations."""
    return player_stream(seed, _INIT_STREAM)


# ---------------------------------------------------------------------------
# bandit building blocks
#
# The public blocks take one profile, or R profiles at once as per-player
# (R, m_i) rows, and validate what they are given. The explored play is
# flat (R, D) rows, laid out like the scores. Sampling acts on one layout
# block (game._layout) of consecutive equal-size players at a time,
# through an action-major (m, R, n_b) view of the block's columns: action
# a of every run and block player is one (R, n_b) slab, so the running
# sums and the draw reduce over the short action axis slab by slab, not
# one short row at a time. The estimate is N entries per row, and one
# gather of the explored rows at the realized actions' flat positions
# reads their probabilities; the lockstep engine below adds the entries
# straight into the scores at those positions.


def _explored_unchecked(x, delta, m, out=None) -> np.ndarray:
    """Mix each strategy with the uniform one, (1 - delta) x + delta / m,
    into `out` if given."""
    out = np.multiply(x, 1.0 - delta, out=out)
    return np.add(out, delta / m, out=out)


def sample_actions(explored, uniforms):
    """Inverse-CDF draws, one uniform per player, each in [0, 1).

    For R profiles, `uniforms` is an (R, N) array and so is the result;
    for one profile the actions come back as a list of ints.
    """
    u = np.asarray(uniforms, dtype=float)
    rows = np.atleast_2d(u)
    if len(explored) != rows.shape[1]:
        raise InputError("one uniform per player is required")
    if not ((rows >= 0.0) & (rows < 1.0)).all():  # NaN fails both
        raise InputError("uniforms must lie in [0, 1)")
    xs = [_check_simplex(np.atleast_2d(np.asarray(x, dtype=float))) for x in explored]
    if any(len(x) != len(rows) for x in xs):
        raise InputError("explored rows and uniform rows disagree in number")
    x, layout = _flat(xs)
    actions = _draw(layout, x, rows, np.empty(rows.shape, np.int64))
    return actions if u.ndim == 2 else actions[0].tolist()


def _draw(layout, xhat, uniforms, out) -> np.ndarray:
    """Draw every block's actions into (R, N) `out` from explored flat
    (R, D) rows `xhat` and their (R, N) uniforms, through each block's
    action-major (m, R, n_b) view of its columns."""
    for players, cols, m in layout.blocks:
        xb = xhat[:, cols].reshape(len(xhat), -1, m).transpose(2, 0, 1)
        _sample_actions_unchecked(xb, uniforms[:, players], out[:, players])
    return out


def _sample_actions_unchecked(xb, uniforms, out, c=None) -> np.ndarray:
    """Draw one block's actions into (R, n_b) `out` from its explored play
    as action-major (m, R, n_b) rows and its (R, n_b) uniforms. `xb` may be
    a strided view of flat (R, D) rows; `c`, of its shape, may take the
    running sums, which the reductions then read contiguously."""
    c = np.add.accumulate(xb, axis=0, out=c)
    # the running sums never decrease and u < 1, so counting the a < m - 1
    # with c_a <= u * c_{m-1} is searchsorted(c, u * c_{m-1}, side="right")
    return np.add.reduce(c[:-1] <= uniforms * c[-1], axis=0, out=out)


def iwe(game: Game, explored, realized):
    """Importance-weighted estimator of all payoff vectors.

    Player i's estimate puts u_i(realized) / P(a_i) on the realized action
    and 0 elsewhere, which is conditionally unbiased for v_i(explored
    profile) when actions are drawn independently from it. For R profiles
    `explored` holds (R, m_i) rows and `realized` is (R, N).
    """
    rows = np.ndim(explored[0]) == 2
    x, layout = _flat(np.atleast_2d(x) for x in check_profile(game, explored, rows))
    acts = np.atleast_2d(_indices(realized))
    if acts.shape != (len(x), game.n_players):
        raise InputError("one realized action per player is required")
    bad = (acts < 0) | (acts >= game.n_actions)
    if bad.any():
        r, i = np.argwhere(bad)[0]
        raise InputError(f"realized action {acts[r, i]} out of range for player {i}")
    bad = x[np.arange(len(x))[:, None], layout.offsets + acts] <= 0.0
    if bad.any():
        r, i = np.argwhere(bad)[0]
        raise InputError(
            f"realized action {acts[r, i]} has zero sampling probability for player {i}"
        )
    out = layout.split(_iwe_unchecked(game, x, acts))
    return out if rows else [v[0] for v in out]


def _iwe_entries(game: Game, xhat, flat, acts):
    """The values of the estimate's N nonzero entries per row of realized
    actions `acts` (R, N): player i's u_i(acts) / xhat[flat_i], where
    `flat` (R, N) holds each realized action's flat position in the
    contiguous (R, D) explored rows `xhat`, and so in scores laid out like
    them. One gather at `flat` reads every realized action's explored
    probability, and one every player's payoff at each row's realized
    profile."""
    table, strides = game._payoff_table, _layout(game.n_actions).strides
    return table.take(acts @ strides, axis=0) / xhat.take(flat)


def _iwe_unchecked(game: Game, xhat, acts) -> np.ndarray:
    """The estimate on contiguous flat (R, D) explored rows, as the entries
    of :func:`_iwe_entries` written into zeros. Every realized action
    must have positive probability."""
    offsets = _layout(game.n_actions).offsets
    flat = np.arange(0, xhat.size, xhat.shape[1])[:, None] + offsets + acts
    out = np.zeros(xhat.shape)
    out.put(flat, _iwe_entries(game, xhat, flat, acts))
    return out


# ---------------------------------------------------------------------------
# the lockstep engine


def _initial_scores(game: Game, y0) -> np.ndarray:
    """One start's scores as a flat (D,) vector."""
    if y0 is None:
        return np.zeros(_layout(game.n_actions).dim)
    if len(y0) != game.n_players:
        raise InputError("initial scores need one vector per player")
    for i, v in enumerate(y0):
        if np.shape(v) != (game.n_actions[i],):
            raise InputError(
                f"initial scores for player {i} have shape {np.shape(v)}, "
                f"expected ({game.n_actions[i]},)"
            )
    flat, _ = _flat(y0)
    if not np.isfinite(flat).all():
        raise InputError("initial scores contain NaN or Inf")
    return flat


def _gain(feedback, game, v=None, v_prev=None, xhat=None, acts=None):
    """vhat on flat rows, R runs at one step or B steps of one run, for the
    kinds whose gain depends only on the play: `v` = v(x_n) under full
    feedback, 2 v(x_n) - v(x_{n-1}) under optimistic feedback, and under
    bandit feedback the dense estimate on the explored rows `xhat` and
    realized `acts` (a bandit step adds only the estimate's entries into
    the scores)."""
    if isinstance(feedback, Bandit):
        return _iwe_unchecked(game, xhat, acts)
    if isinstance(feedback, Optimistic):
        return 2.0 * v - v_prev
    return v


@dataclass(frozen=True)
class _Derivation:
    """Gives one :func:`run_many` trajectory every field past its play,
    in the game and under the feedback kind the trajectory holds.

    `deltas` holds the exploration weight of every step (bandit feedback
    only), `vhat` the run's stored gains (mirror-prox and clairvoyant
    feedback only) and `unsampled` the batch's one read-only (T, N) block
    of -1 (runs that never sample only); the last two are returned as they
    are. A call returns the one field it is asked for, so a read caches
    only that field. Scores are summed from vhat. A bandit run's realized
    actions replay its draws: the run's rows of :func:`uniform_table`
    against the recorded rows explored with `deltas`, one :func:`_draw`
    per block of ``_DERIVE_ROWS`` steps. That is the step's own explore,
    running sums and count, and a running sum adds in the same order
    whatever the layout, so the actions are the ones the step drew. The
    other fields take one pass over the recorded rows, in blocks of at
    most ``_DERIVE_ROWS`` steps. A block evaluates v(x) once where the
    field reads it (gaps, bias, and the vhat and noise of full and
    optimistic runs), and under optimistic feedback carries its last row
    into the next as v(x_{n-1}) (x_0 := x_1 at step 1):

    - gaps: the (T, N) regret summands max_a v_i(x)_a - <v_i(x), x_i>,
      one max and one sum per layout block, over (rows, players, m) views;
    - vhat: from :func:`_gain` unless stored;
    - noise: vhat less its mean, v(xhat) under bandit feedback and vhat
      otherwise;
    - bias: that mean less v(x), except that optimistic feedback defines
      it as v(x_n) - v(x_{n-1}).
    """

    deltas: np.ndarray | None
    vhat: np.ndarray | None
    unsampled: np.ndarray | None

    def __call__(self, traj: Trajectory, name: str) -> np.ndarray:
        if name == "vhat" and self.vhat is not None:
            return self.vhat
        if name == "realized" and self.unsampled is not None:
            return self.unsampled
        if name == "scores":
            # y_{k+1} = y_k + gamma_k * vhat_k, summed in the loop's order
            scores = np.empty(traj.x.shape)
            scores[0] = traj.y0
            np.multiply(traj.gamma[:-1, None], traj.vhat[:-1], out=scores[1:])
            return np.cumsum(scores, axis=0, out=scores)
        game, feedback = traj.game, traj.feedback
        layout = _layout(game.n_actions)
        if name == "realized":
            u = uniform_table(traj.seed, traj.n_players, traj.horizon)
            out = np.empty(u.shape, dtype=np.int64)
            for a in range(0, traj.horizon, _DERIVE_ROWS):
                rows = slice(a, a + _DERIVE_ROWS)
                xhat = _explored_unchecked(traj.x[rows], self.deltas[rows, None], layout.m_col)
                _draw(layout, xhat, u[rows], out[rows])
            return out
        bandit, optimistic = isinstance(feedback, Bandit), isinstance(feedback, Optimistic)
        # v(x) where the field reads it: a bandit or stored vhat, and so
        # its noise, never does
        with_v = name in ("gaps", "bias") or not (bandit or self.vhat is not None)
        out = np.empty((traj.horizon, traj.n_players) if name == "gaps" else traj.x.shape)
        v_prev = v_last = None
        for a in range(0, traj.horizon, _DERIVE_ROWS):
            rows = slice(a, a + _DERIVE_ROWS)
            x = traj.x[rows]
            v = _field(game, x) if with_v else None
            if name == "gaps":
                for players, cols, m in layout.blocks:
                    g = v[:, cols].reshape(len(x), -1, m)
                    xb = x[:, cols].reshape(len(x), -1, m)
                    out[rows, players] = g.max(axis=2) - (g * xb).sum(axis=2)
                continue
            if optimistic:
                v_prev = np.concatenate([v[:1] if v_last is None else v_last, v[:-1]])
                v_last = v[-1:]
            # the explored profile, as the step drew from it
            xhat = (_explored_unchecked(x, self.deltas[rows, None], layout.m_col)
                    if bandit else None)
            vhat = self.vhat[rows] if self.vhat is not None else _gain(
                feedback, game, v, v_prev, xhat, traj.realized[rows])
            if name == "vhat":
                out[rows] = vhat
            elif name == "bias" and optimistic:
                out[rows] = v - v_prev
            else:
                mean = _field(game, xhat) if bandit else vhat
                out[rows] = vhat - mean if name == "noise" else mean - v
        return out


def _clairvoyant_point(scores, x, seeds, game, kernel, gamma):
    """Damped Picard iteration per row from the current play `x`; a row
    stops once its own residual is at most `_PICARD_TOL`, so it takes the
    same iterates as it would alone. A row still open after
    `_PICARD_ITERS` iterations raises NumericError."""
    layout = _layout(game.n_actions)
    x = x.copy()
    active = np.arange(len(seeds))
    for _ in range(_PICARD_ITERS):
        xa = x[active]
        target = _choice_blocks(kernel, scores[active] + gamma * _field(game, xa),
                                layout.blocks)
        # damped Picard update, relaxation 1/2
        x_new = 0.5 * xa + 0.5 * target
        resid = np.max(
            [np.abs(a - b).sum(axis=1)
             for a, b in zip(layout.split(x_new), layout.split(xa))],
            axis=0,
        )
        x[active] = x_new
        still = ~(resid <= _PICARD_TOL)
        if not still.any():
            return x
        active = active[still]
        resid = resid[still]
    run_index = int(active[0])
    raise NumericError(
        f"clairvoyant fixed point stalled at residual {resid[0]:.3e} "
        f"after {_PICARD_ITERS} iterations in run {run_index} "
        f"(seed {seeds[run_index]})"
    )


def run_many(
    game: Game,
    kernel: Kernel,
    feedback: FeedbackKind,
    step_schedule: Schedule,
    horizon: int,
    starts,
) -> list[Trajectory]:
    """Run the template from every (seed, y0) start at once, in lockstep.

    All runs advance together as one array program on flat (R, D) scores,
    with one numpy call per block of consecutive equal-size players.
    Trajectory r is bit for bit what ``run(..., y0=y0_r, seed=seed_r)``
    records: every row gets the same arithmetic whatever other rows share
    the batch, and each run draws from its own (seed, player) Philox
    streams.

    Each step computes only what the next scores depend on. It stores x, and
    vhat under mirror-prox and clairvoyant feedback. Full and optimistic
    steps take vhat from :func:`_gain`. Bandit runs never evaluate v(x). A
    step explores the play into one (R, D) buffer laid out like the scores
    and draws each block's actions, into one (R, N) row, from an
    action-major (m, R, n_b) view of its columns, summing into a contiguous
    (m, R, n_b) buffer; buffers and views are built once per call. The
    realized actions' flat positions index the scores and the explored
    buffer alike, so one gather reads their probabilities, and the step adds
    the N values of :func:`_iwe_entries` per row into those scores. The runs
    draw ``_DERIVE_ROWS`` steps of each (seed, player) stream at a time.
    Each trajectory holds the very `game`, `kernel` and `feedback` objects
    passed here, then y0, n, gamma, tau and x, and reads every other field,
    on first read, from its own :class:`_Derivation`. That object owns the
    run's stored vhat and, for runs that never sample, the batch's one
    read-only (T, N) block of -1 as their realized actions; it derives the
    scores, a bandit run's realized actions, the other vhat, bias, noise
    and regret summands from the recorded rows, in the game and under the
    feedback kind the trajectory holds. The runs of a batch
    share one read-only array each for n, gamma and tau.
    Scores that overflow (under bandit feedback only the N a step moved can)
    raise :class:`InputError` naming the step, the run and its seed; a
    record too large to allocate raises :class:`ResourceLimitError`.
    """
    if not _is_count(horizon):
        raise InputError("horizon must be a positive integer")
    if not isinstance(feedback, FeedbackKind):
        raise InputError(f"unknown feedback kind {feedback!r}")
    starts = list(starts)
    if not starts:
        raise InputError("at least one start is required")
    seeds = tuple(int(seed) for seed, _ in starts)
    y0s = [_initial_scores(game, y0) for _, y0 in starts]
    layout = _layout(game.n_actions)
    R, N, D, T = len(seeds), game.n_players, layout.dim, int(horizon)
    bandit = isinstance(feedback, Bandit)
    recorded = isinstance(feedback, _RECORDED)
    try:
        if bandit:
            # each player's next _DERIVE_ROWS draws, per run
            draws = np.empty((R, N, min(T, _DERIVE_ROWS)))
            deltas = np.empty(T)
        else:
            deltas = None
        out_gamma = np.empty(T)
        out_tau = np.empty(T)
        out_x = np.empty((R, T, D))
        out_vhat = np.empty((R, T, D)) if recorded else None
    except (ValueError, MemoryError) as exc:
        raise ResourceLimitError(
            f"cannot allocate the record of R = {R} runs, T = {T} steps and "
            f"D = {D} coordinates: {exc}"
        ) from None

    if bandit:
        streams = [[player_stream(s, i) for i in range(N)] for s in seeds]
        base = np.arange(0, R * D, D)[:, None] + layout.offsets  # each player's action 0
        acts = np.empty((R, N), dtype=np.int64)  # the step's realized actions
        # the explored play, laid out like the scores; per block, the
        # action-major (m, R, n_b) view of its columns and contiguous
        # running sums
        xh = np.empty((R, D))
        blocks = [(players, xh[:, cols].reshape(R, -1, m).transpose(2, 0, 1),
                   np.empty((m, R, players.stop - players.start)))
                  for players, cols, m in layout.blocks]
    scores = np.stack(y0s)
    x = _choice_blocks(kernel, scores, layout.blocks)
    v = None  # v(x) of the step before (full and optimistic feedback)
    tau = 0.0
    comp = 0.0  # Kahan correction so tau stays exact over long runs
    for k in range(T):
        gamma = step_schedule.value(k + 1)
        out_x[:, k] = x
        if bandit:
            j = k % draws.shape[2]
            if j == 0:
                # rows k .. k + b - 1 of each run's uniform_table
                b = min(draws.shape[2], T - k)
                for r, row in enumerate(streams):
                    for i, stream in enumerate(row):
                        stream.random(out=draws[r, i, :b])
            delta = deltas[k] = feedback.exploration.value(k + 1)
            u = draws[:, :, j]
            _explored_unchecked(x, delta, layout.m_col, xh)
            for players, xb, c in blocks:
                _sample_actions_unchecked(xb, u[:, players], acts[:, players], c)
            flat = base + acts
            # the estimate moves only these N scores per row
            touched = scores.take(flat)
            touched += gamma * _iwe_entries(game, xh, flat, acts)
            scores.put(flat, touched)
        else:
            if isinstance(feedback, (Full, Optimistic)):
                # the previous play is x_1 itself at step 1, so the first step is plain
                v_prev, v = v, _field(game, x)
                vhat = _gain(feedback, game, v, v if v_prev is None else v_prev)
            elif isinstance(feedback, MirrorProx):
                x_half = _choice_blocks(kernel, scores + gamma * _field(game, x), layout.blocks)
                vhat = _field(game, x_half, out_vhat[:, k])
            else:
                x_plus = _clairvoyant_point(scores, x, seeds, game, kernel, gamma)
                vhat = _field(game, x_plus, out_vhat[:, k])
            scores += gamma * vhat
            touched = scores  # every score moved
        if not np.isfinite(touched).all():
            r = int(np.flatnonzero(~np.isfinite(touched).all(axis=1))[0])
            raise InputError(
                f"scores overflowed to NaN or Inf at step {k + 1} "
                f"in run {r} (seed {seeds[r]})"
            )
        x = _choice_blocks(kernel, scores, layout.blocks)
        yv = gamma - comp
        t = tau + yv
        comp = (t - tau) - yv
        tau = t
        out_gamma[k] = gamma
        out_tau[k] = tau

    steps = np.arange(1, T + 1, dtype=np.int64)
    for shared in (steps, out_gamma, out_tau):
        shared.flags.writeable = False
    # runs that never sample share one read-only block of -1; bandit runs
    # replay their draws on read
    unsampled = None if bandit else np.broadcast_to(np.int64(-1), (T, N))
    return [
        Trajectory(
            game=game,
            kernel=kernel,
            feedback=feedback,
            seed=seeds[r],
            y0=y0s[r],
            n=steps,
            gamma=out_gamma,
            tau=out_tau,
            x=out_x[r],
            derive=_Derivation(deltas, None if out_vhat is None else out_vhat[r],
                               unsampled),
        )
        for r in range(R)
    ]


def run(
    game: Game,
    kernel: Kernel,
    feedback: FeedbackKind,
    step_schedule: Schedule,
    horizon: int,
    y0=None,
    seed: int = 0,
) -> Trajectory:
    """Run the template for `horizon` steps and return its record."""
    return run_many(game, kernel, feedback, step_schedule, horizon, [(seed, y0)])[0]


def lipschitz_estimate(game: Game) -> float:
    """Modulus L with ||v(x) - v(x')||_inf <= L * sum_i ||x_i - x'_i||_1.

    Hybrid argument over one opponent coordinate at a time: each swap moves
    the payoff by at most half the oscillation of u_i along that axis, so
    the largest half-oscillation over (player, own action, opponent axis)
    is a valid modulus. Never exceeds the global payoff bound.
    """
    L = 0.0
    for i in range(game.n_players):
        u = game.payoffs[i]
        for j in range(game.n_players):
            if j == i:
                continue
            osc = u.max(axis=j) - u.min(axis=j)
            L = max(L, 0.5 * float(osc.max()))
    return L
