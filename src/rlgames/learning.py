"""Regularized-learning drivers.

Every algorithm here is one template: accumulate a surrogate gain vector
into scores and map scores to strategies,

    y_{n+1} = y_n + gamma_n * vhat_n,      x_{n+1} = Q(y_{n+1}),

with the feedback kind deciding how vhat_n is produced from the current
play. Each vhat splits as vhat = v(x_n) + bias + noise, and both parts are
recorded so tests can check the advertised envelopes directly.

One engine steps R runs in lockstep: each player's scores and strategies
are (R, m_i) arrays, and every operation treats a row the same whatever
other rows share the batch, so run r of a batch is bit for bit the single
run from the same seed and start. :func:`run` is the one-run case.

The step loop computes and records only what the recursion needs: x,
vhat and, under bandit feedback, the realized actions. Scores, bias,
noise and the regret summands are derived from the recorded rows when a
trajectory first reads them, with the same arithmetic in the same order
the step would have used, so the record is the same bits either way and
a caller that never reads them never pays for them.

Randomness (bandit sampling only) comes from the counter-based Philox
generator, keyed per (run seed, player): the draw used by player i at step
n is the n-th output of that player's stream (row n - 1 of
:func:`uniform_table`), so results never depend on execution interleaving
and batches stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .game import Game, _payoff_vectors_unchecked, check_profile
from .regularizers import Kernel, choice_map_profile
from .trajectory import Trajectory

_INIT_STREAM = 0xFFFFFFFF  # reserved substream for initial-score perturbation
_DERIVE_ROWS = 1024  # steps per block when deriving bias, noise and gaps


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
        if self.exponent == 0.0:
            return self.base
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
    x+ = Q(y + gamma v(x+))."""

    tol: float = 1e-10
    max_iters: int = 1000
    label = "clairvoyant"

    def __post_init__(self):
        if not np.isfinite(self.tol) or self.tol <= 0:
            raise InputError("clairvoyant tolerance must be positive")
        if self.max_iters < 1:
            raise InputError("clairvoyant iteration cap must be at least 1")


@dataclass(frozen=True)
class Bandit:
    """Payoff-only feedback with importance weighting over an explored play."""

    exploration: Schedule
    label = "bandit"

    def __post_init__(self):
        if self.exploration.base > 1.0:
            raise InputError("exploration schedule must stay within (0, 1]")


FeedbackKind = Full | Optimistic | MirrorProx | Clairvoyant | Bandit


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
    """Stable per-run seed for batch execution."""
    ss = np.random.SeedSequence([int(master_seed), int(run_index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def perturbation_stream(seed: int) -> np.random.Generator:
    """Substream reserved for initial-score perturbations."""
    return player_stream(seed, _INIT_STREAM)


# ---------------------------------------------------------------------------
# bandit building blocks
#
# Each block takes one profile, or R profiles at once as per-player (R, m_i)
# rows, and validates what it is given. The lockstep engine below calls the
# unchecked cores on per-player (R, m_i) rows it built itself.


def explored_profile(profile, delta) -> list[np.ndarray]:
    """Mix each strategy with the uniform one: (1-delta) x + delta/m.

    `delta` is one weight, or an (R, 1) column of weights, one per row.
    """
    if not np.all((0.0 < delta) & (delta <= 1.0)):
        raise InputError("exploration weight must lie in (0, 1]")
    return _explored_unchecked([np.asarray(x, dtype=float) for x in profile], delta)


def _explored_unchecked(xs, delta) -> list[np.ndarray]:
    return [(1.0 - delta) * x + delta / x.shape[-1] for x in xs]


def sample_actions(explored, uniforms):
    """Inverse-CDF draws, one uniform per player.

    For R profiles, `uniforms` is an (R, N) array and so is the result;
    for one profile the actions come back as a list of ints.
    """
    u = np.asarray(uniforms, dtype=float)
    rows = np.atleast_2d(u)
    if len(explored) != rows.shape[1]:
        raise InputError("one uniform per player is required")
    xs = [np.atleast_2d(x) for x in explored]
    if any(len(x) != len(rows) for x in xs):
        raise InputError("explored rows and uniform rows disagree in number")
    actions = _sample_actions_unchecked(xs, rows)
    return actions if u.ndim == 2 else actions[0].tolist()


def _sample_actions_unchecked(xs, uniforms) -> np.ndarray:
    actions = np.empty(uniforms.shape, dtype=np.int64)
    for i, x in enumerate(xs):
        c = np.cumsum(x, axis=1)
        # counting c <= u * total is searchsorted(c, u * total, side="right")
        count = (c <= (uniforms[:, i] * c[:, -1])[:, None]).sum(axis=1)
        actions[:, i] = np.minimum(count, c.shape[1] - 1)
    return actions


def iwe(game: Game, explored, realized):
    """Importance-weighted estimator of all payoff vectors.

    Player i's estimate puts u_i(realized) / P(a_i) on the realized action
    and 0 elsewhere, which is conditionally unbiased for v_i(explored
    profile) when actions are drawn independently from it. For R profiles
    `explored` holds (R, m_i) rows and `realized` is (R, N).
    """
    rows = np.ndim(explored[0]) == 2
    xs = [np.atleast_2d(x) for x in check_profile(game, explored, rows)]
    acts = np.atleast_2d(np.asarray(realized)).astype(np.int64)
    if acts.shape != (len(xs[0]), game.n_players):
        raise InputError("one realized action per player is required")
    bad = (acts < 0) | (acts >= game.n_actions)
    if bad.any():
        r, i = np.argwhere(bad)[0]
        raise InputError(f"realized action {acts[r, i]} out of range for player {i}")
    every = np.arange(len(acts))
    for i, x in enumerate(xs):
        a = acts[:, i]
        zero = x[every, a] <= 0.0
        if zero.any():
            raise InputError(
                f"realized action {a[zero][0]} has zero sampling "
                f"probability for player {i}"
            )
    out = _iwe_unchecked(game, xs, acts)
    return out if rows else [v[0] for v in out]


def _iwe_unchecked(game: Game, xs, acts) -> list[np.ndarray]:
    """The estimate on rows; every realized action must have positive
    probability, as it does under any explored profile."""
    every = np.arange(len(acts))
    profile = tuple(acts.T)
    out = []
    for i, x in enumerate(xs):
        a = acts[:, i]
        v = np.zeros(x.shape)
        v[every, a] = game.payoffs[i][profile] / x[every, a]
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# the lockstep engine


@dataclass
class _Runs:
    """R runs of one template stepped together: per-player (R, m_i) rows."""

    seeds: tuple[int, ...]
    scores: list[np.ndarray]
    current: list[np.ndarray]
    previous: list[np.ndarray]
    step_index: int = 1


def _initial_scores(game: Game, y0) -> list[np.ndarray]:
    if y0 is None:
        return [np.zeros(m) for m in game.n_actions]
    if len(y0) != game.n_players:
        raise InputError("initial scores need one vector per player")
    scores = []
    for i, v in enumerate(y0):
        v = np.asarray(v, dtype=float).copy()
        if v.shape != (game.n_actions[i],):
            raise InputError(
                f"initial scores for player {i} have shape {v.shape}, "
                f"expected ({game.n_actions[i]},)"
            )
        if not np.all(np.isfinite(v)):
            raise InputError("initial scores contain NaN or Inf")
        scores.append(v)
    return scores


def _advance(runs: _Runs, game, kernel, feedback, gamma, delta, uniforms):
    """Advance every run by one template step of size `gamma`.

    Computes only what the next scores depend on. `delta` and `uniforms`
    (the (R, N) table row of draws for this step) feed bandit sampling and
    are None for the other feedback kinds. Returns the per-player (R, m_i)
    rows of vhat and the (R, N) realized actions (None when nothing was
    sampled); the trajectory derives the rest of the record when it is
    read (:class:`_Derivation`).
    """
    x = runs.current
    realized = None
    if isinstance(feedback, Full):
        vhat = _payoff_vectors_unchecked(game, x)
    elif isinstance(feedback, Optimistic):
        # previous is x_1 at n = 1, so the first step is plain
        v_prev = _payoff_vectors_unchecked(game, runs.previous)
        v = _payoff_vectors_unchecked(game, x)
        vhat = [2.0 * a - b for a, b in zip(v, v_prev)]
    elif isinstance(feedback, MirrorProx):
        v = _payoff_vectors_unchecked(game, x)
        y_half = [y + gamma * g for y, g in zip(runs.scores, v)]
        vhat = _payoff_vectors_unchecked(game, choice_map_profile(kernel, y_half))
    elif isinstance(feedback, Clairvoyant):
        x_fix = _clairvoyant_point(runs, game, kernel, feedback, gamma)
        vhat = _payoff_vectors_unchecked(game, x_fix)
    elif isinstance(feedback, Bandit):
        xhat = _explored_unchecked(x, delta)
        realized = _sample_actions_unchecked(xhat, uniforms)
        vhat = _iwe_unchecked(game, xhat, realized)
    else:
        raise InputError(f"unknown feedback kind {feedback!r}")

    runs.scores = [y + gamma * g for y, g in zip(runs.scores, vhat)]
    runs.previous = x
    runs.current = choice_map_profile(kernel, runs.scores)
    runs.step_index += 1
    return vhat, realized


def _summands(game, feedback, x, vhat, deltas, v_before):
    """Bias, noise and regret summands of consecutive recorded steps.

    `x` and `vhat` hold per-player (B, m_i) rows of one run, `deltas` the
    exploration weights of those steps (bandit feedback only), and
    `v_before` the per-player (1, m_i) field v(x) of the step before the
    first row (optimistic feedback only; None at step 1, where the
    previous profile is x_1 itself). Every formula acts row by row, so the
    rows match what the step loop would have computed in place.

    Returns the per-player rows of v(x), bias and noise (None where the
    feedback kind makes them zero) and the (B, N) regret summands.
    """
    # full feedback uses v(x) itself as its gain vector
    v = vhat if isinstance(feedback, Full) else _payoff_vectors_unchecked(game, x)
    gaps = np.stack(
        [g.max(axis=1) - (g * xi).sum(axis=1) for g, xi in zip(v, x)], axis=1
    )
    bias = noise = None
    if isinstance(feedback, Optimistic):
        first = v if v_before is None else v_before
        bias = [g - np.concatenate([f[:1], g[:-1]]) for g, f in zip(v, first)]
    elif isinstance(feedback, (MirrorProx, Clairvoyant)):
        bias = [a - b for a, b in zip(vhat, v)]
    elif isinstance(feedback, Bandit):
        # the explored profile, as the step drew it
        v_mean = _payoff_vectors_unchecked(game, _explored_unchecked(x, deltas[:, None]))
        bias = [a - b for a, b in zip(v_mean, v)]
        noise = [a - b for a, b in zip(vhat, v_mean)]
    return v, bias, noise, gaps


@dataclass(frozen=True)
class _Derivation:
    """Derives the fields the step loop does not store, for every
    trajectory of one :func:`run_many` call.

    `deltas` holds the exploration weight of every step (bandit feedback
    only). Scores are derived on their own; bias, noise and gaps come
    from one pass of :func:`_summands`, in blocks of at most
    ``_DERIVE_ROWS`` steps.
    """

    game: Game
    feedback: FeedbackKind
    deltas: np.ndarray | None

    def __call__(self, traj: Trajectory, name: str) -> dict[str, np.ndarray]:
        if name == "scores":
            # y_{k+1} = y_k + gamma_k * vhat_k, summed in the loop's order
            scores = np.empty(traj.vhat.shape)
            scores[0] = traj.y0
            np.multiply(traj.gamma[:-1, None], traj.vhat[:-1], out=scores[1:])
            return {"scores": np.cumsum(scores, axis=0, out=scores)}
        cols = [traj.player_slice(i) for i in range(traj.n_players)]
        bias = np.zeros(traj.vhat.shape)
        noise = np.zeros(traj.vhat.shape)
        gaps = np.empty((traj.horizon, traj.n_players))
        v_last = None
        for a in range(0, traj.horizon, _DERIVE_ROWS):
            rows = slice(a, a + _DERIVE_ROWS)
            v, b, nz, gaps[rows] = _summands(
                self.game, self.feedback,
                [traj.x[rows, c] for c in cols],
                [traj.vhat[rows, c] for c in cols],
                None if self.deltas is None else self.deltas[rows],
                v_last,
            )
            if b is not None:
                bias[rows] = np.concatenate(b, axis=1)
            if nz is not None:
                noise[rows] = np.concatenate(nz, axis=1)
            v_last = [g[-1:] for g in v]
        return {"bias": bias, "noise": noise, "gaps": gaps}


def _clairvoyant_point(runs: _Runs, game, kernel, feedback, gamma):
    """Damped Picard iteration per row; a row stops once its own residual
    closes, so it takes the same iterates as it would alone."""
    x = [xi.copy() for xi in runs.current]
    active = np.arange(len(runs.seeds))
    for _ in range(feedback.max_iters):
        xa = [xi[active] for xi in x]
        v = _payoff_vectors_unchecked(game, xa)
        target = choice_map_profile(
            kernel, [y[active] + gamma * g for y, g in zip(runs.scores, v)]
        )
        # damped Picard update, relaxation 1/2
        x_new = [0.5 * a + 0.5 * b for a, b in zip(xa, target)]
        resid = np.max([np.abs(a - b).sum(axis=1) for a, b in zip(x_new, xa)], axis=0)
        for xi, xn in zip(x, x_new):
            xi[active] = xn
        still = ~(resid <= feedback.tol)
        if not still.any():
            return x
        active = active[still]
        resid = resid[still]
    run_index = int(active[0])
    raise NumericError(
        f"clairvoyant fixed point stalled at residual {resid[0]:.3e} "
        f"after {feedback.max_iters} iterations in run {run_index} "
        f"(seed {runs.seeds[run_index]})"
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

    All runs advance together as one array program. Trajectory r is bit
    for bit what ``run(..., y0=y0_r, seed=seed_r)`` records: every row gets
    the same arithmetic whatever other rows share the batch, and each run
    draws from its own (seed, player) Philox streams.

    The step loop stores x, vhat and the realized actions; each
    trajectory derives its scores, bias, noise and regret summands from
    those rows when it first reads them (see :class:`_Derivation`). The
    runs of a batch share one read-only array each for n, gamma and tau,
    and runs that never sample share one read-only block of -1 for their
    realized actions.
    """
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise InputError("horizon must be a positive integer")
    starts = list(starts)
    if not starts:
        raise InputError("at least one start is required")
    seeds = tuple(int(seed) for seed, _ in starts)
    y0s = [_initial_scores(game, y0) for _, y0 in starts]
    scores = [np.stack(col) for col in zip(*y0s)]
    current = choice_map_profile(kernel, scores)
    runs = _Runs(seeds=seeds, scores=scores, current=current, previous=current)
    R = len(seeds)
    N = game.n_players
    D = sum(game.n_actions)
    T = int(horizon)

    uniforms = deltas = None
    if isinstance(feedback, Bandit):
        uniforms = np.stack([uniform_table(s, N, T) for s in seeds], axis=1)
        deltas = np.empty(T)

    out_gamma = np.empty(T)
    out_tau = np.empty(T)
    out_x = np.empty((R, T, D))
    out_vhat = np.empty((R, T, D))
    out_real = None if uniforms is None else np.empty((R, T, N), dtype=np.int64)

    tau = 0.0
    comp = 0.0  # Kahan correction so tau stays exact over long runs
    for k in range(T):
        gamma = step_schedule.value(k + 1)
        delta = draws = None
        if deltas is not None:
            delta = deltas[k] = feedback.exploration.value(k + 1)
            draws = uniforms[k]
        out_x[:, k] = np.concatenate(runs.current, axis=1)
        vhat, realized = _advance(runs, game, kernel, feedback, gamma, delta, draws)
        yv = gamma - comp
        t = tau + yv
        comp = (t - tau) - yv
        tau = t
        out_gamma[k] = gamma
        out_tau[k] = tau
        out_vhat[:, k] = np.concatenate(vhat, axis=1)
        if realized is not None:
            out_real[:, k] = realized

    steps = np.arange(1, T + 1, dtype=np.int64)
    for shared in (steps, out_gamma, out_tau):
        shared.flags.writeable = False
    if out_real is None:
        # runs that never sample share one read-only block of -1
        out_real = np.broadcast_to(np.int64(-1), (R, T, N))
    derive = _Derivation(game, feedback, deltas)
    return [
        Trajectory(
            n_actions=game.n_actions,
            kernel_name=kernel.name,
            feedback_label=feedback.label,
            seed=seeds[r],
            y0=np.concatenate(y0s[r]),
            n=steps,
            gamma=out_gamma,
            tau=out_tau,
            x=out_x[r],
            vhat=out_vhat[r],
            realized=out_real[r],
            derive=derive,
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
