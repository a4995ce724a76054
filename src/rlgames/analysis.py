"""Post-run diagnostics: regret, energies, limit sets, convergence rates.

Everything here consumes a finished :class:`Trajectory` (or raw play
distributions) and never mutates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, InputError
from .faces import Face, DeviationVector, ResilienceReport, _resilience_unchecked
from .game import (
    Game,
    _correlated_payoffs,
    _flat,
    _layout,
    _payoff_vectors_unchecked,
    check_distribution,
    check_player,
    check_profile,
)
from .learning import _DERIVE_ROWS
from .regularizers import Kernel
from .trajectory import Trajectory, face_distances

MIN_FIT_POINTS = 20
# the limit-set protocol: the trailing fraction of a run it keeps, the L1
# radius that dedups it, and the slack of its resilience audit
LIMIT_WINDOW = 0.1
LIMIT_EPSILON = 0.02
RESILIENCE_TOL = 0.02


# ---------------------------------------------------------------------------
# regret


def regret(trajectory: Trajectory, game: Game, mode: str = "expected") -> np.ndarray:
    """Every player's cumulative external regret R_i(n) for n = 1..T, as
    the (T, N) columns of one array.

    expected mode scores the played mixed profiles; realized mode scores
    the sampled pure profiles, as one-hot rows, and requires a run that
    actually sampled. Both take one pass of the payoff operator over the
    scored rows, in blocks; the operator treats each row alone, so the
    blocks give the same bits, and on one-hot rows its entries are the
    pure payoffs exactly.
    """
    if game.n_actions != trajectory.n_actions:
        raise InputError("trajectory and game disagree on action counts")
    layout = _layout(game.n_actions)
    if mode == "expected":
        check_profile(game, layout.split(trajectory.x), rows=True)
        x = trajectory.x
    elif mode == "realized":
        acts = trajectory.realized
        if np.any(acts < 0):
            raise InputError("realized-mode regret needs a run with sampled actions")
        x = np.zeros((trajectory.horizon, layout.dim))
        np.put_along_axis(x, acts + layout.offsets, 1.0, axis=1)
    else:
        raise InputError("regret mode must be 'expected' or 'realized'")
    # v(x) in blocks of rows, so the contraction's temporaries stay small
    v = np.empty(x.shape)
    for a in range(0, len(x), _DERIVE_ROWS):
        _payoff_vectors_unchecked(game, x[a:a + _DERIVE_ROWS], v[a:a + _DERIVE_ROWS])
    out = np.empty((trajectory.horizon, game.n_players))
    for i, cols in enumerate(layout.cols):
        per_action = v[:, cols]
        value = (per_action * x[:, cols]).sum(axis=1)
        out[:, i] = np.cumsum(per_action, axis=0).max(axis=1) - np.cumsum(value)
    return out


def regret_from_distributions(game: Game, player: int, dists) -> np.ndarray:
    """Replay-mode regret against a sequence of correlated distributions."""
    check_player(game, player)
    tensors = [check_distribution(game, d) for d in dists]
    if not tensors:
        raise InputError("at least one play distribution is required")
    per_action, value = _correlated_payoffs(game, player, np.stack(tensors))
    return np.cumsum(per_action, axis=0).max(axis=1) - np.cumsum(value)


# ---------------------------------------------------------------------------
# series extracted from runs


def energy_series(trajectory: Trajectory, deviation: DeviationVector) -> np.ndarray:
    """Score difference (outside minus inside) of one deviation over time."""
    i = deviation.player
    if not 0 <= i < trajectory.n_players:
        raise InputError(f"deviation names player {i}, which the run does not have")
    m = trajectory.n_actions[i]
    if not (0 <= deviation.inside < m and 0 <= deviation.outside < m):
        raise InputError("deviation actions out of range for the run")
    block = trajectory.scores[:, trajectory.player_slice(i)]
    return block[:, deviation.outside] - block[:, deviation.inside]


# ---------------------------------------------------------------------------
# limit sets


def estimate_limit_set(trajectory: Trajectory) -> tuple:
    """The profiles standing in for the run's limit set: a greedy L1 dedup
    (first-seen representatives) of the trailing `LIMIT_WINDOW` fraction
    of the run, at least one row. Each profile is a tuple of per-player
    strategies, and the first is always the window's first row.

    A row is a representative when no earlier representative lies within
    `LIMIT_EPSILON` of it, so the first uncovered row is always the next
    one: each representative marks the rows it covers in one pass.
    """
    T = trajectory.horizon
    start = T - max(1, int(np.ceil(LIMIT_WINDOW * T)))
    window = trajectory.x[start:]
    covered = np.zeros(len(window), dtype=bool)
    reps = []  # window rows of the representatives
    uncovered = [0]
    while len(uncovered):
        k = int(uncovered[0])
        reps.append(k)
        covered |= np.abs(window - window[k]).sum(axis=1) <= LIMIT_EPSILON
        uncovered = np.flatnonzero(~covered)
    return tuple(tuple(trajectory.profile_at(start + k)) for k in reps)


def check_limit_resilience(trajectory: Trajectory, game: Game) -> ResilienceReport:
    """Estimate the limit set of a run and test it for resilience, counting
    gaps down to -`RESILIENCE_TOL` as nonnegative; the report's
    `resilient` holds that verdict, and its gaps and witnesses are the
    per-player LP values and minimizers."""
    if game.n_actions != trajectory.n_actions:
        raise InputError("trajectory and game disagree on action counts")
    points = estimate_limit_set(trajectory)
    # the points are rows of the run's own record, so they skip validation
    x, _ = _flat(np.stack(col) for col in zip(*points))
    return _resilience_unchecked(game, x, RESILIENCE_TOL)


# ---------------------------------------------------------------------------
# rate fits


@dataclass(frozen=True)
class RateFit:
    """Fitted decay law of the distance-to-face series.

    model is 'finite_hit' (non-steep kernels: exact arrival step),
    'geometric' (logit: log dist linear in tau), or 'inverse_square'
    (steep power kernels: log dist linear in log(shift + tau), with slope
    near 1/(rho - 1); the name is tsallis's slope, -2, and labels every
    rho < 1).
    """

    model: str
    hit_index: int | None = None
    slope: float | None = None
    intercept: float | None = None
    shift: float | None = None
    r_squared: float | None = None
    window: tuple[int, int] = (0, 0)
    n_points: int = 0


def fit_rate(
    trajectory: Trajectory,
    face: Face,
    kernel: Kernel,
    atol: float = 1e-12,
    window: float = 0.5,
) -> RateFit:
    """Fit the decay law the kernel predicts for club convergence.

    A non-steep kernel (``kernel.steep`` false: rho > 1, euclidean
    included) reaches the face in finite time, so its fit is the first
    step with dist <= atol. Steep kernels are regressed: logit (rho = 1)
    as geometric, power with rho < 1 as a power law in shift + tau. Its
    rate law phi(c - margin * tau), with phi = (theta')^-1, has log-log
    slope 1/(rho - 1): -2 at tsallis, -2.5 at power:0.6. The regression
    window keeps steps with atol < dist < `window`: the upper cutoff
    drops the transient, the lower one drops the numerical floor.
    Regressions need at least 20 points inside the window, and fit the
    closed-form least-squares line about the window's means.
    """
    if not 0 < atol < window:
        raise InputError("need 0 < atol < window")
    dist = face_distances(trajectory, face)
    tau = trajectory.tau

    if not kernel.steep:
        hits = np.flatnonzero(dist <= atol)
        if hits.size == 0:
            raise DiagnosticError(
                "distance never reached the floor; no finite hitting step"
            )
        k = int(hits[0])
        return RateFit(
            model="finite_hit",
            hit_index=int(trajectory.n[k]),
            window=(int(trajectory.n[0]), int(trajectory.n[k])),
            n_points=k + 1,
        )

    mask = (dist > atol) & (dist < window)
    idx = np.flatnonzero(mask)
    if idx.size < MIN_FIT_POINTS:
        raise DiagnosticError(
            f"only {idx.size} in-window points (need {MIN_FIT_POINTS}); "
            "the run never settled into the fitted regime"
        )
    logd = np.log(dist[idx])
    t = tau[idx]
    first, last = int(trajectory.n[idx[0]]), int(trajectory.n[idx[-1]])

    if kernel.rho == 1.0:
        slope, intercept, r2 = _line_fit(t, logd)
        return RateFit(
            model="geometric",
            slope=slope,
            intercept=intercept,
            r_squared=r2,
            window=(first, last),
            n_points=int(idx.size),
        )

    # steep power kernels: log dist ~ slope * log(shift + tau) + b
    shift, (slope, intercept, r2) = _best_shift(t, logd)
    return RateFit(
        model="inverse_square",
        slope=slope,
        intercept=intercept,
        shift=shift,
        r_squared=r2,
        window=(first, last),
        n_points=int(idx.size),
    )


def _centred(y):
    """Mean of y, its deviations from the mean and their sum of squares."""
    mean = float(y.mean())
    dev = y - mean
    return mean, dev, float(dev @ dev)


def _line_fit(x, y, centred=None):
    """Least-squares line y ~ slope * x + intercept and its r-squared, in
    closed form about the means. `centred` is :func:`_centred` of y, for a
    caller that fits one y against many x; a constant y fits with r^2 = 1."""
    y_mean, dy, ss_tot = _centred(y) if centred is None else centred
    x_mean = float(x.mean())
    dx = x - x_mean
    slope = float(dx @ dy) / float(dx @ dx)
    res = dy - slope * dx
    r2 = 1.0 - float(res @ res) / ss_tot if ss_tot > 0 else 1.0
    return slope, y_mean - slope * x_mean, r2


def _best_shift(t, logd):
    """1-D search over the time offset maximizing the log-log fit quality.

    Every fit is the closed-form line of :func:`_line_fit` against the
    same logd, centred once here; the grid and the golden-section steps
    run one fit at a time."""
    centred = _centred(logd)
    span = float(t.max()) - float(t.min())
    grid = np.concatenate([[1e-9], np.geomspace(1e-3, max(10.0 * span, 1.0), 120)])
    best = None
    best_c = None
    for c in grid:
        shifted = c + t
        if shifted.min() <= 0:
            continue
        fit = _line_fit(np.log(shifted), logd, centred)
        if best is None or fit[2] > best[2]:
            best, best_c = fit, float(c)
    # golden-ratio refinement around the winning grid cell
    lo, hi = best_c / 3.0, best_c * 3.0
    for _ in range(60):
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        f1 = _line_fit(np.log(m1 + t), logd, centred)[2]
        f2 = _line_fit(np.log(m2 + t), logd, centred)[2]
        if f1 < f2:
            lo = m1
        else:
            hi = m2
    c = 0.5 * (lo + hi)
    return c, _line_fit(np.log(c + t), logd, centred)
