"""Minimize the max of affine pieces over the probability simplex.

On the simplex, c_k - <a_k, z> = (M z)_k with M[k, j] = c_k - a_k[j], so the
problem  min_{z in simplex} max_k (c_k - <a_k, z>)  is the value of the
matrix game M, with z the minimizing player's mixture. Its entries are
mapped affinely onto [1, 2], M' = (M - min M) / span + 1, which keeps the
game's value v' positive and gives the pivot tolerances the same meaning at
any payoff scale. The textbook LP of a positive game (Dantzig, 1951),

    max sum(w)  subject to  M' w <= 1,  w >= 0,

has the slack basis as a feasible start, so one simplex phase solves it
with no artificial variables; its rows bound sum(w) by 1, so it is never
unbounded. Then v' = 1 / sum(w) and z = w / sum(w). Pivots use Bland's rule
(lowest eligible index in, lowest basic index out on ratio ties), which
rules out cycling; a generous pivot cap guards against float pathologies
anyway. Problem sizes here are tiny, so a dense tableau is the simplest
trustworthy option.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, SolverError

_ENTER_EPS = 1e-10
_PIVOT_EPS = 1e-12
_MAX_PIVOTS = 10_000


def solve_minimax_lp(pieces, dim: int) -> tuple[float, np.ndarray]:
    """Solve min_z max_k (c_k - <a_k, z>) over the `dim`-point simplex.

    `pieces` is a sequence of (c_k, a_k) with scalar offset c_k and slope
    vector a_k of length `dim`. Returns (optimal value, a minimizer z).
    """
    if dim < 1:
        raise InputError("simplex dimension must be at least 1")
    offs = []
    slopes = []
    for k, (c, a) in enumerate(pieces):
        a = np.asarray(a, dtype=float)
        if a.shape != (dim,):
            raise InputError(f"piece {k} has slope shape {a.shape}, expected ({dim},)")
        if not (np.isfinite(c) and np.all(np.isfinite(a))):
            raise InputError(f"piece {k} contains NaN or Inf")
        offs.append(float(c))
        slopes.append(a)
    if not offs:
        raise InputError("at least one affine piece is required")

    K = len(offs)
    game = np.array(offs)[:, None] - np.array(slopes)
    low = game.min()
    span = game.max() - low or 1.0
    # rows: the K constraints, then the cost row of -sum(w);
    # columns: w (dim), slacks (K), right-hand side
    tableau = np.zeros((K + 1, dim + K + 1))
    tableau[:K, :dim] = (game - low) / span + 1.0
    tableau[:K, dim:-1] = np.eye(K)
    tableau[:K, -1] = 1.0
    tableau[K, :dim] = -1.0
    basis = list(range(dim, dim + K))
    context = f"{K} pieces, dim {dim}"
    for pivots in range(_MAX_PIVOTS + 1):
        candidates = np.flatnonzero(tableau[K, :-1] < -_ENTER_EPS)
        if candidates.size == 0:
            break
        if pivots == _MAX_PIVOTS:
            raise SolverError(f"pivot limit exceeded after {pivots} pivots ({context})")
        enter = int(candidates[0])  # Bland: lowest index in
        col = tableau[:K, enter]
        rows = np.flatnonzero(col > _PIVOT_EPS)
        if rows.size == 0:
            raise SolverError(f"LP is unbounded after {pivots} pivots ({context})")
        ratios = tableau[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + _PIVOT_EPS]
        leave = int(min(tied, key=basis.__getitem__))  # Bland: lowest basic out
        row = tableau[leave] / tableau[leave, enter]
        tableau -= np.outer(tableau[:, enter], row)
        tableau[leave] = row
        basis[leave] = enter

    x = np.zeros(dim + K)
    x[basis] = tableau[:K, -1]
    w = np.clip(x[:dim], 0.0, None)  # clean tiny negatives from float pivoting
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise SolverError(f"simplex returned an unusable point after {pivots} pivots ({context})")
    return float((1.0 / total - 1.0) * span + low), w / total
