"""Minimize the max of affine pieces over the probability simplex.

The problem  min_{z in simplex} max_k (c_k - <a_k, z>)  is rewritten in its
epigraph form and solved with a dense two-phase simplex method. Pivots use
Bland's rule (lowest eligible index in, lowest basic index out on ratio
ties), which rules out cycling; a generous pivot cap guards against float
pathologies anyway. Problem sizes here are tiny, so a dense tableau is the
simplest trustworthy option.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, SolverError

_ENTER_EPS = 1e-10
_PIVOT_EPS = 1e-12
_MAX_PIVOTS = 10_000
_FEASIBLE_EPS = 1e-7


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
    # variables: z (dim), t+, t-, surplus (K)
    n = dim + 2 + K
    A = np.zeros((K + 1, n))
    b = np.zeros(K + 1)
    for k in range(K):
        # <a_k, z> + t+ - t- - s_k = c_k   encodes   t >= c_k - <a_k, z>
        A[k, :dim] = slopes[k]
        A[k, dim] = 1.0
        A[k, dim + 1] = -1.0
        A[k, dim + 2 + k] = -1.0
        b[k] = offs[k]
    A[K, :dim] = 1.0
    b[K] = 1.0

    c = np.zeros(n)
    c[dim] = 1.0
    c[dim + 1] = -1.0

    x = _two_phase(A, b, c)
    z = x[:dim]
    # clean tiny negatives from float pivoting and renormalize
    z = np.clip(z, 0.0, None)
    s = z.sum()
    if not np.isfinite(s) or s <= 0:
        raise SolverError("simplex returned an unusable point")
    z = z / s
    value = float(x[dim] - x[dim + 1])
    return value, z


def _two_phase(A, b, c):
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial variables form the starting basis
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    tableau, basis = _iterate(A1, b, c1, basis, phase1=True)
    xb = tableau[:m, -1]
    residual = sum(xb[i] for i, j in enumerate(basis) if j >= n)
    if residual > _FEASIBLE_EPS:
        raise SolverError("phase 1 did not reach feasibility")

    # pivot leftover artificials out of the basis where possible
    rows = [i for i, j in enumerate(basis) if j >= n]
    keep = np.ones(m, dtype=bool)
    for i in rows:
        cols = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_EPS)
        if cols.size:
            _pivot(tableau, basis, i, int(cols[0]))
        else:
            keep[i] = False  # redundant row
    body = tableau[:m, :n][keep]
    rhs = tableau[:m, -1][keep]
    basis = [j for i, j in enumerate(basis) if keep[i]]
    if any(j >= n for j in basis):
        raise SolverError("artificial variable stuck in the basis")

    tableau, basis = _iterate(body, rhs, c, basis)
    x = np.zeros(n)
    for i, j in enumerate(basis):
        x[j] = tableau[i, -1]
    return x


def _iterate(A, b, c, basis, phase1=False):
    """Pivot to optimality. The phase-1 objective, a sum of artificials, is
    bounded below by 0, so a ray found there once the objective is within
    the feasibility tolerance is round-off: phase 1 ends instead of
    reporting an unbounded LP."""
    m, n = A.shape
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    tableau[m, :n] = c
    # reduce the cost row against the current basis
    for i, j in enumerate(basis):
        if abs(tableau[m, j]) > 0:
            tableau[m] -= tableau[m, j] * tableau[i] / tableau[i, j]
    for _ in range(_MAX_PIVOTS):
        reduced = tableau[m, :n]
        candidates = np.flatnonzero(reduced < -_ENTER_EPS)
        if candidates.size == 0:
            return tableau, basis
        enter = int(candidates[0])  # Bland: lowest index in
        col = tableau[:m, enter]
        rows = np.flatnonzero(col > _PIVOT_EPS)
        if rows.size == 0:
            if phase1 and -tableau[m, -1] <= _FEASIBLE_EPS:
                return tableau, basis
            raise SolverError("LP is unbounded")
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12]
        leave = int(min(tied, key=lambda i: basis[i]))  # Bland: lowest basic out
        _pivot(tableau, basis, leave, enter)
    raise SolverError("pivot limit exceeded")


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    piv = tableau[row]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0:
            tableau[i] -= tableau[i, col] * piv
    basis[row] = col
