"""Separable simplex regularizers and their choice maps.

A kernel is a convex scalar function theta on [0, 1]; the regularizer is
h(x) = sum_a theta(x_a) and the choice map picks argmax <y, x> - h(x) over
the simplex. Every kernel is one member of the family

    theta_rho(z) = z^rho / (rho (rho - 1)),   rho in (0, 2],

and a kernel is its exponent. rho = 1 is the entropic limit z log z,
mapped in closed form by the logit map; rho = 2 is the quadratic kernel
z^2 / 2, mapped by the exact sparse Euclidean projection; every other rho
is mapped by plain Newton steps on the dual variable of y - max y,
rising from the point where the largest coordinate alone reaches 1.
theta'' = z^(rho - 2) >= 1 on (0, 1], so every kernel is 1-strongly
convex there.

All maps accept a single score vector or a 2-D batch of rows. Steep
kernels (rho <= 1, theta'(0+) = -inf) keep every coordinate strictly
positive; non-steep ones return exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InputError, NumericError
from .game import _check_simplex

_NEWTON_ITERS = 200
_CLOSE_TOL = 1e-13  # a power-kernel row freezes once |sum x - 1| is this small
_FAIL_TOL = 1e-8  # a residual above this after _NEWTON_ITERS raises NumericError


@dataclass(frozen=True)
class Kernel:
    """The kernel theta_rho, named. rho = 1 is entropic, rho = 2 quadratic.
    Build with :func:`kernel_from_name`."""

    name: str
    rho: float

    def __post_init__(self):
        if not (isinstance(self.rho, Real) and 0.0 < self.rho <= 2.0):
            raise InputError(
                f"kernel exponent rho must lie in (0, 2], got {self.rho!r}"
            )

    # --- scalar calculus -------------------------------------------------

    def theta(self, z):
        z = np.asarray(z, dtype=float)
        r = self.rho
        if r == 1.0:
            return np.where(z > 0, z * np.log(np.where(z > 0, z, 1.0)), 0.0)
        if r == 2.0:
            # z ** 2 / 2 would round twice where z^2 is subnormal
            return 0.5 * z * z
        return np.power(z, r) / (r * (r - 1.0))

    def theta_prime(self, z):
        z = np.asarray(z, dtype=float)
        r = self.rho
        if r == 1.0:
            return 1.0 + np.log(z)
        return np.power(z, r - 1.0) / (r - 1.0)

    def theta_prime_inv(self, w):
        """Inverse of theta' on (0, 1]; caller clips outside the range."""
        w = np.asarray(w, dtype=float)
        r = self.rho
        if r == 1.0:
            return np.exp(w - 1.0)
        return np.power((r - 1.0) * w, 1.0 / (r - 1.0))

    @property
    def steep(self) -> bool:
        """theta'(0+) = -inf, so the choice map stays interior."""
        return self.rho <= 1.0

    def theta_prime_at_zero(self) -> float:
        return -np.inf if self.steep else 0.0

    def theta_prime_at_one(self) -> float:
        return 1.0 if self.rho == 1.0 else 1.0 / (self.rho - 1.0)

    def entropy(self, p):
        """h(p) = sum_a theta(p_a), rows of a batch handled at once."""
        p = np.asarray(p, dtype=float)
        return self.theta(p).sum(axis=-1)


_NAMED_RHO = {"euclidean": 2.0, "logit": 1.0, "tsallis": 0.5}


def kernel_from_name(name: str) -> Kernel:
    """Parse 'euclidean' (rho = 2) | 'logit' (rho = 1) | 'tsallis'
    (rho = 1/2) | 'power:<rho>', rho in (0, 1) or (1, 2]."""
    if not isinstance(name, str):
        raise InputError("kernel name must be a string")
    if name in _NAMED_RHO:
        return Kernel(name, _NAMED_RHO[name])
    if not name.startswith("power:"):
        raise InputError(
            f"unknown kernel '{name}' (expected euclidean, logit, tsallis, or power:<rho>)"
        )
    try:
        rho = float(name.split(":", 1)[1])
    except ValueError:
        raise InputError(f"could not parse power kernel exponent in '{name}'") from None
    if rho == 1.0:
        raise InputError("power kernel exponent 1 is the entropic kernel; name it 'logit'")
    return Kernel(name, rho)


# ---------------------------------------------------------------------------
# choice maps


def _check_scores(y):
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        batch = arr[None, :]
    elif arr.ndim == 2:
        batch = arr
    else:
        raise InputError("scores must be a vector or a 2-D batch of rows")
    if batch.shape[-1] < 1:
        raise InputError("scores need at least one coordinate")
    if not np.all(np.isfinite(batch)):
        raise InputError("scores contain NaN or Inf")
    return arr, batch


def choice_map(kernel: Kernel, y) -> np.ndarray:
    """argmax_x <y, x> - h(x) over the simplex, per row."""
    arr, batch = _check_scores(y)
    out = _choice_unchecked(kernel, batch)
    return out[0] if arr.ndim == 1 else out


def _choice_unchecked(kernel: Kernel, batch):
    """The choice map of a 2-D batch of finite score rows."""
    if kernel.rho == 2.0:
        return _project_simplex(batch)
    if kernel.rho == 1.0:
        # the row max as m - 1 elementwise maxima over a transposed copy,
        # not one short reduction per row; a max does no rounding. The
        # sum stays a reduction of contiguous rows, whose order sets its bits
        e = batch - np.maximum.reduce(batch.T.copy(), axis=0)[:, None]
        np.exp(e, out=e)
        e /= np.add.reduce(e, axis=1, keepdims=True)
        return e
    return _power_choice(kernel, batch)


def _project_simplex(batch):
    """Exact Euclidean projection of each row onto the simplex (sort based)."""
    m = batch.shape[1]
    u = np.sort(batch, axis=1)[:, ::-1]
    cs = np.cumsum(u, axis=1)
    j = np.arange(1, m + 1)
    cond = u + (1.0 - cs) / j > 0
    k = cond.sum(axis=1)  # cond[:, 0] always holds
    lam = (1.0 - cs[np.arange(len(batch)), k - 1]) / k
    return np.maximum(batch + lam[:, None], 0.0)


def _power_choice(kernel: Kernel, batch):
    """The choice map of theta_rho for rho in (0, 1) or (1, 2): solve
    f(mu) = sum_a g(y_a - mu) = 1 for the dual variable mu, rowwise.

    g is theta_prime_inv clipped to the kernel's domain, so each term is
    convex and nonincreasing in mu: a negative power of a positive linear
    function when rho < 1, the positive part of a linear function raised
    to 1/(rho - 1) > 1 when rho > 1. The entropic limit rho = 1 and the
    quadratic end rho = 2 have exact maps and never come here. The map is
    shift-invariant, so each row is solved as y - max y: mu then stays
    near -theta'(1) whatever the scores' level, where doubles are fine
    enough to close the residual. Newton starts at the root's lower bound
    lo = -theta'(1), where the largest coordinate alone reaches 1, so
    f(lo) >= 1. Below the root, the tangent of a convex decreasing f lies
    under f and meets 1 no further right than the root, so the iterates
    rise monotonically to it and f' < 0 on every one of them. A row is frozen once its own
    residual closes, so it maps to the same bits whatever other rows
    share the batch. Every evaluation writes the terms of f and of -f'
    into one buffer and sums both in one reduction into the fixed views
    s and ds. That buffer, the residual, the open-row mask and the Newton
    step are views of one workspace, so on steep kernels an iteration
    allocates no array: at a few rows its cost is numpy call overhead,
    not arithmetic.
    """
    rows, m = batch.shape
    if m == 1:
        return np.ones_like(batch)
    rho = kernel.rho
    scale = rho - 1.0
    inv_exp = 1.0 / scale
    steep = kernel.steep
    batch = batch - np.maximum.reduce(batch, axis=1, keepdims=True)
    # one workspace: w, the terms of f and those of -f', (rows, m) each;
    # then s, ds, mu, resid, err and step, (rows,) each; then the open-row
    # mask, viewed as bools
    cells = rows * m
    work = np.empty(3 * cells + 6 * rows + -(-rows // 8))
    w = work[:cells].reshape(rows, m)
    buf = work[cells:3 * cells].reshape(2, rows, m)
    x, dx = buf
    vecs = work[3 * cells:3 * cells + 6 * rows].reshape(6, rows)
    sums = vecs[:2]
    s, ds = sums  # f and -f' at mu, rowwise
    mu_rows, resid, err, step = vecs[2:]
    mu = mu_rows[:, None]
    mu_rows.fill(-kernel.theta_prime_at_one())
    open_rows = work[3 * cells + 6 * rows:].view(bool)[:rows]

    def eval_at():
        np.subtract(batch, mu, out=w)
        if rho == 0.5:
            np.multiply(w, w, out=x)
            np.divide(4.0, x, out=x)  # w < 0 from lo on, as mu only rises
            np.sqrt(x, out=dx)
            np.multiply(x, dx, out=dx)
        elif steep:
            np.multiply(w, scale, out=x)
            np.power(x, inv_exp, out=x)
            np.power(x, 2.0 - rho, out=dx)
        else:
            np.multiply(np.maximum(w, 0.0, out=x), scale, out=x)
            np.power(x, inv_exp, out=x)
            np.putmask(x, w <= 0, 0.0)
            np.power(x, 2.0 - rho, out=dx)
        np.add.reduce(buf, axis=2, out=sums)

    eval_at()
    for _ in range(_NEWTON_ITERS):
        np.subtract(s, 1.0, out=resid)
        np.greater(np.abs(resid, out=err), _CLOSE_TOL, out=open_rows)
        if not np.count_nonzero(open_rows):
            break
        np.add(mu_rows, np.divide(resid, ds, out=step), out=mu_rows, where=open_rows)
        eval_at()
    np.abs(np.subtract(s, 1.0, out=resid), out=err)
    worst = int(err.argmax())
    if err[worst] > _FAIL_TOL:
        raise NumericError(
            f"choice map of kernel '{kernel.name}' (rho = {rho:g}): row {worst} "
            f"has simplex residual {err[worst]:.3e} after the cap of "
            f"{_NEWTON_ITERS} Newton iterations"
        )
    return x / s[:, None]


def _choice_blocks(kernel: Kernel, flat, blocks) -> np.ndarray:
    """The choice map of every player in flat (R, D) score rows, one call
    of the unchecked core per block, on its (R * n_b, m) rows."""
    parts = [
        _choice_unchecked(kernel, flat[:, cols].reshape(-1, m)).reshape(len(flat), -1)
        for _, cols, m in blocks
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


# ---------------------------------------------------------------------------
# conjugates and couplings


def conjugate(kernel: Kernel, y):
    """h*(y) = <y, Q(y)> - h(Q(y)), per row."""
    arr, batch = _check_scores(y)
    q = _choice_unchecked(kernel, batch)
    val = (batch * q).sum(axis=1) - kernel.entropy(q)
    return float(val[0]) if arr.ndim == 1 else val


def fenchel_coupling(kernel: Kernel, p, y) -> float:
    """F(p, y) = h(p) + h*(y) - <y, p>; nonnegative, zero iff p = Q(y)."""
    p = np.asarray(p, dtype=float)
    yv = np.asarray(y, dtype=float)
    if p.shape != yv.shape or p.ndim != 1:
        raise InputError("base point and scores must be vectors of equal length")
    _check_simplex(p, "base point")
    h_p = float(kernel.entropy(np.clip(p, 0.0, None)))
    return h_p + conjugate(kernel, yv) - float(np.dot(yv, p))


def rate_function(kernel: Kernel, z):
    """How much strategy mass a score deficit allows: 0 below theta'(0+),
    the inverse of theta' in between, and 1 from theta'(1-) on."""
    z_arr = np.asarray(z, dtype=float)
    lo = kernel.theta_prime_at_zero()
    hi = kernel.theta_prime_at_one()
    mid = np.clip(z_arr, None, hi)
    if not kernel.steep:
        mid = np.clip(mid, 0.0, None)  # inverse undefined below theta'(0+)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = kernel.theta_prime_inv(mid)
    out = np.where(z_arr >= hi, 1.0, inner)
    if not kernel.steep:
        out = np.where(z_arr <= lo, 0.0, out)
    return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out
