import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize
from scipy.special import softmax

from rlgames import (
    InputError,
    Kernel,
    NumericError,
    choice_map,
    conjugate,
    fenchel_coupling,
    kernel_from_name,
    rate_function,
)
from rlgames import regularizers

KERNEL_NAMES = ["euclidean", "logit", "tsallis", "power:0.8", "power:1.5", "power:2"]


def kernels():
    return [kernel_from_name(n) for n in KERNEL_NAMES]


score_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=2, max_size=6,
).map(lambda xs: np.array(xs))


# ---------------------------------------------------------------------------
# names and kernel calculus


def test_kernel_names_resolve_to_families():
    assert kernel_from_name("euclidean").rho == 2.0
    assert kernel_from_name("logit").rho == 1.0
    assert kernel_from_name("tsallis").rho == 0.5
    assert kernel_from_name("power:1.5").rho == 1.5
    # the power family at exponent 2 is the quadratic kernel
    assert kernel_from_name("power:2").rho == 2.0


@pytest.mark.parametrize("bad", [
    "power:1", "power:0", "power:2.5", "power:-0.3", "power:abc", "gibbs", "",
])
def test_kernel_name_rejections(bad):
    with pytest.raises(InputError):
        kernel_from_name(bad)


def test_kernel_name_must_be_string():
    with pytest.raises(InputError):
        kernel_from_name(3)


@pytest.mark.parametrize("rho", [0.0, -0.5, 2.5, math.inf, math.nan, None])
def test_kernel_exponent_guard(rho):
    with pytest.raises(InputError):
        Kernel("x", rho)


@pytest.mark.parametrize("rho", [0.05, 1.0, 2.0])
def test_kernel_exponent_bounds_are_kernels(rho):
    assert Kernel("x", rho).rho == rho


def test_theta_prime_endpoints():
    logit = kernel_from_name("logit")
    assert logit.theta_prime_at_zero() == -np.inf
    assert logit.theta_prime_at_one() == 1.0
    ts = kernel_from_name("tsallis")
    assert ts.theta_prime_at_zero() == -np.inf
    assert ts.theta_prime_at_one() == pytest.approx(-2.0)
    euc = kernel_from_name("euclidean")
    assert euc.theta_prime_at_zero() == 0.0
    assert euc.theta_prime_at_one() == 1.0


# masses from 0 through subnormals and masses whose square is subnormal, to 1
Z_GRID = np.concatenate([
    [0.0, 5e-324, 1e-310, 1e-100, 1.0 / 3.0, 1.0],
    np.geomspace(1e-162, 1e-153, 64),
    np.random.default_rng(5).uniform(0.0, 1.0, 64),
])
# scores on both sides of theta'(0) and theta'(1)
W_GRID = np.concatenate([
    [-700.0, -3.0, -1e-300, 0.0, 5e-324, 1.0 / 3.0, 1.0, 1.5, 40.0],
    np.random.default_rng(6).uniform(-4.0, 4.0, 64),
])


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_euclidean_kernel_is_the_quadratic_closed_form():
    k = kernel_from_name("euclidean")
    z, w = Z_GRID, W_GRID
    assert _same_bits(k.theta(z), 0.5 * z * z)
    assert _same_bits(k.theta_prime(z), z)
    assert _same_bits(k.theta_prime_inv(w), w)
    assert (k.theta_prime_at_zero(), k.theta_prime_at_one()) == (0.0, 1.0)
    assert _same_bits(rate_function(k, w), np.where(w <= 0.0, 0.0, np.minimum(w, 1.0)))


def test_logit_kernel_is_the_entropic_closed_form():
    k = kernel_from_name("logit")
    z, w = Z_GRID, W_GRID
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        assert _same_bits(k.theta(z), np.where(z > 0, z * np.log(z), 0.0))
        assert _same_bits(k.theta_prime(z), 1.0 + np.log(z))
        assert _same_bits(k.theta_prime_inv(w), np.exp(w - 1.0))
        assert _same_bits(rate_function(k, w), np.where(w >= 1.0, 1.0, np.exp(w - 1.0)))
    assert (k.theta_prime_at_zero(), k.theta_prime_at_one()) == (-np.inf, 1.0)


# ---------------------------------------------------------------------------
# choice maps against independent solvers


def euclidean_projection(y):
    """Textbook sort-and-threshold projection onto the simplex."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(y) + 1)
    cond = u - css / ks > 0
    k = ks[cond][-1]
    tau = css[k - 1] / k
    return np.clip(y - tau, 0.0, None)


def test_euclidean_matches_sort_projection(rng):
    k = kernel_from_name("euclidean")
    for _ in range(200):
        y = rng.uniform(-3, 3, int(rng.integers(2, 7)))
        x = choice_map(k, y)
        assert np.allclose(x, euclidean_projection(y), atol=1e-12)
        # inactive coordinates are exactly zero, not merely tiny
        assert all(v == 0.0 or v > 1e-12 for v in x)


def test_logit_matches_scipy_softmax(rng):
    k = kernel_from_name("logit")
    for _ in range(200):
        y = rng.uniform(-30, 30, int(rng.integers(2, 7)))
        assert np.allclose(choice_map(k, y), softmax(y), atol=1e-12)


@pytest.mark.parametrize("rows", [1, 27, 512, 4096])
def test_logit_map_is_the_textbook_softmax_byte_for_byte(rows):
    # the map takes its row max another way; a max does no rounding, and
    # a zero max of either sign leaves every exp at the same bits
    k = kernel_from_name("logit")
    rng = np.random.default_rng(rows)
    for m in range(1, 13):
        for scale in (1e-3, 1.0, 30.0, 1e3):
            y = scale * rng.normal(0.0, 1.0, (rows, m))
            y[::3, -1] = y[::3, 0]  # ties
            y[1::5] = 0.0
            y[2::7, ::2] = -0.0
            e = np.exp(y - y.max(axis=1, keepdims=True))
            want = e / e.sum(axis=1, keepdims=True)
            assert choice_map(k, y).tobytes() == want.tobytes(), (m, scale)


def kkt_residual(kernel, y, x):
    """Optimality certificate for argmax <y,x> - h(x) on the simplex.

    On the support, y_a - theta'(x_a) must be a constant mu; off the
    support (non-steep kernels only), y_a - theta'(0+) must not exceed mu.
    """
    on = x > 0
    mu = y[on] - kernel.theta_prime(x[on])
    spread = float(mu.max() - mu.min())
    slack = 0.0
    if (~on).any():
        slack = float((y[~on] - kernel.theta_prime_at_zero() - mu.min()).max())
    return spread, slack


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_choice_map_satisfies_kkt(name, rng):
    k = kernel_from_name(name)
    for _ in range(100):
        y = rng.uniform(-8, 8, int(rng.integers(2, 7)))
        x = choice_map(k, y)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert (x >= 0).all()
        spread, slack = kkt_residual(k, y, x)
        assert spread < 1e-7
        assert slack < 1e-7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # SLSQP bound clipping
@pytest.mark.parametrize("name", ["tsallis", "power:0.8", "power:1.5"])
def test_power_matches_slsqp(name, rng):
    k = kernel_from_name(name)

    def objective(x, y):
        return float(k.entropy(np.clip(x, 1e-15, None)) - np.dot(y, x))

    for _ in range(25):
        m = int(rng.integers(2, 5))
        y = rng.uniform(-4, 4, m)
        x = choice_map(k, y)
        x0 = np.full(m, 1.0 / m)
        res = minimize(
            objective, x0, args=(y,), method="SLSQP",
            bounds=[(1e-12, 1.0)] * m,
            constraints=[{"type": "eq", "fun": lambda z: z.sum() - 1.0}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        assert res.success
        # our map should never score worse than the iterative solver
        assert objective(x, y) <= res.fun + 1e-9


def test_batch_rows_match_single_calls(rng):
    for k in kernels():
        batch = rng.uniform(-5, 5, (40, 4))
        rows = choice_map(k, batch)
        for i in range(40):
            assert np.allclose(rows[i], choice_map(k, batch[i]), atol=1e-12)


def test_single_action_is_degenerate():
    for k in kernels():
        assert choice_map(k, np.array([3.7])) == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# invariance and monotonicity properties


@given(y=score_vectors, c=st.floats(min_value=-40, max_value=40, allow_nan=False))
def test_choice_map_shift_invariance(y, c):
    for k in kernels():
        assert np.allclose(choice_map(k, y + c), choice_map(k, y), atol=1e-9)


@given(y=score_vectors)
def test_choice_map_feasibility(y):
    for k in kernels():
        x = choice_map(k, y)
        assert abs(x.sum() - 1.0) < 1e-9
        assert (x >= 0).all()


@given(y=score_vectors, bump=st.floats(min_value=0.01, max_value=5))
def test_raising_a_score_never_lowers_its_mass(y, bump):
    for k in kernels():
        before = choice_map(k, y)
        lifted = y.copy()
        lifted[0] += bump
        after = choice_map(k, lifted)
        assert after[0] >= before[0] - 1e-9


def test_steep_kernels_stay_interior():
    y = np.array([40.0, 0.0, -40.0])
    for name in ("logit", "tsallis", "power:0.8"):
        x = choice_map(kernel_from_name(name), y)
        assert (x > 0).all()


def test_nonsteep_kernels_hit_the_boundary():
    y = np.array([1.0, 0.0, -1.0])
    for name in ("euclidean", "power:1.5", "power:2"):
        x = choice_map(kernel_from_name(name), y)
        assert x[-1] == 0.0


def test_suppressed_coordinate_vanishes_along_a_ray():
    base = np.array([0.3, -0.2, 0.1])
    for k in kernels():
        masses = []
        for t in (0.0, 5.0, 20.0, 2000.0):
            y = base.copy()
            y[1] -= t
            masses.append(choice_map(k, y)[1])
        assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 1e-5  # tsallis decays slowest, like 4 / t^2
        if not k.steep:
            assert masses[-1] == 0.0


def test_score_validation_errors():
    k = kernel_from_name("logit")
    with pytest.raises(InputError):
        choice_map(k, np.array([np.nan, 0.0]))
    with pytest.raises(InputError):
        choice_map(k, np.array([np.inf, 0.0]))
    with pytest.raises(InputError):
        choice_map(k, np.zeros((2, 2, 2)))
    with pytest.raises(InputError):
        choice_map(k, np.zeros((3, 0)))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_batch_maps_each_row_as_if_alone(name):
    # bit-for-bit: a batch row must not depend on the rows beside it
    rng = np.random.default_rng(64)
    k = kernel_from_name(name)
    for m in (2, 3, 5):
        batch = rng.normal(0.0, 2.0, (64, m))
        mapped = choice_map(k, batch)
        for row, y in zip(mapped, batch):
            assert row.tobytes() == choice_map(k, y).tobytes()


STRESS_RHOS = (0.05, 0.5, 0.9, 0.99, 1.01, 1.05, 1.2, 1.5, 1.95)


def stress_batches(rng, m):
    """Equal rows at random levels, N(0, 1) rows and x50-spread rows."""
    equal = np.zeros((8, m)) + rng.normal(0.0, 5.0, (8, 1))
    normal = rng.normal(0.0, 1.0, (32, m))
    spread = 50.0 * rng.normal(0.0, 1.0, (32, m))
    return {"equal": equal, "normal": normal, "spread": spread}


@pytest.mark.parametrize("rho", STRESS_RHOS)
def test_power_newton_closes_every_row_on_a_stress_grid(rho, monkeypatch):
    # Raising at the freeze tolerance makes any row left open an error, so a
    # clean return means every row closed |sum x - 1| <= 1e-13 before the
    # final normalisation. Division by a zero slope or a power of a negative
    # base would raise too: Newton from lo keeps ds > 0 on every iterate.
    monkeypatch.setattr(regularizers, "_FAIL_TOL", 1e-13)
    k = kernel_from_name("tsallis" if rho == 0.5 else f"power:{rho}")
    assert k.rho == rho
    rng = np.random.default_rng(int(rho * 100))
    for m in (2, 4, 7, 16):
        for kind, batch in stress_batches(rng, m).items():
            with np.errstate(divide="raise", invalid="raise"):
                mapped = choice_map(k, batch)
                singles = [choice_map(k, y) for y in batch]
            for row, alone in zip(mapped, singles):
                assert row.tobytes() == alone.tobytes(), (m, kind)
            for y, x in zip(batch, mapped):
                spread, slack = kkt_residual(k, y, x)
                assert spread < 1e-7 and slack < 1e-7, (m, kind)
            if rho == 0.5:
                # the tsallis KKT check of perfbench: y_a + 2/sqrt(x_a) is flat
                w = 2.0 / np.sqrt(mapped)
                c = batch + w
                spread = c.max(axis=1) - c.min(axis=1)
                assert (spread <= 1e-11 * w.max(axis=1)).all(), (m, kind)


def test_power_newton_failure_names_kernel_row_and_cap(monkeypatch):
    monkeypatch.setattr(regularizers, "_NEWTON_ITERS", 1)
    batch = np.zeros((2, 16))
    batch[0] = -40.0
    batch[0, 0] = 5.0  # nearly a vertex: closes at once
    with pytest.raises(
        NumericError,
        match=r"kernel 'tsallis' \(rho = 0\.5\): row 1 has simplex residual "
        r"\d\.\d{3}e[+-]\d+ after the cap of 1 Newton iterations",
    ):
        choice_map(kernel_from_name("tsallis"), batch)


def _power_choice_reference(kernel, batch):
    """Reference Newton loop: fresh arrays on every evaluation, one sum per
    term and a masked update, the same iterates as the map. Returns the
    map and, per row, the number of Newton steps before it froze."""
    rho = kernel.rho
    scale = rho - 1.0
    batch = batch - batch.max(axis=1, keepdims=True)
    mu = np.full(len(batch), -kernel.theta_prime_at_one())
    steps = np.zeros(len(batch), dtype=int)

    def eval_at(mu):
        w = batch - mu[:, None]
        if rho == 0.5:
            x = 4.0 / (w * w)
            dx = x * np.sqrt(x)
        elif kernel.steep:
            x = np.power(scale * w, 1.0 / scale)
            dx = np.power(x, 2.0 - rho)
        else:
            x = np.where(w > 0, np.power(scale * np.maximum(w, 0.0), 1.0 / scale), 0.0)
            dx = np.where(w > 0, np.power(x, 2.0 - rho), 0.0)
        return x, x.sum(axis=1), dx.sum(axis=1)

    x, s, ds = eval_at(mu)
    for _ in range(regularizers._NEWTON_ITERS):
        resid = s - 1.0
        open_rows = np.abs(resid) > regularizers._CLOSE_TOL
        if not open_rows.any():
            break
        mu = np.where(open_rows, mu + resid / ds, mu)
        steps += open_rows
        x, s, ds = eval_at(mu)
    return x / s[:, None], steps


@pytest.mark.parametrize("name", ["tsallis", "power:0.3", "power:0.8", "power:1.5",
                                  "power:1.9"])
def test_power_map_matches_a_reference_newton_loop(name):
    # all three evaluation branches: rho = 0.5, steep rho < 1, rho > 1
    k = kernel_from_name(name)
    rng = np.random.default_rng(int(k.rho * 100))
    for m in (2, 3, 5):
        for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4):
            batch = scale * rng.normal(0.0, 1.0, (64, m))
            batch[::4, 0] = batch[::4, 1]  # ties
            assert choice_map(k, batch).tobytes() == _power_choice_reference(k, batch)[0].tobytes()


ORACLE_KERNELS = {
    name: kernel_from_name(name) for name in ("tsallis", "power:0.3", "power:1.5", "power:1.9")
}


@pytest.mark.parametrize("name", ORACLE_KERNELS)
@pytest.mark.parametrize("rows", [1, 3, 54, 500])
def test_power_map_is_the_reference_newton_loop_byte_for_byte(name, rows):
    # rows near a vertex freeze after a step or two, tied and spread rows
    # take longer, so one batch freezes its rows at different iterations
    k = ORACLE_KERNELS[name]
    rng = np.random.default_rng([rows, int(k.rho * 10)])
    for m in (2, 3, 7):
        batch = rng.normal(0.0, 1.0, (rows, m)) * rng.choice([1e-2, 1.0, 1e2], (rows, 1))
        batch[1::3, 0] += 40.0  # near a vertex
        batch[2::3, 1] = batch[2::3, 0]  # ties
        want, steps = _power_choice_reference(k, batch)
        assert choice_map(k, batch).tobytes() == want.tobytes(), m
        if rows >= 3:
            assert len(set(steps)) > 1, m


@pytest.mark.parametrize("name", ["tsallis", "power:0.3", "power:1.5"])
def test_power_newton_closes_rows_far_from_zero(name, monkeypatch):
    # Constant steps over long horizons push scores to about margin * tau.
    # Solved on y - max y, a row offset by 1e6 closes to the freeze
    # tolerance within 19 Newton steps, and the map moves only by the
    # rounding of the offset scores themselves.
    monkeypatch.setattr(regularizers, "_NEWTON_ITERS", 19)
    monkeypatch.setattr(regularizers, "_FAIL_TOL", 1e-13)
    k = kernel_from_name(name)
    rows = np.random.default_rng(0).normal(0.0, 1.0, (200, 3))
    near_zero = choice_map(k, rows)
    for offset in (1e4, 1e5, 1e6):
        mapped = choice_map(k, rows + offset)
        assert np.abs(mapped - near_zero).max() <= offset * 1e-16, offset


# ---------------------------------------------------------------------------
# conjugate and coupling


def test_conjugate_at_zero_scores():
    for m in range(2, 6):
        z = np.zeros(m)
        assert conjugate(kernel_from_name("logit"), z) == pytest.approx(math.log(m))
        assert conjugate(kernel_from_name("euclidean"), z) == pytest.approx(-0.5 / m)


def test_conjugate_batch_matches_scalar(rng):
    for k in kernels():
        batch = rng.uniform(-4, 4, (10, 3))
        vals = conjugate(k, batch)
        assert vals.shape == (10,)
        for i in range(10):
            assert vals[i] == pytest.approx(conjugate(k, batch[i]), abs=1e-12)


def test_conjugate_gradient_is_the_choice_map(rng):
    eps = 1e-6
    for k in kernels():
        y = rng.uniform(-2, 2, 4)
        x = choice_map(k, y)
        for a in range(4):
            e = np.zeros(4)
            e[a] = eps
            fd = (conjugate(k, y + e) - conjugate(k, y - e)) / (2 * eps)
            assert fd == pytest.approx(x[a], abs=1e-5)


def test_coupling_nonnegative_and_zero_at_the_image(rng):
    for k in kernels():
        for _ in range(50):
            y = rng.uniform(-4, 4, 4)
            p = rng.dirichlet(np.ones(4))
            if not k.steep:
                p = choice_map(k, rng.uniform(-1, 1, 4))  # boundary points too
            assert fenchel_coupling(k, p, y) >= -1e-12
        y = rng.uniform(-3, 3, 5)
        assert fenchel_coupling(k, choice_map(k, y), y) == pytest.approx(0.0, abs=1e-10)


def test_coupling_positive_away_from_the_image():
    k = kernel_from_name("logit")
    y = np.zeros(3)
    p = np.array([0.6, 0.3, 0.1])
    assert fenchel_coupling(k, p, y) > 1e-3


@given(y=score_vectors, c=st.floats(min_value=-20, max_value=20, allow_nan=False))
def test_coupling_shift_invariance(y, c):
    p = np.full(len(y), 1.0 / len(y))
    for k in kernels():
        assert fenchel_coupling(k, p, y + c) == pytest.approx(
            fenchel_coupling(k, p, y), abs=1e-8
        )


def test_coupling_validation():
    k = kernel_from_name("logit")
    with pytest.raises(InputError):
        fenchel_coupling(k, np.array([0.5, 0.5]), np.zeros(3))
    with pytest.raises(InputError):
        fenchel_coupling(k, np.array([0.9, 0.3]), np.zeros(2))
    with pytest.raises(InputError):
        fenchel_coupling(k, np.array([-0.2, 1.2]), np.zeros(2))
    # NaN fails every comparison, so a bounds-only check would let it through
    with pytest.raises(InputError, match="NaN"):
        fenchel_coupling(k, np.array([np.nan, 1.0]), np.zeros(2))


# ---------------------------------------------------------------------------
# rate function


def test_rate_function_logit_values():
    k = kernel_from_name("logit")
    assert rate_function(k, 1.0) == pytest.approx(1.0)
    assert rate_function(k, 0.0) == pytest.approx(math.exp(-1.0))
    assert rate_function(k, -3.0) == pytest.approx(math.exp(-4.0))
    assert rate_function(k, 7.0) == 1.0  # saturates past theta'(1)


def test_rate_function_tsallis_values():
    k = kernel_from_name("tsallis")
    assert rate_function(k, -2.0) == pytest.approx(1.0)
    assert rate_function(k, -4.0) == pytest.approx(0.25)
    assert rate_function(k, -10.0) == pytest.approx(0.04)
    assert rate_function(k, -1.0) == 1.0


def test_rate_function_euclidean_is_a_clip():
    k = kernel_from_name("euclidean")
    z = np.array([-2.0, -1e-9, 0.0, 0.3, 1.0, 5.0])
    assert np.allclose(rate_function(k, z), [0, 0, 0, 0.3, 1, 1])


def test_rate_function_monotone_and_consistent_with_theta_prime():
    for k in kernels():
        zs = np.linspace(-6, 2, 200)
        vals = rate_function(k, zs)
        assert (np.diff(vals) >= -1e-12).all()
        interior = (vals > 1e-6) & (vals < 1.0)
        assert np.allclose(
            k.theta_prime(vals[interior]), zs[interior], atol=1e-8
        )
