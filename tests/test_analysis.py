import numpy as np
import pytest

from rlgames import (
    Bandit,
    DeviationVector,
    DiagnosticError,
    Full,
    Game,
    InputError,
    RateFit,
    Schedule,
    Trajectory,
    builtin_game,
    check_limit_resilience,
    deviation_vectors,
    energy_series,
    estimate_limit_set,
    face_distances,
    face_from_lists,
    fit_rate,
    is_resilient,
    kernel_from_name,
    pure_profile,
    rate_function,
    regret,
    regret_from_distributions,
    run,
    singleton_face,
)
from rlgames import analysis
from rlgames.analysis import _line_fit
from rlgames.builtin import BUILTIN_GAMES
from rlgames.game import make_game, payoff_vector

LOGIT = kernel_from_name("logit")


@pytest.fixture(scope="module")
def vz():
    return builtin_game("vz4x4")


@pytest.fixture(scope="module")
def vz_traj(vz):
    return run(vz, LOGIT, Full(), Schedule(0.2, 0.5), 200, seed=1)


def make_traj(game, x, gamma=0.1, kernel=LOGIT):
    """Hand-built trajectory of `game` (or of a zero game with these action
    counts) under `kernel`, carrying only the fields diagnostics read; with
    no derivation source, it has no scores, realized actions, vhat, bias,
    noise or gaps."""
    if not isinstance(game, Game):
        game = make_game([np.zeros(game)] * len(game))
    x = np.asarray(x, dtype=float)
    T = len(x)
    gam = np.full(T, float(gamma))
    return Trajectory(
        game=game,
        kernel=kernel,
        feedback=Full(),
        seed=0,
        y0=np.zeros(sum(game.n_actions)),
        n=np.arange(1, T + 1, dtype=np.int64),
        gamma=gam,
        tau=np.cumsum(gam),
        x=x,
    )


@pytest.mark.parametrize("name", ["scores", "bias", "noise", "gaps", "vhat", "realized"])
def test_hand_built_trajectory_names_the_field_it_cannot_derive(name):
    traj = make_traj((2, 2), np.full((5, 4), 0.5))
    with pytest.raises(InputError, match=f"'{name}'"):
        getattr(traj, name)


def test_old_call_styles_fail_loudly(vz, vz_traj):
    # the record holds its game and kernel, so passing them again raises
    # and never returns a value
    with pytest.raises(InputError, match="mode must be"):
        regret(vz_traj, vz)
    with pytest.raises(TypeError):
        check_limit_resilience(vz_traj, vz)
    with pytest.raises(TypeError):
        fit_rate(vz_traj, face_from_lists([[0], [0]]), LOGIT)
    with pytest.raises(TypeError):
        Trajectory(game=vz, kernel=LOGIT, feedback=Full(), seed=0, y0=vz_traj.y0,
                   n=vz_traj.n, gamma=vz_traj.gamma, tau=vz_traj.tau, x=vz_traj.x,
                   n_actions=(4, 4))


# ---------------------------------------------------------------------------
# regret


def test_regret_validation(vz_traj):
    with pytest.raises(InputError):
        regret(vz_traj, mode="hopeful")
    with pytest.raises(InputError, match="mode must be"):
        regret(vz_traj, 0)  # a player index passed where the mode goes
    with pytest.raises(InputError):
        regret(vz_traj, mode="realized")  # run never sampled


def test_expected_regret_replays_the_rows(vz, vz_traj):
    parity = builtin_game("parity")
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    bandit = run(parity, LOGIT, fb, Schedule(0.2, 0.5), 300, seed=8)
    for game, traj in ((vz, vz_traj), (parity, bandit)):
        T = traj.horizon
        regrets = regret(traj)
        assert regrets.shape == (T, game.n_players)
        for i in range(game.n_players):
            r = regrets[:, i]
            assert r[0] >= -1e-12
            # one payoff_vector call per recorded profile
            vs = np.array([payoff_vector(game, i, traj.profile_at(k)) for k in range(T)])
            xi = traj.x[:, traj.player_slice(i)]
            best = np.cumsum(vs, axis=0).max(axis=1)
            # bit-identical per-action vectors replay the row-sum values exactly
            assert np.array_equal(r, best - np.cumsum((vs * xi).sum(axis=1)))
            dots = np.array([float(np.dot(vs[k], xi[k])) for k in range(T)])
            assert np.abs(r - (best - np.cumsum(dots))).max() <= 1e-12


def test_regret_vanishes_on_a_constant_game():
    flat = make_game([np.full((2, 2), 1.5), np.full((2, 2), -0.5)])
    traj = run(flat, LOGIT, Full(), Schedule(0.2, 0.5), 50)
    assert np.allclose(regret(traj), 0.0, atol=1e-12)


def test_realized_regret_uses_sampled_actions(vz):
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    # (3, 2, 2) has two layout blocks, so its one-hot rows meet two stacks
    mixed = make_game(np.random.default_rng(4).integers(-3, 4, (3, 3, 2, 2)))
    for game in (vz, builtin_game("parity"), mixed):
        traj = run(game, LOGIT, fb, Schedule(0.2, 0.5), 300, seed=8)
        regrets = regret(traj, mode="realized")
        assert regrets.shape == (300, game.n_players)
        for i in range(game.n_players):
            r = regrets[:, i]
            # replay by hand from the realized action columns
            u = game.payoffs[i]
            values = []
            per_action = []
            for k in range(300):
                acts = tuple(int(a) for a in traj.realized[k])
                values.append(u[acts])
                per_action.append(
                    [u[acts[:i] + (b,) + acts[i + 1 :]] for b in range(game.n_actions[i])]
                )
            want = np.cumsum(per_action, axis=0).max(axis=1) - np.cumsum(values)
            assert np.array_equal(r, want)


def test_average_regret_is_small_on_every_builtin():
    T = 10_000
    for name in sorted(BUILTIN_GAMES):
        g = builtin_game(name)
        traj = run(g, LOGIT, Full(), Schedule(0.2, 0.5), T)
        final = regret(traj)[-1]
        for i in range(g.n_players):
            assert final[i] / T < 0.05, (name, i)


def test_replay_regret_of_the_half_half_distribution(vz):
    d = np.zeros((4, 4))
    d[1, 1] = 0.5
    d[3, 3] = 0.5
    for i in range(2):
        r = regret_from_distributions(vz, i, [d] * 5)
        assert np.allclose(r, [-(n + 1) / 6 for n in range(5)], atol=1e-12)


def test_replay_regret_matches_a_per_distribution_loop():
    rng = np.random.default_rng(33)
    game = make_game([rng.uniform(-1, 1, (2, 3, 2)) for _ in range(3)])
    dists = [rng.dirichlet(np.ones(12)).reshape(2, 3, 2) for _ in range(6)]
    for i in range(3):
        u = game.payoffs[i]
        per_action = []
        values = []
        for d in dists:
            fixed = np.zeros(game.n_actions[i])
            for prof in np.ndindex(*game.n_actions):
                values_at = [u[prof[:i] + (a,) + prof[i + 1 :]] for a in range(len(fixed))]
                fixed += d[prof] * np.array(values_at)
            per_action.append(fixed)
            values.append(float((d * u).sum()))
        want = np.cumsum(per_action, axis=0).max(axis=1) - np.cumsum(values)
        got = regret_from_distributions(game, i, dists)
        assert np.abs(got - want).max() <= 1e-12


def test_replay_regret_validation(vz):
    with pytest.raises(InputError):
        regret_from_distributions(vz, 0, [])
    with pytest.raises(InputError):
        regret_from_distributions(vz, 5, [np.full((4, 4), 1 / 16)])
    with pytest.raises(InputError):
        regret_from_distributions(vz, 0, [np.full((4, 4), 1.0)])


# ---------------------------------------------------------------------------
# series


def test_energy_series_reads_score_differences(vz, vz_traj):
    z = DeviationVector(player=1, inside=0, outside=3)
    e = energy_series(vz_traj, z)
    assert np.array_equal(e, vz_traj.scores[:, 4 + 3] - vz_traj.scores[:, 4 + 0])
    assert e[0] == 0.0  # zero initial scores
    with pytest.raises(InputError):
        energy_series(vz_traj, DeviationVector(player=2, inside=0, outside=1))
    with pytest.raises(InputError):
        energy_series(vz_traj, DeviationVector(player=0, inside=0, outside=9))
    # a bool, a string or a fractional number is no index: InputError,
    # never a numpy broadcast or indexing error
    for player, inside in ((True, 0), ("1", 0), (1.0, 0), (0, True), (0, 1.5), (0, "1")):
        with pytest.raises(InputError):
            energy_series(vz_traj, DeviationVector(player=player, inside=inside, outside=3))


def test_rate_function_bounds_distance_termwise():
    # on a run converging into a one-point club, the kernel's rate function
    # applied to each deviation's energy dominates the outside mass
    g = builtin_game("parity")
    y0 = [np.array([1.0, -1.0])] * 3
    traj = run(g, LOGIT, Full(), Schedule(0.2, 0.5), 3000, y0=y0)
    face = singleton_face(g, (0, 0, 0))
    dist = face_distances(traj, face)
    bound = np.zeros(traj.horizon)
    for z in deviation_vectors(g, face):
        e = energy_series(traj, z)
        bound += rate_function(LOGIT, LOGIT.theta_prime_at_one() + e)
    assert np.all(dist <= bound + 1e-15)
    assert dist[-1] < 1e-8  # the run did converge, so the bound is active


# ---------------------------------------------------------------------------
# limit sets


def test_limit_set_of_a_convergent_run_is_a_point(vz):
    y0 = [np.array([3.0, 0.0, 0.0, 0.0]), np.array([3.0, 0.0, 0.0, 0.0])]
    traj = run(vz, LOGIT, Full(), Schedule(0.2, 0.5), 4000, y0=y0)
    points = estimate_limit_set(traj)
    assert len(points) == 1
    # the first representative is the window's first row
    assert np.array_equal(np.concatenate(points[0]), np.concatenate(traj.profile_at(3600)))
    assert np.allclose(np.concatenate(points[0]), traj.x[-1], atol=0.05)


def test_limit_set_of_an_alternating_path_has_two_points():
    a = [1.0, 0.0, 0.0, 1.0]
    b = [0.0, 1.0, 1.0, 0.0]
    rows = [a if k % 2 == 0 else b for k in range(100)]
    points = estimate_limit_set(make_traj((2, 2), rows))
    assert len(points) == 2
    assert np.allclose(np.concatenate(points[0]), a)
    assert np.allclose(np.concatenate(points[1]), b)


def _limit_points_per_row(traj, window_fraction, epsilon):
    """Reference: each window row against every representative so far."""
    T = traj.horizon
    start = T - max(1, int(np.ceil(window_fraction * T)))
    reps = []
    for k in range(start, T):
        if not any(np.abs(traj.x[k] - traj.x[r]).sum() <= epsilon for r in reps):
            reps.append(k)
    return reps


@pytest.mark.parametrize("epsilon", [0.02, 0.005])
def test_limit_set_matches_a_per_row_loop(epsilon, monkeypatch):
    monkeypatch.setattr(analysis, "LIMIT_EPSILON", epsilon)
    game = builtin_game("outside_mp")
    bandit = Bandit(Schedule(0.1, 0.15))
    traj = run(game, kernel_from_name("euclidean"), bandit, Schedule(0.2, 0.5), 3000, seed=1)
    points = estimate_limit_set(traj)
    reps = _limit_points_per_row(traj, 0.1, epsilon)
    assert len(reps) >= 100  # a noisy run with hundreds of representatives
    assert len(points) == len(reps)
    for point, k in zip(points, reps):
        assert np.concatenate(point).tobytes() == traj.x[k].tobytes()


def test_limit_set_window_handles_short_runs():
    rows = [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
    points = estimate_limit_set(make_traj((2,), rows))
    assert len(points) == 1  # window never empties: it keeps the last row
    assert np.array_equal(points[0][0], [0.0, 1.0])


@pytest.mark.parametrize("call", [
    lambda t, face: fit_rate(t, face, atol=float("nan")),
    lambda t, face: fit_rate(t, face, window=float("nan")),
], ids=["fit_rate_atol", "fit_rate_window"])
def test_a_nan_tolerance_is_rejected(vz_traj, call):
    # every comparison with NaN is false, so a NaN tolerance would empty
    # the regression window
    with pytest.raises(InputError):
        call(vz_traj, face_from_lists([[0], [0]]))


def test_limit_resilience_on_frozen_paths(vz):
    at_nash = np.tile(np.concatenate(pure_profile(vz, (0, 0))), (60, 1))
    rep = check_limit_resilience(make_traj(vz, at_nash))
    assert rep.resilient
    at_bb = np.tile(np.concatenate(pure_profile(vz, (1, 1))), (60, 1))
    rep = check_limit_resilience(make_traj(vz, at_bb))
    assert not rep.resilient
    assert min(rep.gaps) == pytest.approx(-1 / 3)


# ---------------------------------------------------------------------------
# rate fits


def test_fit_recovers_a_planted_geometric_law():
    T = 300
    tau = np.cumsum(np.full(T, 0.1))
    d = 0.4 * np.exp(-0.3 * tau)
    rows = np.stack([1.0 - d, d], axis=1)
    fit = fit_rate(make_traj((2,), rows), face_from_lists([[0]]))
    assert fit.model == "geometric"
    assert fit.slope == pytest.approx(-0.3, abs=1e-6)
    assert fit.r_squared > 1 - 1e-9
    assert fit.n_points == T


def test_fit_recovers_a_planted_inverse_square_law():
    T = 300
    tau = np.cumsum(np.full(T, 0.5))
    d = 1.0 / (2.0 + tau) ** 2
    rows = np.stack([1.0 - d, d], axis=1)
    fit = fit_rate(make_traj((2,), rows, gamma=0.5, kernel=kernel_from_name("tsallis")),
                   face_from_lists([[0]]))
    assert fit.model == "inverse_square"
    assert fit.slope == pytest.approx(-2.0, abs=1e-3)
    assert fit.shift == pytest.approx(2.0, abs=0.05)
    assert fit.r_squared > 1 - 1e-9


def test_fit_reports_the_finite_hitting_step():
    d = np.concatenate([np.geomspace(0.3, 1e-3, 40), np.zeros(20)])
    rows = np.stack([1.0 - d, d], axis=1)
    fit = fit_rate(make_traj((2,), rows, kernel=kernel_from_name("euclidean")),
                   face_from_lists([[0]]))
    assert fit.model == "finite_hit"
    assert fit.hit_index == 41  # 1-based step of the first exact arrival
    assert isinstance(fit, RateFit)


@pytest.mark.parametrize("name,hit", [("power:1.5", 25), ("power:1.9", 12)])
def test_non_steep_power_kernels_fit_their_finite_hitting_step(name, hit):
    # rho > 1 is not steep: the map returns exact zeros, so the run lands
    # on the face, as the euclidean kernel's does
    g = builtin_game("parity")
    kernel = kernel_from_name(name)
    traj = run(g, kernel, Full(), Schedule(0.2, 0.0), 600,
               y0=[np.array([0.2, -0.2])] * 3, seed=0)
    fit = fit_rate(traj, face_from_lists([[0], [0], [0]]))
    assert fit.model == "finite_hit"
    assert fit.hit_index == hit


def test_fit_diagnostic_errors():
    euc = kernel_from_name("euclidean")
    d = np.full(60, 0.25)
    rows = np.stack([1.0 - d, d], axis=1)
    with pytest.raises(DiagnosticError, match="hitting"):
        fit_rate(make_traj((2,), rows, kernel=euc), face_from_lists([[0]]))
    d = np.full(60, 0.8)  # never below the window cutoff
    rows = np.stack([1.0 - d, d], axis=1)
    with pytest.raises(DiagnosticError, match="in-window"):
        fit_rate(make_traj((2,), rows), face_from_lists([[0]]))


@pytest.mark.parametrize("n", [20, 300, 4000])
def test_line_fit_matches_lstsq(n):
    rng = np.random.default_rng(n)
    x = np.log(8.7 + np.cumsum(rng.uniform(0.01, 0.2, n)))
    y = -2.0 * x + 6.4 + rng.normal(0.0, 0.05, n)
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = ((y - A @ (slope, intercept)) ** 2).sum()
    r2 = 1.0 - ss_res / ((y - y.mean()) ** 2).sum()
    np.testing.assert_allclose(_line_fit(x, y), (slope, intercept, r2), rtol=1e-12)


def test_line_fit_of_a_constant_series_is_flat_and_exact():
    slope, intercept, r2 = _line_fit(np.arange(30.0), np.full(30, -3.5))
    assert (slope, intercept, r2) == (0.0, -3.5, 1.0)


def test_fit_parameter_validation(vz_traj):
    face = face_from_lists([[0], [0]])
    with pytest.raises(InputError):
        fit_rate(vz_traj, face, atol=0.0)
    with pytest.raises(InputError):
        fit_rate(vz_traj, face, atol=0.1, window=0.05)


# ---------------------------------------------------------------------------
# records that hold arrays compare by identity


def parity_run():
    return run(builtin_game("parity"), LOGIT, Full(), Schedule(0.2, 0.5), 50, seed=4)


def parity_report():
    game = builtin_game("parity")
    return is_resilient(game, [pure_profile(game, (0, 0, 0))])


@pytest.mark.parametrize("make", [
    lambda: builtin_game("parity"),
    parity_run,
    parity_report,
], ids=["Game", "Trajectory", "ResilienceReport"])
def test_array_records_compare_by_identity(make):
    a, b = make(), make()
    assert a == a
    assert not a == b and a != b  # equal values, no elementwise comparison
    assert len({a, b, a}) == 2
