import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rlgames import (
    Bandit,
    Clairvoyant,
    Full,
    InputError,
    MirrorProx,
    NumericError,
    Optimistic,
    Schedule,
    builtin_game,
    choice_map,
    derive_run_seed,
    iwe,
    kernel_from_name,
    lipschitz_estimate,
    perturbation_stream,
    player_stream,
    pure_profile,
    run,
    run_many,
    sample_actions,
    uniform_table,
)
from rlgames import experiments, learning
from rlgames.config import config_from_dict
from rlgames.game import make_game, payoff_vectors


@pytest.fixture(scope="module")
def vz():
    return builtin_game("vz4x4")


@pytest.fixture(scope="module")
def mp():
    return builtin_game("matching_pennies_2p")


LOGIT = kernel_from_name("logit")
EUCLIDEAN = kernel_from_name("euclidean")


def seeded_game(shape, seed):
    rng = np.random.default_rng(seed)
    return make_game([rng.uniform(-1.0, 1.0, shape) for _ in shape])


# players of unequal action counts: the engine steps them in several blocks;
# (2, 2, 3, 3) has two players in each block, the second at a column offset
MIXED = {"mixed_2x3": seeded_game((2, 3), 23), "mixed_3x2x2": seeded_game((3, 2, 2), 322),
         "mixed_2x2x3x3": seeded_game((2, 2, 3, 3), 2233)}


def game_named(name):
    return MIXED[name] if name in MIXED else builtin_game(name)


def logit_profile(scores):
    """Independent reference: the choice map of each player on its own."""
    return [choice_map(LOGIT, y) for y in scores]


def explored(profile, delta):
    """Independent reference: each strategy mixed toward the uniform one."""
    return [(1 - delta) * x + delta / len(x) for x in profile]


# ---------------------------------------------------------------------------
# schedules


def test_schedule_values():
    s = Schedule(base=0.2, exponent=0.5)
    assert s.value(1) == 0.2
    assert s.value(4) == pytest.approx(0.1)
    assert Schedule(base=3.0).value(1000) == 3.0


@pytest.mark.parametrize("base,exponent", [
    (0.0, 0.5), (-1.0, 0.5), (np.inf, 0.5), (np.nan, 0.5),
    (0.2, -0.1), (0.2, 1.5),
])
def test_schedule_rejects_bad_parameters(base, exponent):
    with pytest.raises(InputError):
        Schedule(base=base, exponent=exponent)


def test_schedule_is_indexed_from_one():
    with pytest.raises(InputError):
        Schedule(base=0.2, exponent=0.5).value(0)


# ---------------------------------------------------------------------------
# randomness plumbing


def test_uniform_table_columns_are_the_player_streams():
    for seed in (0, 9, 123456):
        table = uniform_table(seed, n_players=3, horizon=21)
        assert table.shape == (21, 3)
        for i in range(3):
            assert table[:, i].tobytes() == player_stream(seed, i).random(21).tobytes()
        # the horizon never changes a draw, across Philox block boundaries
        assert uniform_table(seed, 3, 10).tobytes() == table[:10].tobytes()


def test_player_streams_are_independent_and_reproducible():
    a = player_stream(7, 0).random(5)
    b = player_stream(7, 1).random(5)
    assert not np.allclose(a, b)
    assert np.array_equal(player_stream(7, 0).random(5), a)


def test_perturbation_stream_is_its_own_substream():
    pert = perturbation_stream(7).random(5)
    for player in range(4):
        assert not np.allclose(pert, player_stream(7, player).random(5))
    assert np.array_equal(perturbation_stream(7).random(5), pert)


@pytest.mark.parametrize("args", [(-1, 0), (0, -1)])
def test_derive_run_seed_rejects_negative_inputs(args):
    with pytest.raises(InputError, match="nonnegative"):
        derive_run_seed(*args)


def test_derive_run_seed_is_stable_and_spread():
    assert derive_run_seed(99, 3) == derive_run_seed(99, 3)
    seeds = {derive_run_seed(99, i) for i in range(50)}
    assert len(seeds) == 50
    assert derive_run_seed(98, 0) != derive_run_seed(99, 0)


# ---------------------------------------------------------------------------
# bandit building blocks


def test_sample_actions_inverse_cdf():
    x = [np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])]
    assert sample_actions(x, [0.25, 0.1]) == [0, 0]
    assert sample_actions(x, [0.75, 0.4]) == [1, 1]
    assert sample_actions(x, [0.999, 0.999]) == [1, 2]
    # uniforms lie in [0, 1): the largest one below 1 never draws a trailing
    # action of probability 0, and 1 itself is rejected
    top = np.nextafter(1.0, 0.0)
    assert sample_actions(x, [top, top]) == [1, 2]
    assert sample_actions([np.array([0.5, 0.5, 0.0])], [top]) == [1]
    with pytest.raises(InputError, match=r"\[0, 1\)"):
        sample_actions([np.array([0.5, 0.5, 0.0])], [1.0])


def test_sample_actions_errors():
    x = [np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])]
    with pytest.raises(InputError, match="one uniform per player"):
        sample_actions(x, [0.25, 0.1, 0.3])
    rows = [np.stack([xi, xi]) for xi in x]
    with pytest.raises(InputError, match="disagree in number"):
        sample_actions(rows, np.full((3, 2), 0.5))
    for uniforms in ([1.5, -0.5], [np.nan, 7.0]):  # unchecked, [1, 0] and [0, 2]
        with pytest.raises(InputError, match=r"\[0, 1\)"):
            sample_actions(x, uniforms)


@pytest.mark.parametrize("row,fragment", [
    ([np.nan, 0.5, 0.5], "NaN or Inf"),
    ([0.0, 0.0, 0.0], "does not sum to 1"),
    ([-0.5, 1.5, 0.0], "negative entry"),
], ids=["nan", "all-zero", "negative"])
def test_sample_actions_rejects_rows_off_the_simplex(row, fragment):
    # unchecked, a NaN row draws action 0 and an all-zero row draws the
    # last action, which has probability 0
    rows = [np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.2, 0.3, 0.5], row])]
    with pytest.raises(InputError, match=fragment):
        sample_actions(rows, np.full((2, 2), 0.5))


def test_sample_actions_rows_follow_searchsorted(rng):
    explored = [rng.dirichlet(np.ones(m), size=40) for m in (2, 3, 5)]
    uniforms = rng.random((40, 3))
    uniforms[0] = np.nextafter(1.0, 0.0)
    got = sample_actions(explored, uniforms)
    assert got.shape == (40, 3)
    for r in range(40):
        for i, x in enumerate(explored):
            c = np.cumsum(x[r])
            want = min(int(np.searchsorted(c, uniforms[r, i] * c[-1], side="right")),
                       len(c) - 1)
            assert got[r, i] == want


def test_iwe_rows_match_single_profiles(vz):
    rng = np.random.default_rng(8)
    xhat = [rng.dirichlet(np.ones(4), size=10) for _ in range(2)]
    acts = rng.integers(0, 4, size=(10, 2))
    rows = iwe(vz, xhat, acts)
    for r in range(10):
        alone = iwe(vz, [x[r] for x in xhat], acts[r].tolist())
        for got, want in zip(rows, alone):
            assert got[r].tobytes() == want.tobytes()


def test_iwe_support_and_errors(mp):
    xhat = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
    est = iwe(mp, xhat, [0, 1])
    assert est[0][1] == 0.0 and est[1][0] == 0.0
    assert est[0][0] == pytest.approx(mp.payoffs[0][0, 1] / 0.3)
    assert est[1][1] == pytest.approx(mp.payoffs[1][0, 1] / 0.4)
    with pytest.raises(InputError):
        iwe(mp, xhat, [0])
    with pytest.raises(InputError):
        iwe(mp, xhat, [0, 5])
    with pytest.raises(InputError):
        iwe(mp, [np.array([1.0, 0.0]), np.array([0.5, 0.5])], [1, 0])


def test_iwe_is_unbiased_by_enumeration(mp):
    xhat = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
    want = payoff_vectors(mp, xhat)
    mean = [np.zeros(2), np.zeros(2)]
    for a, b in itertools.product(range(2), range(2)):
        w = xhat[0][a] * xhat[1][b]
        est = iwe(mp, xhat, [a, b])
        mean = [m + w * e for m, e in zip(mean, est)]
    for m, v in zip(mean, want):
        assert np.allclose(m, v, atol=1e-12)


# ---------------------------------------------------------------------------
# one-step semantics, read off the first rows of a run: row k holds the
# pre-update x and scores of step k + 1, and scores[k + 1] is
# scores[k] + gamma_{k+1} vhat[k]


def manual_v(game, xs):
    return payoff_vectors(game, xs)


def test_run_starts_from_zero_scores(vz):
    traj = run(vz, LOGIT, Full(), Schedule(0.1, 0.0), 1)
    assert traj.n.tolist() == [1]
    assert np.array_equal(traj.scores[0], np.zeros(8))
    assert np.allclose(traj.x[0], 0.25)


def test_run_validates_initial_scores(vz):
    for y0 in ([np.zeros(4)], [np.zeros(4), np.zeros(3)],
               [np.zeros(4), np.array([1.0, np.nan, 0, 0])]):
        with pytest.raises(InputError):
            run(vz, LOGIT, Full(), Schedule(0.1, 0.0), 1, y0=y0)


def test_full_step_updates_scores_with_the_true_field(vz):
    y0 = [np.array([0.1, 0.0, -0.1, 0.2])] * 2
    traj = run(vz, LOGIT, Full(), Schedule(0.2, 0.5), 2, y0=y0)
    x_before = logit_profile(y0)
    v = manual_v(vz, x_before)

    assert traj.n[0] == 1 and traj.gamma[0] == 0.2
    assert np.allclose(traj.vhat[0], np.concatenate(v), atol=1e-12)
    assert not traj.bias.any() and not traj.noise.any()
    assert np.all(traj.realized == -1)
    # row 0 holds the pre-update snapshot
    assert np.array_equal(traj.scores[0], np.concatenate(y0))
    assert np.array_equal(traj.x[0], np.concatenate(x_before))
    # y <- y + gamma vhat, x <- Q(y)
    y1 = traj.scores[0] + 0.2 * traj.vhat[0]
    assert np.array_equal(traj.scores[1], y1)
    want = logit_profile([y1[:4], y1[4:]])
    assert np.array_equal(traj.x[1], np.concatenate(want))
    # gaps replay: best response payoff minus realized mixed payoff
    for gap, g, xi in zip(traj.gaps[0], v, x_before):
        assert gap == pytest.approx(float(g.max() - np.dot(g, xi)))


def test_optimistic_first_step_is_plain_then_extrapolates(vz):
    traj = run(vz, LOGIT, Optimistic(), Schedule(0.1, 0.0), 2,
               y0=[np.array([0.3, 0.0, 0.0, -0.3])] * 2)
    v1 = np.concatenate(manual_v(vz, traj.profile_at(0)))
    assert np.allclose(traj.vhat[0], v1, atol=1e-12)
    assert np.allclose(traj.bias[0], 0, atol=1e-15)

    assert np.array_equal(traj.scores[1], traj.scores[0] + 0.1 * traj.vhat[0])
    v2 = np.concatenate(manual_v(vz, traj.profile_at(1)))
    assert np.allclose(traj.vhat[1], 2 * v2 - v1, atol=1e-12)
    assert np.allclose(traj.bias[1], v2 - v1, atol=1e-12)


def test_mirror_prox_evaluates_the_half_step(vz):
    y0 = [np.array([0.2, -0.1, 0.0, 0.1])] * 2
    traj = run(vz, LOGIT, MirrorProx(), Schedule(0.3, 0.0), 1, y0=y0)
    v = manual_v(vz, traj.profile_at(0))
    x_half = logit_profile([y + 0.3 * g for y, g in zip(y0, v)])
    v_half = np.concatenate(manual_v(vz, x_half))
    assert np.allclose(traj.vhat[0], v_half, atol=1e-12)
    assert np.allclose(traj.bias[0], v_half - np.concatenate(v), atol=1e-12)


def test_clairvoyant_lands_on_the_implicit_fixed_point(vz):
    traj = run(vz, LOGIT, Clairvoyant(), Schedule(0.4, 0.0), 2,
               y0=[np.array([0.5, 0.0, -0.5, 0.0])] * 2)
    # x_2 = Q(y_1 + gamma vhat_1) is x+, so Q(y_1 + gamma v(x+)) = x+
    assert np.array_equal(traj.scores[1], traj.scores[0] + 0.4 * traj.vhat[0])
    v_plus = np.concatenate(manual_v(vz, traj.profile_at(1)))
    assert np.allclose(traj.vhat[0], v_plus, atol=1e-8)


def test_clairvoyant_iteration_cap_raises(vz, monkeypatch):
    # from zero scores under a constant step of 1, the damped map cycles at
    # step 3 with a residual that a larger cap does not shrink
    sch = Schedule(1.0)
    run(vz, EUCLIDEAN, Clairvoyant(), sch, 2)
    for cap in (1000, 4000):
        monkeypatch.setattr(learning, "_PICARD_ITERS", cap)
        with pytest.raises(NumericError, match=f"residual 3.734e-10 after {cap} iterations"):
            run(vz, EUCLIDEAN, Clairvoyant(), sch, 3)


def test_bandit_step_decomposition(vz):
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    traj = run(vz, LOGIT, fb, Schedule(0.2, 0.5), 2, seed=42)
    x = traj.profile_at(0)
    v = np.concatenate(manual_v(vz, x))
    realized = traj.realized[0].tolist()
    assert all(0 <= a < 4 for a in realized)

    # the engine's estimate is the public estimator's, bit for bit
    xhat = explored(x, 0.1)
    assert traj.vhat[0].tobytes() == np.concatenate(iwe(vz, xhat, realized)).tobytes()
    assert np.array_equal(traj.scores[1], traj.scores[0] + 0.2 * traj.vhat[0])
    v_mean = np.concatenate(manual_v(vz, xhat))
    assert np.allclose(traj.bias[0], v_mean - v, atol=1e-12)
    assert np.allclose(traj.noise[0], traj.vhat[0] - v_mean, atol=1e-12)
    # estimator is supported on the realized action only
    for est, a in zip((traj.vhat[0, :4], traj.vhat[0, 4:]), realized):
        mask = np.ones(4, dtype=bool)
        mask[a] = False
        assert np.all(est[mask] == 0.0)


def step_public_blocks(game_name, kernel_name, T):
    """Step the public, validating blocks by hand with the draws of
    uniform_table: the engine's x, vhat and realized actions are theirs,
    bit for bit, at every step."""
    game = game_named(game_name)
    kernel = kernel_from_name(kernel_name)
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    sch = Schedule(0.2, 0.5)
    y = [np.random.default_rng(3).uniform(-1.0, 1.0, m) for m in game.n_actions]
    traj = run(game, kernel, fb, sch, T, y0=y, seed=42)
    table = uniform_table(42, game.n_players, T)
    x = [choice_map(kernel, yi) for yi in y]
    for k in range(T):
        assert np.concatenate(x).tobytes() == traj.x[k].tobytes(), k
        xhat = explored(x, fb.exploration.value(k + 1))
        realized = sample_actions(xhat, table[k])
        assert realized == traj.realized[k].tolist(), k
        est = iwe(game, xhat, realized)
        assert np.concatenate(est).tobytes() == traj.vhat[k].tobytes(), k
        y = [yi + sch.value(k + 1) * e for yi, e in zip(y, est)]
        x = [choice_map(kernel, yi) for yi in y]


# each kernel on the one-block vz4x4 and on two-block games of unequal
# widths, the last with two players per block; a logit case is named by its
# game alone
STEP_CASES = [pytest.param(g, k, id=g if k == "logit" else f"{g}-{k}")
              for g in ("vz4x4", "mixed_2x3", "mixed_3x2x2", "mixed_2x2x3x3")
              for k in ("logit", "euclidean", "tsallis")]


@pytest.mark.parametrize("game_name,kernel_name", STEP_CASES)
def test_bandit_steps_match_the_public_blocks(game_name, kernel_name):
    step_public_blocks(game_name, kernel_name, 20)


@pytest.mark.parametrize("game_name,kernel_name", STEP_CASES)
def test_bandit_steps_match_the_public_blocks_across_draw_blocks(game_name, kernel_name):
    # the engine draws _DERIVE_ROWS steps of each stream at a time; 1100
    # steps cross one block boundary and end inside a partial block
    assert learning._DERIVE_ROWS < 1100 < 2 * learning._DERIVE_ROWS
    step_public_blocks(game_name, kernel_name, 1100)


@pytest.mark.parametrize("game_name,kernel_name", STEP_CASES)
def test_bandit_replay_reproduces_the_play(game_name, kernel_name, monkeypatch):
    # a bandit run keeps no realized actions; the replay on read, here in
    # blocks of 7 steps, gives the step's draws: the scores summed from the
    # estimates on them map to the recorded x rows bit for bit, and they
    # are sample_actions on the explored rows with uniform_table
    game = game_named(game_name)
    kernel = kernel_from_name(kernel_name)
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    T = 30
    monkeypatch.setattr(learning, "_DERIVE_ROWS", 7)
    batch = run_many(game, kernel, fb, Schedule(0.2, 0.5), T, random_starts(game, 3))
    layout = learning._layout(game.n_actions)
    delta = np.array([fb.exploration.value(n) for n in range(1, T + 1)])[:, None]
    for traj in batch:
        assert "realized" not in traj._derived
        x = learning._choice_blocks(kernel, traj.scores, layout.blocks)
        assert x.tobytes() == traj.x.tobytes()
        xhat = [(1 - delta) * xi + delta / xi.shape[1] for xi in layout.split(traj.x)]
        table = uniform_table(traj.seed, game.n_players, T)
        assert traj.realized.tobytes() == sample_actions(xhat, table).tobytes()


def test_bandit_batches_leave_the_realized_actions_underived(monkeypatch):
    # nothing an in-memory batch reports reads the realized actions
    kept = []

    def keeping(*args):
        trajectories = run_many(*args)
        kept.extend(trajectories)
        return trajectories

    monkeypatch.setattr(experiments, "run_many", keeping)
    config = config_from_dict({
        "game": "parity", "kernel": "logit", "feedback": "bandit",
        "exploration": {"base": 0.1, "exponent": 0.15},
        "step": {"base": 0.2, "exponent": 0.5}, "horizon": 40, "seed": 5,
        "init": {"kind": "grid"}, "faces": "auto:minimal_clubs",
    })
    summaries, _ = experiments.execute_batch(config)
    assert len(kept) == len(summaries) > 1
    assert not any("realized" in traj._derived for traj in kept)


def test_bandit_exploration_must_stay_in_range():
    with pytest.raises(InputError):
        Bandit(exploration=Schedule(1.5, 0.0))


def test_unknown_feedback_kind_is_rejected(vz):
    with pytest.raises(InputError):
        run(vz, LOGIT, object(), Schedule(0.1, 0.0), 1)


# ---------------------------------------------------------------------------
# whole runs


def test_run_validates_horizon(vz):
    for bad in (0, -3, 2.5, True, False):
        with pytest.raises(InputError):
            run(vz, LOGIT, Full(), Schedule(0.1, 0.5), bad)
    with pytest.raises(InputError, match="horizon"):
        run_many(vz, LOGIT, Full(), Schedule(0.1, 0.5), True, [(0, None)])


def test_run_shapes_and_columns(vz):
    T = 50
    traj = run(vz, LOGIT, Full(), Schedule(0.2, 0.5), T, seed=3)
    assert traj.n.tolist() == list(range(1, T + 1))
    assert traj.x.shape == (T, 8)
    assert traj.scores.shape == (T, 8)
    assert traj.gaps.shape == (T, 2)
    assert traj.realized.shape == (T, 2)
    assert np.all(traj.realized == -1)  # non-bandit runs never sample
    assert traj.kernel_name == "logit"
    assert traj.feedback_label == "full"
    assert np.array_equal(traj.y0, np.zeros(8))


def test_run_tau_is_the_exact_prefix_sum(vz):
    traj = run(vz, LOGIT, Full(), Schedule(0.2, 0.5), 2000)
    gammas = traj.gamma.tolist()
    for k in (0, 1, 99, 1999):
        assert traj.tau[k] == pytest.approx(math.fsum(gammas[:k + 1]), abs=1e-12)
    assert np.all(np.diff(traj.tau) > 0)




def test_bandit_run_is_seed_deterministic(vz):
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    a = run(vz, LOGIT, fb, Schedule(0.2, 0.5), 200, seed=11)
    b = run(vz, LOGIT, fb, Schedule(0.2, 0.5), 200, seed=11)
    c = run(vz, LOGIT, fb, Schedule(0.2, 0.5), 200, seed=12)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.realized, b.realized)
    assert not np.array_equal(a.realized, c.realized)
    assert np.any(a.realized >= 0)


def test_bandit_draws_can_be_spot_checked_at_any_step(vz):
    # step k + 1 samples the explored profile with row k of the uniform table
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    traj = run(vz, LOGIT, fb, Schedule(0.2, 0.5), 25, seed=5)
    table = uniform_table(5, vz.n_players, 25)
    for k in (0, 1, 3, 4, 11, 24):
        xhat = explored(traj.profile_at(k), fb.exploration.value(k + 1))
        assert sample_actions(xhat, table[k]) == traj.realized[k].tolist()


def test_logit_runs_are_invariant_to_per_player_score_shifts(vz):
    y0 = [np.array([0.4, -0.2, 0.0, 0.1]), np.array([0.0, 0.3, -0.3, 0.2])]
    shifted = [y0[0] + 5.0, y0[1] - 2.0]
    a = run(vz, LOGIT, Full(), Schedule(0.2, 0.5), 60, y0=y0)
    b = run(vz, LOGIT, Full(), Schedule(0.2, 0.5), 60, y0=shifted)
    assert np.allclose(a.x, b.x, atol=1e-10)


# ---------------------------------------------------------------------------
# lockstep batches


RECORDED = ("gamma", "tau", "x", "scores", "vhat", "bias", "noise", "realized", "gaps")


def random_starts(game, count):
    rng = np.random.default_rng(2024)
    return [
        (derive_run_seed(31, r), [rng.uniform(-1.0, 1.0, m) for m in game.n_actions])
        for r in range(count)
    ]


@pytest.mark.parametrize("game_name,kernel_name,feedback", [
    ("parity", "logit", Bandit(exploration=Schedule(0.1, 0.15))),
    ("vz4x4", "tsallis", Full()),
    ("vz4x4", "logit", Clairvoyant()),
    ("spectator", "logit", Optimistic()),
    ("vz4x4", "euclidean", MirrorProx()),
    ("parity", "euclidean", Bandit(exploration=Schedule(0.1, 0.15))),
    # appended last, so the generated ids of the cases above stay as they were
    ("mixed_2x3", "logit", Bandit(exploration=Schedule(0.1, 0.15))),
    ("mixed_3x2x2", "logit", Bandit(exploration=Schedule(0.1, 0.15))),
    ("mixed_2x3", "euclidean", Full()),
    ("mixed_3x2x2", "euclidean", Full()),
    ("mixed_2x2x3x3", "logit", Bandit(exploration=Schedule(0.1, 0.15))),
])
def test_batch_rows_match_single_runs(game_name, kernel_name, feedback):
    game = game_named(game_name)
    kernel = kernel_from_name(kernel_name)
    sch = Schedule(0.2, 0.5)
    starts = random_starts(game, 5)
    batch = run_many(game, kernel, feedback, sch, 120, starts)
    assert len(batch) == 5
    for (seed, y0), traj in zip(starts, batch):
        alone = run(game, kernel, feedback, sch, 120, y0=y0, seed=seed)
        assert traj.seed == seed
        for name in RECORDED:
            assert getattr(traj, name).tobytes() == getattr(alone, name).tobytes(), name


FEEDBACKS = {
    "full": Full(),
    "optimistic": Optimistic(),
    "mirror_prox": MirrorProx(),
    "clairvoyant": Clairvoyant(),
    "bandit": Bandit(exploration=Schedule(0.1, 0.15)),
}


@pytest.mark.parametrize("label", sorted(FEEDBACKS))
def test_run_state_invariants_hold_rowwise(vz, label, monkeypatch):
    # the derived scores map to the recorded play, and consecutive rows obey
    # y' = y + gamma vhat, bit for bit, across derive blocks of 7 steps: the
    # derived vhat is the gain the step actually added
    monkeypatch.setattr(learning, "_DERIVE_ROWS", 7)
    y0 = [np.array([0.3, -0.1, 0.0, 0.2]), np.array([-0.4, 0.0, 0.1, 0.3])]
    traj = run(vz, LOGIT, FEEDBACKS[label], Schedule(0.2, 0.5), 40, y0=y0, seed=2)
    for k in range(40):
        ys = [traj.scores[k, :4], traj.scores[k, 4:]]
        assert np.concatenate(logit_profile(ys)).tobytes() == traj.x[k].tobytes(), k
        vs = payoff_vectors(vz, [traj.x[k, :4], traj.x[k, 4:]])
        for i, v in enumerate(vs):
            xi = traj.x[k, 4 * i:4 * i + 4]
            assert traj.gaps[k, i] == pytest.approx(v.max() - np.dot(v, xi))
    lhs = traj.scores[1:]
    rhs = traj.scores[:-1] + traj.gamma[:-1, None] * traj.vhat[:-1]
    assert lhs.tobytes() == rhs.tobytes()


def test_optimistic_steps_evaluate_the_field_once_each(vz, monkeypatch):
    # each step reuses the field of the step before for v(x_{n-1})
    calls = []

    def counted(game, x, out=None):
        calls.append(len(x))
        return field(game, x, out)

    field = learning._field
    monkeypatch.setattr(learning, "_field", counted)
    run_many(vz, LOGIT, Optimistic(), Schedule(0.2, 0.5), 30, random_starts(vz, 3))
    assert calls == [3] * 30


def test_bandit_vhat_is_derived_without_the_field(vz, monkeypatch):
    # the estimate reads the explored rows and the realized actions only,
    # so deriving a bandit run's vhat and scores evaluates v(x) on no row
    calls = []

    def counted(game, x, out=None):
        calls.append(len(x))
        return field(game, x, out)

    field = learning._field
    monkeypatch.setattr(learning, "_field", counted)
    monkeypatch.setattr(learning, "_DERIVE_ROWS", 7)
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    for traj in run_many(vz, LOGIT, fb, Schedule(0.2, 0.5), 30, random_starts(vz, 3)):
        assert traj.scores.shape == traj.vhat.shape == traj.x.shape
    assert calls == []


@pytest.mark.parametrize("label", sorted(FEEDBACKS))
def test_derived_record_matches_stepwise_records(vz, label, monkeypatch):
    # a 30-step run derives bias, noise and gaps in blocks of 7 steps; a run
    # of horizon k + 1 derived one row at a time ends on step k + 1 alone;
    # its last row has the same bits as row k of the long run
    feedback = FEEDBACKS[label]
    sch = Schedule(0.2, 0.5)
    y0 = [np.array([0.3, -0.1, 0.0, 0.2]), np.array([-0.4, 0.0, 0.1, 0.3])]
    names = ("x", "scores", "vhat", "bias", "noise", "realized", "gaps")
    monkeypatch.setattr(learning, "_DERIVE_ROWS", 7)
    traj = run(vz, LOGIT, feedback, sch, 30, y0=y0, seed=8)
    long_rows = {name: getattr(traj, name) for name in names}  # derived now
    monkeypatch.setattr(learning, "_DERIVE_ROWS", 1)
    for k in range(30):
        last = run(vz, LOGIT, feedback, sch, k + 1, y0=y0, seed=8)
        for name in names:
            got = getattr(last, name)[k].tobytes()
            assert got == long_rows[name][k].tobytes(), (name, k)
    if label != "bandit":
        assert not traj.noise.any()
    if label == "full":
        assert not traj.bias.any()


@pytest.mark.parametrize("label", sorted(FEEDBACKS))
def test_derived_record_follows_its_definitions_exactly(vz, label, monkeypatch):
    # bias and noise rebuilt from the recorded rows with the operator on one
    # profile at a time, as the step that produced the row would have. The
    # record derives them in blocks of steps; a block of 1 is the one-row case
    feedback = FEEDBACKS[label]

    def field(profile):
        return np.concatenate(payoff_vectors(vz, profile))

    for block in (1, 7):
        monkeypatch.setattr(learning, "_DERIVE_ROWS", block)
        traj = run(vz, LOGIT, feedback, Schedule(0.2, 0.5), 20, seed=6)
        v = [field(traj.profile_at(k)) for k in range(20)]
        for k in range(20):
            bias = np.zeros(8)
            noise = np.zeros(8)
            if label == "optimistic":
                bias = v[k] - v[max(k - 1, 0)]
            elif label in ("mirror_prox", "clairvoyant"):
                bias = traj.vhat[k] - v[k]
            elif label == "bandit":
                delta = feedback.exploration.value(k + 1)
                mean = field(explored(traj.profile_at(k), delta))
                bias = mean - v[k]
                noise = traj.vhat[k] - mean
            assert traj.bias[k].tobytes() == bias.tobytes(), block
            assert traj.noise[k].tobytes() == noise.tobytes(), block
            for i, s in enumerate((slice(0, 4), slice(4, 8))):
                want = v[k][s].max() - (v[k][s] * traj.x[k, s]).sum()
                assert traj.gaps[k, i] == want, block


def test_derived_fields_are_cached(vz):
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    traj = run(vz, LOGIT, fb, Schedule(0.2, 0.5), 50, seed=4)
    for name in ("scores", "bias", "noise", "gaps", "vhat"):
        first = getattr(traj, name)
        assert getattr(traj, name) is first, name


@pytest.mark.parametrize("label", ["full", "bandit", "mirror_prox"])
def test_batch_stores_vhat_only_where_it_depends_on_the_scores(vz, label):
    # full, optimistic and bandit gains and the bandit draws are functions
    # of the recorded rows, so the batch holds x plus a small working set,
    # and scores, realized actions, vhat, bias, noise and gaps are derived
    # only when read; mirror-prox and clairvoyant gains are recorded beside x
    R, T = 27, 2000
    dense = R * T * sum(vz.n_actions) * np.dtype(float).itemsize
    starts = random_starts(vz, R)
    tracemalloc.start()
    try:
        batch = run_many(vz, LOGIT, FEEDBACKS[label], Schedule(0.2, 0.5), T, starts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(batch) == R
    if label == "mirror_prox":
        assert peak > 2 * dense, (peak, dense)
    else:
        assert peak < 1.25 * dense, (peak, dense)
        assert "vhat" not in batch[0]._derived


@pytest.mark.parametrize("feedback", [Full(), Bandit(exploration=Schedule(0.1, 0.15))],
                         ids=["full", "bandit"])
def test_batch_shares_read_only_per_run_constants(vz, feedback):
    batch = run_many(vz, LOGIT, feedback, Schedule(0.2, 0.5), 30, random_starts(vz, 3))
    shared = ("n", "gamma", "tau")
    if feedback.label == "full":
        shared += ("realized",)  # one block of -1 for runs that never sample
    for name in shared:
        for traj in batch:
            array = getattr(traj, name)
            assert np.shares_memory(array, getattr(batch[0], name)), name
            with pytest.raises(ValueError):
                array[0] = 0
    assert np.all(batch[0].realized == -1) == (feedback.label == "full")


def test_clairvoyant_stall_names_the_run(vz):
    # run 0 sits at its fixed point; run 1 starts where the damped map
    # cycles at step 3 (test_clairvoyant_iteration_cap_raises)
    settled = [np.array([50.0, 0.0, 0.0, 0.0])] * 2
    with pytest.raises(NumericError, match=r"in run 1 \(seed 2\)"):
        run_many(vz, EUCLIDEAN, Clairvoyant(), Schedule(1.0), 3, [(1, settled), (2, None)])


def test_score_overflow_names_the_step_run_and_seed():
    # matching pennies at +-1e300 with steps of 1e10: run 0 starts at the
    # mixed equilibrium and its field stays 0; run 1's second player leans
    # slightly, so its opponent's scores jump to about 5e307 at step 1, the
    # first player turns pure, and the second player's scores overflow at step 2
    big = make_game([[[1e300, -1e300], [-1e300, 1e300]],
                     [[-1e300, 1e300], [1e300, -1e300]]])
    starts = [(5, None), (7, [np.zeros(2), np.array([0.01, 0.0])])]
    sch = Schedule(1e10)
    one_step = run_many(big, LOGIT, Full(), sch, 1, starts)
    assert np.abs(one_step[1].vhat[0, :2]).max() * 1e10 > 1e307
    with np.errstate(over="ignore"), \
            pytest.raises(InputError, match=r"at step 2 in run 1 \(seed 7\)"):
        run_many(big, LOGIT, Full(), sch, 3, starts)


def test_bandit_score_overflow_names_the_step_run_and_seed():
    # each run starts near a pure profile and explores with weight 1e-300,
    # so it plays that profile at every step whatever its draws. Run 0
    # plays (0, 0), which pays 0; run 1 plays (1, 1), which pays both
    # players 1e300 / P = 1e300, and steps of 1e8 put 1e308 on each
    # player's action 1 at step 1 and overflow it at step 2
    big = make_game([[[0.0, 0.0], [0.0, 1e300]], [[0.0, 0.0], [0.0, 1e300]]])
    fb = Bandit(exploration=Schedule(1e-300))
    starts = [(5, [np.array([50.0, 0.0])] * 2), (7, [np.array([0.0, 50.0])] * 2)]
    sch = Schedule(1e8)
    one_step = run_many(big, LOGIT, fb, sch, 1, starts)
    assert one_step[0].vhat[0].tolist() == [0.0] * 4
    assert one_step[1].vhat[0].tolist() == [0.0, 1e300, 0.0, 1e300]
    with np.errstate(over="ignore"), \
            pytest.raises(InputError, match=r"at step 2 in run 1 \(seed 7\)"):
        run_many(big, LOGIT, fb, sch, 3, starts)


def test_run_many_needs_a_start(vz):
    with pytest.raises(InputError):
        run_many(vz, LOGIT, Full(), Schedule(0.1, 0.5), 10, [])


# ---------------------------------------------------------------------------
# payoff field modulus


def test_lipschitz_estimates_on_builtins(vz):
    assert lipschitz_estimate(vz) == pytest.approx(0.5)
    assert lipschitz_estimate(builtin_game("parity")) == pytest.approx(0.5)
    flat = make_game([np.full((2, 2), 3.0), np.full((2, 2), -1.0)])
    assert lipschitz_estimate(flat) == 0.0


def test_lipschitz_bounds_field_differences(rng, vz):
    L = lipschitz_estimate(vz)
    for _ in range(100):
        xs = [rng.dirichlet(np.ones(4)) for _ in range(2)]
        ys = [rng.dirichlet(np.ones(4)) for _ in range(2)]
        va = payoff_vectors(vz, xs)
        vb = payoff_vectors(vz, ys)
        lhs = max(float(np.abs(a - b).max()) for a, b in zip(va, vb))
        rhs = L * sum(float(np.abs(a - b).sum()) for a, b in zip(xs, ys))
        assert lhs <= rhs + 1e-12
