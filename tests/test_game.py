import json

import numpy as np
import pytest

from rlgames.builtin import builtin_game, matching_pennies_2p, parity, vz4x4
from rlgames import iwe
from rlgames.errors import InputError
from rlgames.game import (
    Game,
    check_distribution,
    check_profile,
    check_strategy,
    deviation_gap,
    deviation_gaps,
    enumerate_pure_nash,
    game_from_dict,
    game_to_dict,
    game_to_json,
    load_game,
    make_game,
    payoff_bound,
    payoff_mixed,
    payoff_pure,
    payoff_vector,
    payoff_vectors,
    pure_profile,
    random_game,
    strictly_dominated_pure,
    _payoff_vectors_unchecked,
)


def two_player(u1, u2):
    return make_game([np.asarray(u1, float), np.asarray(u2, float)])


# ---------------------------------------------------------------------------
# construction and validation


def test_game_fields_are_normalized_and_read_only():
    g = two_player([[1, 2], [3, 4]], [[0, 0], [0, 0]])
    assert g.n_players == 2
    assert g.n_actions == (2, 2)
    with pytest.raises(ValueError):
        g.payoffs[0][0, 0] = 9.0


def test_make_game_rejects_mismatched_shapes():
    with pytest.raises(InputError):
        make_game([np.zeros((2, 2)), np.zeros((2, 3))])


def test_make_game_rejects_nonfinite_payoffs():
    with pytest.raises(InputError):
        make_game([np.array([[1.0, np.nan], [0, 0]]), np.zeros((2, 2))])
    with pytest.raises(InputError):
        make_game([np.full((2, 2), np.inf), np.zeros((2, 2))])


def test_make_game_rejects_empty_or_wrong_player_counts():
    with pytest.raises(InputError):
        make_game([])
    with pytest.raises(InputError):
        Game(n_actions=(2, 2), payoffs=(np.zeros((2, 2)),))
    with pytest.raises(InputError, match="game needs at least one player"):
        Game(n_actions=(), payoffs=())
    with pytest.raises(InputError, match="every player needs at least one action"):
        Game(n_actions=(0,), payoffs=(np.zeros(0),))


def test_check_strategy_rejects_bad_inputs():
    g = vz4x4()
    with pytest.raises(InputError):
        check_strategy(g, 0, [0.5, 0.5])  # wrong length
    with pytest.raises(InputError):
        check_strategy(g, 0, [0.5, 0.5, 0.5, 0.5])  # does not sum to 1
    with pytest.raises(InputError):
        check_strategy(g, 0, [1.5, -0.5, 0.0, 0.0])  # negative mass
    with pytest.raises(InputError):
        check_strategy(g, 0, [np.nan, 1.0, 0.0, 0.0])
    with pytest.raises(InputError):
        check_strategy(g, 5, [1, 0, 0, 0])  # player out of range


def test_check_profile_needs_one_strategy_per_player():
    g = parity()
    with pytest.raises(InputError):
        check_profile(g, [[1, 0], [1, 0]])
    with pytest.raises(InputError, match="pure profile has 1 actions, expected 2"):
        pure_profile(vz4x4(), [0])


def test_check_distribution_shape_and_mass():
    g = two_player([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    d = check_distribution(g, [[0.25, 0.25], [0.25, 0.25]])
    assert d.shape == (2, 2)
    with pytest.raises(InputError):
        check_distribution(g, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InputError):
        check_distribution(g, np.full((2, 3), 1 / 6))


# ---------------------------------------------------------------------------
# payoff operators


def test_payoff_pure_reads_the_tensor():
    g = vz4x4()
    assert payoff_pure(g, 0, (0, 0)) == 1.0
    assert payoff_pure(g, 0, (1, 0)) == pytest.approx(2.0 / 3.0)
    assert payoff_pure(g, 1, (0, 3)) == pytest.approx(-1.0 / 3.0)
    with pytest.raises(InputError):
        payoff_pure(g, 0, (0, 4))


def test_payoff_mixed_is_multilinear(rng):
    g = random_game(rng, (3, 2, 4))
    for _ in range(10):
        xs = [rng.dirichlet(np.ones(m)) for m in g.n_actions]
        want = 0.0
        for prof in np.ndindex(*g.n_actions):
            w = np.prod([xs[i][a] for i, a in enumerate(prof)])
            want += w * g.payoffs[1][prof]
        assert payoff_mixed(g, 1, xs) == pytest.approx(want, abs=1e-12)


def test_payoff_vector_averages_back_to_payoff_mixed(rng):
    g = random_game(rng, (2, 3, 2))
    for _ in range(10):
        xs = [rng.dirichlet(np.ones(m)) for m in g.n_actions]
        for i in range(g.n_players):
            v = payoff_vector(g, i, xs)
            assert float(v @ xs[i]) == pytest.approx(payoff_mixed(g, i, xs), abs=1e-12)
            for a in range(g.n_actions[i]):
                ei = np.zeros(g.n_actions[i])
                ei[a] = 1.0
                alt = list(xs)
                alt[i] = ei
                assert v[a] == pytest.approx(payoff_mixed(g, i, alt), abs=1e-12)


def test_payoff_vectors_matches_per_player_calls(rng):
    g = random_game(rng, (2, 2))
    xs = [rng.dirichlet(np.ones(2)) for _ in range(2)]
    vs = payoff_vectors(g, xs)
    for i in range(2):
        assert np.allclose(vs[i], payoff_vector(g, i, xs), atol=0)


def test_payoff_operator_maps_rows_like_single_profiles(rng):
    g = random_game(rng, (3, 2, 4))
    rows = [rng.dirichlet(np.ones(m), size=6) for m in g.n_actions]
    check_profile(g, rows, rows=True)
    batch = _payoff_vectors_unchecked(g, np.concatenate(rows, axis=1))
    for r in range(6):
        alone = payoff_vectors(g, [x[r] for x in rows])
        assert batch[r].tobytes() == np.concatenate(alone).tobytes()


def _payoff_vector_per_player(game, player, xs):
    """Reference: v_player of R profiles, one opponent axis at a time as
    multiply-adds in action order, from the player's own tensor."""
    val = game.payoffs[player][None]
    for j in range(game.n_players):
        if j == player:
            continue
        x = xs[j]
        shape = (len(x),) + (1,) * (val.ndim - 2)
        lead = (slice(None),) * (2 if j > player else 1)
        acc = val[lead + (0,)] * x[:, 0].reshape(shape)
        for b in range(1, game.n_actions[j]):
            acc = acc + val[lead + (b,)] * x[:, b].reshape(shape)
        val = acc
    return np.broadcast_to(val, (len(xs[0]), game.n_actions[player]))


STACK_GAMES = [(name, None) for name in ("vz4x4", "parity", "spectator", "twisted_mp",
                                         "outside_mp", "matching_pennies_2p")] + [
    (None, shape) for shape in ((2, 3), (3, 2, 2), (5, 4, 4), (4, 3, 3, 3), (7, 7), (3,))
]


@pytest.mark.parametrize("rows", [1, 27, 1024])
@pytest.mark.parametrize("name,shape", STACK_GAMES,
                         ids=[n or "x".join(map(str, s)) for n, s in STACK_GAMES])
def test_stacked_operator_matches_a_per_player_contraction(name, shape, rows):
    rng = np.random.default_rng([rows, len(shape or ()), sum(shape or ())])
    g = builtin_game(name) if name else random_game(rng, shape)
    xs = [rng.dirichlet(np.ones(m), size=rows) for m in g.n_actions]
    for x in xs[:: 2]:
        # exact zeros, including pure rows, on every other player
        x[::3, 0] = 0.0
        x[1::5] = np.eye(len(x[0]))[-1]
        x /= x.sum(axis=1, keepdims=True)
    flat = np.concatenate(xs, axis=1)
    want = [_payoff_vector_per_player(g, i, xs) for i in range(g.n_players)]
    got = _payoff_vectors_unchecked(g, flat)
    assert got.tobytes() == np.concatenate(want, axis=1).tobytes()
    r = rows // 2
    one = [x[r] for x in xs]
    assert np.concatenate(payoff_vectors(g, one)).tobytes() == got[r].tobytes()
    for i in range(g.n_players):
        assert payoff_vector(g, i, one).tobytes() == want[i][r].tobytes()
        assert payoff_mixed(g, i, one) == float((want[i][r] * one[i]).sum())


def test_stacks_group_each_layout_block_read_only():
    g = random_game(np.random.default_rng(0), (4, 3, 3, 3))
    assert [s.players for s in g._stacks] == [slice(0, 1), slice(1, 4)]
    assert g._stacks is g._stacks  # built once per game
    for s in g._stacks:
        assert not s.table.flags.writeable and not s.gather.flags.writeable


def test_check_profile_rows_mode_checks_every_row():
    g = parity()
    good = [np.array([[0.5, 0.5], [1.0, 0.0]])] * 3
    assert [x.shape for x in check_profile(g, good, rows=True)] == [(2, 2)] * 3
    with pytest.raises(InputError):
        check_profile(g, [np.array([[0.5, 0.5], [0.9, 0.0]])] * 3, rows=True)
    with pytest.raises(InputError):
        check_profile(g, [np.array([0.5, 0.5])] * 3, rows=True)
    with pytest.raises(InputError):
        check_profile(g, good[:2] + [np.array([[0.5, 0.5]])], rows=True)


@pytest.mark.parametrize("player", [2, -1])
def test_payoff_calls_reject_a_player_out_of_range(player):
    g = vz4x4()
    uniform = [np.full(4, 0.25), np.full(4, 0.25)]
    for fn in (payoff_vector, payoff_mixed):
        with pytest.raises(InputError, match="player index"):
            fn(g, player, uniform)


UNIFORM = [np.full(4, 0.25), np.full(4, 0.25)]
# each public call that takes an action or player index, on vz4x4
INDEX_CALLS = {
    "iwe": lambda g, a: iwe(g, UNIFORM, [a, 1]),
    "payoff_pure": lambda g, a: payoff_pure(g, 0, [a, 1]),
    "pure_profile": lambda g, a: pure_profile(g, [a, 1]),
    "player": lambda g, a: payoff_vector(g, a, UNIFORM),
}


@pytest.mark.parametrize("index", [0.7, True, "1"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
def test_non_integer_indices_are_rejected(call, index):
    # int() would truncate 0.7 to 0 and read True and "1" as 1
    g = vz4x4()
    with pytest.raises(InputError, match="not an integer"):
        INDEX_CALLS[call](g, index)
    for integer in (1, np.int64(1)):
        INDEX_CALLS[call](g, integer)


@pytest.mark.parametrize("index", [2**63, 10**400], ids=["2**63", "10**400"])
@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
def test_indices_too_large_for_int64_are_rejected(call, index):
    # an int64 array cannot hold these, so numpy would raise OverflowError
    with pytest.raises(InputError, match=f"{index} out of range"):
        INDEX_CALLS[call](vz4x4(), index)


@pytest.mark.parametrize("index", [2**64 - 4, 2**63], ids=["2**64-4", "2**63"])
def test_unsigned_indices_too_large_for_int64_are_rejected(index):
    # astype(np.int64) would wrap these to -4 and -2**63
    g = vz4x4()
    with pytest.raises(InputError, match=f"action {index} out of range"):
        iwe(g, UNIFORM, np.array([index, 1], dtype=np.uint64))
    iwe(g, UNIFORM, np.array([1, 1], dtype=np.uint64))


def test_payoff_bound_is_max_abs_entry():
    g = two_player([[1, -7], [0, 2]], [[0, 0], [3, 0]])
    assert payoff_bound(g) == 7.0


# ---------------------------------------------------------------------------
# deviation gaps


def test_deviation_gap_is_zero_at_a_strict_pure_equilibrium():
    g = vz4x4()
    d = np.multiply.outer(*pure_profile(g, (0, 0)))
    assert deviation_gap(g, 0, d) == pytest.approx(0.0, abs=1e-15)
    assert deviation_gap(g, 1, d) == pytest.approx(0.0, abs=1e-15)


def test_deviation_gap_positive_off_equilibrium():
    g = matching_pennies_2p()
    d = np.multiply.outer(*pure_profile(g, (0, 0)))
    # the column player wants to switch away from matching
    assert deviation_gap(g, 1, d) > 0


def test_deviation_gap_negative_for_the_half_half_correlated_pair():
    g = vz4x4()
    d = np.zeros((4, 4))
    d[1, 1] = 0.5
    d[3, 3] = 0.5
    for i in range(2):
        assert deviation_gap(g, i, d) == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_deviation_gaps_vector_maxes_to_the_gap(rng):
    g = random_game(rng, (3, 3))
    d = rng.dirichlet(np.ones(9)).reshape(3, 3)
    for i in range(2):
        vec = deviation_gaps(g, i, d)
        assert vec.shape == (3,)
        assert float(vec.max()) == pytest.approx(deviation_gap(g, i, d), abs=1e-14)


def test_deviation_gaps_independent_recomputation(rng):
    g = random_game(rng, (2, 3))
    d = rng.dirichlet(np.ones(6)).reshape(2, 3)
    u = float((g.payoffs[0] * d).sum())
    # replace own play by action a while keeping the opponents' marginal
    opp = d.sum(axis=0)
    want = np.array([float(g.payoffs[0][a] @ opp) - u for a in range(2)])
    assert np.allclose(deviation_gaps(g, 0, d), want, atol=1e-14)


# ---------------------------------------------------------------------------
# equilibria and dominance


def test_enumerate_pure_nash_on_the_4x4_game():
    g = vz4x4()
    assert enumerate_pure_nash(g, strict_only=True) == [(0, 0), (2, 2)]
    assert enumerate_pure_nash(g) == [(0, 0), (2, 2)]


def test_enumerate_pure_nash_on_the_three_player_game():
    g = parity()
    strict = enumerate_pure_nash(g, strict_only=True)
    assert strict == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_ties_are_weak_but_not_strict():
    g = two_player(np.zeros((2, 2)), np.zeros((2, 2)))
    assert enumerate_pure_nash(g, strict_only=True) == []
    assert enumerate_pure_nash(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_strict_dominance_on_the_4x4_game():
    g = vz4x4()
    assert strictly_dominated_pure(g, 0) == (1, 3)
    assert strictly_dominated_pure(g, 1) == (1, 3)


def test_strict_dominance_absent_in_matching_pennies():
    g = matching_pennies_2p()
    assert strictly_dominated_pure(g, 0) == ()
    assert strictly_dominated_pure(g, 1) == ()


def test_dominance_is_pure_vs_pure_and_strict():
    # action 1 ties action 0 at one column: not strictly dominated
    g = two_player([[1.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)))
    assert strictly_dominated_pure(g, 0) == ()


# ---------------------------------------------------------------------------
# random games and serialization


def test_random_game_is_seeded_and_bounded():
    a = random_game(np.random.default_rng(5), (2, 3))
    b = random_game(np.random.default_rng(5), (2, 3))
    for i in range(2):
        assert np.array_equal(a.payoffs[i], b.payoffs[i])
        assert a.payoffs[i].min() >= -1.0 and a.payoffs[i].max() <= 1.0


def test_json_round_trip_is_exact(rng):
    g = random_game(rng, (2, 4, 3))
    back = game_from_dict(game_to_dict(g))
    assert back.n_actions == g.n_actions
    for i in range(3):
        assert np.array_equal(back.payoffs[i], g.payoffs[i])


def test_file_round_trip(tmp_path):
    g = vz4x4()
    path = tmp_path / "g.json"
    path.write_text(game_to_json(g))
    back = load_game(path)
    for i in range(2):
        assert np.array_equal(back.payoffs[i], g.payoffs[i])


def test_game_from_dict_rejects_malformed_payloads():
    good = game_to_dict(matching_pennies_2p())
    for breakage in (
        lambda d: d.pop("players"),
        lambda d: d.pop("actions"),
        lambda d: d.pop("payoffs"),
        lambda d: d.__setitem__("players", 3),
        lambda d: d.__setitem__("actions", [2, 3]),
        lambda d: d.__setitem__("payoffs", [[1, 2], [3, 4]]),
    ):
        data = json.loads(json.dumps(good))
        breakage(data)
        with pytest.raises(InputError):
            game_from_dict(data)
    with pytest.raises(InputError, match="game document must be a JSON object"):
        game_from_dict([1])
    with pytest.raises(InputError, match="'payoffs' must list one flat table per player"):
        game_from_dict({"players": 1, "actions": [2], "payoffs": "ab"})


def test_game_from_dict_rejects_nonfinite_entries():
    data = game_to_dict(matching_pennies_2p())
    data["payoffs"][0][0] = float("nan")
    with pytest.raises(InputError):
        game_from_dict(data)


def test_load_game_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_game(path)


def test_game_to_json_is_stable():
    assert game_to_json(parity()) == game_to_json(parity())
