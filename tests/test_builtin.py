from pathlib import Path

import numpy as np
import pytest

from rlgames import (
    InputError,
    builtin_game,
    enumerate_pure_nash,
    game_to_json,
    load_game,
)
from rlgames.builtin import BUILTIN_GAMES
from rlgames.game import payoff_pure

FIXTURES = Path(__file__).parent / "fixtures" / "games"


def test_listing_matches_fixture_directory():
    assert {p.stem for p in FIXTURES.glob("*.json")} == set(BUILTIN_GAMES)


@pytest.mark.parametrize("name", sorted([
    "vz4x4", "parity", "spectator", "twisted_mp", "outside_mp",
    "matching_pennies_2p",
]))
def test_builtins_match_checked_in_fixtures(name):
    game = builtin_game(name)
    path = FIXTURES / f"{name}.json"
    assert game_to_json(game) + "\n" == path.read_text()
    reloaded = load_game(path)
    assert reloaded.n_actions == game.n_actions
    for a, b in zip(reloaded.payoffs, game.payoffs):
        assert np.array_equal(a, b)


def test_unknown_name_is_rejected():
    with pytest.raises(InputError, match="unknown builtin"):
        builtin_game("vz5x5")


def test_each_call_returns_a_fresh_object():
    assert builtin_game("parity") is not builtin_game("parity")


def test_vz4x4_payoff_spot_values():
    g = builtin_game("vz4x4")
    assert g.n_actions == (4, 4)
    assert payoff_pure(g, 0, (0, 0)) == 1.0
    assert payoff_pure(g, 0, (1, 0)) == pytest.approx(2 / 3)
    assert payoff_pure(g, 0, (3, 0)) == pytest.approx(-1 / 3)
    assert payoff_pure(g, 1, (0, 3)) == pytest.approx(-1 / 3)
    assert payoff_pure(g, 1, (2, 2)) == 1.0


def test_parity_pays_on_even_action_sums():
    g = builtin_game("parity")
    assert g.n_actions == (2, 2, 2)
    for prof in np.ndindex(2, 2, 2):
        want = 1.0 if sum(prof) % 2 == 0 else 0.0
        for i in range(3):
            assert payoff_pure(g, i, prof) == want
    assert enumerate_pure_nash(g, strict_only=True) == [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
    ]


def test_spectator_third_player_is_indifferent():
    g = builtin_game("spectator")
    assert np.all(g.payoffs[2] == 0.0)
    assert payoff_pure(g, 0, (0, 0, 1)) == 1.0
    assert payoff_pure(g, 1, (1, 0, 0)) == 0.0


def test_matching_pennies_is_zero_sum_with_no_pure_equilibrium():
    g = builtin_game("matching_pennies_2p")
    assert np.array_equal(g.payoffs[0], -g.payoffs[1])
    assert enumerate_pure_nash(g) == []


def test_twisted_mp_second_action_bonus():
    g = builtin_game("twisted_mp")
    assert np.all(g.payoffs[0][0] == 0.0)
    assert np.all(g.payoffs[0][1] == 0.1)


def test_outside_mp_payoffs_are_signs():
    g = builtin_game("outside_mp")
    for u in g.payoffs:
        assert set(np.unique(u)) == {-1.0, 1.0}
