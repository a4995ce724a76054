import json

import numpy as np
import pytest

from rlgames import (
    AUTO_FACES,
    Bandit,
    Clairvoyant,
    ConfigError,
    ExplicitInit,
    ExperimentConfig,
    Full,
    GridInit,
    MirrorProx,
    Schedule,
    builtin_game,
    config_from_dict,
    config_from_json,
)


def minimal(**overrides):
    data = {"game": "vz4x4", "kernel": "logit", "horizon": 100}
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# happy path and defaults


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(minimal())
    assert cfg == ExperimentConfig(
        game="vz4x4",
        kernel="logit",
        horizon=100,
        feedback=Full(),
        step=Schedule(0.2, 0.5),
        seed=0,
        init=GridInit(values=(0.0,), dims=1, radius=0.0),
        faces=AUTO_FACES,
        output=None,
    )


def test_full_config_round_trip():
    cfg = config_from_dict(minimal(
        feedback={"kind": "bandit"},
        exploration={"base": 0.1, "exponent": 0.15},
        step={"base": 0.3, "exponent": 0.5},
        seed=7,
        init={"kind": "grid", "values": [-1, 0, 1], "dims": 3, "radius": 0.1},
        faces=[[[0], [0]], [[0, 2], [0, 2]]],
        output="out/dir",
    ))
    assert cfg.feedback == Bandit(exploration=Schedule(0.1, 0.15))
    assert cfg.step == Schedule(0.3, 0.5)
    assert cfg.seed == 7
    assert cfg.init == GridInit(values=(-1.0, 0.0, 1.0), dims=3, radius=0.1)
    assert cfg.faces == (((0,), (0,)), ((0, 2), (0, 2)))
    assert cfg.output == "out/dir"


def test_feedback_accepts_bare_strings():
    assert config_from_dict(minimal(feedback="mirror_prox")).feedback == MirrorProx()
    cfg = config_from_dict(minimal(feedback={"kind": "clairvoyant"}))
    assert cfg.feedback == Clairvoyant()


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal(seed=3)))
    assert config_from_json(path).seed == 3

    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        config_from_json(path)


# ---------------------------------------------------------------------------
# rejection matrix: every violation gets its own message


@pytest.mark.parametrize("data,fragment", [
    ([1, 2], "must be a JSON object"),
    (minimal(extra=1), "unknown fields"),
    ({"kernel": "logit", "horizon": 5}, "missing required field 'game'"),
    ({"game": "vz4x4", "horizon": 5}, "missing required field 'kernel'"),
    (minimal(kernel="gibbs"), "kernel is invalid"),
    (minimal(kernel="power:1"), "kernel is invalid"),
    ({"game": "vz4x4", "kernel": "logit"}, "missing required field 'horizon'"),
    (minimal(horizon=0), "at least 1"),
    (minimal(horizon=2.5), "'horizon' must be"),
    (minimal(horizon=True), "'horizon' must be"),
    (minimal(game=12), "'game' must be"),
    (minimal(seed=-1), "seed must be"),
    (minimal(seed="abc"), "seed must be"),
    (minimal(feedback="psychic"), "feedback kind must be one of"),
    (minimal(feedback=7), "must be a kind name or object"),
    (minimal(feedback="full", exploration={"base": 0.1}),
     "only bandit feedback takes"),
    (minimal(feedback="bandit"), "requires an 'exploration' schedule"),
    (minimal(feedback="bandit", exploration={"base": 1.5}),
     "exploration is invalid"),
    (minimal(feedback="bandit", exploration={"exponent": 0.2}),
     "missing its base"),
    (minimal(feedback={"kind": "full", "tol": 1.0}), "takes no extra fields"),
    (minimal(feedback={"kind": "clairvoyant", "tol": 1e-8}), "takes no extra fields"),
    (minimal(feedback={"kind": "clairvoyant", "max_iters": 50}), "takes no extra fields"),
    (minimal(step={"base": 0.2, "warmup": 3}), "unknown fields"),
    (minimal(step={"exponent": 0.5}), "missing its base"),
    (minimal(step={"base": "fast"}), "base must be a number"),
    (minimal(step={"base": 0.2, "exponent": 1.5}), "step is invalid"),
    (minimal(step=[0.2, 0.5]), "must be an object"),
    (minimal(init=[1, 2]), "'init' must be an object"),
    (minimal(init={"kind": "warm"}), "init kind must be"),
    (minimal(init={"kind": "explicit"}), "nonempty 'scores' list"),
    (minimal(init={"kind": "explicit", "scores": [[0.1], "x"]}),
     "lists of numbers"),
    (minimal(init={"kind": "explicit", "scores": [[np.inf]]}), "finite"),
    (minimal(init={"kind": "explicit", "scores": [[0.0]], "dims": 2}),
     "unknown fields"),
    (minimal(init={"kind": "grid", "values": []}), "nonempty list"),
    (minimal(init={"kind": "grid", "values": [0.0], "dims": 0}),
     "dims must be a positive integer"),
    (minimal(init={"kind": "grid", "radius": -0.5}), "radius must be"),
    (minimal(init={"kind": "grid", "spread": 1}), "unknown fields"),
    (minimal(faces="all"), "faces must be"),
    (minimal(faces=[[0, 1]]), "list of per-player action lists"),
    (minimal(faces=[[[0], []]]), "nonempty lists of action indices"),
    (minimal(faces=[[[0], [0.5]]]), "nonempty lists of action indices"),
    (minimal(output=7), "output must be a directory path string"),
    # numbers too large for a double, and non-numbers, name their field
    (minimal(step={"base": 0.2, "exponent": 10**400}), "step exponent must be finite"),
    (minimal(step={"base": 0.2, "exponent": "1"}), "step exponent must be a number"),
    (minimal(feedback="bandit", exploration={"base": 10**400}),
     "exploration base must be finite"),
    (minimal(feedback={"kind": "clairvoyant", "tol": "small"}), "takes no extra fields"),
    (minimal(init={"kind": "explicit", "scores": [[0.0, "1"]]}),
     "explicit init score must be a number"),
    (minimal(init={"kind": "explicit", "scores": [[-10**400]]}),
     "explicit init score must be finite"),
    (minimal(init={"kind": "grid", "values": [0.0, None]}),
     "grid init value must be a number"),
    (minimal(init={"kind": "grid", "values": [10**400]}), "grid init value must be finite"),
    (minimal(init={"kind": "grid", "radius": True}), "grid init radius must be a number"),
    (minimal(init={"kind": "grid", "radius": 10**400}), "grid init radius must be finite"),
    (minimal(faces=7), "faces must be a string sentinel or a list"),
])
def test_config_rejections(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(data)


# ---------------------------------------------------------------------------
# init specs resolved against games


def test_explicit_init_builds_one_start():
    game = builtin_game("vz4x4")
    init = ExplicitInit(scores=((0.5, 0.0, -0.5, 0.0), (0.0, 0.0, 0.0, 0.0)))
    starts = init.base_starts(game)
    assert len(starts) == 1
    assert np.allclose(starts[0][0], [0.5, 0.0, -0.5, 0.0])
    assert init.perturbation_radius == 0.0


def test_explicit_init_shape_mismatches():
    game = builtin_game("vz4x4")
    with pytest.raises(ConfigError, match="players"):
        ExplicitInit(scores=((0.0,) * 4,)).base_starts(game)
    with pytest.raises(ConfigError, match="actions"):
        ExplicitInit(scores=((0.0,) * 4, (0.0,) * 3)).base_starts(game)


def test_grid_slots_round_robin_over_players():
    parity = builtin_game("parity")
    assert GridInit(dims=3).coordinate_slots(parity) == [(0, 0), (1, 0), (2, 0)]
    vz = builtin_game("vz4x4")
    assert GridInit(dims=3).coordinate_slots(vz) == [(0, 0), (1, 0), (0, 1)]
    assert GridInit(dims=5).coordinate_slots(vz) == [
        (0, 0), (1, 0), (0, 1), (1, 1), (0, 2),
    ]


def test_grid_slots_cannot_exceed_the_score_space():
    mp = builtin_game("matching_pennies_2p")
    with pytest.raises(ConfigError, match="exceeds"):
        GridInit(dims=5).coordinate_slots(mp)


def test_grid_starts_enumerate_the_product_row_major():
    parity = builtin_game("parity")
    init = GridInit(values=(-1.0, 0.0, 1.0), dims=3, radius=0.1)
    starts = init.base_starts(parity)
    assert len(starts) == 27
    # first start: all coordinates at the first grid value
    assert [y.tolist() for y in starts[0]] == [[-1.0, 0.0]] * 3
    # the last coordinate varies fastest
    assert [y.tolist() for y in starts[1]] == [[-1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]
    assert [y.tolist() for y in starts[-1]] == [[1.0, 0.0]] * 3
    assert init.perturbation_radius == 0.1


def test_default_init_is_a_single_zero_start():
    cfg = config_from_dict(minimal())
    starts = cfg.init.base_starts(builtin_game("vz4x4"))
    assert len(starts) == 1
    assert all(np.all(y == 0.0) for y in starts[0])
    assert cfg.init.perturbation_radius == 0.0
