import csv
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from rlgames import (
    Bandit,
    Full,
    InputError,
    Schedule,
    builtin_game,
    config_from_dict,
    distance_to_face,
    face_distances,
    face_from_lists,
    kernel_from_name,
    minimal_clubs,
    random_game,
    regret,
    run,
    run_batch,
    singleton_face,
    write_trajectory_csv,
)
from rlgames import trajectory
from rlgames.experiments import _perturbed_starts, load_game_spec, resolve_faces
from rlgames.trajectory import _write_csvs, csv_header

LOGIT = kernel_from_name("logit")


@pytest.fixture(scope="module")
def vz():
    return builtin_game("vz4x4")


@pytest.fixture(scope="module")
def traj(vz):
    return run(vz, LOGIT, Full(), Schedule(0.2, 0.5), 80, seed=2)


@pytest.fixture(scope="module")
def bandit_traj(vz):
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    return run(vz, LOGIT, fb, Schedule(0.2, 0.5), 80, seed=2)


def test_trajectory_layout(traj):
    assert traj.n_players == 2
    assert traj.dim == 8
    assert traj.horizon == 80
    assert traj.player_slice(0) == slice(0, 4)
    assert traj.player_slice(1) == slice(4, 8)
    with pytest.raises(InputError):
        traj.player_slice(2)


def test_list_action_counts_become_a_tuple_of_ints(tmp_path, vz, traj):
    # a record built with a list behaves exactly as the engine's tuple one
    listed = dataclasses.replace(traj, n_actions=[np.int64(4), 4])
    assert listed.n_actions == (4, 4)
    assert all(type(m) is int for m in listed.n_actions)
    assert listed.dim == traj.dim
    assert all(np.array_equal(a, b) for a, b in zip(listed.profile_at(-1), traj.profile_at(-1)))
    face = singleton_face(vz, (0, 0))
    assert np.array_equal(face_distances(listed, face), face_distances(traj, face))
    assert np.array_equal(regret(listed, vz), regret(traj, vz))
    write_trajectory_csv(listed, tmp_path / "listed.csv", faces=[face])
    write_trajectory_csv(traj, tmp_path / "tuple.csv", faces=[face])
    assert (tmp_path / "listed.csv").read_bytes() == (tmp_path / "tuple.csv").read_bytes()


def test_profile_views_match_rows(traj):
    prof = traj.profile_at(10)
    assert np.array_equal(prof[0], traj.x[10, :4])
    assert np.array_equal(prof[1], traj.x[10, 4:])
    last = traj.profile_at(-1)
    assert np.array_equal(last[0], traj.x[-1, :4])
    prof[0][0] = 77.0  # views are copies
    assert traj.x[10, 0] != 77.0


def every_face(n_actions):
    """The whole face lattice: every product of nonempty supports."""
    supports = [
        [s for r in range(1, m + 1) for s in itertools.combinations(range(m), r)]
        for m in n_actions
    ]
    return [face_from_lists(c) for c in itertools.product(*supports)]


def test_face_distances_agree_with_pointwise_distance(vz, traj):
    # every face of the vz4x4 lattice, and of a seeded 2x3x2 game under
    # bandit feedback, at every step: the two must be the same bits
    mixed = random_game(np.random.default_rng(23), (2, 3, 2))
    mixed_traj = run(mixed, LOGIT, Bandit(exploration=Schedule(0.1, 0.15)),
                     Schedule(0.2, 0.5), 80, seed=5)
    for game, tr in ((vz, traj), (mixed, mixed_traj)):
        faces = every_face(game.n_actions)
        assert len(faces) == np.prod([2**m - 1 for m in game.n_actions])
        for face in faces:
            series = face_distances(tr, face)
            assert series.shape == (tr.horizon,)
            want = [distance_to_face(game, tr.profile_at(k), face)
                    for k in range(tr.horizon)]
            assert series.tolist() == want
        whole = face_from_lists([range(m) for m in game.n_actions])
        assert np.all(face_distances(tr, whole) == 0.0)


def test_face_distances_validation(traj):
    with pytest.raises(InputError):
        face_distances(traj, face_from_lists([[0], [0], [0]]))
    with pytest.raises(InputError):
        face_distances(traj, face_from_lists([[0], [9]]))


def test_csv_header_contract(traj):
    assert csv_header(traj, 2) == [
        "n", "gamma", "tau",
        "x_0_0", "x_0_1", "x_0_2", "x_0_3",
        "x_1_0", "x_1_1", "x_1_2", "x_1_3",
        "realized_0", "realized_1",
        "regret_0", "regret_1",
        "dist_0", "dist_1",
    ]


def read_columns(path):
    """A trajectory CSV as {column name: array}; step and action columns are ints."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return {
        name: np.array(col, dtype=np.int64 if name == "n" or name.startswith("realized_")
                       else float)
        for name, col in zip(header, zip(*rows))
    }


def test_csv_round_trip_is_lossless(tmp_path, vz, traj):
    faces = [singleton_face(vz, (0, 0)), singleton_face(vz, (2, 2))]
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path, faces=faces)
    cols = read_columns(path)

    assert np.array_equal(cols["n"], traj.n)
    assert cols["n"].dtype == np.int64
    assert np.array_equal(cols["gamma"], traj.gamma)  # exact, 17 digits
    assert np.array_equal(cols["tau"], traj.tau)
    for i in range(2):
        for a in range(4):
            assert np.array_equal(cols[f"x_{i}_{a}"], traj.x[:, 4 * i + a])
        assert np.array_equal(cols[f"regret_{i}"], traj.gaps[:, i])
        assert np.array_equal(cols[f"dist_{i}"], face_distances(traj, faces[i]))


def test_csv_realized_is_minus_one_without_sampling(tmp_path, traj):
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    cols = read_columns(path)
    assert np.all(cols["realized_0"] == -1)
    assert np.all(cols["realized_1"] == -1)
    assert cols["realized_0"].dtype == np.int64


def test_csv_records_bandit_actions(tmp_path, bandit_traj):
    path = tmp_path / "t.csv"
    write_trajectory_csv(bandit_traj, path)
    cols = read_columns(path)
    for i in (0, 1):
        got = cols[f"realized_{i}"]
        assert np.array_equal(got, bandit_traj.realized[:, i])
        assert got.min() >= 0 and got.max() <= 3


def csv_derived(tmp_path, vz, feedback):
    """The fields that writing the CSV of a fresh 80-step run derives."""
    fresh = run(vz, LOGIT, feedback, Schedule(0.2, 0.5), 80, seed=2)
    stored = set(fresh._derived)
    write_trajectory_csv(fresh, tmp_path / "t.csv")
    return set(fresh._derived) - stored


def test_csv_derives_only_the_gaps(tmp_path, vz):
    # the CSV reads the regret summands and the realized actions, so a
    # bandit run caches them, replaying its draws, and no vhat, bias or noise
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    assert csv_derived(tmp_path, vz, fb) == {"gaps", "realized"}


def test_csv_of_a_full_run_derives_only_the_gaps(tmp_path, vz):
    # a run that never samples stores its block of -1 as its realized actions
    assert csv_derived(tmp_path, vz, Full()) == {"gaps"}


def test_csv_text_shape(tmp_path, traj):
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path, faces=[face_from_lists([range(4)] * 2)])
    text = path.read_text()
    lines = text.splitlines()
    assert len(lines) == traj.horizon + 1
    assert text.endswith("\n")
    assert not text.endswith("\n\n")
    # every data row has the full column count
    width = len(lines[0].split(","))
    assert all(len(line.split(",")) == width for line in lines[1:])


def test_csv_bytes_match_a_csv_writer_reference(tmp_path, vz):
    # long enough that the writer goes through several row blocks
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    traj = run(vz, LOGIT, fb, Schedule(0.2, 0.5), 700, seed=4)
    faces = minimal_clubs(vz) + [face_from_lists([range(4)] * 2)]
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path, faces=faces)

    ref = tmp_path / "ref.csv"
    dists = [face_distances(traj, f) for f in faces]
    with open(ref, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_header(traj, len(faces)))
        fmt = "{:.17g}".format
        for k in range(traj.horizon):
            writer.writerow(
                [str(int(traj.n[k])), fmt(traj.gamma[k]), fmt(traj.tau[k])]
                + [fmt(v) for v in traj.x[k]]
                + [str(int(a)) for a in traj.realized[k]]
                + [fmt(v) for v in traj.gaps[k]]
                + [fmt(d[k]) for d in dists]
            )
    assert path.read_bytes() == ref.read_bytes()


def test_batch_csvs_match_the_single_runs(tmp_path):
    # T = 1100 is no multiple of the 16-row block and spans two stacking
    # chunks; the batch formats its shared n, gamma and tau once, and each
    # file must still be the bytes of the run alone
    cfg = config_from_dict({
        "game": "parity", "kernel": "logit", "feedback": "bandit",
        "exploration": {"base": 0.1, "exponent": 0.15},
        "step": {"base": 0.2, "exponent": 0.5}, "horizon": 1100, "seed": 31,
        "init": {"kind": "grid", "values": [-1.0, 1.0], "dims": 2},
        "faces": "auto:minimal_clubs",
    })
    run_batch(cfg, tmp_path / "batch")
    game = load_game_spec(cfg.game)
    faces = resolve_faces(game, cfg.faces)
    starts = _perturbed_starts(cfg, game)
    assert len(starts) == 4
    for index, (seed, y0) in enumerate(starts):
        alone = run(game, kernel_from_name(cfg.kernel), cfg.feedback, cfg.step,
                    cfg.horizon, y0=y0, seed=seed)
        path = tmp_path / f"alone_{index}.csv"
        write_trajectory_csv(alone, path, faces=faces)
        assert (tmp_path / "batch" / f"run_{index:03d}.csv").read_bytes() == path.read_bytes()


def test_batch_writer_reuses_lead_text_only_for_the_same_arrays(tmp_path, monkeypatch, vz):
    fb = Bandit(exploration=Schedule(0.1, 0.15))
    a = run(vz, LOGIT, fb, Schedule(0.2, 0.5), 50, seed=5)
    # same n and tau as `a`, another gamma; then same n and gamma, another tau
    b = dataclasses.replace(a, gamma=a.gamma * 0.5)
    c = dataclasses.replace(a, tau=a.tau + 1.0)
    trajs = [a, dataclasses.replace(a), b, dataclasses.replace(b), c]
    faces = minimal_clubs(vz)
    for k, t in enumerate(trajs):
        write_trajectory_csv(t, tmp_path / f"alone_{k}.csv", faces=faces)
    calls = []
    block_formats = trajectory._block_formats
    monkeypatch.setattr(trajectory, "_block_formats",
                        lambda t, row: calls.append(t) or block_formats(t, row))
    _write_csvs(trajs, [tmp_path / f"batch_{k}.csv" for k in range(5)], faces)
    assert calls == [a, b, c]  # once per run of consecutive sharers
    for k in range(5):
        assert (tmp_path / f"batch_{k}.csv").read_bytes() == \
            (tmp_path / f"alone_{k}.csv").read_bytes()


def test_writing_one_long_run_keeps_no_per_step_text(tmp_path, vz):
    # the n, gamma and tau text alone is about 40% of the file; a single
    # run formats it block by block and holds only one stacking chunk
    traj = run(vz, LOGIT, Full(), Schedule(0.2, 0.5), 20_000, seed=3)
    traj.gaps
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 10, (peak, size)
