import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rlgames import builtin_game, game_to_json, minimal_clubs
from rlgames.builtin import BUILTIN_GAMES
from rlgames.cli import analyze_game, main
from rlgames.experiments import _face_key
from rlgames.errors import InputError
from rlgames.game import game_from_dict, make_game
import rlgames.verify as verify


BANDIT = {"feedback": "bandit", "exploration": {"base": 0.1, "exponent": 0.15}}
HUGE = 10**400  # an integer no double holds


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "game": "vz4x4",
        "kernel": "logit",
        "horizon": 50,
        "seed": 9,
        "step": {"base": 0.2, "exponent": 0.5},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# analyze


def test_analyze_builtin_stdout(capsys):
    assert main(["analyze", "vz4x4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["game"] == "vz4x4"
    assert report["n_actions"] == [4, 4]
    assert report["strict_nash"] == [[0, 0], [2, 2]]
    assert report["pure_nash"] == [[0, 0], [2, 2]]
    assert report["dominated"] == [[1, 3], [1, 3]]
    assert report["minimal_clubs"] == ["{0}x{0}", "{2}x{2}"]
    assert len(report["clubs"]) == 9
    margins = {c["face"]: c["margin"] for c in report["clubs"]}
    assert margins["{0}x{0}"] == pytest.approx(1 / 3)


def test_analyze_game_file(tmp_path, capsys):
    path = tmp_path / "mp.json"
    path.write_text(game_to_json(builtin_game("matching_pennies_2p")))
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_players"] == 2
    assert report["pure_nash"] == []


def test_analyze_unknown_game_errors_as_json(capsys):
    assert main(["analyze", "atlantis"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError"
    assert "atlantis" in err["message"]


def test_analyze_game_helper_matches_cli(capsys):
    report = analyze_game("parity")
    assert main(["analyze", "parity"]) == 0
    assert json.loads(capsys.readouterr().out) == report


def test_analyze_enumerates_the_face_lattice_once(monkeypatch):
    import rlgames.cli as cli
    import rlgames.faces as faces

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "enumerate_clubs", counted(faces.enumerate_clubs))
    monkeypatch.setattr(faces, "enumerate_clubs", counted(faces.enumerate_clubs))
    for name in sorted(BUILTIN_GAMES):
        calls.clear()
        report = analyze_game(name)
        assert len(calls) == 1, name
        want = [_face_key(f) for f in minimal_clubs(builtin_game(name))]
        assert report["minimal_clubs"] == want, name


# ---------------------------------------------------------------------------
# run


def test_run_writes_outputs_and_prints_the_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    # stdout carries the very bytes of report.json
    assert stdout.encode() == (out / "report.json").read_bytes()
    printed = json.loads(stdout)
    assert printed["horizon"] == 50
    assert printed["kernel"] == "logit"
    assert set(printed["final_distances"]) == {"{0}x{0}", "{2}x{2}"}
    assert (out / "trajectory.csv").exists()


def test_run_horizon_one_yields_a_single_row(tmp_path, capsys):
    cfg = write_config(tmp_path, horizon=1)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus one step


def test_rerunning_a_config_is_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, feedback={"kind": "bandit"},
                       exploration={"base": 0.1, "exponent": 0.15})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "-o", str(a)]) == 0
    assert main(["run", str(cfg), "-o", str(b)]) == 0
    capsys.readouterr()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_run_refuses_grid_configs(tmp_path, capsys):
    cfg = write_config(tmp_path, init={"kind": "grid", "values": [-1, 0, 1],
                                       "dims": 2, "radius": 0.0})
    assert main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "batch" in err["message"]


def test_run_with_bad_config_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["run", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def last_csv_distances(path, faces):
    """The last row's dist_k values of a trajectory CSV, keyed by face."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    last = dict(zip(rows[0], rows[-1]))
    return {face: float(last[f"dist_{k}"]) for k, face in enumerate(faces)}


def test_run_report_distances_are_the_csv_last_row(tmp_path, capsys):
    # vz4x4's minimal clubs leave three actions outside per player, so the
    # distance sums several columns and a different order shows in the bits
    cfg = write_config(tmp_path, seed=3, **BANDIT)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    want = last_csv_distances(out / "trajectory.csv", report["tracked_faces"])
    assert report["final_distances"] == want


@pytest.mark.parametrize("case,fragment", [
    ({"init": {"kind": "explicit", "scores": [[0, 0, 0, HUGE], [0, 0, 0, 0]]}},
     "explicit init score must be finite"),
    ({"init": {"kind": "grid", "values": [0, HUGE]}},
     "grid init value must be finite"),
    ({"init": {"kind": "grid", "radius": HUGE}},
     "grid init radius must be finite"),
    ({"step": {"base": HUGE}}, "step base must be finite"),
])
def test_malformed_config_numbers_exit_2_with_a_json_error(tmp_path, capsys, case, fragment):
    cfg = write_config(tmp_path, **case)
    assert main(["batch", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert fragment in err["message"]


def test_numbers_past_the_integer_digit_limit_exit_2(tmp_path, capsys):
    # Python's json refuses integers of more than 4300 digits with a
    # ValueError of its own, not a JSONDecodeError
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"game": "vz4x4", "kernel": "logit", "horizon": 5, "seed": '
                   + "9" * 5000 + "}")
    assert main(["run", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    game = tmp_path / "game.json"
    game.write_text('{"players": 1, "actions": [1], "payoffs": [[' + "9" * 5000 + "]]}")
    assert main(["analyze", str(game)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


@pytest.mark.parametrize("entry,fragment", [
    ("1.5", "player 1 must be a flat list of 4 finite numbers"),
    ([1.5], "player 1 must be a flat list of 4 finite numbers"),
    (True, "player 1 must be a flat list of 4 finite numbers"),
    (HUGE, "player 1 must be a flat list of 4 finite numbers"),
], ids=["string", "nested-list", "bool", "huge-integer"])
def test_malformed_game_payoffs_exit_2_with_a_json_error(tmp_path, capsys, entry, fragment):
    doc = {"players": 2, "actions": [2, 2],
           "payoffs": [[1, 0, 0, 1], [0, 1, 1, entry]]}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError"
    assert fragment in err["message"]


@pytest.mark.parametrize("doc,fragment", [
    ({"players": True, "actions": [2], "payoffs": [[1, 0]]},
     "'players' must be a positive integer"),
    ({"players": 2, "actions": [True, 2], "payoffs": [[1, 0], [0, 1]]},
     "every action count must be a positive integer"),
    # a fixed-width product would wrap the size 2**64 to 0
    ({"players": 2, "actions": [2**32, 2**32], "payoffs": [[], []]},
     f"payoff table for player 0 must be a flat list of {2**64} finite numbers"),
], ids=["bool-players", "bool-action-count", "size-past-int64"])
def test_malformed_game_counts_exit_2_with_a_json_error(tmp_path, capsys, doc, fragment):
    with pytest.raises(InputError, match=fragment):
        game_from_dict(doc)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "InputError", "message": fragment}


def test_a_negative_face_action_exits_2_with_a_json_error(tmp_path, capsys):
    # numpy would read action -1 as the last action and track {3}x{0}
    cfg = write_config(tmp_path, faces=[[[-1], [0]], [[3], [0]]])
    assert main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError"
    assert "player 0 mentions action -1" in err["message"]


def test_run_with_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "OSError"


@pytest.mark.parametrize("argv, error", [
    (["analyze", "atlantis"], "InputError"),
    (["run", "no/such/config.json"], "OSError"),
], ids=["InputError", "OSError"])
def test_error_documents_are_two_space_json_and_one_newline(capsys, argv, error):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert list(doc) == ["error", "message"] and doc["error"] == error
    assert captured.err == json.dumps(doc, indent=2) + "\n"
    assert captured.err.startswith('{\n  "error": ') and not captured.err.endswith("\n\n")


@pytest.mark.parametrize("command, report", [("run", "report.json"),
                                             ("batch", "aggregate.json")])
def test_the_config_output_field_is_written_unless_o_overrides_it(
        tmp_path, capsys, command, report):
    configured = tmp_path / "configured"
    cfg = write_config(tmp_path, horizon=20, output=str(configured))
    assert main([command, str(cfg)]) == 0
    stdout = capsys.readouterr().out
    assert (configured / report).read_bytes() == stdout.encode()
    csvs = sorted(p.name for p in configured.glob("*.csv"))
    assert csvs == (["trajectory.csv"] if command == "run" else ["run_000.csv"])

    given = tmp_path / "given"
    assert main([command, str(cfg), "-o", str(given)]) == 0
    assert (given / report).read_bytes() == capsys.readouterr().out.encode()
    assert sorted(p.name for p in given.iterdir()) == sorted(csvs + [report])
    # the configured directory is left as the first call wrote it
    assert (configured / report).read_bytes() == stdout.encode()
    assert sorted(p.name for p in configured.iterdir()) == sorted(csvs + [report])


@pytest.mark.parametrize("feedback", [{}, BANDIT], ids=["full", "bandit"])
def test_a_horizon_past_any_allocation_exits_2(tmp_path, capsys, feedback):
    # no machine holds 10**30 steps; the record's shape is refused before
    # any step runs
    cfg = write_config(tmp_path, horizon=10**30, **feedback)
    assert main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ResourceLimitError"
    assert "R = 1 runs, T = 10" in err["message"] and "D = 8 coordinates" in err["message"]


# ---------------------------------------------------------------------------
# batch


def test_batch_of_one_matches_the_single_run(tmp_path, capsys):
    run_cfg = write_config(tmp_path, "single.json")
    batch_cfg = write_config(
        tmp_path, "batch.json",
        init={"kind": "grid", "values": [0.0], "dims": 1, "radius": 0.0},
    )
    run_out, batch_out = tmp_path / "run", tmp_path / "batch"
    assert main(["run", str(run_cfg), "-o", str(run_out)]) == 0
    capsys.readouterr()
    assert main(["batch", str(batch_cfg), "-o", str(batch_out)]) == 0
    stdout = capsys.readouterr().out
    # stdout carries the very bytes of aggregate.json
    assert stdout.encode() == (batch_out / "aggregate.json").read_bytes()
    aggregate = json.loads(stdout)

    assert aggregate["runs"] == 1
    assert aggregate["per_run"][0]["run"] == 0
    same = (batch_out / "run_000.csv").read_bytes() == \
        (run_out / "trajectory.csv").read_bytes()
    assert same
    report = json.loads((run_out / "report.json").read_text())
    assert report["final_distances"] == aggregate["per_run"][0]["final_distances"]


def test_batch_covers_the_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path, horizon=30,
        init={"kind": "grid", "values": [-1.0, 1.0], "dims": 2, "radius": 0.05},
    )
    out = tmp_path / "out"
    assert main(["batch", str(cfg), "-o", str(out)]) == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["runs"] == 4
    assert sorted(p.name for p in out.glob("run_*.csv")) == [
        "run_000.csv", "run_001.csv", "run_002.csv", "run_003.csv",
    ]
    seeds = [r["seed"] for r in aggregate["per_run"]]
    assert len(set(seeds)) == 4
    assert [r["run"] for r in aggregate["per_run"]] == [0, 1, 2, 3]
    assert 0.0 <= aggregate["convergence_fraction"] <= 1.0


def test_batch_aggregate_distances_are_the_csv_last_rows(tmp_path, capsys):
    # the c08 bandit grid, short: 27 vz4x4 runs, each distance a sum of
    # several outside columns
    cfg = write_config(tmp_path, init={"kind": "grid"}, **BANDIT)
    out = tmp_path / "out"
    assert main(["batch", str(cfg), "-o", str(out)]) == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["runs"] == 27
    for entry in aggregate["per_run"]:
        path = out / f"run_{entry['run']:03d}.csv"
        want = last_csv_distances(path, aggregate["tracked_faces"])
        assert entry["final_distances"] == want, path.name


# ---------------------------------------------------------------------------
# verify


def test_verify_list_names_all_checks(capsys):
    assert main(["verify", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    ids = [line.split()[0] for line in lines]
    assert ids == [f"c{k:02d}" for k in range(1, 12)]


def test_verify_single_check_passes(capsys):
    assert main(["verify", "--filter", "c01"]) == 0
    out = capsys.readouterr().out
    assert "c01" in out
    assert "PASS" in out
    assert "1/1 checks passed" in out


def test_verify_unknown_id_errors(capsys):
    assert main(["verify", "--filter", "c99"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError"
    assert "c99" in err["message"]


def test_importing_the_cli_leaves_the_checks_unloaded():
    # only `rlgames verify` needs the checks, so analyze, run and batch
    # never compile or import them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rlgames.cli; print('rlgames.verify' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_verify_catches_a_broken_engine(monkeypatch):
    # negative control: nudge one payoff entry and the first replay check
    # must report the discrepancy instead of passing
    real = builtin_game("vz4x4")
    tables = [u.copy() for u in real.payoffs]
    tables[0][1, 1] += 0.03
    broken = make_game(tables)
    monkeypatch.setattr(verify, "builtin_game",
                        lambda name: broken if name == "vz4x4" else builtin_game(name))
    printed = []
    results = verify.run_suite(filter_ids=["c01"], printer=printed.append)
    assert len(results) == 1
    assert not results[0].passed
    assert printed[0].startswith("c01  FAIL  correlated replay gap on vz4x4 equals -1/6\n")
    assert "measured: gap error 1." in printed[0]
    assert printed[1] == "0/1 checks passed"


def test_a_check_that_raises_prints_its_error_as_measured(monkeypatch):
    def crash(ctx):
        raise RuntimeError("engine on fire")

    check = verify.Check("c01", "a check that raises", 0.5, crash)
    monkeypatch.setattr(verify, "CHECKS", (check,))
    printed = []
    results = verify.run_suite(printer=printed.append)
    assert [r.check for r in results] == [check] and not results[0].passed
    assert printed == [
        "c01  FAIL  a check that raises\n"
        "      measured: RuntimeError: engine on fire\n"
        "      tolerance:    runtime: 0.000s/0.5s",
        "0/1 checks passed",
    ]
