"""Show that every correctness check accepts real output and rejects corrupted output.

    python3 perfbench/selftest.py [--seed N]

For each operation one worker runs it once on the seed's inputs. The
check must pass on that output; then each corruption below is applied to
a fresh copy of it, and the check must report a problem. Exits 0 when
every check behaves so, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from checks import CHECKS  # noqa: E402
from run import RUN_LIMIT_S, WORK, run_worker  # noqa: E402
from workloads import OPERATIONS, make_inputs  # noqa: E402


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row].rstrip("\n").split(",")
    k = header.index(column)
    cells[k] = edit(cells[k])
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_npz(path: Path, edit) -> None:
    with np.load(path) as npz:
        arrays = dict(npz)
    edit(arrays)
    np.savez(path, **arrays)


def _scale_profile(run: int, step: int, column: int, factor: float):
    def edit(arrays):
        arrays["x"][run, step, column] *= factor
    return edit


def _flip_sampled(run: int, step: int, player: int):
    def edit(arrays):
        arrays["realized"][run, step, player] = 3 - arrays["realized"][run, step, player]
    return edit


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


def _move_mass(path: Path, row: int, give: str, take: str, amount: float) -> None:
    """Shift probability between two actions of one player, so the row
    stays on the simplex and only the update rule can notice."""
    _edit_csv(path, row, give, lambda cell: repr(float(cell) - amount))
    _edit_csv(path, row, take, lambda cell: repr(float(cell) + amount))


def _flip_action(cell):
    return str(1 - int(cell))


def _drop_club(reports):
    report = next(r for r in reports if len(r["clubs"]) > 1)
    report["clubs"].pop(0)


def _nudge_margin(reports):
    club = next(c for r in reports for c in r["clubs"] if c["margin"] != float("inf"))
    club["margin"] += 1e-12


def _set(field, value):
    def edit(doc):
        doc[field] = value
    return edit


CORRUPTIONS = {
    "bandit-batch-csv": [
        ("one strategy value off by 1e-7 of itself",
         lambda d: _edit_csv(d / "run_004.csv", 300, "x_1_0", _scale(1 + 1e-7))),
        ("1e-9 of mass moved between two actions",
         lambda d: _move_mass(d / "run_007.csv", 400, "x_0_0", "x_0_1", 1e-9)),
        ("one realized action flipped",
         lambda d: _edit_csv(d / "run_010.csv", 500, "realized_2", _flip_action)),
        ("one regret summand off by 1e-6 of itself",
         lambda d: _edit_csv(d / "run_020.csv", 700, "regret_0", _scale(1 + 1e-6))),
        ("one face distance off by 1e-6 of itself",
         lambda d: _edit_csv(d / "run_026.csv", 1000, "dist_1", _scale(1 + 1e-6))),
        ("one final distance in aggregate.json changed",
         lambda d: _edit_json(d / "aggregate.json", lambda a: a["per_run"][3]
                              ["final_distances"].update({a["tracked_faces"][0]: 0.5}))),
    ],
    "bandit-batch-mem": [
        ("one strategy value of one run off by 1e-9 of itself",
         lambda d: _edit_npz(d / "runs.npz", _scale_profile(8, 6000, 5, 1 + 1e-9))),
        ("one sampled action of one run changed",
         lambda d: _edit_npz(d / "runs.npz", _flip_sampled(13, 2500, 0))),
        ("one final distance in aggregate.json off by 1e-9",
         lambda d: _edit_json(d / "aggregate.json", lambda a: a["per_run"][2]
                              ["final_distances"].update(
                                  {k: v + 1e-9 for k, v in a["per_run"][2]
                                   ["final_distances"].items()}))),
        ("one run reported not resilient",
         lambda d: _edit_json(d / "aggregate.json",
                              lambda a: a["per_run"][5].update(resilient=False))),
        ("one minimal club dropped from the tracked faces",
         lambda d: _edit_json(d / "aggregate.json", lambda a: a["tracked_faces"].pop())),
    ],
    "power-report": [
        ("regret_final of player 1 perturbed by 1e-6",
         lambda d: _edit_json(d / "report.json", lambda r: r["regret_final"]
                              .__setitem__(1, r["regret_final"][1] + 1e-6))),
        ("one strategy value off by 1e-9 of itself",
         lambda d: _edit_csv(d / "trajectory.csv", 2000, "x_2_1", _scale(1 + 1e-9))),
        ("1e-12 of mass moved between two actions",
         lambda d: _move_mass(d / "trajectory.csv", 3000, "x_1_0", "x_1_1", 1e-12)),
        ("horizon in report.json changed",
         lambda d: _edit_json(d / "report.json", _set("horizon", 1))),
    ],
    "club-analyze": [
        ("one club dropped", lambda d: _edit_json(d / "reports.json", _drop_club)),
        ("one margin off by 1e-12", lambda d: _edit_json(d / "reports.json", _nudge_margin)),
        ("one dominated action forgotten",
         lambda d: _edit_json(d / "reports.json", lambda rs: rs[0]["dominated"][0].pop())),
        ("one strict equilibrium added",
         lambda d: _edit_json(d / "reports.json", lambda rs: rs[1]["strict_nash"]
                              .append([1, 1, 1]))),
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    work = WORK / f"selftest-{os.getpid()}"
    ok = True
    try:
        for operation in OPERATIONS:
            folder = work / operation
            manifest = make_inputs(operation, args.seed, folder / "inputs")
            job = {"mode": "ops", "budget": 1e-9, "capture": True,
                   "operations": [{"manifest": manifest, "outdir": str(folder / "out")}]}
            run_worker(job, folder, time.monotonic() + RUN_LIMIT_S)
            problems = CHECKS[operation](folder / "out", manifest)
            print(f"{operation}: real output {'passes' if not problems else 'FAILS'}")
            for line in problems:
                print(f"  {line}")
            ok &= not problems
            for k, (what, corrupt) in enumerate(CORRUPTIONS[operation]):
                copy = folder / f"corrupt_{k}"
                shutil.copytree(folder / "out", copy)
                corrupt(copy)
                problems = CHECKS[operation](copy, manifest)
                verdict = "rejected" if problems else "NOT REJECTED"
                print(f"{operation}: {what}: {verdict}")
                if problems:
                    print(f"  first problem: {problems[0]}")
                ok &= bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
