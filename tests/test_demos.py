"""Every demo script runs to completion against the package in this tree,
and a demo with a fixture under fixtures/demos prints it byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "demos"


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    done = run_demo(demo, tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.txt")), ids=lambda f: f.stem)
def test_demo_stdout_matches_its_fixture(fixture, tmp_path):
    done = run_demo(ROOT / "demos" / f"{fixture.stem}.py", tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == fixture.read_bytes()


def run_demo(demo, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, capture_output=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
