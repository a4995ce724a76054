import ast
import builtins
import inspect
import re
from pathlib import Path

import rlgames

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "rlgames"
DEMOS = ROOT / "demos"


def test_readme_calls_name_the_api():
    """Every backticked `name(` call in the README is a name rlgames exports.

    Python builtins such as `len(...)` appear in formulas and are allowed.
    """
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)\(", README.read_text(encoding="utf-8"))
    assert names
    unknown = []
    for name in names:
        obj = rlgames if "." in name or not hasattr(builtins, name) else builtins
        try:
            for part in name.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            unknown.append(name)
    assert unknown == []


def test_all_names_resolve_once():
    """Every name in ``rlgames.__all__`` is on the package, listed once."""
    missing = [name for name in rlgames.__all__ if not hasattr(rlgames, name)]
    assert missing == []
    assert len(set(rlgames.__all__)) == len(rlgames.__all__)


def module_trees(folder, skip=()):
    for path in sorted(folder.glob("*.py")):
        if path.name not in skip:
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_module_imports_are_used():
    """Every module-level import in a package module is read somewhere in it."""
    unused = []
    for name, tree in module_trees(SRC, skip={"__init__.py"}):
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []


# exported, with no caller in the package or the demos
UNCALLED_EXPORTS = {
    "deviation_vectors",  # per-swap energies for ROADMAP items 1-2
    "distance_to_face",  # the checked one-profile form of face_distances (README)
    "game_to_json",  # the canonical writer the game fixtures are pinned to
    "payoff_mixed",  # timed by perfbench/worker.py
    "regret",  # one player's column of the regrets that the report takes at once
}


def test_every_export_has_a_caller():
    """Each name in ``rlgames.__all__`` is read in the package outside
    ``__init__.py`` and its own definition, or in a demo, or is listed above."""
    read = set()
    for _, tree in [*module_trees(SRC, skip={"__init__.py"}), *module_trees(DEMOS)]:
        for stmt in tree.body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            read |= names
    uncalled = {name for name in rlgames.__all__ if name not in read}
    assert uncalled == UNCALLED_EXPORTS


# the parameters with defaults of each export that has any; a fixed value
# of the protocol is a module constant, not a keyword no caller sets
PUBLIC_DEFAULTS = {
    "GridInit": ("values", "dims", "radius"),
    "RateFit": ("hit_index", "slope", "intercept", "shift", "r_squared", "window",
                "n_points"),
    "Schedule": ("exponent",),
    "Trajectory": ("realized", "vhat", "derive"),
    "check_profile": ("rows",),
    "check_strategy": ("rows",),
    "enumerate_pure_nash": ("strict_only",),
    "fit_rate": ("atol", "window"),
    "regret": ("mode",),
    "run": ("y0", "seed"),
    "run_batch": ("out_dir",),
    "run_experiment": ("out_dir",),
    "write_trajectory_csv": ("faces",),
}


def test_public_defaults_are_the_snapshot():
    """Adding a defaulted parameter to an export means editing the snapshot."""
    found = {}
    for name in rlgames.__all__:
        obj = getattr(rlgames, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        params = inspect.signature(obj).parameters.values()
        defaults = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaults:
            found[name] = defaults
    assert found == PUBLIC_DEFAULTS
