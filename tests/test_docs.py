import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import rlgames

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "rlgames"
DEMOS = ROOT / "demos"
BENCH_WORKER = ROOT / "perfbench" / "worker.py"


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


# perfbench's tracer wraps rlgames attributes by name; these wraps name
# attributes the program no longer has, so their per-layer metrics read 0
STALE_TRACE_WRAPS = {"rlgames.cli.minimal_clubs", "rlgames.learning.choice_map_profile"}


def _resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if hasattr(module, attr):
        return True
    try:
        importlib.import_module(f"{module_name}.{attr}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_worker_names_resolve():
    """The benchmark worker's rlgames imports all resolve, and the wraps of
    its tracer that do not are exactly the known stale ones, so a refactor
    that moves a traced call fails here instead of zeroing a metric."""
    tree = ast.parse(BENCH_WORKER.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rlgames"
        for alias in node.names
    ]
    assert imports
    assert [f"{m}.{a}" for m, a in imports if not _resolves(m, a)] == []
    wraps = [
        tuple(arg.value for arg in node.args[:2])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracer"
    ]
    assert wraps
    assert {f"{m}.{a}" for m, a in wraps if not _resolves(m, a)} == STALE_TRACE_WRAPS
