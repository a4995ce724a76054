import builtins
import re
from pathlib import Path

import rlgames

README = Path(__file__).resolve().parents[1] / "README.md"


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
