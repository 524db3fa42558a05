import ast
import builtins
import importlib
import json
import re
from pathlib import Path

import pytest

MODULES = [
    "mulbasis",
    "mulbasis.numtheory",
    "mulbasis.productsets",
    "mulbasis.reduction",
    "mulbasis.spherelab",
    "mulbasis.certificates",
    "mulbasis.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deleted function must not leave its name behind in __all__
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_invariant_violation_is_one_class():
    import mulbasis
    from mulbasis import numtheory, reduction

    assert mulbasis.InvariantViolationError is numtheory.InvariantViolationError
    assert reduction.InvariantViolationError is numtheory.InvariantViolationError


def _unused_imports(source: str) -> list[str]:
    """Top-level imported names that the module neither references nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def test_src_imports_are_used():
    import mulbasis

    found = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(Path(mulbasis.__file__).parent.glob("*.py"))
    }
    assert "reduction.py" in found
    assert {name: unused for name, unused in found.items() if unused} == {}


def _defs_unnamed_elsewhere(sources: dict, public: bool = False) -> list[str]:
    """Module-level functions and classes that no other top-level statement of ``sources`` names.

    By default these are the undecorated private ones; with ``public``
    they are the public ones, decorated or not.
    """
    defined, named = [], []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if public and not owner.startswith("_"):
                    defined.append((path, owner))
                elif not public and owner.startswith("_") and not owner.startswith("__") and not node.decorator_list:
                    defined.append((path, owner))
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, ast.alias):
                    name = sub.name
                if name:
                    named.append((path, owner, name))
    return [
        f"{path}:{name}"
        for path, name in defined
        if not any(ref == name and (where, owner) != (path, name) for where, owner, ref in named)
    ]


def _src_sources() -> dict:
    import mulbasis

    return {path.name: path.read_text() for path in sorted(Path(mulbasis.__file__).parent.glob("*.py"))}


def test_src_private_definitions_are_used():
    # a private helper left behind by a refactor is named nowhere else in src
    assert _defs_unnamed_elsewhere(_src_sources()) == []
    assert _defs_unnamed_elsewhere({"m.py": "def _left():\n    return _left()\n"}) == ["m.py:_left"]
    assert _defs_unnamed_elsewhere({"m.py": "def _used():\n    pass\n\n\nx = _used"}) == []


def test_src_public_definitions_are_used():
    # public code that no command reaches is named nowhere else in src; a
    # re-export from __init__.py is no use, and pyproject.toml and __main__.py
    # call the entry points
    sources = {name: text for name, text in _src_sources().items() if name != "__init__.py"}
    entry_points = {"cli.py:main", "cli.py:main_entry"}
    assert sorted(set(_defs_unnamed_elsewhere(sources, public=True)) - entry_points) == []
    assert _defs_unnamed_elsewhere({"m.py": "def left():\n    return left()\n"}, public=True) == ["m.py:left"]
    assert _defs_unnamed_elsewhere({"m.py": "def _left():\n    pass\n"}, public=True) == []


def test_readme_names_exist():
    # a deleted function or class must not linger in README.md under its old name
    from mulbasis.cli import _COMMANDS

    root = Path(__file__).resolve().parents[1]
    known = set(dir(builtins))
    for name in MODULES:
        for attr, value in vars(importlib.import_module(name)).items():
            known.add(attr)
            if isinstance(value, type):  # a class's fields and methods, such as nodes_explored
                known.update(dir(value), getattr(value, "__dataclass_fields__", ()))
    known.update(c for spec in _COMMANDS.values() for c in spec.columns)
    for path in (root / "tests" / "golden").glob("*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(payload, dict):
            known.update(check["name"] for check in payload.get("checks", []))
    readme = (root / "README.md").read_text(encoding="utf-8")
    snake_or_camel = r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+|(?:[A-Z][a-z0-9]+){2,}"
    names = {t for t in re.findall(r"`([^`\n]+)`", readme) if re.fullmatch(snake_or_camel, t)}
    assert len(names) > 25  # the pattern still reads the README's names
    assert sorted(names - known) == []
