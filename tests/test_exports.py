"""Every exported name exists where it is exported from."""

import ast
import pkgutil
from pathlib import Path

import pytest

import higgsflow

PACKAGE = Path(higgsflow.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _defined_names(tree: ast.Module) -> set[str]:
    """Names bound at module level by def, class or assignment (not import)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_is_defined_in_its_module(module):
    tree = _tree(module)
    exported = _all(tree) or []
    assert sorted(set(exported) - _defined_names(tree)) == []


def test_package_imports_only_exported_names():
    stale = []
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = _all(_tree(node.module)) or []
            stale += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in exported]
    assert stale == []
