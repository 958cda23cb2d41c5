"""Every exported name exists where it is exported from, every module uses
what it imports, and every public function or class has a caller."""

import ast
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import higgsflow

PACKAGE = Path(higgsflow.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))
REPO = Path(__file__).resolve().parents[1]

# Outside src/, only the acceptance criteria and the benchmark workloads count
# as callers: a public name that only its own unit tests reach serves no verb,
# criterion or workload.
CALLERS = [REPO / "tests" / "test_acceptance.py", REPO / "bench" / "workloads.py"]


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


def _bound_imports(tree: ast.Module) -> dict[str, str]:
    """Each name an import binds, mapped to the name it imports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = a.name
    return bound


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_module_uses_every_name_it_imports(module):
    tree = _tree(module)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(set(_bound_imports(tree)) - loaded) == []


def _references(tree: ast.Module) -> list[set[str]]:
    """Per top-level statement, the names of package members its code uses.

    A use is a load of a module-level or imported name (through its import
    alias), or an attribute of an imported package module; imports,
    __all__ entries and stores (a dataclass field of the same name) do not
    count.
    """
    bound = _bound_imports(tree)
    bound.update((name, name) for name in _defined_names(tree))
    modules = {name for name, orig in bound.items()
               if orig in MODULES or orig.startswith("higgsflow")}
    per_statement = []
    for top in tree.body:
        refs = set()
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                    and n.id in bound:
                refs.add(bound[n.id])
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in modules):
                refs.add(n.attr)
        per_statement.append(refs)
    return per_statement


def test_every_public_function_and_class_has_a_caller():
    trees = {m: _tree(m) for m in MODULES if m != "__init__"}
    src_refs = {m: _references(t) for m, t in trees.items()}
    # how many statements, package-wide or in a caller, use each name
    uses = Counter(name for p in CALLERS
                   for refs in _references(ast.parse(p.read_text())) for name in refs)
    uses.update(name for per in src_refs.values() for refs in per for name in refs)
    unreached = [f"{module}.{node.name}"
                 for module, tree in trees.items()
                 for node, own in zip(tree.body, src_refs[module])
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")
                 and uses[node.name] == (node.name in own)]
    assert sorted(unreached) == []
