"""Source checks: every name a dfsim module imports is read in that module,
and every name it defines at module level is read somewhere in src/ or
tests/."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dfsim"
# (module, name) bound by an import and never read, each with its reason
ALLOWED = {
    ("experiments", "diffusion_phase_kicks"): "perfbench/tracer.py patches this name in this module",
}
# __init__.py imports to re-export
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unread_imports(path: Path) -> list[str]:
    """Names an import in `path` binds that no expression of it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_read(path):
    assert [name for name in unread_imports(path) if (path.stem, name) not in ALLOWED] == []


def test_every_allowed_import_is_still_unread():
    assert all(name in unread_imports(SRC / f"{module}.py") for module, name in ALLOWED)


def module_definitions(path: Path) -> set[str]:
    """Names the top level of `path` binds by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def names_read(paths) -> set[str]:
    """Every name loaded and every attribute accessed in `paths`."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_module_level_definition_is_read():
    read = names_read([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])
    unread = {path.stem: sorted(module_definitions(path) - read) for path in MODULES}
    assert {module: names for module, names in unread.items() if names} == {}
