"""Source checks: every name a dfsim module imports is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dfsim"
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
