"""Source checks: every name a dfsim module imports is read in that module,
every name it defines at module level is read somewhere in src/ or tests/,
every function it defines is called by an experiment or an acceptance
criterion, only `experiments.gate_fidelities` composes the engine with the
member fidelities, and the package root binds only its documented surface."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dfsim"
# (module, name) bound by an import and never read, each with its reason
ALLOWED = {
    ("experiments", "diffusion_phase_kicks"): "perfbench/tracer.py patches this name in this module",
}
# every dfsim module but the package root
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


def readers(path: Path, name: str) -> set[str]:
    """Top-level functions of `path` that read `name` (`<module>` for any
    other top-level statement)."""
    return {stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
            for stmt in ast.parse(path.read_text(), filename=str(path)).body
            for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id == name}


@pytest.mark.parametrize("name", ["ensemble_propagators", "member_gate_fidelities"])
def test_only_the_fidelity_kernel_composes_the_engine_and_the_reduction(name):
    # every propagated F_e of an experiment is one gate_fidelities call
    assert readers(SRC / "experiments.py", name) == {"gate_fidelities"}


# private dfsim.ensemble names a test may monkeypatch, each with its reason;
# tests read the engine's other work off what `_factors` and `_chains` return
PATCHABLE = {
    "_expm_members": "the column bound on each Taylor batch, which no plan output shows",
    "_multiply_out": "the non-unitary block injection in TestReduce",
}


def ensemble_patches() -> set[str]:
    """Private names of dfsim.ensemble that a setattr call in tests/*.py replaces."""
    calls = [node for path in (ROOT / "tests").glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "setattr" in ast.unparse(node.func) and len(node.args) >= 2]
    return {call.args[1].value for call in calls if ast.unparse(call.args[0]) == "ensemble"
            and isinstance(call.args[1], ast.Constant) and str(call.args[1].value).startswith("_")}


def test_tests_patch_only_allowed_engine_names():
    assert ensemble_patches() - PATCHABLE.keys() == set()


def test_every_patchable_engine_name_is_still_patched():
    assert PATCHABLE.keys() <= ensemble_patches()


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


# (module, function) that no experiment or acceptance criterion calls, each with its reason
ORACLES = {
    ("channels", "KrausChannel.superoperator"): "tests use it as a reference oracle",
}
# Records each (file, first line) of a function called, from before `import
# dfsim` (so import-time calls count) through the README's CLI commands and
# the acceptance suite.
PROFILE = """\
import json, sys
called = set()

def record(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(record)
import dfsim.cli
import pytest
for command in json.loads(sys.argv[2]):
    assert dfsim.cli.main(command) == 0, command
exit_code = pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"])
sys.setprofile(None)
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(called), fh)
sys.exit(exit_code)
"""


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for a fresh interpreter."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def function_lines(path: Path) -> dict[int, str]:
    """Name of each top-level function and each method of a top-level class
    of `path`, by its code object's first line (its first decorator's)."""
    lines = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        members = [(node, node.name)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            members = [(fn, f"{node.name}.{fn.name}") for fn in node.body if isinstance(fn, ast.FunctionDef)]
        for fn, name in members:
            lines[min([fn.lineno] + [d.lineno for d in fn.decorator_list])] = name
    return lines


@pytest.fixture(scope="module")
def uncalled(tmp_path_factory):
    """(module, function) of every function of src/dfsim that the README's
    CLI commands and tests/test_acceptance.py leave uncalled."""
    tmp = tmp_path_factory.mktemp("profile")
    commands = [line.split()[1:] for line in re.findall(r"^dfsim .*$", (ROOT / "README.md").read_text(), re.M)]
    assert len(commands) == 5
    for command in commands:
        command[command.index("--out") + 1] = str(tmp / "results")
    proc = subprocess.run([sys.executable, "-c", PROFILE, str(tmp / "called.json"), json.dumps(commands)],
                          cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    called = {(os.path.realpath(file), line) for file, line in json.loads((tmp / "called.json").read_text())}
    return {(path.stem, name) for path in SRC.glob("*.py") for line, name in function_lines(path).items()
            if (os.path.realpath(path), line) not in called}


def test_every_function_is_called_by_an_experiment_or_criterion(uncalled):
    dead = [f"{module}.{name}" for module, name in sorted(uncalled - ORACLES.keys())]
    assert not dead, f"never called: {', '.join(dead)}"


def test_every_oracle_is_still_uncalled(uncalled):
    called = [f"{module}.{name}" for module, name in sorted(ORACLES.keys() - uncalled)]
    assert not called, f"called, so no longer an oracle: {', '.join(called)}"


def root_bindings() -> set[str]:
    """Names the top level of dfsim/__init__.py binds by import or assignment."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    return names | {n.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)}


def test_root_binds_the_documented_surface():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    example = {alias.name for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)
               and node.module == "dfsim" for alias in node.names}
    assert len(example) == 6
    assert root_bindings() == example | {"ExperimentConfig", "config_from_dict", "run", "ConfigError",
                                         "DfsimError", "NumericalContractError", "__version__"}


def test_import_loads_every_module_but_the_cli():
    # perfbench/worker.py times `import dfsim` in setup_s, so a trimmed root must load as much
    script = "import sys, dfsim; print(' '.join(sorted(m for m in sys.modules if m.startswith('dfsim.'))))"
    loaded = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True, text=True,
                            check=True, timeout=120).stdout.split()
    assert loaded == [f"dfsim.{path.stem}" for path in MODULES if path.stem not in ("cli", "__main__")]
