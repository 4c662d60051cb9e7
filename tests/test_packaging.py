"""Packaging: declared dependencies, entry points, and what each command imports.

Every third-party module the package imports is a declared dependency; the
installed command resolves and runs; the model-file stack and each command
load only the layers they use, and every module imports on its own.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# distributions whose import name is not their project name
IMPORT_NAMES = {"PyYAML": "yaml"}


def declared_dependencies():
    """Import names of pyproject's [project] dependencies, read without
    tomllib (Python 3.10 has none)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    names = set()
    for requirement in re.findall(r"[\"']([^\"']+)[\"']", block.group(1)):
        project = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(IMPORT_NAMES.get(project, project.lower().replace("-", "_")))
    return names


def imported_top_level_names():
    """First component of every absolute import in src/ksfield, including
    imports inside function bodies."""
    names = {}
    for path in sorted((ROOT / "src" / "ksfield").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                names.setdefault(module.split(".")[0], path.name)
    return names


def test_third_party_imports_are_declared():
    declared = declared_dependencies()
    undeclared = {
        name: where for name, where in imported_top_level_names().items()
        if name not in sys.stdlib_module_names and name != "ksfield" and name not in declared
    }
    assert undeclared == {}


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter with this checkout's sources first."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


def test_console_script_resolves():
    text = (ROOT / "pyproject.toml").read_text()
    script = re.search(r"^\[project\.scripts\]\n(\S+) = \"([^\"]+)\"", text, re.MULTILINE)
    assert script.groups() == ("ksfield", "ksfield.cli:main")
    module, _, attr = script.group(2).partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_module_entry_prints_help():
    result = fresh("-m", "ksfield.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: ksfield")


# prints the ksfield modules loaded so far, one line
LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('ksfield.'))))\n"
MODELS = sorted(str(p) for p in (ROOT / "models").glob("*.yaml"))
CHECK_LAYERS = {"ksfield.solver", "ksfield.symmetry", "ksfield.gauge"}


def loaded_after(script: str, *argv: str) -> list:
    """The ksfield modules loaded at each LOADED line of ``script``, in a fresh interpreter."""
    result = fresh("-c", "import sys\n" + script, *argv)
    assert result.returncode == 0, result.stderr
    return [set(line.split()) for line in result.stdout.splitlines() if line.startswith("ksfield.")]


def test_model_file_stack_and_analyze_load_no_check_layer(tmp_path):
    stack, analyzed = loaded_after(
        "import ksfield.cli\nfrom ksfield.modelfile import load_model\n"
        "for path in sys.argv[2:]:\n    load_model(path)\n" + LOADED
        + "for path in sys.argv[2:]:\n"
        "    assert ksfield.cli.main(['analyze', path, '--out', sys.argv[1]]) == 0\n" + LOADED,
        str(tmp_path), *MODELS,
    )
    assert {"ksfield.cli", "ksfield.modelfile"} <= stack
    assert stack & CHECK_LAYERS == set() and analyzed & CHECK_LAYERS == set()


@pytest.mark.parametrize("argv, present, absent", [
    (["solve", "models/oscillator.yaml", "--solution", "orbit"],
     {"ksfield.cli_solve", "ksfield.solver"}, {"ksfield.symmetry", "ksfield.gauge"}),
    (["gauge", "models/wave.yaml", "models/wave.yaml"],
     {"ksfield.cli_gauge", "ksfield.gauge"}, {"ksfield.solver", "ksfield.symmetry"}),
])
def test_command_loads_only_the_layers_it_calls(tmp_path, argv, present, absent):
    (loaded,) = loaded_after(
        "from ksfield.cli import main\nassert main(sys.argv[2:] + ['--out', sys.argv[1]]) == 0\n"
        + LOADED, str(tmp_path), *argv,
    )
    assert present <= loaded and loaded & absent == set()


@pytest.mark.parametrize("name", sorted(
    p.stem for p in (ROOT / "src" / "ksfield").glob("*.py") if p.stem != "__init__"
))
def test_module_imports_on_its_own(name):
    result = fresh("-c", f"import ksfield.{name}")
    assert result.returncode == 0, result.stderr


# imports kept though unread: solver re-exports the grid specs beside GridSpec
KEPT_IMPORTS = {("solver", "Axis")}


def unused_imports(path: Path) -> list:
    """Names ``path`` imports (module-level or in a function) and never reads;
    a name listed in the module's ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "ksfield").glob("*.py")), ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in KEPT_IMPORTS]
    assert unused == []
