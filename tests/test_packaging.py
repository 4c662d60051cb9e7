"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

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
