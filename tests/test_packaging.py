"""Packaging: declared dependencies, entry points, and what each command imports.

Every third-party module the package imports is a declared dependency; the
installed command resolves and runs; the model-file stack and each command
load only the layers they use, and every module imports on its own.  The
README's library tour runs, and every module-level definition is reached
from a command or the public names, or is reserved for an open ROADMAP item.
Residuals meet their tolerances in one function only, and code is generated
in one function, for one caller: the RK4 step, which computes only the
motion.  The expression functions are bound in one table.  The solver knows no sides: its grids are
Lagrangian, and ``symmetry`` hands it every current as a function of the jets.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ksfield

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


def tour_source() -> str:
    """The code block of the README's library tour."""
    text = (ROOT / "README.md").read_text()
    return re.search(r"^## Library quick tour\n+```python\n(.*?)^```", text, re.M | re.S).group(1)


def test_readme_tour_runs(capsys):
    exec(compile(tour_source(), "README.md", "exec"), {"__name__": "tour"})
    assert capsys.readouterr().out.splitlines()[-1].endswith(" True")  # the report passes


# module-level names kept for open ROADMAP items, which no command reaches yet
RESERVE = {
    "DiffeoQ", "tangent_prolongation", "cotangent_prolongation", "lie_bracket",
    "pullback_one_form", "legendre_jacobian",
}


def referenced(node) -> set:
    """The names ``node`` reads, bare or as an attribute."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def unreached_definitions() -> set:
    """Module-level defs and classes of src/ksfield that no chain of name or
    attribute references reaches from ``main``, the ``cmd_*`` commands, the
    other module-level statements, ``ksfield.__all__`` and the names the
    README tour imports.  Names are matched by spelling, whatever the module,
    and a reached class reaches everything its body reads."""
    defs, roots = {}, {"main", *ksfield.__all__}
    for path in sorted((ROOT / "src" / "ksfield").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                roots |= referenced(node)
    roots |= {name for name in defs if name.startswith("cmd_")}
    roots |= {
        alias.name for node in ast.walk(ast.parse(tour_source()))
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(n for node in defs[name] for n in referenced(node))
    return set(defs) - reached


def test_every_definition_is_reached_or_reserved():
    assert unreached_definitions() == RESERVE


# the comparisons with a tolerance in src/ksfield: the sampled-verdict rule,
# and the scale-relative regularity threshold; step-halving ratios meet their
# window in solver.refinement alone (see test_ratios_meet_a_window_only_in_refinement)
TOLERANCE_COMPARISONS = {("forms.judge", "tol"), ("lagrangian.velocity_hessian.stack", "det_rtol")}


def qualified_nodes():
    """(module.function, node) for every AST node of src/ksfield, named by
    the innermost function that holds it (by its module at top level)."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        yield where, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    for path in sorted((ROOT / "src" / "ksfield").glob("*.py")):
        yield from visit(ast.parse(path.read_text(), filename=str(path)), path.stem)


def tolerance_comparisons() -> set:
    """(module.function, name) of every comparison in src/ksfield with an operand
    whose name ends in ``tol``: a bare name, an attribute, or a call of either."""
    def name_of(node) -> str:
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", "")

    return {(where, name) for where, node in qualified_nodes() if isinstance(node, ast.Compare)
            for operand in (node.left, *node.comparators)
            if (name := name_of(operand)).endswith("tol")}


def test_residuals_meet_tolerances_only_in_judge():
    assert tolerance_comparisons() == TOLERANCE_COMPARISONS


def ratio_comparisons() -> set:
    """module.function of every comparison in src/ksfield, other than a test of
    identity such as ``is None``, with an operand that reads a name, attribute
    or string spelled with ``ratio`` in any case."""
    def spellings(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                yield n.value

    return {where for where, node in qualified_nodes() if isinstance(node, ast.Compare)
            and not all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any("ratio" in name.lower()
                    for operand in (node.left, *node.comparators) for name in spellings(operand))}


def test_ratios_meet_a_window_only_in_refinement():
    assert ratio_comparisons() == {"solver.refinement"}


# the one site that runs generated code, and the one function it compiles:
# everything else turns expressions into numbers by walking their DAG
CODEGEN_SITES = {("expr.compile_source", "exec"), ("solver._rk4_step", "compile_source")}


def codegen_sites() -> set:
    """(module.function, name) of every bare reference in src/ksfield to the
    builtins ``exec``, ``eval`` and ``compile``, and of every reference to
    ``compile_source``, bare or as an attribute."""
    found = set()
    for where, node in qualified_nodes():
        if isinstance(node, ast.Name) and node.id in {"exec", "eval", "compile", "compile_source"}:
            found.add((where, node.id))
        elif isinstance(node, ast.Attribute) and node.attr == "compile_source":
            found.add((where, node.attr))
    return found


def test_only_the_rk4_step_generates_code():
    assert codegen_sites() == CODEGEN_SITES


def side_knobs(module: str) -> set:
    """(function, name) of every parameter named ``side`` in src/ksfield/<module>.py,
    and ("", value) of every string constant that names a side."""
    tree = ast.parse((ROOT / "src" / "ksfield" / f"{module}.py").read_text())
    found = {(getattr(node, "name", "<lambda>"), arg.arg) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in ast.walk(node.args) if isinstance(arg, ast.arg) and arg.arg == "side"}
    return found | {("", node.value) for node in ast.walk(tree) if isinstance(node, ast.Constant)
                    and node.value in ("lagrangian", "hamiltonian")}


def test_grids_are_lagrangian_and_the_side_is_decided_in_symmetry():
    # a Hamiltonian current reaches the solver already pulled back to the jets
    assert side_knobs("solver") == set()


def mentions(function: str, word: str) -> set:
    """The names, attributes and string constants but docstrings in
    ``module.function`` of src/ksfield (its nested functions included) that
    contain ``word``."""
    nodes = [node for where, node in qualified_nodes()
             if where == function or where.startswith(f"{function}.")]
    docstrings = {id(node.value) for node in nodes if isinstance(node, ast.Expr)}
    spellings = {node.id if isinstance(node, ast.Name) else
                 node.attr if isinstance(node, ast.Attribute) else node.value
                 for node in nodes
                 if isinstance(node, (ast.Name, ast.Attribute))
                 or isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and id(node) not in docstrings}
    return {spelling for spelling in spellings if word in spelling}


def test_rk4_step_computes_only_the_motion():
    # the energy diagnostic is one strict evaluation of the stored trajectory
    from ksfield import solver

    assert mentions("solver._rk4_step", "energy") == set()
    assert "energy" not in solver._RK4_STEP and "None" not in solver._RK4_STEP


EXPRESSION_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


def function_bindings() -> set:
    """(module.function, spelling) of every place in src/ksfield that binds an
    expression function to code: an assignment of a dict literal keyed by
    function names, a ``math.<function>`` and a ``getattr`` of numpy."""
    found = set()
    for where, node in qualified_nodes():
        if (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict)
                and any(isinstance(key, ast.Constant) and key.value in EXPRESSION_FUNCTIONS
                        for key in node.value.keys)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            found.add((where, ast.unparse(target)))
        elif (isinstance(node, ast.Attribute) and node.attr in EXPRESSION_FUNCTIONS
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.add((where, f"math.{node.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and node.args
              and isinstance(node.args[0], ast.Name) and node.args[0].id in ("np", "numpy")):
            found.add((where, "getattr"))
    return found


def test_one_function_table():
    # folding, the DAG walk and the compiled step all read expr._FUNCTIONS
    import numpy as np

    from ksfield import expr

    assert function_bindings() == {("expr", "_FUNCTIONS")}
    assert expr._FUNCTIONS == {fn: getattr(np, fn) for fn in EXPRESSION_FUNCTIONS}
