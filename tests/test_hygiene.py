"""Source hygiene that no installed linter checks, read with the standard ``ast``.

Every dict literal in the package and the tests has distinct constant keys
(a repeated key silently drops the first value), and every imported name is
used, or is listed in its module's ``__all__``. Every public function, class
and method of the package is read somewhere in the package or the benchmark,
so that a name with no caller is deleted rather than kept. The closed-form
and harness modules import no numpy of their own. pyproject.toml declares
as runtime dependencies exactly the package's third-party imports, and with
its ``test`` extra covers the tests' ones.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "moneygas").glob("*.py"))
# Modules that need no numpy themselves, so that the closed-form verbs can one day run without it.
NUMPY_FREE = ["__init__", "ensembles", "transform", "config", "cli", "worker"]
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def duplicate_keys(tree: ast.AST) -> list[str]:
    """'line N: key' for each constant key that repeats an earlier one in its dict literal."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            seen = set()
            for key in node.keys:  # None for a ** unpacking
                if isinstance(key, ast.Constant):
                    if key.value in seen:
                        found.append(f"line {key.lineno}: {key.value!r}")
                    seen.add(key.value)
    return found


def unused_imports(tree: ast.Module) -> list[str]:
    """'line N: name' for each imported name that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {element.value for element in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every module that the source imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def third_party(trees: list[ast.Module]) -> set[str]:
    """The top-level imports of ``trees`` that are neither the standard library nor moneygas."""
    return set().union(*map(imported_modules, trees)) - set(sys.stdlib_module_names) - {"moneygas"}


def requirement_names(requirements: list[str]) -> set[str]:
    """The import name of each requirement, read as its project name: "scipy>=1.10" -> "scipy"."""
    return {re.match(r"[\w.-]+", requirement).group().lower().replace("-", "_") for requirement in requirements}


def dependency_mismatches(project: dict, package: list[ast.Module], tests: list[ast.Module]) -> list[str]:
    """What pyproject.toml's [project] table gets wrong: 'runtime: +name' for a package
    import it does not declare, 'runtime: -name' for a declared one the package never
    imports, and 'test: +name' for a test import that neither it nor the test extra covers."""
    runtime, used = requirement_names(project["dependencies"]), third_party(package)
    covered = runtime | requirement_names(project["optional-dependencies"]["test"])
    return ([f"runtime: +{name}" for name in sorted(used - runtime)]
            + [f"runtime: -{name}" for name in sorted(runtime - used)]
            + [f"test: +{name}" for name in sorted(third_party(tests) - covered)])


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """'name' or 'Class.method' -> line for each public module-level function or
    class and each public method. ModelSpec's classmethods are left out: the
    README quick tour documents them as its constructors."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node.lineno
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                continue
            decorators = {getattr(d, "id", None) for d in item.decorator_list}
            if not (node.name == "ModelSpec" and "classmethod" in decorators):
                found[f"{node.name}.{item.name}"] = item.lineno
    return found


def references(tree: ast.Module) -> set[str]:
    """Every name the module reads as an ast Name or Attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
    return names


def uncalled(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """'module:line: name' for each public definition in ``modules`` that no reader references."""
    read = set().union(*map(references, readers))
    return [f"{module}:{line}: {name}" for module, tree in modules.items()
            for name, line in public_definitions(tree).items() if name.split(".")[-1] not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_duplicate_keys_or_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert duplicate_keys(tree) == []
    assert unused_imports(tree) == []


def test_the_scan_finds_a_planted_defect():
    tree = ast.parse("import os\nimport json\nTABLE = {'a': 1, 'b': 2, 'a': 3}\njson.dumps(TABLE)\n")
    assert duplicate_keys(tree) == ["line 3: 'a'"]
    assert unused_imports(tree) == ["line 1: os"]


@pytest.mark.parametrize("module", NUMPY_FREE)
def test_closed_form_and_harness_modules_import_no_numpy(module):
    path = ROOT / "src" / "moneygas" / f"{module}.py"
    assert "numpy" not in imported_modules(ast.parse(path.read_text()))


def test_the_numpy_scan_finds_a_planted_import():
    tree = ast.parse("import math\n\ndef f():\n    from numpy.linalg import norm\n    return norm\n")
    assert imported_modules(tree) == {"math", "numpy"}
    assert imported_modules(ast.parse("import numpy as np\nfrom . import dynamics\n")) == {"numpy"}


def test_the_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    package = [ast.parse(path.read_text()) for path in PACKAGE]
    tests = [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))]
    assert dependency_mismatches(project, package, tests) == []


def test_the_dependency_scan_finds_a_planted_defect():
    project = {"dependencies": ["numpy>=1.24", "PyYAML"], "optional-dependencies": {"test": ["pytest"]}}
    package = [ast.parse("import json\nimport numpy as np\nfrom orjson import dumps\n")]
    tests = [ast.parse("import pytest\nfrom hypothesis import given\nimport moneygas\nimport numpy\n")]
    assert dependency_mismatches(project, package, tests) == ["runtime: +orjson", "runtime: -pyyaml", "test: +hypothesis"]


def test_every_public_name_has_a_caller():
    # __init__ only re-exports the quick tour's names, so its imports are no callers.
    package = {path.name: ast.parse(path.read_text()) for path in PACKAGE if path.name != "__init__.py"}
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]
    assert uncalled(package, [*package.values(), *bench]) == []


def test_the_caller_scan_finds_a_planted_defect():
    module = ast.parse("def used():\n    pass\n\n\ndef unused():\n    used()\n\n\n"
                       "class Box:\n    def open(self):\n        pass\n\n    def shut(self):\n        pass\n")
    reader = ast.parse('from m import Box\nBox().open()\n"""shut"""\n')
    assert uncalled({"m.py": module}, [module, reader]) == ["m.py:5: unused", "m.py:13: Box.shut"]
