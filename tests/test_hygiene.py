"""Source hygiene that no installed linter checks, read with the standard ``ast``.

Every dict literal in the package and the tests has distinct constant keys
(a repeated key silently drops the first value), and every imported name is
used, or is listed in its module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "moneygas").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_duplicate_keys_or_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert duplicate_keys(tree) == []
    assert unused_imports(tree) == []


def test_the_scan_finds_a_planted_defect():
    tree = ast.parse("import os\nimport json\nTABLE = {'a': 1, 'b': 2, 'a': 3}\njson.dumps(TABLE)\n")
    assert duplicate_keys(tree) == ["line 3: 'a'"]
    assert unused_imports(tree) == ["line 1: os"]
