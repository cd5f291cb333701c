"""Source hygiene: every name a module of the package imports is used.

An AST scan, so it needs no linter: a name counts as used when the module
reads it anywhere, or lists it in `__all__`.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "breathline"


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for every imported name that `source` never reads."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport os.path\nimport numpy as np\n__all__ = ['np']\n@dataclass\nclass A:\n    pass\n"
    assert unused_imports(source) == ["field (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
