"""Every imported name is read somewhere in its file.

An AST scan of src/, tests/ and demos/ (no linter is a dependency). It
skips `from __future__` imports, the names a package's `__init__.py`
re-exports through `__all__`, and import lines marked `# noqa: F401`,
which keep names that perfbench/tracing.py looks up on a module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path):
    """(line, name) of each name the file imports and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path)]
    assert found == []
