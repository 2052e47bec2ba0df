"""Names in, names out: AST scans (no linter is a dependency) and the
package namespace.

- Every imported name is read somewhere in its file, over src/, tests/ and
  demos/. The scan skips `from __future__` imports, the names a package's
  `__init__.py` re-exports through `__all__`, and import lines marked
  `# noqa: F401`, which keep names that perfbench/tracing.py looks up on a
  module.
- Every module-level function and class of src/ is named somewhere in
  src/, perfbench/ or demos/ outside its own body.
- `ellipstream.__all__` is the namespace README.md documents.
"""

import ast
import importlib
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


def names_read(tree: ast.Module):
    """(owner, name) for each name a module reads, as a variable, an
    attribute, an imported name or an identifier string (a tracer target, an
    `__all__` entry); owner is the module-level def or class it sits in."""
    found = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                found.add((owner, node.asname or node.name))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                found.add((owner, node.value))
    return found


def test_no_dead_definitions():
    # a module-level function or class of src/ that nothing in src/,
    # perfbench/ or demos/ names, outside its own body, is dead code
    read = set()
    for folder in ("src", "perfbench", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= names_read(ast.parse(path.read_text()))
    dead = [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not any(name == node.name and owner != node.name for owner, name in read)]
    assert dead == []


WRAPPERS = ("full_update_detailed", "irregular_update", "is_off_span")


def documented_namespace():
    """{module: names} from the README's "Package namespace" block, where
    each line starts with the module that defines the names after it."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Package namespace", 1)[1].split("```", 2)[1]
    documented = {}
    for line in block.split("\n"):
        if line.strip():
            module, *names = line.split()
            documented.setdefault(module, []).extend(names)
    return documented


def test_namespace_is_the_documented_api():
    import ellipstream

    documented = documented_namespace()
    names = [name for module_names in documented.values() for name in module_names]
    assert len(names) == len(set(names))
    assert set(ellipstream.__all__) == set(names) | {"__version__"}
    for module, module_names in documented.items():
        owner = importlib.import_module(f"ellipstream.{module}")
        for name in module_names:
            assert getattr(ellipstream, name) is getattr(owner, name)
    # the step kernel is the one way into an update
    assert not any(hasattr(ellipstream, name) for name in WRAPPERS)
