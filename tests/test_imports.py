"""Every module under src/, tests/, tools/ and demos/ reads each name it
imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src", "tests", "tools", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(path):
    """Names an import binds in the module at PATH and no code reads;
    names listed in __all__ and __future__ imports are exempt."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                           ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_every_imported_name_is_read():
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in MODULES
              for name in unused_imports(path)]
    assert not unused
