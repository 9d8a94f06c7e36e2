"""Every module under ``src/repro``, ``tests``, ``benchmarks`` and
``examples`` uses what it imports.

A standard-library stand-in for a linter's unused-import rule: each
name a module binds with a top-level ``import`` must appear as a name
somewhere in that module.  Package ``__init__.py`` files are skipped,
because they import names to re-export them.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[2]
CHECKED = (SRC, ROOT / "tests", ROOT / "benchmarks", ROOT / "examples")


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    unused = ["%s: %s" % (path.relative_to(root.parent), name)
              for root in CHECKED
              for path in sorted(root.rglob("*.py"))
              if path.name != "__init__.py"
              for name in _unused_imports(path)]
    assert unused == []
