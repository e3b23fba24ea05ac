"""Every module-level name in ``src/repro`` is used by the system.

A function, class or constant defined at the top of a module, or a method
or property of such a class, public or ``_``-prefixed, must be referenced
somewhere in ``src/``, ``jobs/`` or ``perfbench/`` outside its own
definition; tests alone do not keep code alive. A reference is a name, an
attribute, an imported name, or a string that is exactly the name (the
benchmark patches functions by attribute name).

An imported name counts as a reference, so every name a ``src/repro``
module imports must also be used in that module: otherwise a leftover
import would keep a dead function alive.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "jobs", "perfbench")

# name -> why it stays although nothing in SCANNED references it.
ALLOWED = {
    "assert_equivalent": "the DuckDB test oracle: a tool for the tests only",
    "METHOD_SCOPE": "Table 7 metadata (which cells a method estimates), read by the harness test",
}


def _references(node: ast.AST) -> Counter:
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def _definitions(tree: ast.Module, private: bool):
    """``(name, node)`` of each top-level function, class and constant, and
    of each method and property of a top-level class, whose name starts
    with ``_`` (``private``) or does not; dunders are skipped."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(n.name, n) for n in node.body if isinstance(n, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs = [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (
            (name, n) for name, n in defs
            if name.startswith("_") == private and not name.startswith("__")
        )


def _unreferenced(private: bool) -> dict:
    trees = {
        path: ast.parse(path.read_text())
        for d in SCANNED for path in sorted((ROOT / d).rglob("*.py"))
    }
    total = sum((_references(t) for t in trees.values()), Counter())
    return {
        name: path.relative_to(ROOT)
        for path, tree in trees.items() if path.is_relative_to(ROOT / "src" / "repro")
        for name, node in _definitions(tree, private)
        if total[name] - _references(node)[name] <= 0
    }


def test_every_public_name_is_referenced():
    unused = _unreferenced(private=False)
    extra = [f"{path}: {name}" for name, path in unused.items() if name not in ALLOWED]
    assert not extra, "referenced nowhere in src/, jobs/ or perfbench/: " + ", ".join(extra)
    # An allowed name that gained a reference, or was deleted, leaves the list.
    assert set(ALLOWED) <= set(unused), set(ALLOWED) - set(unused)


def test_every_private_name_is_referenced():
    unused = [f"{path}: {name}" for name, path in _unreferenced(private=True).items()]
    assert not unused, "referenced nowhere in src/, jobs/ or perfbench/: " + ", ".join(unused)


def test_every_import_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(ROOT)}: {bound}")
    assert not unused, "imported but never used: " + ", ".join(unused)
