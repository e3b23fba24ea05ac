"""Every module-level name in ``src/repro`` is used by the system, and every
parameter default is one a caller can need to change.

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


def _trees() -> dict:
    return {
        path: ast.parse(path.read_text())
        for d in SCANNED for path in sorted((ROOT / d).rglob("*.py"))
    }


def _unreferenced(private: bool) -> dict:
    trees = _trees()
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


# "callee.parameter" -> why it keeps its default although no scanned call
# sets it by name or position.
ALLOWED_DEFAULTS = {
    "SimConfig.reinfer_em_iters": "perfbench reads cfg.reinfer_em_iters to tell warm EM calls from full ones",
    "emotion_like.seed": "called as REAL_DATASETS[name](seed=...), which the scan cannot resolve",
    "synthetic_table.n_rows": "perfbench passes it in **EM_SYNTH / **SPARK_EM",
    "synthetic_table.n_workers": "perfbench passes it in **EM_SYNTH / **SPARK_EM",
    "synthetic_table.n_per_task": "perfbench passes it in **EM_SYNTH / **SPARK_EM",
}


def _signatures(tree: ast.Module):
    """``(callee, qualname, params)`` of each function, method and
    dataclass: the name a call uses, a label, and per settable parameter
    ``(name, position or None, has_default)``; position None is
    keyword-only."""
    def of_function(fn: ast.FunctionDef, skip_first: bool):
        a = fn.args
        pos = a.posonlyargs + a.args
        n_plain = len(pos) - len(a.defaults)
        params = [(p.arg, i, i >= n_plain) for i, p in enumerate(pos)]
        params += [(p.arg, None, d is not None) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
        if skip_first:
            params = [(n, i - 1 if i is not None else None, d) for n, i, d in params[1:]]
        return params

    def walk(body, owner: str | None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                              and "init=False" not in ast.unparse(s)]
                    yield node.name, node.name, [
                        (s.target.id, i, s.value is not None) for i, s in enumerate(fields)
                    ]
                yield from walk(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                params = of_function(node, skip_first=owner is not None)
                if node.name == "__init__":
                    yield owner, owner, params
                elif not node.name.startswith("__"):
                    label = f"{owner}.{node.name}" if owner else node.name
                    yield node.name, label, params
                yield from walk(node.body, None)

    yield from walk(tree.body, None)


def _calls(trees) -> dict:
    """callee name -> ``(n_positional, keywords)`` of each call to it; a
    ``*`` or ``**`` argument sets nothing the scan can name."""
    out: dict = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            n_pos = len([a for a in n.args if not isinstance(a, ast.Starred)])
            out.setdefault(name, []).append((n_pos, {k.arg for k in n.keywords if k.arg}))
    return out


def _defaults_never_set() -> dict:
    trees = _trees()
    calls = _calls(trees)
    unset = {}
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src" / "repro"):
            continue
        for callee, label, params in _signatures(tree):
            for name, pos, has_default in params:
                if not has_default:
                    continue
                if not any(
                    name in kws or (pos is not None and n_pos > pos)
                    for n_pos, kws in calls.get(callee, [])
                ):
                    unset[f"{label}.{name}"] = path.relative_to(ROOT)
    return unset


def test_every_parameter_default_is_set():
    unset = _defaults_never_set()
    extra = [f"{path}: {name}" for name, path in unset.items() if name not in ALLOWED_DEFAULTS]
    assert not extra, (
        "a default no call in src/, jobs/ or perfbench/ changes: " + ", ".join(extra)
    )
    # An allowed default that gained a caller, or was deleted, leaves the list.
    assert set(ALLOWED_DEFAULTS) <= set(unset), set(ALLOWED_DEFAULTS) - set(unset)
