"""The library keeps no public function, class or class member that
nothing uses, and no parameter that its function ignores.

Every public module-level function or class in ``src/freeprod`` must be
referenced somewhere else in the package or exported from ``freeprod``,
and every public method, property and annotated field of a class must be
read as an attribute somewhere in the package outside its own body; code
that only tests read belongs in ``tests/helpers.py``.  Every parameter of
a function or lambda must be read in its body.
"""

import ast
from collections import Counter
from pathlib import Path

import freeprod

SRC = Path(freeprod.__file__).resolve().parent

# name -> why it stays although nothing in the package uses it
ALLOWED = {
    "dump": "the one-line-per-edge record format the acceptance corpus compares",
}


def _definitions_and_references():
    defined: dict[str, str] = {}   # public top-level name -> module file
    references: dict[str, set[str]] = {}   # name -> files that use it
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            references.setdefault(name, set()).add(path.name)
    return defined, references


def test_every_public_name_is_used_or_exported():
    defined, references = _definitions_and_references()
    exported = {name for name in vars(freeprod) if not name.startswith("_")}
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined.items()
        if name not in references and name not in exported and name not in ALLOWED
    )
    assert not unused, f"public names nothing in src/ uses or exports: {unused}"
    stale = sorted(name for name in ALLOWED if name in references or name not in defined)
    assert not stale, f"allowlisted names that are used or gone: {stale}"


# "Class.member" -> why it stays although nothing in the package reads it
ALLOWED_MEMBERS = {
    "LabeledGraph.copy": "the build edits one graph; tests and the benchmark's tracer copy graphs",
}


def _members_and_reads():
    members: dict[str, tuple[str, Counter]] = {}   # "Class.name" -> (name, reads in its body)
    reads: Counter = Counter()   # attribute name -> loads anywhere in src/
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads.update(_loads(tree))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name, own = node.name, _loads(node)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name, own = node.target.id, Counter()
                else:
                    continue
                if not name.startswith("_"):
                    members[f"{cls.name}.{name}"] = (name, own)
    return members, reads


def _loads(tree) -> Counter:
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_member_is_read():
    members, reads = _members_and_reads()
    unused = {member for member, (name, own) in members.items() if reads[name] <= own[name]}
    unread = sorted(unused - ALLOWED_MEMBERS.keys())
    assert not unread, f"class members nothing else in src/ reads: {unread}"
    stale = sorted(ALLOWED_MEMBERS.keys() - unused)
    assert not stale, f"allowlisted members that are read or gone: {stale}"


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loads = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            if "super" in loads:   # zero-argument super() reads the first parameter
                loads.add(params[0].arg)
            name = getattr(fn, "name", "<lambda>")
            unread += [
                f"{path.name}:{fn.lineno} {name}({p.arg})" for p in params if p.arg not in loads
            ]
    assert not unread, f"parameters their function never reads: {unread}"
