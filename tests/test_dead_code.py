"""Guard against dead code in the library: every public top-level definition
of ``src/sumformer`` is used somewhere in the package outside its own
definition, or is public API named in ``UNREFERENCED_API``; and every field
of a dataclass of the package is read by name somewhere in it, or is public
API named in ``UNREAD_FIELDS``.

Both match names only, not the objects they belong to: a field counts as
read when any attribute of that name is read, on whatever object.  So a
dead field that shares its name with a live attribute elsewhere goes
unflagged, as ``TargetFunction.kind`` did beside ``Key.kind`` and numpy's
``dtype.kind``."""

import ast
import pathlib

import sumformer

# Entry points that callers outside the package use and nothing inside it
# calls.  Shrink this when one gets a caller in the package or is deleted.
UNREFERENCED_API = {
    ("attention", "head_forward"),
    ("attention", "audited_mac_count"),
    ("model", "build_continuous_sumformer"),
    ("serialize", "dump_construction"),
    ("serialize", "load_construction"),
    ("serialize", "dump_model"),
    ("serialize", "load_model"),
}

# Dataclass fields that callers outside the package read and nothing inside
# it does.  Shrink this when one gets a reader in the package or is deleted.
UNREAD_FIELDS = {
    ("equivariance", "CheckReport", "witness_permutation"),
    ("multisym", "FitReport", "coefficients"),
}


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _unreferenced(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of each public definition whose name appears in no other
    top-level statement of the modules.  The package re-exports by import,
    which is not a use, and its modules import names with
    ``from .module import name``, so a use is a bare name."""
    users: dict[str, set[int]] = {}
    for tree in trees.values():
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add(id(statement))
    return {(module, name) for module, tree in trees.items()
            for name, node in _public_definitions(tree)
            if not users.get(name, set()) - {id(node)}}


def _is_dataclass(decorator: ast.expr) -> bool:
    """``@dataclass`` or ``@dataclass(...)``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _unread_fields(trees: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    """(module, class, field) of each annotated field of a top-level dataclass
    whose name no attribute read (``x.field``, whatever x is) in the modules
    names.  Building the class with the field as a keyword is not a read."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {(module, node.name, item.target.id) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read}


def _package_trees() -> dict[str, ast.Module]:
    package = pathlib.Path(sumformer.__file__).parent
    return {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py") if p.stem != "__init__"}


def test_every_public_definition_is_used_or_listed_as_api():
    found = _unreferenced(_package_trees())
    assert not found - UNREFERENCED_API, f"unused definitions: {sorted(found - UNREFERENCED_API)}"
    assert not UNREFERENCED_API - found, f"now used or gone: {sorted(UNREFERENCED_API - found)}"


def test_every_dataclass_field_is_read_or_listed_as_api():
    found = _unread_fields(_package_trees())
    assert not found - UNREAD_FIELDS, f"unread fields: {sorted(found - UNREAD_FIELDS)}"
    assert not UNREAD_FIELDS - found, f"now read or gone: {sorted(UNREAD_FIELDS - found)}"


def test_the_guard_flags_a_definition_only_itself_uses():
    a = ast.parse("def used():\n    return 1\n\ndef recursive():\n    return recursive()\n\n"
                  "def _private():\n    pass\n\nLIMIT = 3\n")
    b = ast.parse("from .a import used\n\nVALUE: int = used()\n")
    assert _unreferenced({"a": a, "b": b}) == {("a", "recursive"), ("a", "LIMIT"), ("b", "VALUE")}


def test_the_guard_flags_a_dataclass_field_nothing_reads():
    a = ast.parse("@dataclass(frozen=True)\nclass Report:\n    value: int\n    label: str\n"
                  "    kind = 'x'\n\n@dataclass\nclass Other:\n    count: int\n\n"
                  "class Plain:\n    hidden: int\n")
    b = ast.parse("def show(r):\n    r.count = 2\n    return r.value, Report(1, label='y')\n")
    assert _unread_fields({"a": a, "b": b}) == {("a", "Report", "label"), ("a", "Other", "count")}
