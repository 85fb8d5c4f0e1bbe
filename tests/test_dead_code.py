"""Guard against dead code in the library: every public top-level definition
of ``src/sumformer`` is used somewhere in the package outside its own
definition, or is public API named in ``UNREFERENCED_API``."""

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


def test_every_public_definition_is_used_or_listed_as_api():
    package = pathlib.Path(sumformer.__file__).parent
    found = _unreferenced({p.stem: ast.parse(p.read_text())
                           for p in package.glob("*.py") if p.stem != "__init__"})
    assert not found - UNREFERENCED_API, f"unused definitions: {sorted(found - UNREFERENCED_API)}"
    assert not UNREFERENCED_API - found, f"now used or gone: {sorted(UNREFERENCED_API - found)}"


def test_the_guard_flags_a_definition_only_itself_uses():
    a = ast.parse("def used():\n    return 1\n\ndef recursive():\n    return recursive()\n\n"
                  "def _private():\n    pass\n\nLIMIT = 3\n")
    b = ast.parse("from .a import used\n\nVALUE: int = used()\n")
    assert _unreferenced({"a": a, "b": b}) == {("a", "recursive"), ("a", "LIMIT"), ("b", "VALUE")}
