"""Only the CLI writes files.  The other modules of ``src/sumformer``
compute and return (``serialize`` returns text), and ``cli.py`` writes
every run artifact from what they return."""

import ast
import pathlib

import sumformer

# The last name of each call that opens, creates or writes a file.  The
# os.fdopen of parallel's pipes is not one.
FILE_CALLS = {"open", "savetxt", "save", "savez", "tofile", "makedirs", "mkdir",
              "write_text", "write_bytes"}


def _file_calls(tree: ast.Module) -> set[tuple[str, int]]:
    """(name, line) of each call in ``tree`` whose last name is in FILE_CALLS:
    ``open(...)``, ``np.savetxt(...)``, ``os.makedirs(...)`` and the like."""
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                calls.add((name, node.lineno))
    return calls


def test_only_the_cli_opens_creates_or_writes_files():
    package = pathlib.Path(sumformer.__file__).parent
    found = {(path.name, *call) for path in package.glob("*.py") if path.name != "cli.py"
             for call in _file_calls(ast.parse(path.read_text()))}
    assert not found, f"file output outside cli.py: {sorted(found)}"


def test_the_guard_flags_each_way_to_write_a_file():
    tree = ast.parse("with open(path, 'w') as fh:\n    fh.write(text)\n"
                     "np.savetxt(path, x)\nos.makedirs(out)\nos.fdopen(fd, 'rb')\n")
    assert _file_calls(tree) == {("open", 1), ("savetxt", 3), ("makedirs", 4)}
