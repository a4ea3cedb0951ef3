"""Every top-level function and class in src/lincat/ is reached: some
other top-level statement of the library, or scripts/tour.py, names it.
Code that only the tests call lives in tests/ (lincat_reference.py and
the other reference modules).

A name counts as named when it appears as an identifier or an attribute
anywhere in such a statement; imports alone do not count.  This is an
over-approximation (a local variable of the same name also counts), so
the check can miss dead code but never flags reached code.

Two names stay unreached on purpose: find_isomorphism and
same_components are kept for the planned comparison of deck groups and
of grading components."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lincat"
ALLOWED = {"find_isomorphism", "same_components"}


def named(node: ast.AST) -> set[str]:
    """The identifiers and attribute names that node reads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unreached() -> set[str]:
    """Top-level functions and classes of src/lincat/ that no other
    top-level statement there and nothing in scripts/tour.py names."""
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, node in enumerate(tree.body):
            where = (path.stem, i)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((where, node.name))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                uses.append((where, named(node)))
    tour = named(ast.parse(
        (ROOT / "scripts" / "tour.py").read_text(encoding="utf-8")))
    return {name for where, name in defs if name not in tour and
            not any(name in names for w, names in uses if w != where)}


def test_every_library_name_is_reached():
    assert unreached() == ALLOWED
