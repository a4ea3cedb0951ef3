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
of grading components.

Every method and property of a class in src/lincat/ is read as an
attribute somewhere in src/lincat/ or scripts/tour.py; dunder methods,
which Python calls by protocol, are exempt.  Attributes are matched by
name alone, so this check too can only miss dead code.

Every field of a dataclass in src/lincat/ is read as an attribute there
or in scripts/tour.py, except the fields of KEPT_FIELDS.  Matching by
name can miss a field that no one reads when another class reads a
field of the same name: a CoveringGroup.functors would have passed on
the reads of GroupAction.functors.  A read on the argparse namespace
`args` is an option of the command line, not a library member, so it
counts for neither methods nor fields.

Every name that a module under src/lincat/ or tests/ imports is read in
that module; `from __future__` imports are exempt."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lincat"
TESTS = ROOT / "tests"
ALLOWED = {"find_isomorphism", "same_components"}
# fields that the library fills and only the tests read, kept on purpose
KEPT_FIELDS = {
    # the representatives that ROADMAP item 6's h1 witness will print
    "H1Result.representatives",
    # the deck groups that λ maps between, for callers to name elements by
    "LambdaResult.source_group",
    "LambdaResult.target_group",
    # the components that is_connected decides connectivity from
    "ConnectivityReport.components",
    # the presented total category that a fixture's covering starts from
    "CoverFixture.total",
    # the presented base, which the tests build other covers over
    "CoverFixture.base",
}


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


def is_member_read(node: ast.AST) -> bool:
    """Whether node is an attribute read that may reach a library member:
    any but one on the argparse namespace `args`."""
    return isinstance(node, ast.Attribute) and not (
        isinstance(node.value, ast.Name) and node.value.id == "args")


def unread_methods() -> set[str]:
    """Class.method for each non-dunder method or property of a class in
    src/lincat/ whose name no attribute read in src/lincat/ or
    scripts/tour.py carries."""
    methods, read = [], set()
    paths = sorted(SRC.glob("*.py")) + [ROOT / "scripts" / "tour.py"]
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if is_member_read(node):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and path.parent == SRC:
                methods.extend(
                    (node.name, f.name) for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (f.name.startswith("__") and
                             f.name.endswith("__")))
    return {f"{cls}.{name}" for cls, name in methods if name not in read}


def test_every_method_is_read():
    assert unread_methods() == set()


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass" or
               isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and
               d.func.id == "dataclass" for d in node.decorator_list)


def unread_fields() -> set[str]:
    """Class.field for each field of a dataclass in src/lincat/ whose
    name no attribute read in src/lincat/ or scripts/tour.py carries."""
    fields, read = [], set()
    paths = sorted(SRC.glob("*.py")) + [ROOT / "scripts" / "tour.py"]
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if is_member_read(node):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and path.parent == SRC \
                    and is_dataclass(node):
                fields.extend((node.name, f.target.id) for f in node.body
                              if isinstance(f, ast.AnnAssign) and
                              isinstance(f.target, ast.Name))
    return {f"{cls}.{name}" for cls, name in fields if name not in read}


def test_every_field_is_read():
    assert unread_fields() == KEPT_FIELDS


def unused_imports(path: Path) -> list[str]:
    """The names that path imports and never reads, as path:line: name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.extend((node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in bound if name not in read]


def test_every_imported_name_is_read():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [u for p in paths for u in unused_imports(p)] == []
