"""Fuzz test of the command-line contract.

Every emitted fixture document (text presentations converted to their
JSON form), and a homogeneous walk on the smash-demo grading, is mutated
once: a string is replaced by another string, a subtree by a value of
another JSON type, or a key is deleted.  Each subcommand that reads
that kind of document then runs in process through
cli.run(["--json", ...]).  Whatever the input, no exception escapes
run(), the exit code is 0, 1 or 2, no traceback is printed, and exit 1
comes only with a false boolean verdict.  A second test renames one key
of a category document, and a third fuzzes option values, with the same
checks; a fourth runs text-form presentations built from a small token
grammar, in text mode, where exit 2 prints one diagnostic line.  The
examples pin inputs that once escaped run() as tracebacks.
A fifth breaks one unit law or one composite range of a fixture
category, which every command must refuse with exit 2, as it must a
grading, action or character file whose group is malformed.  A sixth
runs the functor, action and grading commands on the identity covering
of the empty category, a C2 action on it and a C2-grading of it, under
the same contract.
"""
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lincat import cli, registry
from lincat.fixtures import discrete
from lincat.formats import (action_to_doc, category_from_doc, comb_to_doc,
                            functor_to_doc, grading_to_doc, hwalk_to_doc,
                            presentation_from_text)
from lincat.galois import GroupAction
from lincat.grading import Grading, HomogeneousWalk, HWalkStep
from lincat.groups import cyclic_group
from lincat.kcat import identity_functor
from lincat_reference import presentation_to_doc


def _fixture_documents() -> dict[str, dict]:
    docs = {}
    for name in registry.fixture_names():
        if name == "cyclic-cover-n":
            name = "cyclic-cover-2"
        for filename, content in registry.fixture_files(name).items():
            if isinstance(content, str):
                content = presentation_to_doc(presentation_from_text(content))
                filename = filename.replace(".txt", ".json")
            docs[filename] = content
    # no fixture set writes a walk: b forward, then a backward, on the
    # Kronecker category graded by a ↦ e, b ↦ g
    docs["walk.json"] = hwalk_to_doc(HomogeneousWalk(
        "s", (HWalkStep("s", "t", 1, 1), HWalkStep("s", "t", 0, -1))))
    return docs


DOCS = _fixture_documents()

# P is the mutated document; the other files are the unmutated fixtures
COMMANDS = {
    "category": [["validate", "--cat", "P"], ["h1", "--cat", "P"]],
    "functor": [
        ["validate", "--functor", "P"],
        ["cover", "check", "--functor", "P"],
        ["cover", "aut1", "--functor", "P"],
        ["cover", "extend", "--functor", "P", "--to", "P"],
        ["cover", "lambda", "--functor", "P", "--to", "P"],
        ["galois", "check", "--functor", "P"],
        ["galois", "structure", "--functor", "P"],
        ["galois", "homs", "--functor", "P", "--to", "P"],
        ["galois", "universal", "--functor", "P", "--family", "P"],
        ["galois", "gset", "--functor", "P", "--to", "P"],
        ["grade", "induce", "--functor", "P"],
    ],
    "action": [["validate", "--action", "P"],
               ["galois", "quotient", "--action", "P"]],
    "grading": [
        ["validate", "--grading", "P"],
        ["grade", "validate", "--grading", "P"],
        ["grade", "regrade", "--grading", "P"],
        ["grade", "connected", "--grading", "P"],
        ["grade", "smash", "--grading", "P"],
        ["grade", "walkdeg", "--grading", "P", "--walk", "walk.json"],
        ["delta", "--grading", "P", "--character", "smash-character.json"],
        ["delta-inj", "--grading", "P"],
    ],
    "character": [
        ["validate", "--character", "P"],
        ["delta", "--grading", "smash-grading.json", "--character", "P"],
    ],
    "presentation": [
        ["validate", "--presentation", "P"],
        ["present", "--presentation", "P"],
        ["present", "--presentation", "P", "--field", "2"],
        ["pi1", "--presentation", "P", "--base", "BASE"],
    ],
    "walk": [["grade", "walkdeg", "--grading", "smash-grading.json",
              "--walk", "P"]],
}

# values of every JSON type; a replacement takes one of another type
OTHER_VALUES = [None, True, 0, 7, -1, 2.5, "", "x", [], ["x"], [[]], {},
                {"x": "1"}]
ODD_STRINGS = ["", "0", "1/0", "2 mod 3", "-1", "zz", "1_zz"]


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for filename, doc in DOCS.items():
        (d / filename).write_text(json.dumps(doc), encoding="utf-8")
    return d


def _json_type(v) -> str:
    return "bool" if isinstance(v, bool) else \
        "number" if isinstance(v, (int, float)) else type(v).__name__


def _nodes(doc, path=()):
    """(path, value) for every node below the root."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _strings(doc) -> list[str]:
    return sorted({v for _, v in _nodes(doc) if isinstance(v, str)} |
                  {k for p, _ in _nodes(doc) for k in p
                   if isinstance(k, str)})


@st.composite
def mutations(draw):
    filename = draw(st.sampled_from(sorted(DOCS)))
    doc = DOCS[filename]
    path, value = draw(st.sampled_from(list(_nodes(doc))))
    ops = ["replace"]
    if isinstance(value, str):
        ops.append("string")
    if isinstance(path[-1], str):
        ops.append("delete")
    op = draw(st.sampled_from(ops))
    if op == "string":
        return filename, path, "replace", draw(
            st.sampled_from(ODD_STRINGS + _strings(doc)))
    if op == "delete":
        return filename, path, "delete", None
    return filename, path, "replace", draw(st.sampled_from(
        [v for v in OTHER_VALUES if _json_type(v) != _json_type(value)]))


def _mutate(doc, path, op, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    elif op == "rename":
        items = list(parent.items())
        parent.clear()
        parent.update((value if k == path[-1] else k, v) for k, v in items)
    else:
        parent[path[-1]] = value
    return doc


def _check_contract(workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    code = cli.run(["--json"] + argv, stdout=out, stderr=err)
    shown = f"{argv}: exit {code}\n{out.getvalue()}{err.getvalue()}"
    assert code in (0, 1, 2), shown
    assert "Traceback" not in out.getvalue() + err.getvalue(), shown
    if code == 2:
        assert out.getvalue() == "", shown
        assert json.loads(err.getvalue())["error"], shown
        return
    verdicts = json.loads(out.getvalue())["verdicts"]
    assert (code == 1) == any(v is False for v in verdicts.values()), shown


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=mutations())
# a unit axiom broken: h1 reached an internal consistency check
@example(mutation=("gdlp-base.json", ("comp", "1_y", "a", "a"), "replace",
                   "0 mod 2"))
# a composite outside the category, found only while validating a grading
@example(mutation=("smash-grading.json", ("category", "comp", "1_t", "1_t"),
                   "replace", {"a": "1 mod 2"}))
# mistyped functor, grading, character and action documents
@example(mutation=("F0.json", ("matrices", "t1"), "replace", None))
@example(mutation=("smash-grading.json", ("degrees", "t"), "replace", None))
@example(mutation=("smash-character.json", ("values",), "replace", 5))
@example(mutation=("swap-action.json", ("functors", "g", "matrices", "s1"),
                   "replace", 5))
# a zero denominator, an empty arrow name, a degree outside the group
@example(mutation=("gdlp-R.json", ("relations", 1, 0, "coeff"), "replace",
                   "1/0"))
@example(mutation=("kronecker-quiver.json", ("arrows", 1, "name"), "replace",
                   ""))
@example(mutation=("smash-grading.json", ("degrees", "s", "t", 0), "replace",
                   "zz"))
# object names that are not strings: in an object_map, in a walk step
@example(mutation=("F0.json", ("object_map", "s0"), "replace", ["x"]))
@example(mutation=("walk.json", ("steps", 0, "source"), "replace", ["x"]))
@example(mutation=("walk.json", ("steps", 1, "target"), "replace", ["x"]))
# walk step fields that are not JSON integers: once read as 0, 1 and 1
@example(mutation=("walk.json", ("steps", 0, "index"), "replace", 0.9))
@example(mutation=("walk.json", ("steps", 1, "index"), "replace", "1"))
@example(mutation=("walk.json", ("steps", 0, "sign"), "replace", True))
def test_mutated_documents_keep_the_exit_code_contract(fuzzdir, mutation):
    filename, path, op, value = mutation
    original = DOCS[filename]
    doc = _mutate(original, path, op, value)
    target = fuzzdir / "mutated.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    base = (original.get("vertices") or ["x"])[0]
    for argv in COMMANDS[original["kind"]]:
        _check_contract(fuzzdir, [str(target) if a == "P" else
                                  base if a == "BASE" else a for a in argv])


# the text form: a, b: x -> y and c: y -> z; a relation term is a sign,
# a coefficient and a path of declared and undeclared names, empty ones
# and number-glued ones such as 2a, joined by runs of `*` or by nothing
TEXT_QUIVER = "vertices x y z\narrow a: x -> y\narrow b: x -> y\n" \
    "arrow c: y -> z\n"
TEXT_SIGNS = ["", "+ ", "- ", "+", "-"]
TEXT_COEFFS = ["", "2 ", "-1 ", "1/2 ", "0 ", "1/0 "]
TEXT_NAMES = ["a", "b", "c", "a", "b", "c", "z", "2a", ""]
TEXT_JOINS = ["*", "*", "*", "**", ""]


@st.composite
def text_presentations(draw):
    lines = []
    for _ in range(draw(st.integers(1, 2))):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            names = draw(st.lists(st.sampled_from(TEXT_NAMES), min_size=1,
                                  max_size=3))
            path = names[0] + "".join(draw(st.sampled_from(TEXT_JOINS)) + n
                                      for n in names[1:])
            terms.append(draw(st.sampled_from(TEXT_SIGNS)) +
                         draw(st.sampled_from(TEXT_COEFFS)) + path)
        lines.append("rel " + " ".join(terms))
    return TEXT_QUIVER + "\n".join(lines) + \
        f"\nbound {draw(st.integers(1, 3))}\n"


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=text_presentations())
# undeclared arrows, once a KeyError escaping run()
@example(text=TEXT_QUIVER + "rel a*z\nbound 2\n")
@example(text=TEXT_QUIVER + "rel 2a\nbound 2\n")
@example(text=TEXT_QUIVER + "rel c*\nbound 2\n")
@example(text=TEXT_QUIVER + "rel c**a\nbound 2\n")
# a later term with no sign, once read as +
@example(text=TEXT_QUIVER + "rel c*a c*b\nbound 2\n")
# JSON nested past the recursion limit, once a RecursionError escaping run()
@example(text='{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")
def test_text_presentations_keep_the_exit_code_contract(fuzzdir, text):
    """present, pi1 and validate on a text-form presentation exit 0, 1
    or 2, with one diagnostic line on exit 2, and print no traceback."""
    target = fuzzdir / "text.txt"
    target.write_text(text, encoding="utf-8")
    for argv in (["present", "--presentation", str(target)],
                 ["pi1", "--presentation", str(target), "--base", "x"],
                 ["validate", "--presentation", str(target)]):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, stdout=out, stderr=err)
        shown = f"{text}{argv}: exit {code}\n{out.getvalue()}{err.getvalue()}"
        assert code in (0, 1, 2), shown
        assert "Traceback" not in out.getvalue() + err.getvalue(), shown
        if code == 2:
            assert err.getvalue().count("\n") == 1, shown


CATEGORY_DOCS = sorted(f for f, d in DOCS.items() if d["kind"] == "category")


@st.composite
def renames(draw):
    filename = draw(st.sampled_from(CATEGORY_DOCS))
    doc = DOCS[filename]
    path = draw(st.sampled_from([p for p, _ in _nodes(doc)
                                 if isinstance(p[-1], str)]))
    return filename, path, draw(st.sampled_from(ODD_STRINGS +
                                                _strings(doc)))


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rename=renames())
# a composite naming a basis element of another hom space
@example(rename=("kronecker.json", ("comp", "1_s", "1_s", "1_s"), "b"))
def test_renamed_keys_keep_the_exit_code_contract(fuzzdir, rename):
    """A key of a category document renamed, for instance to another
    name the document uses."""
    filename, path, key = rename
    target = fuzzdir / "renamed.json"
    doc = _mutate(DOCS[filename], path, "rename", key)
    target.write_text(json.dumps(doc), encoding="utf-8")
    for argv in COMMANDS["category"]:
        _check_contract(fuzzdir, [str(target) if a == "P" else a
                                  for a in argv])


def _fixture_categories() -> list[dict]:
    """Every category document in the fixtures, also inside functors,
    actions and gradings."""
    out = []
    for _, doc in sorted(DOCS.items()):
        if doc["kind"] == "category":
            out.append(doc)
        elif doc["kind"] == "functor":
            out += [doc["source"], doc["target"]]
        elif "category" in doc:
            out.append(doc["category"])
    return out


FIXTURE_CATEGORIES = _fixture_categories()


def _broken(doc, move, entry, term, other):
    """doc with one basis product changed, or None if doc has no such
    product.  Unless `move`, a product with an identity that is a single
    basis name is doubled, which breaks a unit law; with `move`, one term
    of a product is renamed to a basis name of another hom space."""
    c = category_from_doc(doc)
    ids = {n for x in c.objects for n, a in c.identities[x].items()
           if len(c.identities[x]) == 1 and a == 1}
    keys = sorted(k for k in c.comp if move or ids & set(k))
    if not keys:
        return None
    g, f = keys[entry % len(keys)]
    comb = dict(c.comp[(g, f)])
    if move:
        n = sorted(comb)[term % len(comb)]
        names = [m for m in c.basis_names() if c.pair_of(m) != c.pair_of(n)]
        comb[names[other % len(names)]] = comb.pop(n)
    else:
        comb = {n: c.field.reduce(2 * a) for n, a in comb.items()}
    doc = copy.deepcopy(doc)
    doc["comp"][g][f] = comb_to_doc(c.field, comb)
    return doc


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 10 ** 6), st.booleans(), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_broken_unit_or_composite_range_exit_2(fuzzdir, case, move, entry,
                                               term, other):
    """A fixture category with an identity composite doubled, or one
    composite term moved into another hom space, is refused when it is
    decoded: exit 2 and one diagnostic line from validate and h1."""
    doc = _broken(FIXTURE_CATEGORIES[case % len(FIXTURE_CATEGORIES)], move,
                  entry, term, other)
    if doc is None:
        return
    target = fuzzdir / "broken.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", "--cat", str(target)],
                 ["h1", "--cat", str(target)]):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, stdout=out, stderr=err)
        assert (code, out.getvalue()) == (2, ""), argv
        assert err.getvalue().startswith(f"error: {target}: invalid "
                                         "category: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()


# a group read as written or refused: a string of elements is not the
# group of its characters, and an identity or product must be a name
GROUP_EDITS = [
    (("elements",), "eg", "group elements must be a JSON array of strings"),
    (("identity",), ["e"], "group identity must be a string"),
    (("table", "g", "g"), ["e"], "group table entries must be strings"),
]


@pytest.mark.parametrize("path,value,message", GROUP_EDITS)
@pytest.mark.parametrize("filename", ["smash-grading.json", "swap-action.json",
                                      "smash-character.json"])
def test_malformed_group_exit_2(fuzzdir, filename, path, value, message):
    """Every command that reads the file's kind refuses its group with
    exit 2 and the diagnostic naming what is malformed."""
    doc = copy.deepcopy(DOCS[filename])
    node = doc["group"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = fuzzdir / "bad-group.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    kind = DOCS[filename]["kind"]
    for argv in COMMANDS[kind]:
        argv = [str(target) if a == "P" else
                str(fuzzdir / a) if a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, stdout=out, stderr=err)
        assert (code, out.getvalue()) == (2, ""), argv
        assert err.getvalue() == f"error: {target}: {message}\n", argv


def _empty_documents() -> dict[str, dict]:
    """The identity covering of the empty category, the action of C2 on
    it by identities, which is free: there is no object to fix, and its
    C2-grading."""
    empty = discrete(n=0).category
    one = identity_functor(empty)
    c2 = cyclic_group(2)
    return {"functor": functor_to_doc(one),
            "action": action_to_doc(
                GroupAction(c2, {"e": one, "g": one}, empty)),
            "grading": grading_to_doc(Grading(c2, empty, {}, {}))}


EMPTY_DOCS = _empty_documents()


@pytest.mark.parametrize("kind", sorted(EMPTY_DOCS))
def test_empty_category_keeps_the_exit_code_contract(fuzzdir, kind):
    """The empty category is not connected: no command reads its first
    object, and none prints a traceback."""
    target = fuzzdir / f"empty-{kind}.json"
    target.write_text(json.dumps(EMPTY_DOCS[kind]), encoding="utf-8")
    for argv in COMMANDS[kind]:
        _check_contract(fuzzdir, [str(target) if a == "P" else a
                                  for a in argv])


# option values by name; OUT is a writable path, MISSING a path below a
# directory that does not exist, FILE an existing file, DIR an existing
# directory
OPTION_VALUES = {
    "--max-cosets": ["0", "-1", "1", "2"],
    "--field": ["0", "1", "2", "4", "-3"],
    "--base": ["x", "y", "zz", ""],
    "--out": ["OUT", "MISSING", "DIR"],
    "--dir": ["DIR", "FILE", "FILE/sub"],
    "--fibre": ["s=s1", "s=t0", "zz=s0", "s=zz", "s", "=s0"],
    "--shift": ["s=g", "s=zz", "zz=e", "s"],
    "--object": ["s0", "t1", "zz"],
    "--image": ["s0", "s1", "t0", "zz"],
}
OPTION_COMMANDS = [
    ["pi1", "--presentation", "gdlp-R.json", "--base", "x",
     "--max-cosets", "2"],
    ["present", "--presentation", "gdlp-R.json", "--field", "0",
     "--out", "OUT"],
    ["galois", "quotient", "--action", "swap-action.json", "--out", "OUT"],
    ["grade", "smash", "--grading", "smash-grading.json", "--out", "OUT"],
    ["grade", "regrade", "--grading", "smash-grading.json", "--shift",
     "s=g", "--out", "OUT"],
    ["grade", "induce", "--functor", "F0.json", "--fibre", "s=s1",
     "--out", "OUT"],
    ["cover", "extend", "--functor", "F0.json", "--to", "F1.json",
     "--object", "s0", "--image", "s1"],
    ["cover", "lambda", "--functor", "cyclic-cover-2.json",
     "--to", "cyclic-cover-2.json", "--image", "s1"],
    ["fixtures", "kronecker", "--dir", "DIR"],
]


@st.composite
def option_runs(draw):
    argv = list(draw(st.sampled_from(OPTION_COMMANDS)))
    flags = [i for i, a in enumerate(argv) if a in OPTION_VALUES]
    for i in draw(st.lists(st.sampled_from(flags), min_size=1)):
        argv[i + 1] = draw(st.sampled_from(OPTION_VALUES[argv[i]]))
    return argv


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=option_runs())
@example(argv=["pi1", "--presentation", "gdlp-R.json", "--base", "x",
               "--max-cosets", "0"])
@example(argv=["grade", "smash", "--grading", "smash-grading.json",
               "--out", "MISSING"])
@example(argv=["fixtures", "kronecker", "--dir", "FILE"])
def test_option_values_keep_the_exit_code_contract(fuzzdir, tmp_path,
                                                    argv):
    where = {"OUT": str(tmp_path / "out.json"),
             "MISSING": str(tmp_path / "missing" / "x.json"),
             "FILE": str(fuzzdir / "F0.json"),
             "FILE/sub": str(fuzzdir / "F0.json" / "sub"),
             "DIR": str(tmp_path)}
    _check_contract(fuzzdir, [where.get(a, a) for a in argv])
