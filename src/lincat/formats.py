"""Interchange formats.

Every document is UTF-8 JSON with a top-level "kind" and
"format_version".  Serialization is canonical: keys sorted, scalars in
lowest terms as strings ("3/4", "2 mod 5"), so equal values produce
byte-identical files.  Presentations are also accepted in a compact
text form (`arrow a: x -> y`, `rel g*a - d*b`), read left to right with
`g*a` meaning g∘a.
"""
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .exactlinalg import FieldSpec, Matrix
from .grading import Grading, HomogeneousWalk, HWalkStep
from .groups import Group
from .cohomology import Character
from .galois import GroupAction
from .kcat import Arrow, LinCat, LinComb, LinFunctor, QuiverPresentation

FORMAT_VERSION = 1
KINDS = ("category", "functor", "action", "grading", "character",
         "presentation", "walk")


class FormatError(ValueError):
    """Malformed document; the message carries position context when the
    problem is syntactic."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _name(value, what: str) -> str:
    """A JSON string naming an object; anything else is refused."""
    _require(isinstance(value, str), f"{what} must be a string")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer; a bool, a float or a string is refused."""
    _require(type(value) is int, f"{what} must be an integer")
    return value


def _names(value, what: str) -> tuple:
    """A JSON array of strings, as a tuple; anything else is refused (a
    string would otherwise read as a list of its characters)."""
    _require(isinstance(value, list) and
             all(isinstance(v, str) for v in value),
             f"{what} must be a JSON array of strings")
    return tuple(value)


def _object(value, what: str) -> dict:
    _require(isinstance(value, dict), f"{what} must be an object")
    return value


def _check_envelope(doc: dict, kind: str) -> None:
    _require(isinstance(doc, dict), "document is not a JSON object")
    _require(doc.get("kind") == kind,
             f"expected kind {kind!r}, found {doc.get('kind')!r}")
    _require(doc.get("format_version") == FORMAT_VERSION,
             f"unsupported format_version {doc.get('format_version')!r}")


# -- scalars, fields, matrices, groups ------------------------------------

def field_to_doc(f: FieldSpec) -> dict:
    return {"characteristic": f.characteristic}

def field_from_doc(doc) -> FieldSpec:
    _require(isinstance(doc, dict) and "characteristic" in doc,
             "field must be an object with a characteristic")
    p = _integer(doc["characteristic"], "characteristic")
    try:
        return FieldSpec(p)
    except ValueError as e:
        raise FormatError(f"bad field: {e}") from e

def scalar_from_doc(field: FieldSpec, text):
    _require(isinstance(text, str), f"scalar {text!r} must be a string")
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad scalar {text!r}: {e}") from e

class _Scalars(dict):
    """The scalars of one field that one decode call reads, by their
    string: each distinct string is parsed once, when it is first read.
    A memo is made by the decode call and goes with it, so no value is
    kept across documents or commands.  Only strings are ever stored, so
    looking up any other hashable value reaches __missing__ and is
    refused there, with scalar_from_doc's message; an unhashable one
    (a list or an object) raises TypeError, which the decoders turn into
    the same message by reading again with `read`."""

    def __init__(self, field: FieldSpec):
        super().__init__()
        self.field = field

    def __missing__(self, text: str):
        value = self[text] = scalar_from_doc(self.field, text)
        return value

    def read(self, text):
        _require(isinstance(text, str), f"scalar {text!r} must be a string")
        return self[text]

def comb_to_doc(field: FieldSpec, comb: LinComb) -> dict:
    return {n: field.format(a) for n, a in sorted(comb.items())}

def comb_from_doc(scalars: _Scalars, doc) -> LinComb:
    _require(isinstance(doc, dict), "combination must be an object")
    try:
        return {n: scalars[v] for n, v in doc.items()}
    except TypeError:  # an unhashable value: read refuses it in order
        read = scalars.read
        return {n: read(v) for n, v in doc.items()}

def matrix_to_doc(m: Matrix) -> list:
    return [[m.field.format(a) for a in m.row(i)] for i in range(m.rows)]

def matrix_from_doc(scalars: _Scalars, doc) -> Matrix:
    """The matrix of a row list, written straight into sparse columns."""
    _require(isinstance(doc, list) and doc and
             all(isinstance(r, list) and len(r) == len(doc[0]) for r in doc),
             "matrix must be a non-empty rectangular array")
    columns = tuple({} for _ in doc[0])
    try:
        for i, r in enumerate(doc):
            for col, text in zip(columns, r):
                if a := scalars[text]:
                    col[i] = a
    except TypeError:  # an unhashable value: read refuses it in order
        for r in doc:
            for text in r:
                scalars.read(text)
        raise
    return Matrix(scalars.field, len(doc), len(columns), columns)

def group_to_doc(g: Group) -> dict:
    return {"elements": list(g.elements), "identity": g.identity,
            "table": {a: {b: g.mul(a, b) for b in g.elements}
                      for a in g.elements}}

def group_from_doc(doc) -> Group:
    _require(isinstance(doc, dict), "group must be an object")
    for key in ("elements", "identity", "table"):
        _require(key in doc, f"group misses {key!r}")
    elements = _names(doc["elements"], "group elements")
    identity = _name(doc["identity"], "group identity")
    try:
        table = {(a, b): doc["table"][a][b] for a in elements for b in elements}
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad group table: {e}") from e
    _require(all(isinstance(v, str) for v in table.values()),
             "group table entries must be strings")
    try:
        return Group(elements, identity, table)
    except ValueError as e:
        raise FormatError(f"invalid group: {e}") from e


# -- categories ------------------------------------------------------------

def category_to_doc(c: LinCat) -> dict:
    hom = {}
    for (x, y), names in c.hom.items():
        hom.setdefault(x, {})[y] = list(names)
    comp = {}
    for (g, f), comb in sorted(c.comp.items()):
        comp.setdefault(g, {})[f] = comb_to_doc(c.field, comb)
    return {"kind": "category", "format_version": FORMAT_VERSION,
            "field": field_to_doc(c.field),
            "objects": list(c.objects),
            "hom": hom,
            "comp": comp,
            "identities": {x: comb_to_doc(c.field, c.identities[x])
                           for x in c.objects}}

def category_from_doc(doc, memos: Optional[dict] = None) -> LinCat:
    """memos holds the scalar memos of the decode call this one is part
    of, by field; a call of its own has its own."""
    _check_envelope(doc, "category")
    for key in ("field", "objects", "hom", "comp", "identities"):
        _require(key in doc, f"category misses {key!r}")
    field = field_from_doc(doc["field"])
    if memos is None:
        memos = {}
    scalars = memos.setdefault(field, _Scalars(field))
    objects = _names(doc["objects"], "objects")
    hom = {}
    for x, row in _object(doc["hom"], "hom").items():
        for y, names in _object(row, f"hom[{x!r}]").items():
            hom[(x, y)] = _names(names, f"hom[{x!r}][{y!r}]")
    comp = {}
    for g, row in _object(doc["comp"], "comp").items():
        if not isinstance(row, dict):
            raise FormatError(f"comp[{g!r}] must be an object")
        for f, comb in row.items():
            comp[(g, f)] = comb_from_doc(scalars, comb)
    idents = {x: comb_from_doc(scalars, v)
              for x, v in _object(doc["identities"], "identities").items()}
    try:
        return LinCat(field, objects, hom, comp, idents)
    except ValueError as e:
        raise FormatError(f"invalid category: {e}") from e


# -- functors ----------------------------------------------------------------

def _functor_core_to_doc(f: LinFunctor) -> dict:
    mats = {}
    for (x, y), m in f.matrices.items():  # nonzero source pairs only
        if m.rows:  # a block into a zero hom has no rows to write
            mats.setdefault(x, {})[y] = matrix_to_doc(m)
    return {"object_map": dict(sorted(f.object_map.items())),
            "matrices": mats}

def _functor_core_from_doc(doc, source: LinCat, target: LinCat,
                           scalars: _Scalars) -> LinFunctor:
    for key in ("object_map", "matrices"):
        _require(key in doc, f"functor misses {key!r}")
    object_map = dict(_object(doc["object_map"], "object_map"))
    for x, y in object_map.items():
        if not isinstance(y, str):
            raise FormatError(f"object_map[{x!r}] must be a string")
    mats = {}
    for x, row in _object(doc["matrices"], "matrices").items():
        if not isinstance(row, dict):
            raise FormatError(f"matrices[{x!r}] must be an object")
        for y, m in row.items():
            mats[(x, y)] = matrix_from_doc(scalars, m)
    try:
        return LinFunctor(source, target, object_map, mats)
    except ValueError as e:
        raise FormatError(f"invalid functor: {e}") from e

def functor_to_doc(f: LinFunctor) -> dict:
    doc = {"kind": "functor", "format_version": FORMAT_VERSION,
           "source": category_to_doc(f.source),
           "target": category_to_doc(f.target)}
    doc.update(_functor_core_to_doc(f))
    return doc

def functor_from_doc(doc) -> LinFunctor:
    _check_envelope(doc, "functor")
    for key in ("source", "target"):
        _require(key in doc, f"functor misses {key!r}")
    memos: dict = {}
    source = category_from_doc(doc["source"], memos)
    target = category_from_doc(doc["target"], memos)
    return _functor_core_from_doc(doc, source, target, memos[target.field])


# -- actions ------------------------------------------------------------------

def action_to_doc(a: GroupAction) -> dict:
    return {"kind": "action", "format_version": FORMAT_VERSION,
            "category": category_to_doc(a.category),
            "group": group_to_doc(a.group),
            "functors": {s: _functor_core_to_doc(f)
                         for s, f in sorted(a.functors.items())}}

def action_from_doc(doc) -> GroupAction:
    _check_envelope(doc, "action")
    for key in ("category", "group", "functors"):
        _require(key in doc, f"action misses {key!r}")
    memos: dict = {}
    cat = category_from_doc(doc["category"], memos)
    grp = group_from_doc(doc["group"])
    functors = {s: _functor_core_from_doc(_object(d, f"functors[{s!r}]"),
                                          cat, cat, memos[cat.field])
                for s, d in _object(doc["functors"], "functors").items()}
    try:
        return GroupAction(grp, functors, cat)
    except ValueError as e:
        raise FormatError(f"invalid group action: {e}") from e


# -- gradings -------------------------------------------------------------------

def grading_to_doc(z: Grading) -> dict:
    basis = {}
    degrees = {}
    for (x, y), m in z.basis.items():
        basis.setdefault(x, {})[y] = matrix_to_doc(m)
        degrees.setdefault(x, {})[y] = list(z.degrees[(x, y)])
    return {"kind": "grading", "format_version": FORMAT_VERSION,
            "category": category_to_doc(z.category),
            "group": group_to_doc(z.group),
            "basis": basis, "degrees": degrees}

def grading_from_doc(doc) -> Grading:
    _check_envelope(doc, "grading")
    for key in ("category", "group", "basis", "degrees"):
        _require(key in doc, f"grading misses {key!r}")
    memos: dict = {}
    cat = category_from_doc(doc["category"], memos)
    grp = group_from_doc(doc["group"])
    scalars = memos[cat.field]
    basis = {}
    for x, row in _object(doc["basis"], "basis").items():
        for y, m in _object(row, f"basis[{x!r}]").items():
            basis[(x, y)] = matrix_from_doc(scalars, m)
    degrees = {}
    for x, row in _object(doc["degrees"], "degrees").items():
        for y, labels in _object(row, f"degrees[{x!r}]").items():
            degrees[(x, y)] = _names(labels, f"degrees[{x!r}][{y!r}]")
    try:
        return Grading(grp, cat, basis, degrees)
    except ValueError as e:
        raise FormatError(f"invalid grading: {e}") from e


# -- characters -------------------------------------------------------------------

def character_to_doc(chi: Character) -> dict:
    return {"kind": "character", "format_version": FORMAT_VERSION,
            "field": field_to_doc(chi.field),
            "group": group_to_doc(chi.group),
            "values": {s: chi.field.format(v)
                       for s, v in sorted(chi.values.items())}}

def character_from_doc(doc) -> Character:
    _check_envelope(doc, "character")
    for key in ("field", "group", "values"):
        _require(key in doc, f"character misses {key!r}")
    field = field_from_doc(doc["field"])
    grp = group_from_doc(doc["group"])
    values = _object(doc["values"], "values")
    read = _Scalars(field).read
    try:
        return Character(grp, field, {s: read(v) for s, v in values.items()})
    except ValueError as e:
        raise FormatError(f"invalid character: {e}") from e


# -- presentations ------------------------------------------------------------------

def presentation_from_doc(doc) -> QuiverPresentation:
    _check_envelope(doc, "presentation")
    for key in ("vertices", "arrows", "relations", "length_bound"):
        _require(key in doc, f"presentation misses {key!r}")
    vertices = _names(doc["vertices"], "vertices")
    try:
        arrows = tuple(Arrow(a["name"], a["source"], a["target"])
                       for a in doc["arrows"])
        rels = tuple(tuple((Fraction(_name(t["coeff"], "coeff")),
                            _names(t["path"], "relation path"))
                           for t in rel)
                     for rel in doc["relations"])
        return QuiverPresentation(vertices, arrows, rels,
                                  _integer(doc["length_bound"],
                                           "length_bound"))
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad presentation: {e}") from e
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"invalid presentation: {e}") from e


_ARROW_RE = re.compile(r"^arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_TERM_RE = re.compile(r"^\s*([+-])?\s*((?:\d+(?:/\d+)?)\s+)?([\w*']+)\s*")

def presentation_from_text(text: str) -> QuiverPresentation:
    """Compact text form, one declaration per line:

        vertices x y z
        arrow a: x -> y
        rel g*a - d*b
        bound 2

    A relation term is an optional sign, then an optional unsigned
    rational coefficient, then a path `g*a` read left to right as g∘a;
    `#` starts a comment."""
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list = []
    bound = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices ") or line.startswith("vertex "):
            vertices.extend(line.split()[1:])
            continue
        m = _ARROW_RE.match(line)
        if m:
            arrows.append(Arrow(m.group(1), m.group(2), m.group(3)))
            continue
        if line.startswith("bound "):
            try:
                bound = int(line.split()[1])
            except (IndexError, ValueError) as e:
                raise FormatError(f"line {ln}: bad bound: {e}") from e
            continue
        if line.startswith("rel "):
            rest = line[4:]
            terms = []
            pos = 0
            while pos < len(rest):
                m = _TERM_RE.match(rest[pos:])
                if not m:
                    raise FormatError(
                        f"line {ln}: cannot read relation near "
                        f"{rest[pos:pos + 20]!r}")
                if terms and not m.group(1):
                    raise FormatError(f"line {ln}: expected + or - before "
                                      f"{m.group(0).strip()!r}")
                sign = -1 if m.group(1) == "-" else 1
                try:
                    coeff = Fraction(m.group(2).strip()) if m.group(2) \
                        else Fraction(1)
                except ZeroDivisionError as e:
                    raise FormatError(f"line {ln}: zero denominator in "
                                      f"{m.group(2).strip()!r}") from e
                path = tuple(m.group(3).split("*"))
                terms.append((sign * coeff, path))
                pos += m.end()
            relations.append(tuple(terms))
            continue
        raise FormatError(f"line {ln}: cannot parse {line!r}")
    if bound is None:
        raise FormatError("missing `bound N` line")
    try:
        return QuiverPresentation(tuple(vertices), tuple(arrows),
                                  tuple(relations), bound)
    except ValueError as e:
        raise FormatError(f"invalid presentation: {e}") from e


# -- walks -----------------------------------------------------------------------

def hwalk_to_doc(w: HomogeneousWalk) -> dict:
    return {"kind": "walk", "format_version": FORMAT_VERSION,
            "start": w.start,
            "steps": [{"source": s.src, "target": s.tgt,
                       "index": s.index, "sign": s.sign} for s in w.steps]}

def hwalk_from_doc(doc) -> HomogeneousWalk:
    _check_envelope(doc, "walk")
    for key in ("start", "steps"):
        _require(key in doc, f"walk misses {key!r}")
    try:
        steps = tuple(HWalkStep(_name(s["source"], "source"),
                                _name(s["target"], "target"),
                                _integer(s["index"], "index"),
                                _integer(s["sign"], "sign"))
                      for s in doc["steps"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad walk step: {e}") from e
    return HomogeneousWalk(_name(doc["start"], "start"), steps)


# -- files --------------------------------------------------------------------------

_FROM_DOC = {
    "category": category_from_doc,
    "functor": functor_from_doc,
    "action": action_from_doc,
    "grading": grading_from_doc,
    "character": character_from_doc,
    "presentation": presentation_from_doc,
    "walk": hwalk_from_doc,
}


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _read_text(p: Path) -> str:
    try:
        return p.read_text(encoding="utf-8")
    except OSError as e:
        raise FormatError(f"{p}: {e}") from e


def _json_doc(p: Path, text: str) -> dict:
    """The JSON document text, read from p."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(
            f"{p}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise FormatError(f"{p}: JSON nested too deeply to read") from None


def load_doc(path: Union[str, Path]) -> dict:
    p = Path(path)
    return _json_doc(p, _read_text(p))


def load_value(path: Union[str, Path], kind: str):
    """Load and decode a document of the given kind.  Presentation files
    may use the text DSL instead of JSON; they are detected by a leading
    non-brace character, and read once either way."""
    p = Path(path)
    if kind != "presentation":
        doc = load_doc(p)
    elif (text := _read_text(p)).lstrip().startswith("{"):
        doc = _json_doc(p, text)
    else:
        try:
            return presentation_from_text(text)
        except FormatError as e:
            raise FormatError(f"{p}: {e}") from e
    try:
        return _FROM_DOC[kind](doc)
    except FormatError as e:
        raise FormatError(f"{p}: {e}") from e
