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
from typing import Union

from .exactlinalg import FieldSpec, Matrix
from .grading import Grading, HomogeneousWalk, HWalkStep
from .groups import Group
from .cohomology import Character, validate_character
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
    try:
        return FieldSpec(int(doc["characteristic"]))
    except (TypeError, ValueError) as e:
        raise FormatError(f"bad field: {e}") from e

def scalar_from_doc(field: FieldSpec, text):
    _require(isinstance(text, str), f"scalar {text!r} must be a string")
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad scalar {text!r}: {e}") from e

def comb_to_doc(field: FieldSpec, comb: LinComb) -> dict:
    return {n: field.format(a) for n, a in sorted(comb.items())}

def comb_from_doc(field: FieldSpec, doc) -> LinComb:
    _require(isinstance(doc, dict), "combination must be an object")
    return {n: scalar_from_doc(field, v) for n, v in doc.items()}

def matrix_to_doc(m: Matrix) -> list:
    return [[m.field.format(a) for a in m.row(i)] for i in range(m.rows)]

def matrix_from_doc(field: FieldSpec, doc) -> Matrix:
    _require(isinstance(doc, list) and doc and
             all(isinstance(r, list) and len(r) == len(doc[0]) for r in doc),
             "matrix must be a non-empty rectangular array")
    rows = [[scalar_from_doc(field, a) for a in r] for r in doc]
    return Matrix(field, len(rows), len(rows[0]),
                  tuple({i: r[j] for i, r in enumerate(rows) if r[j]}
                        for j in range(len(rows[0]))))

def group_to_doc(g: Group) -> dict:
    return {"elements": list(g.elements), "identity": g.identity,
            "table": {a: {b: g.mul(a, b) for b in g.elements}
                      for a in g.elements}}

def group_from_doc(doc) -> Group:
    _require(isinstance(doc, dict), "group must be an object")
    for key in ("elements", "identity", "table"):
        _require(key in doc, f"group misses {key!r}")
    try:
        table = {(a, b): doc["table"][a][b]
                 for a in doc["elements"] for b in doc["elements"]}
        return Group(tuple(doc["elements"]), doc["identity"], table)
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad group table: {e}") from e
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

def category_from_doc(doc) -> LinCat:
    _check_envelope(doc, "category")
    for key in ("field", "objects", "hom", "comp", "identities"):
        _require(key in doc, f"category misses {key!r}")
    field = field_from_doc(doc["field"])
    objects = _names(doc["objects"], "objects")
    hom = {}
    for x, row in _object(doc["hom"], "hom").items():
        for y, names in _object(row, f"hom[{x!r}]").items():
            hom[(x, y)] = _names(names, f"hom[{x!r}][{y!r}]")
    comp = {}
    for g, row in _object(doc["comp"], "comp").items():
        for f, comb in _object(row, f"comp[{g!r}]").items():
            comp[(g, f)] = comb_from_doc(field, comb)
    idents = {x: comb_from_doc(field, v)
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

def _functor_core_from_doc(doc, source: LinCat, target: LinCat) -> LinFunctor:
    for key in ("object_map", "matrices"):
        _require(key in doc, f"functor misses {key!r}")
    object_map = {x: _name(y, f"object_map[{x!r}]") for x, y in
                  _object(doc["object_map"], "object_map").items()}
    mats = {}
    for x, row in _object(doc["matrices"], "matrices").items():
        for y, m in _object(row, f"matrices[{x!r}]").items():
            mats[(x, y)] = matrix_from_doc(target.field, m)
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
    source = category_from_doc(doc["source"])
    target = category_from_doc(doc["target"])
    return _functor_core_from_doc(doc, source, target)


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
    cat = category_from_doc(doc["category"])
    grp = group_from_doc(doc["group"])
    docs = _object(doc["functors"], "functors")
    functors = {}
    for s in grp.elements:
        _require(s in docs, f"no functor for element {s!r}")
        functors[s] = _functor_core_from_doc(
            _object(docs[s], f"functors[{s!r}]"), cat, cat)
    return GroupAction(grp, functors, cat)


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
    cat = category_from_doc(doc["category"])
    grp = group_from_doc(doc["group"])
    basis = {}
    for x, row in _object(doc["basis"], "basis").items():
        for y, m in _object(row, f"basis[{x!r}]").items():
            basis[(x, y)] = matrix_from_doc(cat.field, m)
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
    _require(set(values) == set(grp.elements),
             "value keys do not match the group elements")
    chi = Character(grp, field, {s: scalar_from_doc(field, v)
                                 for s, v in values.items()})
    problems = validate_character(chi)
    if problems:
        raise FormatError(f"invalid character: {problems[0]}")
    return chi


# -- presentations ------------------------------------------------------------------

def presentation_to_doc(p: QuiverPresentation) -> dict:
    rels = []
    for rel in p.relations:
        rels.append([{"coeff": str(Fraction(c)), "path": list(path)}
                     for c, path in rel])
    return {"kind": "presentation", "format_version": FORMAT_VERSION,
            "vertices": list(p.vertices),
            "arrows": [{"name": a.name, "source": a.source,
                        "target": a.target} for a in p.arrows],
            "relations": rels,
            "length_bound": p.length_bound}

def presentation_from_doc(doc) -> QuiverPresentation:
    _check_envelope(doc, "presentation")
    for key in ("vertices", "arrows", "relations", "length_bound"):
        _require(key in doc, f"presentation misses {key!r}")
    vertices = _names(doc["vertices"], "vertices")
    try:
        arrows = tuple(Arrow(a["name"], a["source"], a["target"])
                       for a in doc["arrows"])
        rels = tuple(tuple((Fraction(t["coeff"]),
                            _names(t["path"], "relation path"))
                           for t in rel)
                     for rel in doc["relations"])
        return QuiverPresentation(vertices, arrows, rels,
                                  int(doc["length_bound"]))
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad presentation: {e}") from e
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"invalid presentation: {e}") from e


_ARROW_RE = re.compile(r"^arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_TERM_RE = re.compile(r"^\s*([+-])?\s*((?:-?\d+(?:/\d+)?)\s+)?([\w*']+)\s*")

def presentation_from_text(text: str) -> QuiverPresentation:
    """Compact text form, one declaration per line:

        vertices x y z
        arrow a: x -> y
        rel g*a - d*b
        bound 2

    A relation term is an optional rational coefficient followed by a
    path `g*a` read left to right as g∘a; `#` starts a comment."""
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
                sign = -1 if m.group(1) == "-" else 1
                if terms == [] and m.group(1) == "-":
                    sign = -1
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


def load_doc(path: Union[str, Path]) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise FormatError(f"{p}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(
            f"{p}: line {e.lineno} column {e.colno}: {e.msg}") from e
    return doc


def load_value(path: Union[str, Path], kind: str):
    """Load and decode a document of the given kind.  Presentation files
    may use the text DSL instead of JSON; they are detected by a leading
    non-brace character."""
    p = Path(path)
    if kind == "presentation":
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as e:
            raise FormatError(f"{p}: {e}") from e
        if not text.lstrip().startswith("{"):
            try:
                return presentation_from_text(text)
            except FormatError as e:
                raise FormatError(f"{p}: {e}") from e
    doc = load_doc(p)
    try:
        return _FROM_DOC[kind](doc)
    except FormatError as e:
        raise FormatError(f"{p}: {e}") from e


def dump_path(path: Union[str, Path], doc: dict) -> None:
    Path(path).write_text(canonical_dumps(doc), encoding="utf-8")
