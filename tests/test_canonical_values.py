"""Every value the library stores is a canonical field element: over Q an
int exactly when it is integral and a Fraction otherwise, over F_p an int
in [0, p).  The walk covers every registry fixture, decoded from its
documents and, for the coverings, built in code, plus cyclic_cover(1..6)
over Q; with their structure constants, identities, functor blocks, star
tables, deck transformations and H1 representatives."""
from fractions import Fraction

import pytest

from lincat import fixtures as fx
from lincat.cohomology import h1
from lincat.covering import aut1, check_covering
from lincat.formats import (action_from_doc, category_from_doc,
                            character_from_doc, functor_from_doc,
                            grading_from_doc, presentation_from_text)
from lincat.kcat import LinCat, LinFunctor, is_connected, present
from lincat.registry import fixture_files, fixture_names
from linalg_reference import entries
from lincat_reference import deck_functors

DECODE = {"category": category_from_doc, "functor": functor_from_doc,
          "action": action_from_doc, "grading": grading_from_doc,
          "character": character_from_doc}


def canonical(field, v):
    p = field.characteristic
    if p:
        return type(v) is int and 0 <= v < p
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def category_values(c: LinCat):
    for key, comb in c.comp.items():
        for n, v in comb.items():
            yield f"comp{key}[{n}]", v
    for x, comb in c.identities.items():
        for n, v in comb.items():
            yield f"identity of {x}[{n}]", v
    for d in h1(c).representatives:
        for pair, m in d.matrices.items():
            yield from ((f"h1 representative{pair}", v) for v in entries(m))


def block_values(f: LinFunctor, what: str):
    for pair, m in f.matrices.items():
        yield from ((f"{what} block{pair}", v) for v in entries(m))


def functor_values(f: LinFunctor):
    yield from block_values(f, "functor")
    report = check_covering(f)
    for key, (inv, _) in report.stars.items():
        for col in inv.columns:
            yield from ((f"star inverse{key}", v) for v in col.values())
    if report.ok and is_connected(f.source).connected:
        for s, h in deck_functors(f, aut1(f)).items():
            yield from block_values(h, f"aut1 {s}")


def values(obj):
    if isinstance(obj, LinCat):
        yield from category_values(obj)
    elif isinstance(obj, LinFunctor):
        yield from category_values(obj.source)
        yield from category_values(obj.target)
        yield from functor_values(obj)
    elif hasattr(obj, "functors"):  # a group action
        yield from category_values(obj.category)
        for s, f in obj.functors.items():
            yield from block_values(f, f"action {s}")
    elif hasattr(obj, "degrees"):  # a grading
        yield from category_values(obj.category)
        for pair, m in obj.basis.items():
            yield from ((f"grading basis{pair}", v) for v in entries(m))
    else:  # a character
        yield from ((f"character at {s}", v) for s, v in obj.values.items())


def field_of(obj):
    if isinstance(obj, LinFunctor):
        return obj.source.field
    if isinstance(obj, LinCat):
        return obj.field
    return obj.field if hasattr(obj, "field") else obj.category.field


def decoded(name):
    for filename, content in sorted(fixture_files(name).items()):
        if isinstance(content, str):
            p = presentation_from_text(content)
            for field in (fx.Q, fx.F2):
                yield f"{filename} over {field}", \
                    present(p, field).category
        else:
            yield filename, DECODE[content["kind"]](content)


BUILT = {"F0": fx.cover_f0, "F1": fx.cover_f1, "F2": fx.cover_f2,
         "gdlp-C1": fx.square_cover, "corrupted": fx.corrupted_collapse}
NAMES = [n for n in fixture_names() if n != "cyclic-cover-n"] + \
    [f"cyclic-cover-{n}" for n in range(1, 7)]


@pytest.mark.parametrize("name", NAMES)
def test_fixture_values_are_canonical(name):
    objects = list(decoded(name))
    if name in BUILT:
        objects.append((f"{name} built", BUILT[name]().functor))
    if name.startswith("cyclic-cover-") and name != "cyclic-cover-1":
        cover = fx.cyclic_cover(int(name.rsplit("-", 1)[1]))
        objects.append((f"{name} built", cover.functor))
    for label, obj in objects:
        field = field_of(obj)
        seen = 0
        for where, v in values(obj):
            assert canonical(field, v), (label, where, v, type(v))
            seen += 1
        assert seen or label.startswith("empty"), label
