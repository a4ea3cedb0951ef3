"""Named fixture file sets, emitted on demand.

Every file the test matrix or the command-line examples need can be
regenerated from here, so nothing depends on data shipped next to the
code.  `fixture_files` returns filename -> document (JSON-ready dict)
or raw text; `write_fixture` puts them on disk in canonical form.
"""
import re
from pathlib import Path
from typing import Union

from . import fixtures as fx
from .cohomology import characters
from .formats import (action_to_doc, canonical_dumps, category_to_doc,
                      functor_to_doc, character_to_doc, grading_to_doc)
from .grading import grading_on_basis
from .groups import cyclic_group
from .kcat import LinCat

FixtureSet = dict[str, Union[dict, str]]

_GDLP_R = """\
# commutative-square bound quiver, relations g*a - d*b and g*b - d*a
vertices x y z
arrow a: x -> y
arrow b: x -> y
arrow g: y -> z
arrow d: y -> z
rel g*a - d*b
rel g*b - d*a
bound 2
"""

_GDLP_R_PRIME = """\
# same algebra in characteristic 2 after the base change
# a' = a + b, c' = g + d; relations become c*a and c*b - d*a
vertices x y z
arrow a: x -> y
arrow b: x -> y
arrow c: y -> z
arrow d: y -> z
rel c*a
rel c*b - d*a
bound 2
"""

_KRONECKER_QUIVER = """\
# two parallel arrows, no relations
vertices s t
arrow a: s -> t
arrow b: s -> t
bound 1
"""


def _kronecker() -> FixtureSet:
    return {"kronecker.json": category_to_doc(fx.kronecker().category),
            "kronecker-quiver.txt": _KRONECKER_QUIVER}


def _kronecker_double() -> FixtureSet:
    double = fx.kronecker_double().category
    return {"kronecker-double.json": category_to_doc(double),
            "swap-action.json": action_to_doc(fx.swap_action())}


def _cover(fixture: fx.CoverFixture, filename: str) -> FixtureSet:
    return {filename: functor_to_doc(fixture.functor)}


def _gdlp_base() -> FixtureSet:
    return {"gdlp-base.json": category_to_doc(fx.square_base().category),
            "gdlp-R.txt": _GDLP_R,
            "gdlp-Rprime.txt": _GDLP_R_PRIME}


def _smash_demo() -> FixtureSet:
    k = fx.kronecker(fx.F2).category
    grp = cyclic_group(2)
    z = grading_on_basis(k, grp, {"a": "e", "b": "g"})
    chi = characters(grp, fx.F2)[0]
    return {"smash-grading.json": grading_to_doc(z),
            "smash-character.json": character_to_doc(chi)}


def _empty() -> FixtureSet:
    return {"empty-category.json":
            # no object, so nothing to check
            category_to_doc(LinCat.by_construction(fx.Q, (), {}, {}, {}))}


_REGISTRY = {
    "kronecker": _kronecker,
    "kronecker-double": _kronecker_double,
    "F0": lambda: _cover(fx.cover_f0(), "F0.json"),
    "F1": lambda: _cover(fx.cover_f1(), "F1.json"),
    "F2": lambda: _cover(fx.cover_f2(), "F2.json"),
    "gdlp-base": _gdlp_base,
    "gdlp-C1": lambda: _cover(fx.square_cover(), "gdlp-C1.json"),
    "smash-demo": _smash_demo,
    "corrupted": lambda: _cover(fx.corrupted_collapse(), "corrupted.json"),
    "empty": _empty,
}

_CYCLIC_RE = re.compile(r"^cyclic-cover-(\d+)$")


def fixture_names() -> tuple[str, ...]:
    return tuple(_REGISTRY) + ("cyclic-cover-n",)


def fixture_files(name: str) -> FixtureSet:
    m = _CYCLIC_RE.match(name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise KeyError(f"cyclic cover needs n >= 1, got {n}")
        fixture = fx.identity_cover() if n == 1 else fx.cyclic_cover(n)
        return _cover(fixture, f"{name}.json")
    if name == "cyclic-cover-n":
        raise KeyError("'cyclic-cover-n' is a template: pass "
                       "cyclic-cover-<n> with n >= 1, for example "
                       "cyclic-cover-4")
    if name not in _REGISTRY:
        raise KeyError(f"unknown fixture {name!r}; "
                       f"known: {', '.join(fixture_names())}")
    return _REGISTRY[name]()


def write_fixture(name: str, directory: Union[str, Path]) -> list[Path]:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for filename, content in sorted(fixture_files(name).items()):
        path = out / filename
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_text(canonical_dumps(content), encoding="utf-8")
        written.append(path)
    return written
