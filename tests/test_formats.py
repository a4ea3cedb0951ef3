import json
import re
from pathlib import Path

import pytest

from lincat import formats as fm
from lincat import registry
from lincat.cohomology import characters
from lincat.exactlinalg import FieldSpec, Matrix
from lincat.fixtures import (F2, cover_f0, discrete, kronecker,
                             square_base_quiver, square_base_quiver_alt,
                             swap_action)
from lincat.grading import (HomogeneousWalk, HWalkStep, grading_on_basis,
                            induced_grading, is_connected_grading)
from lincat.groups import cyclic_group
from lincat.kcat import (LinCat, LinFunctor, validate_category,
                         validate_functor)
from lincat_reference import presentation_to_doc


def reload(doc):
    return json.loads(fm.canonical_dumps(doc))


# -- round trips ------------------------------------------------------------

def test_category_round_trip():
    c = kronecker().category
    doc = fm.category_to_doc(c)
    c2 = fm.category_from_doc(reload(doc))
    assert c2 == c
    assert fm.canonical_dumps(fm.category_to_doc(c2)) == fm.canonical_dumps(doc)


def test_category_round_trip_char2():
    c = kronecker(F2).category
    assert fm.category_from_doc(reload(fm.category_to_doc(c))) == c


def test_identity_coefficients_are_reduced():
    # an identity given as 3·i over F_2 is stored as i, as products are
    c = LinCat(FieldSpec(2), ("x",), {("x", "x"): ("i",)},
               {("i", "i"): {"i": 1}}, {"x": {"i": 3}})
    assert c.identities == {"x": {"i": 1}}
    doc = fm.category_to_doc(c)
    assert doc["identities"] == {"x": {"i": "1 mod 2"}}
    assert fm.category_from_doc(reload(doc)) == c


def test_functor_round_trip():
    f = cover_f0().functor
    f2 = fm.functor_from_doc(reload(fm.functor_to_doc(f)))
    assert f2 == f
    assert validate_functor(f2) == []


def test_functor_into_zero_homs_round_trip():
    # a, b -> 0 in hom(o0, o1) = 0: the block of hom(s, t) has no rows,
    # so the file omits it and the reader restores it
    f = LinFunctor.on_basis(kronecker().category, discrete().category,
                            {"s": "o0", "t": "o1"},
                            {"1_s": {"1_o0": 1}, "1_t": {"1_o1": 1}})
    doc = reload(fm.functor_to_doc(f))
    assert doc["matrices"] == {"s": {"s": [["1"]]}, "t": {"t": [["1"]]}}
    f2 = fm.functor_from_doc(doc)
    assert f2 == f
    assert f2.matrices[("s", "t")] == Matrix.zeros(f.source.field, 0, 2)
    assert fm.canonical_dumps(fm.functor_to_doc(f2)) == \
        fm.canonical_dumps(doc)


def test_missing_block_into_a_nonzero_hom_is_refused():
    doc = reload(fm.functor_to_doc(cover_f0().functor))
    del doc["matrices"]["s0"]["t0"]
    with pytest.raises(fm.FormatError, match=r"no matrix for hom\('s0', 't0'\)"):
        fm.functor_from_doc(doc)


def test_action_round_trip():
    a = swap_action()
    assert fm.action_from_doc(reload(fm.action_to_doc(a))) == a


def test_grading_round_trip():
    f = cover_f0().functor
    choice = {"s": "s0", "t": "t0"}
    z = induced_grading(f, choice)
    z2 = fm.grading_from_doc(reload(fm.grading_to_doc(z)))
    assert z2 == z


def test_character_round_trip():
    chi = characters(cyclic_group(2), F2)[0]
    assert fm.character_from_doc(reload(fm.character_to_doc(chi))) == chi


def test_presentation_round_trip():
    p = square_base_quiver()
    assert fm.presentation_from_doc(reload(presentation_to_doc(p))) == p


def test_walk_round_trip():
    z = grading_on_basis(kronecker().category, cyclic_group(2),
                         {"a": "e", "b": "g"})
    rep = is_connected_grading(z)
    for w in map(rep.walk, rep.parents):
        assert fm.hwalk_from_doc(reload(fm.hwalk_to_doc(w))) == w


@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d["steps"][0].update(source=["s"]), "source must be a string"),
    (lambda d: d["steps"][0].update(target=None), "target must be a string"),
    (lambda d: d.update(start=["s"]), "start must be a string"),
    (lambda d: d.update(start=0), "start must be a string"),
    (lambda d: d["steps"][0].update(index=0.9), "index must be an integer"),
    (lambda d: d["steps"][0].update(index=1.0), "index must be an integer"),
    (lambda d: d["steps"][0].update(index="1"), "index must be an integer"),
    (lambda d: d["steps"][0].update(index=True), "index must be an integer"),
    (lambda d: d["steps"][1].update(sign=True), "sign must be an integer"),
    (lambda d: d["steps"][1].update(sign=-1.0), "sign must be an integer"),
    (lambda d: d["steps"][1].update(sign="-1"), "sign must be an integer"),
])
def test_walk_decoder_type_checks(edit, fragment):
    doc = reload(fm.hwalk_to_doc(HomogeneousWalk(
        "s", (HWalkStep("s", "t", 1, 1), HWalkStep("s", "t", 0, -1)))))
    edit(doc)
    with pytest.raises(fm.FormatError, match=fragment):
        fm.hwalk_from_doc(doc)


def test_canonical_form_is_stable():
    doc = fm.category_to_doc(kronecker().category)
    s1 = fm.canonical_dumps(doc)
    s2 = fm.canonical_dumps(json.loads(s1))
    assert s1 == s2
    assert s1.endswith("\n")


# -- envelope and content errors -----------------------------------------------

def test_wrong_kind_rejected():
    doc = fm.category_to_doc(kronecker().category)
    doc["kind"] = "functor"
    with pytest.raises(fm.FormatError, match="kind"):
        fm.category_from_doc(doc)


def test_wrong_version_rejected():
    doc = fm.category_to_doc(kronecker().category)
    doc["format_version"] = 99
    with pytest.raises(fm.FormatError, match="format_version"):
        fm.category_from_doc(doc)


def test_missing_key_rejected():
    doc = fm.category_to_doc(kronecker().category)
    del doc["identities"]
    with pytest.raises(fm.FormatError, match="identities"):
        fm.category_from_doc(doc)


def test_scalar_field_mismatch_rejected():
    doc = fm.category_to_doc(kronecker(F2).category)
    doc["identities"]["s"]["1_s"] = "1 mod 3"
    with pytest.raises(fm.FormatError, match="mod"):
        fm.category_from_doc(doc)


def test_bad_group_table_rejected():
    doc = fm.group_to_doc(cyclic_group(2))
    doc["table"]["g"]["g"] = "g"
    with pytest.raises(fm.FormatError):
        fm.group_from_doc(doc)


@pytest.mark.parametrize("value", [["1"], 1, None, {"1": "1"}])
def test_non_string_scalars_refused_before_lookup(value):
    """A list cannot be looked up in the scalar memo; it is refused with
    the message of any other non-string, in a combination and in a
    matrix alike."""
    doc = fm.category_to_doc(kronecker().category)
    doc["identities"]["s"]["1_s"] = value
    with pytest.raises(fm.FormatError,
                       match=f"^scalar {re.escape(repr(value))} must be a "
                       "string$"):
        fm.category_from_doc(doc)
    z = grading_on_basis(kronecker(F2).category, cyclic_group(2), {"b": "g"})
    doc = fm.grading_to_doc(z)
    doc["basis"]["s"]["t"][0][1] = value
    with pytest.raises(fm.FormatError, match="must be a string$"):
        fm.grading_from_doc(doc)


def test_each_distinct_scalar_parsed_once_per_decode(monkeypatch):
    """A grading document repeats "0 mod 2" and "1 mod 2"; one decode
    parses each once, and a second decode parses them again."""
    z = grading_on_basis(kronecker(F2).category, cyclic_group(2), {"b": "g"})
    doc = fm.grading_to_doc(z)
    parsed = []
    parse = FieldSpec.parse
    monkeypatch.setattr(FieldSpec, "parse",
                        lambda self, text: parsed.append(text) or
                        parse(self, text))
    for _ in range(2):
        assert fm.grading_from_doc(doc) == z
    assert sorted(parsed) == ["0 mod 2", "0 mod 2", "1 mod 2", "1 mod 2"]


@pytest.mark.parametrize("key,value,message", [
    # a string would read as the group of its characters
    ("elements", "eg", "group elements must be a JSON array of strings"),
    ("elements", ["e", 1], "group elements must be a JSON array of strings"),
    ("identity", ["e"], "group identity must be a string"),
    ("identity", None, "group identity must be a string"),
])
def test_group_names_must_be_strings(key, value, message):
    doc = fm.group_to_doc(cyclic_group(2))
    doc[key] = value
    with pytest.raises(fm.FormatError, match=f"^{message}$"):
        fm.group_from_doc(doc)


@pytest.mark.parametrize("value", [["e"], 0, None, {"e": "e"}])
def test_group_table_entries_must_be_strings(value):
    doc = fm.group_to_doc(cyclic_group(2))
    doc["table"]["g"]["e"] = value
    with pytest.raises(fm.FormatError,
                       match="^group table entries must be strings$"):
        fm.group_from_doc(doc)


def test_group_round_trip():
    g = cyclic_group(3)
    assert fm.group_from_doc(fm.group_to_doc(g)) == g


def test_inconsistent_category_rejected():
    doc = fm.category_to_doc(kronecker().category)
    doc["hom"]["s"]["t"] = ["a", "a"]
    with pytest.raises(fm.FormatError, match="invalid category"):
        fm.category_from_doc(doc)
    # an identity of an object that is not declared
    doc = fm.category_to_doc(kronecker().category)
    doc["identities"]["zz"] = {"1_s": "1"}
    with pytest.raises(fm.FormatError, match="^invalid category: identity "
                       "declared for unknown object zz$"):
        fm.category_from_doc(doc)


def test_missing_file(tmp_path):
    with pytest.raises(fm.FormatError, match="nothing.json"):
        fm.load_value(tmp_path / "nothing.json", "category")


def test_json_syntax_error_carries_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "category",\n  "format_version": 1,\n')
    with pytest.raises(fm.FormatError, match=r"line \d+ column \d+"):
        fm.load_value(p, "category")


@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d.update(objects=5), "objects"),
    (lambda d: d.update(objects="st"), "objects"),
    (lambda d: d.update(objects=["s", 1]), "objects"),
    (lambda d: d["hom"]["s"].update(t="ab"), "hom"),
    (lambda d: d.update(hom=["s"]), "hom"),
    (lambda d: d["hom"].update(s=["t"]), "hom"),
    (lambda d: d.update(comp=[]), "comp"),
    (lambda d: d.update(identities="1_s"), "identities"),
    # no floating point anywhere: 2.5 once decoded as F_2
    (lambda d: d["field"].update(characteristic=2.5),
     "^characteristic must be an integer$"),
    (lambda d: d["field"].update(characteristic="2"),
     "^characteristic must be an integer$"),
])
def test_category_decoder_type_checks(edit, fragment):
    # a string where a name list belongs would otherwise be read as a
    # list of one-letter names
    doc = fm.category_to_doc(kronecker().category)
    edit(doc)
    with pytest.raises(fm.FormatError, match=fragment):
        fm.category_from_doc(doc)


@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d["relations"][0][0].update(path="ga"), "path"),
    (lambda d: d["relations"][0][0].update(path=["g", 7]), "path"),
    (lambda d: d.update(vertices="xyz"), "vertices"),
    (lambda d: d.update(vertices=3), "vertices"),
    (lambda d: d["relations"][0][0].update(coeff="1/0"),
     "invalid presentation"),
    (lambda d: d["arrows"][0].update(name=""), "empty arrow name"),
    # 1.9 once decoded as bound 1, and 0.1 as 3602879701896397/2^55
    (lambda d: d.update(length_bound=1.9), "length_bound must be an integer"),
    (lambda d: d["relations"][0][0].update(coeff=0.1),
     "coeff must be a string"),
    # once a KeyError, reported as "bad presentation: 'z'"
    (lambda d: d["relations"][0][0].update(path=["g", "z"]),
     "^invalid presentation: relation path 'g\\*z' names undeclared "
     "arrow 'z'$"),
])
def test_presentation_decoder_type_checks(edit, fragment):
    doc = presentation_to_doc(square_base_quiver())
    edit(doc)
    with pytest.raises(fm.FormatError, match=fragment):
        fm.presentation_from_doc(doc)


@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d["matrices"].update(t1=None), r"matrices\['t1'\]"),
    (lambda d: d["matrices"]["s1"].update(t1=5), "matrix"),
    (lambda d: d.update(matrices=[]), "matrices"),
    (lambda d: d.update(object_map="s0"), "object_map"),
    (lambda d: d["object_map"].update(s0=["s"]),
     r"object_map\['s0'\] must be a string"),
    (lambda d: d["object_map"].update(t1=5),
     r"object_map\['t1'\] must be a string"),
    (lambda d: d["object_map"].update(zz="s"),
     "object_map names 'zz', which is not a source object"),
    (lambda d: d["matrices"].update(zz={"s0": [["1"]]}),
     r"matrix for hom\('zz', 's0'\) names an object outside the source"),
    (lambda d: d["matrices"]["s0"].update(qq=[["1"]]),
     r"matrix for hom\('s0', 'qq'\) names an object outside the source"),
])
def test_functor_decoder_type_checks(edit, fragment):
    doc = reload(fm.functor_to_doc(cover_f0().functor))
    edit(doc)
    with pytest.raises(fm.FormatError, match=fragment):
        fm.functor_from_doc(doc)


def _smash_grading_doc():
    return reload(fm.grading_to_doc(grading_on_basis(
        kronecker(F2).category, cyclic_group(2), {"a": "e", "b": "g"})))


@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d["degrees"].update(t=None), r"degrees\['t'\]"),
    (lambda d: d["degrees"]["s"].update(t="eg"), "degrees"),
    (lambda d: d.update(degrees=[]), "degrees"),
    (lambda d: d["basis"].update(s=5), r"basis\['s'\]"),
    (lambda d: d.update(basis="s"), "basis"),
])
def test_grading_decoder_type_checks(edit, fragment):
    doc = _smash_grading_doc()
    edit(doc)
    with pytest.raises(fm.FormatError, match=fragment):
        fm.grading_from_doc(doc)


@pytest.mark.parametrize("value", [5, None, ["e", "g"], "eg"])
def test_character_decoder_type_checks(value):
    doc = reload(fm.character_to_doc(characters(cyclic_group(2), F2)[0]))
    doc["values"] = value
    with pytest.raises(fm.FormatError, match="values"):
        fm.character_from_doc(doc)


@pytest.mark.parametrize("values,problem", [
    ({"e": "1 mod 3", "g": "0 mod 3", "g2": "0 mod 3"},
     "nonzero value at the identity"),
    ({"e": "0 mod 3", "g": "1 mod 3", "g2": "1 mod 3"},
     r"not additive on \(g, g\)"),
])
def test_character_refused_unless_additive(values, problem):
    chi = characters(cyclic_group(3), FieldSpec(3))[0]
    doc = reload(fm.character_to_doc(chi))
    assert fm.character_from_doc(doc) == chi
    doc["values"] = values
    with pytest.raises(fm.FormatError, match=f"^invalid character: {problem}$"):
        fm.character_from_doc(doc)


@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d["functors"]["g"]["matrices"].update(s1=5),
     r"matrices\['s1'\]"),
    (lambda d: d["functors"].update(g=None), r"functors\['g'\]"),
    (lambda d: d.update(functors=["e", "g"]), "functors"),
])
def test_action_decoder_type_checks(edit, fragment):
    doc = reload(fm.action_to_doc(swap_action()))
    edit(doc)
    with pytest.raises(fm.FormatError, match=fragment):
        fm.action_from_doc(doc)


@pytest.mark.parametrize("edit,problem", [
    (lambda f: f.update(zzz=f["e"]),
     "functors names 'zzz', which is not a group element"),
    (lambda f: f.pop("g"), "no functor for group element g"),
    (lambda f: f.update(g=f["e"]), "action is not free: g·s0 = s0"),
], ids=["extra entry", "missing entry", "unfree"])
def test_action_refused_with_its_first_problem(edit, problem):
    doc = reload(fm.action_to_doc(swap_action()))
    edit(doc["functors"])
    with pytest.raises(fm.FormatError,
                       match=f"^invalid group action: {problem}$"):
        fm.action_from_doc(doc)


# -- presentation text form -------------------------------------------------------

GDLP_TEXT = """
vertices x y z
arrow a: x -> y
arrow b: x -> y
arrow g: y -> z
arrow d: y -> z
rel g*a - d*b
rel g*b - d*a
bound 2
"""


def test_text_form_matches_builder():
    assert fm.presentation_from_text(GDLP_TEXT) == square_base_quiver()


def test_text_form_alt_relations():
    text = GDLP_TEXT.replace("arrow g", "arrow c") \
        .replace("rel g*a - d*b", "rel c*a") \
        .replace("rel g*b - d*a", "rel c*b - d*a")
    assert fm.presentation_from_text(text) == square_base_quiver_alt()


def test_text_form_coefficients():
    from fractions import Fraction
    p = fm.presentation_from_text(
        "vertices x y\narrow a: x -> y\narrow b: x -> y\n"
        "rel 2 a - 3/2 b\nrel -a + b\nbound 1\n")
    assert p.relations == (
        ((Fraction(2), ("a",)), (Fraction(-3, 2), ("b",))),
        ((Fraction(-1), ("a",)), (Fraction(1), ("b",))))


def test_text_form_comments_and_blank_lines():
    p = fm.presentation_from_text(
        "# header\n\nvertices s t  # trailing\narrow a: s -> t\nbound 1\n")
    assert p.vertices == ("s", "t")
    assert p.arrows[0].name == "a"


@pytest.mark.parametrize("text,fragment", [
    ("vertices x\nbogus\nbound 1", "line 2"),
    ("vertices x\narrow a: x -> x\nrel a @ a\nbound 1", "line 3"),
    ("vertices x\narrow a: x -> x\nrel a", "bound"),
    ("vertices x\narrow a: x -> x\nbound zero", "bound"),
    ("vertices x\narrow a: x -> x\nrel 1/0 a*a\nbound 2",
     "line 3: zero denominator"),
    # a later term needs its sign
    ("vertices x\narrow a: x -> x\narrow b: x -> x\nrel a b\nbound 1",
     "^line 4: expected \\+ or - before 'b'$"),
    ("vertices x\narrow a: x -> x\narrow b: x -> x\nrel -a 2 b\nbound 1",
     "^line 4: expected \\+ or - before '2 b'$"),
    # the sign comes before an unsigned coefficient
    ("vertices x\narrow a: x -> x\narrow b: x -> x\nrel a - -2 b\nbound 1",
     "^line 4: cannot read relation near '- -2 b'$"),
    ("vertices x\narrow a: x -> x\narrow b: x -> x\nrel a + -2 b\nbound 1",
     "^line 4: cannot read relation near '\\+ -2 b'$"),
    # a path of declared arrows only
    ("vertices x\narrow a: x -> x\nrel a*z\nbound 2",
     "relation path 'a\\*z' names undeclared arrow 'z'$"),
    ("vertices x\narrow a: x -> x\nrel 2a\nbound 2",
     "relation path '2a' names undeclared arrow '2a'$"),
    ("vertices x\narrow a: x -> x\nrel a*\nbound 2",
     "relation path 'a\\*' names undeclared arrow ''$"),
    ("vertices x\narrow a: x -> x\nrel a**a\nbound 2",
     "relation path 'a\\*\\*a' names undeclared arrow ''$"),
])
def test_text_form_errors(text, fragment):
    with pytest.raises(fm.FormatError, match=fragment):
        fm.presentation_from_text(text)


def test_load_value_sniffs_text_presentations(tmp_path):
    p = tmp_path / "pres.txt"
    p.write_text(GDLP_TEXT)
    assert fm.load_value(p, "presentation") == square_base_quiver()
    q = tmp_path / "pres.json"
    q.write_text(fm.canonical_dumps(
        presentation_to_doc(square_base_quiver())))
    assert fm.load_value(q, "presentation") == square_base_quiver()


def test_load_value_opens_a_presentation_file_once(tmp_path, monkeypatch):
    as_json = tmp_path / "pres.json"
    as_json.write_text(fm.canonical_dumps(
        presentation_to_doc(square_base_quiver())))
    as_text = tmp_path / "pres.txt"
    as_text.write_text(GDLP_TEXT)
    opened = []
    real_open = Path.open

    def counted(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)
    monkeypatch.setattr(Path, "open", counted)
    for path in (as_json, as_text):
        assert fm.load_value(path, "presentation") == square_base_quiver()
    assert opened == [as_json, as_text]


def test_malformed_json_presentation_names_line_and_column(tmp_path):
    p = tmp_path / "pres.json"
    p.write_text('{"kind": "presentation",\n "vertices": [}')
    with pytest.raises(fm.FormatError) as err:
        fm.load_value(p, "presentation")
    assert str(err.value) == f"{p}: line 2 column 15: Expecting value"


# -- fixture registry -----------------------------------------------------------

ALL_NAMES = ["kronecker", "kronecker-double", "F0", "F1", "F2", "gdlp-base",
             "gdlp-C1", "smash-demo", "corrupted", "empty",
             "cyclic-cover-1", "cyclic-cover-2", "cyclic-cover-4"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_fixture_files_round_trip(name, tmp_path):
    to_doc = {"category": fm.category_to_doc, "functor": fm.functor_to_doc,
              "action": fm.action_to_doc, "grading": fm.grading_to_doc,
              "character": fm.character_to_doc}
    for path in registry.write_fixture(name, tmp_path):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            kind = json.loads(text)["kind"]
            value = fm.load_value(path, kind)
            assert fm.canonical_dumps(to_doc[kind](value)) == text
        else:
            fm.load_value(path, "presentation")


def test_cyclic_cover_1_is_identity():
    files = registry.fixture_files("cyclic-cover-1")
    f = fm.functor_from_doc(files["cyclic-cover-1.json"])
    assert f.source == f.target
    assert all(f.object_map[x] == x for x in f.source.objects)


def test_empty_fixture_validates():
    files = registry.fixture_files("empty")
    c = fm.category_from_doc(files["empty-category.json"])
    assert c.objects == ()
    assert validate_category(c) == []


def test_unknown_fixture_rejected():
    with pytest.raises(KeyError, match="unknown fixture"):
        registry.fixture_files("nope")
    with pytest.raises(KeyError, match="n >= 1"):
        registry.fixture_files("cyclic-cover-0")


def test_cyclic_cover_template_name_explained():
    # the listed name is a template; its refusal says how to fill it in
    with pytest.raises(KeyError, match="template") as exc:
        registry.fixture_files("cyclic-cover-n")
    assert "unknown fixture" not in str(exc.value)
    assert "cyclic-cover-4" in str(exc.value)


def test_registry_names_cover_spectrum():
    names = registry.fixture_names()
    for expected in ("kronecker", "kronecker-double", "F0", "F1", "F2",
                     "gdlp-base", "gdlp-C1", "smash-demo", "cyclic-cover-n"):
        assert expected in names
