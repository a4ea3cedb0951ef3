import copy
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lincat import cli, formats, registry
from lincat_reference import (disconnected_double_kronecker, dump_path,
                              presentation_to_doc, trivial_grading)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_SETS = ("kronecker", "kronecker-double", "F0", "F1", "F2",
                "gdlp-base", "gdlp-C1", "smash-demo", "corrupted", "empty",
                "cyclic-cover-2", "cyclic-cover-4")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-fixtures")
    for name in FIXTURE_SETS:
        registry.write_fixture(name, d)
    return d


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("LINCAT_COLOR", "never")


def run(workdir, *argv):
    out, err = io.StringIO(), io.StringIO()
    argv = [str(workdir / a) if a.endswith(".json") or a.endswith(".txt")
            else a for a in argv]
    code = cli.run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(workdir, *argv):
    code, out, err = run(workdir, "--json", *argv)
    return code, json.loads(out) if out else None, err


# -- the three documented examples ------------------------------------------

def test_galois_check_f2_fails_with_reason(workdir):
    code, out, _ = run(workdir, "galois", "check", "--functor", "F2.json")
    assert code == 1
    assert "verdict galois: false" in out
    assert "order 1" in out and "size 2" in out


def test_h1_kronecker_dim_3(workdir):
    code, out, _ = run(workdir, "h1", "--cat", "kronecker.json")
    assert code == 0
    assert "dim H1 = 3" in out


def test_validate_empty_category(workdir):
    code, out, _ = run(workdir, "validate", "--cat", "empty-category.json")
    assert code == 0
    assert "valid: true" in out


@pytest.mark.parametrize("argv,code,line", [
    (("galois", "check", "--functor", "P"), 1,
     "note: not Galois: source category is not connected"),
    (("cover", "aut1", "--functor", "P"), 2,
     "error: covering source is not connected"),
    (("cover", "extend", "--functor", "P", "--to", "P"), 2,
     "error: the covering has no objects to seed"),
    (("cover", "lambda", "--functor", "P", "--to", "P"), 2,
     "error: the covering has no objects to seed"),
    (("grade", "induce", "--functor", "P"), 2,
     "error: not a Galois covering: source category is not connected"),
], ids=["galois check", "cover aut1", "cover extend", "cover lambda",
        "grade induce"])
def test_identity_covering_of_the_empty_category(workdir, tmp_path, argv,
                                                 code, line):
    # the empty category is not connected, and has no object to seed
    from lincat.fixtures import discrete
    from lincat.formats import functor_to_doc
    from lincat.kcat import identity_functor
    path = tmp_path / "empty-id.json"
    dump_path(path, functor_to_doc(identity_functor(discrete(n=0).category)))
    got, out, err = run(workdir, *(str(path) if a == "P" else a
                                   for a in argv))
    assert got == code
    assert line + "\n" in out + err


# -- verdict identity and the exit-code contract ---------------------------------

MATRIX = [
    ("cover", "check", "--functor", "F0.json"),
    ("cover", "check", "--functor", "corrupted.json"),
    ("cover", "aut1", "--functor", "cyclic-cover-4.json"),
    ("cover", "extend", "--functor", "F0.json", "--to", "F0.json"),
    ("cover", "extend", "--functor", "F0.json", "--to", "F1.json"),
    ("cover", "lambda", "--functor", "cyclic-cover-4.json",
     "--to", "cyclic-cover-2.json"),
    ("galois", "check", "--functor", "F0.json"),
    ("galois", "check", "--functor", "F1.json"),
    ("galois", "check", "--functor", "F2.json"),
    ("galois", "quotient", "--action", "swap-action.json"),
    ("galois", "structure", "--functor", "F0.json"),
    ("galois", "homs", "--functor", "cyclic-cover-4.json",
     "--to", "cyclic-cover-2.json"),
    ("galois", "universal", "--functor", "cyclic-cover-4.json",
     "--family", "cyclic-cover-2.json"),
    ("galois", "gset", "--functor", "F0.json", "--to", "F0.json"),
    ("grade", "induce", "--functor", "F0.json"),
    ("grade", "validate", "--grading", "smash-grading.json"),
    ("grade", "connected", "--grading", "smash-grading.json"),
    ("grade", "smash", "--grading", "smash-grading.json"),
    ("delta", "--grading", "smash-grading.json",
     "--character", "smash-character.json"),
    ("delta-inj", "--grading", "smash-grading.json"),
    ("pi1", "--presentation", "gdlp-R.txt", "--base", "x"),
    ("pi1", "--presentation", "gdlp-Rprime.txt", "--base", "x"),
    ("h1", "--cat", "kronecker.json"),
    ("h1", "--cat", "kronecker-double.json"),
    ("validate", "--functor", "F1.json"),
    ("validate", "--action", "swap-action.json"),
    ("validate", "--grading", "smash-grading.json"),
    ("validate", "--character", "smash-character.json"),
    ("validate", "--presentation", "gdlp-R.txt"),
]


@pytest.mark.parametrize("argv", MATRIX, ids=lambda a: " ".join(a))
def test_exit_code_matches_boolean_verdicts(workdir, argv):
    code, doc, _ = run_json(workdir, *argv)
    assert doc is not None
    bools = [v for v in doc["verdicts"].values() if isinstance(v, bool)]
    assert code == (0 if all(bools) else 1)


@pytest.mark.parametrize("argv,checks", [
    (("cover", "aut1", "--functor", "cyclic-cover-4.json"), 1),
    (("galois", "check", "--functor", "F0.json"), 1),
    (("galois", "homs", "--functor", "cyclic-cover-4.json",
      "--to", "cyclic-cover-2.json"), 2),
    (("galois", "gset", "--functor", "F0.json", "--to", "F0.json"), 2),
    (("galois", "universal", "--functor", "cyclic-cover-4.json",
      "--family", "cyclic-cover-2.json", "cyclic-cover-4.json"), 3),
    (("cover", "extend", "--functor", "F0.json", "--to", "F0.json"), 2),
    # the two inputs: the morphism H between them is only walked
    (("cover", "lambda", "--functor", "cyclic-cover-4.json",
      "--to", "cyclic-cover-2.json"), 2),
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else str(a))
def test_each_covering_is_checked_once(workdir, monkeypatch, argv, checks):
    """check_covering makes one report per functor, whoever asks."""
    import lincat.covering as covering
    calls = []

    def counted(f, _real=covering._covering_report):
        calls.append(f)
        return _real(f)
    monkeypatch.setattr(covering, "_covering_report", counted)
    code, _, _ = run(workdir, *argv)
    assert code == 0
    assert len(calls) == len({id(f) for f in calls}) == checks


@pytest.mark.parametrize("argv,functors", [
    # the two inputs: the morphism H between them is only walked
    (("cover", "lambda", "--functor", "cyclic-cover-4.json",
      "--to", "cyclic-cover-2.json"), 2),
    (("galois", "homs", "--functor", "cyclic-cover-4.json",
      "--to", "cyclic-cover-2.json"), 2),
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else str(a))
def test_each_functor_is_validated_once(workdir, monkeypatch, argv,
                                        functors):
    import sys
    from lincat import kcat
    real, calls = kcat.validate_functor, []

    def counted(f):
        calls.append(f)
        return real(f)
    for name, module in list(sys.modules.items()):
        if name.startswith("lincat") and \
                getattr(module, "validate_functor", None) is real:
            monkeypatch.setattr(module, "validate_functor", counted)
    code, _, _ = run(workdir, *argv)
    assert code == 0
    assert len(calls) == len({id(f) for f in calls}) == functors


def record_builds(monkeypatch) -> list:
    """From here on, ("decoded", value) for each input file the CLI
    decodes and ("functor", f) for each LinFunctor built, in order."""
    from lincat.kcat import LinFunctor
    events = []

    def built(self, _real=LinFunctor.__post_init__):
        events.append(("functor", self))
        return _real(self)

    def decoded(path, kind, _real=cli.load_value):
        value = _real(path, kind)
        events.append(("decoded", value))
        return value
    monkeypatch.setattr(LinFunctor, "__post_init__", built)
    monkeypatch.setattr(cli, "load_value", decoded)
    return events


def built_after_decoding(events: list) -> list:
    """The functors of record_builds' events built after the last input
    was decoded."""
    last = max(i for i, (kind, _) in enumerate(events) if kind == "decoded")
    return [v for kind, v in events[last:] if kind == "functor"]


def test_cover_lambda_reports_and_builds_only_its_inputs(workdir,
                                                        monkeypatch):
    """cover lambda makes a covering report for each of its two inputs
    and for nothing else, and builds no functor once they are decoded:
    the morphism H between them is only walked."""
    import lincat.covering as covering
    events = record_builds(monkeypatch)

    def reported(f, _real=covering._covering_report):
        events.append(("report", f))
        return _real(f)
    monkeypatch.setattr(covering, "_covering_report", reported)
    code, _, _ = run(workdir, "cover", "lambda", "--functor",
                     "cyclic-cover-4.json", "--to", "cyclic-cover-2.json")
    assert code == 0
    assert built_after_decoding(events) == []
    inputs = [v for kind, v in events if kind == "decoded"]
    assert [v for kind, v in events if kind == "report"] == inputs
    assert inputs == [formats.load_value(str(workdir / name), "functor")
                      for name in ("cyclic-cover-4.json",
                                   "cyclic-cover-2.json")]


def test_galois_structure_checks_no_functor_but_its_input(workdir,
                                                          monkeypatch):
    """galois structure validates only its input, in its covering check,
    and builds no functor once it is decoded: the factorization is what
    the structure theorem says it is, and only its object map, that of
    the reference factorization, is printed."""
    from lincat_reference import reference_structure_iso
    import sys
    from lincat import kcat
    real, calls = kcat.validate_functor, []

    def counted(f):
        calls.append(f)
        return real(f)
    for name, module in list(sys.modules.items()):
        if name.startswith("lincat") and \
                getattr(module, "validate_functor", None) is real:
            monkeypatch.setattr(module, "validate_functor", counted)
    events = record_builds(monkeypatch)
    code, out, _ = run_json(workdir, "galois", "structure", "--functor",
                            "cyclic-cover-4.json")
    assert code == 0
    assert out["verdicts"]["factors through the quotient"] is True
    assert built_after_decoding(events) == []
    f = formats.load_value(str(workdir / "cyclic-cover-4.json"), "functor")
    assert calls == [f]
    ref = reference_structure_iso(f)
    assert out["witnesses"]["isomorphism"] == {
        "object_map": dict(sorted(ref.iso.object_map.items()))}


# -- the covering layer pays for the columns it reads ------------------------

def test_cover_check_on_a_cyclic_cover_builds_no_echelon_basis(
        tmp_path, monkeypatch):
    """The star blocks of a cyclic cover hold one entry per column: cover
    check inverts each one without elimination."""
    import lincat.exactlinalg as exactlinalg
    built = []

    def counted(*args, _real=exactlinalg.EchelonBasis):
        built.append(args)
        return _real(*args)
    monkeypatch.setattr(exactlinalg, "EchelonBasis", counted)
    registry.write_fixture("cyclic-cover-16", tmp_path)
    code, out, _ = run_json(tmp_path, "cover", "check", "--functor",
                            "cyclic-cover-16.json")
    assert code == 0 and out["verdicts"]["covering"] is True
    assert built == []


def test_aut1_builds_no_functor_until_one_is_read(monkeypatch):
    """A deck group is its object maps: aut1 builds no functor; a test
    that wants one builds it from the object map."""
    from lincat.covering import aut1, check_covering
    from lincat.fixtures import cyclic_cover
    from lincat.kcat import LinFunctor
    from lincat_reference import morphism_functor
    f = cyclic_cover(8).functor
    check_covering(f)
    built = []

    def counted(self, _real=LinFunctor.__post_init__):
        built.append(self)
        return _real(self)
    monkeypatch.setattr(LinFunctor, "__post_init__", counted)
    grp = aut1(f)
    assert grp.order() == 8 and built == []
    h = morphism_functor(f, f, grp.object_maps["g3"])
    assert built == [h] and h.apply_name("a0") == {"a3": 1}


@pytest.mark.parametrize("n,m", [(8, 4), (8, 8)])
def test_galois_homs_extends_one_seed(tmp_path, monkeypatch, n, m):
    """Every walk but the deck groups' runs from U to F (two functors,
    each decoded from its file): only one seed is extended, and no
    functor is built once the inputs are decoded, as only object maps
    are printed."""
    import lincat.covering as covering
    walks = []

    def counted(self, x0, d0, _real=covering._Extension.walk):
        if self.f is not self.g:
            walks.append((x0, d0))
        return _real(self, x0, d0)
    monkeypatch.setattr(covering._Extension, "walk", counted)
    events = record_builds(monkeypatch)
    for k in {n, m}:
        registry.write_fixture(f"cyclic-cover-{k}", tmp_path)
    code, out, _ = run_json(tmp_path, "galois", "homs", "--functor",
                            f"cyclic-cover-{n}.json", "--to",
                            f"cyclic-cover-{m}.json")
    assert code == 0 and out["verdicts"]["morphisms"] == m
    assert walks == [("s0", "s0")]
    assert built_after_decoding(events) == []


@pytest.mark.parametrize("command", ["homs", "gset"])
def test_equal_files_share_one_deck_group(workdir, monkeypatch, command):
    """--functor and --to name one file, decoded twice into equal
    functors: the deck group is built once."""
    import lincat.covering as covering
    import lincat.galois as galois
    built = []

    def counted(f, _real=covering._deck_group):
        built.append(f)
        return _real(f)
    for module in (covering, galois):
        monkeypatch.setattr(module, "_deck_group", counted)
    code, out, _ = run_json(workdir, "galois", command, "--functor",
                            "cyclic-cover-4.json", "--to",
                            "cyclic-cover-4.json")
    assert code == 0 and len(built) == 1


def test_galois_universal_builds_no_functor(workdir, monkeypatch):
    """Universality needs only whether each seed pair extends: every
    pair is walked, and no functor is built once the inputs are
    decoded."""
    events = record_builds(monkeypatch)
    code, out, _ = run_json(workdir, "galois", "universal", "--functor",
                            "cyclic-cover-4.json", "--family",
                            "cyclic-cover-2.json")
    assert code == 0
    assert out["verdicts"] == {"universal for the family": True,
                               "seed pairs checked": 16}
    assert built_after_decoding(events) == []


@pytest.mark.parametrize("to,seed", [
    ("cyclic-cover-2.json", ()),
    ("cyclic-cover-4.json", ("--object", "t1", "--image", "t2")),
], ids=["default", "object-image"])
def test_cover_extend_builds_no_functor(workdir, monkeypatch, to, seed):
    """cover extend prints H's object map, which the walk finds: no
    functor is built once the two inputs are decoded."""
    events = record_builds(monkeypatch)
    code, out, _ = run_json(workdir, "cover", "extend", "--functor",
                            "cyclic-cover-4.json", "--to", to, *seed)
    assert code == 0 and out["verdicts"]["extends"] is True
    assert len(out["witnesses"]["morphism"]["object_map"]) == 8
    assert built_after_decoding(events) == []


def test_cover_lambda_composes_and_compares_no_functor(workdir,
                                                       monkeypatch):
    """λ is read from seed images: no module of the library composes or
    compares functors on the way."""
    import sys

    def refuse(*args):
        raise AssertionError("a functor was composed or compared")
    for name, module in list(sys.modules.items()):
        if name == "lincat" or name.startswith("lincat."):
            for attr in ("functor_compose", "functor_equal"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    for image in ("s0", "s1"):
        code, out, _ = run_json(workdir, "cover", "lambda", "--functor",
                                "cyclic-cover-4.json", "--to",
                                "cyclic-cover-2.json", "--image", image)
        assert code == 0
        assert out["verdicts"]["kernel order"] == 2


GOLDEN = Path(__file__).parent / "golden" / "cli.json"


def golden_output(workdir, argv) -> dict:
    """Exit code and `--json` output of one command, with the timing line
    dropped and the fixture directory written as {dir}."""
    code, out, _ = run(workdir, "--json", *argv)
    out = re.sub(r'\n  "elapsed_ms": [0-9.e+-]+,', "", out)
    return {"exit": code, "stdout": out.replace(str(workdir), "{dir}")}


@pytest.mark.parametrize("argv", MATRIX, ids=lambda a: " ".join(a))
def test_json_output_matches_golden(workdir, argv):
    # verdicts, witnesses (aut1 element names and tables included) and
    # exit codes are pinned byte for byte; rewrite the file with
    # `PYTHONPATH=src python tests/test_cli.py` only on a deliberate change
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden_output(workdir, argv) == expected[" ".join(argv)]


FIXTURE_HASHES = Path(__file__).parent / "golden" / "fixtures.sha256"


def test_fixture_files_match_golden_hashes(tmp_path):
    # every file `lincat fixtures` writes for the registry sets and for
    # cyclic-cover-16, -64 and -256 is pinned byte for byte by its SHA-256, in
    # `sha256sum` format with paths <set>/<file>
    want = dict(reversed(line.split()) for line in
                FIXTURE_HASHES.read_text(encoding="utf-8").splitlines())
    names = [n for n in registry.fixture_names() if n != "cyclic-cover-n"]
    got = {}
    for name in names + ["cyclic-cover-16", "cyclic-cover-64",
                         "cyclic-cover-256"]:
        code, _, err = run(tmp_path, "fixtures", name,
                           "--dir", str(tmp_path / name))
        assert code == 0, err
        for path in (tmp_path / name).iterdir():
            got[f"{name}/{path.name}"] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == want


@pytest.mark.parametrize("argv", MATRIX, ids=lambda a: " ".join(a))
def test_text_and_json_verdicts_agree(workdir, argv):
    code_j, doc, _ = run_json(workdir, *argv)
    code_t, out, _ = run(workdir, *argv)
    assert code_j == code_t
    for line in out.splitlines():
        m = re.match(r"^verdict (.+): (true|false)$", line)
        if m:
            assert doc["verdicts"][m.group(1)] is (m.group(2) == "true")
        m = re.match(r"^(.+) = (.*)$", line)
        if m and m.group(1) in doc["verdicts"]:
            assert str(doc["verdicts"][m.group(1)]) == m.group(2)
    text_verdicts = len([ln for ln in out.splitlines()
                         if ln.startswith("verdict ") or " = " in ln])
    assert text_verdicts >= len(doc["verdicts"])


# -- individual behaviours ---------------------------------------------------------

def test_cover_check_corrupted_names_block(workdir):
    code, out, _ = run(workdir, "cover", "check", "--functor",
                       "corrupted.json")
    assert code == 1
    assert "star block" in out


def test_quotient_writes_category(workdir, tmp_path):
    out_file = tmp_path / "quot.json"
    code, out, _ = run(workdir, "galois", "quotient", "--action",
                       "swap-action.json", "--out", str(out_file))
    assert code == 0
    code2, out2, _ = run(workdir, "h1", "--cat", str(out_file))
    assert code2 == 0
    assert "dim H1 = 3" in out2


def test_smash_projection_is_a_covering(workdir, tmp_path):
    proj = tmp_path / "proj.json"
    code, _, _ = run(workdir, "grade", "smash", "--grading",
                     "smash-grading.json", "--out", str(proj))
    assert code == 0
    code2, out2, _ = run(workdir, "galois", "check", "--functor", str(proj))
    assert code2 == 0
    assert "verdict galois: true" in out2


def test_induce_then_validate_and_connect(workdir, tmp_path):
    z = tmp_path / "z.json"
    code, out, _ = run(workdir, "grade", "induce", "--functor", "F0.json",
                       "--fibre", "s=s1", "--out", str(z))
    assert code == 0
    assert '"s": "s1"' in out
    assert run(workdir, "grade", "validate", "--grading", str(z))[0] == 0
    assert run(workdir, "grade", "connected", "--grading", str(z))[0] == 0


def test_regrade_shifts_degrees(workdir, tmp_path):
    z, z2 = tmp_path / "z.json", tmp_path / "z2.json"
    run(workdir, "grade", "induce", "--functor", "F0.json", "--out", str(z))
    code, out, _ = run(workdir, "grade", "regrade", "--grading", str(z),
                       "--shift", "t=g1", "--out", str(z2))
    assert code == 0
    doc = json.loads(z2.read_text())
    assert doc["degrees"]["s"]["t"] == ["g1", "e"]


def test_walkdeg(workdir, tmp_path):
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps({
        "kind": "walk", "format_version": 1, "start": "s",
        "steps": [{"source": "s", "target": "t", "index": 0, "sign": 1},
                  {"source": "s", "target": "t", "index": 1, "sign": -1}]}))
    code, out, _ = run(workdir, "grade", "walkdeg", "--grading",
                       "smash-grading.json", "--walk", str(walk))
    assert code == 0
    assert "degree = g" in out and "end = s" in out


def test_walkdeg_invalid_walk(workdir, tmp_path):
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps({
        "kind": "walk", "format_version": 1, "start": "s",
        "steps": [{"source": "s", "target": "t", "index": 9, "sign": 1}]}))
    code, out, _ = run(workdir, "grade", "walkdeg", "--grading",
                       "smash-grading.json", "--walk", str(walk))
    assert code == 1
    assert "walk valid: false" in out


def test_pi1_r_vs_rprime(workdir):
    code, out, _ = run(workdir, "pi1", "--presentation", "gdlp-R.txt",
                       "--base", "x")
    assert code == 0
    assert "order = 2" in out and "abelianization = Z/2" in out
    code, out, _ = run(workdir, "pi1", "--presentation", "gdlp-Rprime.txt",
                       "--base", "x")
    assert code == 0
    assert "exceeded" in out and "abelianization = Z" in out


def test_present_builds_category(workdir, tmp_path):
    out_file = tmp_path / "k.json"
    code, out, _ = run(workdir, "present", "--presentation",
                       "kronecker-quiver.txt", "--field", "0",
                       "--out", str(out_file))
    assert code == 0
    assert "total dimension = 4" in out
    assert run(workdir, "validate", "--cat", str(out_file))[0] == 0


@pytest.mark.parametrize("argv,builder", [
    (("present", "--presentation", "kronecker-quiver.txt", "--field", "0"),
     "category_to_doc"),
    (("galois", "quotient", "--action", "swap-action.json"),
     "category_to_doc"),
    (("grade", "induce", "--functor", "F0.json"), "grading_to_doc"),
    (("grade", "regrade", "--grading", "smash-grading.json"),
     "grading_to_doc"),
    (("grade", "smash", "--grading", "smash-grading.json"),
     "functor_to_doc"),
], ids=["present", "quotient", "induce", "regrade", "smash"])
def test_output_document_built_only_under_out(workdir, tmp_path, monkeypatch,
                                              argv, builder):
    calls = []
    real = getattr(cli, builder)
    monkeypatch.setattr(cli, builder,
                        lambda value: calls.append(1) or real(value))
    code, out, _ = run(workdir, *argv)
    assert code == 0 and "wrote" not in out and calls == []
    out_file = tmp_path / "out.json"
    code, out, _ = run(workdir, *argv, "--out", str(out_file))
    assert code == 0 and calls == [1]
    assert json.loads(out_file.read_text(encoding="utf-8"))["kind"]


def test_character_refused_when_decoded(workdir, tmp_path):
    # e ↦ 1 is no additive character; every command that reads the file
    # refuses it with the same line, naming the file
    path = _edited(workdir, tmp_path, "smash-character.json",
                   lambda d: d["values"].update(e="1 mod 2"))
    line = f"error: {path}: invalid character: nonzero value at the identity\n"
    for argv in (("validate", "--character", path),
                 ("delta", "--grading", "smash-grading.json",
                  "--character", path)):
        assert run(workdir, *argv) == (2, "", line), argv
    code, out, _ = run(workdir, "validate", "--character",
                       "smash-character.json")
    assert code == 0 and "valid: true" in out


def test_fixtures_command(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["fixtures", "kronecker", "--dir", str(tmp_path)],
                   stdout=out, stderr=err)
    assert code == 0
    assert (tmp_path / "kronecker.json").exists()
    code = cli.run(["fixtures", "--list"], stdout=io.StringIO(),
                   stderr=io.StringIO())
    assert code == 0


# -- input errors ----------------------------------------------------------------

def test_malformed_json_exit_2(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "category",')
    code, out, err = run(workdir, "validate", "--cat", str(bad))
    assert code == 2
    assert out == ""
    assert re.search(r"line \d+ column \d+", err)


def test_deeply_nested_json_exit_2(workdir, tmp_path):
    # the JSON decoder recursed past the interpreter's limit, and the
    # RecursionError escaped run() as a traceback with exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(workdir, "h1", "--cat", str(deep))
    assert (code, out) == (2, "")
    assert err == f"error: {deep}: JSON nested too deeply to read\n"


def test_large_characteristic_is_decided_in_seconds(workdir, tmp_path):
    # primality was decided by trial division, which did not finish for
    # the Mersenne prime 2^61 - 1
    start = time.perf_counter()
    code, out, _ = run(workdir, "present", "--presentation",
                       "kronecker-quiver.txt", "--field", str(2 ** 61 - 1))
    assert code == 0 and "total dimension = 4" in out
    doc = json.loads((workdir / "kronecker.json").read_text(encoding="utf-8"))
    doc["field"]["characteristic"] = 2 ** 61 - 1
    path = tmp_path / "large.json"
    dump_path(path, doc)
    assert run(workdir, "h1", "--cat", str(path))[0] == 0
    assert time.perf_counter() - start < 5
    # 2^61 + 1 is divisible by 3; 2^89 - 1 is prime, but past the bound
    # where Miller-Rabin with the bases up to 41 is exact
    for p, fragment in ((2 ** 61 + 1, "must be 0 or a prime"),
                        (2 ** 89 - 1, "is too large")):
        code, out, err = run(workdir, "present", "--presentation",
                             "kronecker-quiver.txt", "--field", str(p))
        assert (code, out) == (2, "") and fragment in err
        doc["field"]["characteristic"] = p
        dump_path(path, doc)
        code, out, err = run(workdir, "h1", "--cat", str(path))
        assert (code, out) == (2, "") and fragment in err
        assert len(err.splitlines()) == 1


def test_missing_file_exit_2(workdir):
    code, _, err = run(workdir, "h1", "--cat", "missing.json")
    assert code == 2
    assert "missing.json" in err


@pytest.mark.parametrize("argv,names_file", [
    pytest.param(("galois", "check", "--functor", "corrupted.json"), False,
                 id="galois-check"),
    # the library check: is_galois runs the only check_covering
    pytest.param(("galois", "structure", "--functor", "corrupted.json"),
                 False, id="galois-structure"),
    pytest.param(("grade", "induce", "--functor", "corrupted.json"), False,
                 id="grade-induce"),
    # the CLI pre-check names the file
    pytest.param(("galois", "homs", "--functor", "F0.json",
                  "--to", "corrupted.json"), True, id="galois-homs"),
    pytest.param(("cover", "aut1", "--functor", "corrupted.json"), True,
                 id="cover-aut1"),
])
def test_not_a_covering_exit_2(workdir, argv, names_file):
    code, _, err = run(workdir, *argv)
    assert code == 2
    assert "not a covering" in err
    if names_file:
        assert "corrupted.json" in err


def _f0_not_a_functor(workdir, tmp_path) -> str:
    """F0 with its s0->s0 block set to [2]: every star block is
    bijective, but F(1_s0) = 2·1_s, so it is not a functor."""
    def scale_identity(d):
        d["matrices"]["s0"]["s0"] = [["2"]]
    return _edited(workdir, tmp_path, "F0.json", scale_identity)


F0_UNIT = "functor-unit at ('s0',): F(id_s0) = (2)*1_s ≠ id_s"


def test_cover_check_refuses_a_non_functor(workdir, tmp_path):
    path = _f0_not_a_functor(workdir, tmp_path)
    code, doc, _ = run_json(workdir, "cover", "check", "--functor", path)
    assert code == 1
    assert doc["verdicts"] == {"covering": False}
    assert doc["messages"] == [f"not a functor: {F0_UNIT}"]
    assert doc["witnesses"] == {"functor violation": {
        "kind": "functor-unit", "where": ["s0"],
        "detail": "F(id_s0) = (2)*1_s ≠ id_s"}}


@pytest.mark.parametrize("command", [
    ("cover", "aut1", "--functor", "{bad}"),
    ("cover", "extend", "--functor", "F0.json", "--to", "{bad}"),
    ("cover", "extend", "--functor", "{bad}", "--to", "F0.json"),
    ("cover", "lambda", "--functor", "{bad}", "--to", "F0.json"),
    ("galois", "check", "--functor", "{bad}"),
    ("galois", "structure", "--functor", "{bad}"),
    ("galois", "homs", "--functor", "F0.json", "--to", "{bad}"),
    ("galois", "universal", "--functor", "F0.json", "--family", "{bad}"),
    ("galois", "gset", "--functor", "{bad}", "--to", "F0.json"),
    ("grade", "induce", "--functor", "{bad}"),
], ids=" ".join)
def test_covering_commands_refuse_a_non_functor(workdir, tmp_path, command):
    path = _f0_not_a_functor(workdir, tmp_path)
    code, out, err = run(workdir, *(path if a == "{bad}" else a
                                    for a in command))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.endswith(f"not a covering: not a functor: {F0_UNIT}\n")


def test_grade_induce_non_surjective_exit_2(workdir, tmp_path):
    # no fibre over t to default to: the library refuses the functor
    from lincat.fixtures import Q, kronecker
    from lincat.formats import functor_to_doc
    from lincat.kcat import LinFunctor, QuiverPresentation, present
    point = present(QuiverPresentation(("x",), (), (), 1), Q).category
    f = LinFunctor.on_basis(point, kronecker().category, {"x": "s"},
                            {point.hom[("x", "x")][0]: {"1_s": 1}})
    path = tmp_path / "point.json"
    dump_path(path, functor_to_doc(f))
    code, _, err = run(workdir, "grade", "induce", "--functor", str(path))
    assert code == 2
    assert "not surjective" in err


def test_delta_inj_disconnected_exit_2(workdir, tmp_path):
    from lincat.fixtures import kronecker
    from lincat.formats import grading_to_doc
    from lincat.groups import cyclic_group
    z = trivial_grading(kronecker().category, cyclic_group(2))
    path = tmp_path / "disc.json"
    dump_path(path, grading_to_doc(z))
    code, _, err = run(workdir, "delta-inj", "--grading", str(path))
    assert code == 2
    assert "connected" in err


@pytest.mark.parametrize("command,kind,edit,fragment", [
    (("h1", "--cat"), "category",
     lambda d: d.update(objects=5), "objects"),
    (("validate", "--cat"), "category",
     lambda d: d["hom"]["s"].update(t="ab"), "hom"),
    (("present", "--presentation"), "presentation",
     lambda d: d["relations"][0][0].update(path="ga"), "path"),
    (("pi1", "--base", "x", "--presentation"), "presentation",
     lambda d: d.update(vertices="xyz"), "vertices"),
    # floats were read as the integers or fractions they round to
    (("h1", "--cat"), "category",
     lambda d: d["field"].update(characteristic=2.5),
     "characteristic must be an integer"),
    (("present", "--presentation"), "presentation",
     lambda d: d.update(length_bound=1.9), "length_bound must be an integer"),
    (("present", "--presentation"), "presentation",
     lambda d: d["relations"][0][0].update(coeff=0.1),
     "coeff must be a string"),
])
def test_mistyped_document_exit_2(workdir, tmp_path, command, kind, edit,
                                  fragment):
    from lincat.fixtures import kronecker, square_base_quiver
    from lincat.formats import category_to_doc
    doc = category_to_doc(kronecker().category) if kind == "category" \
        else presentation_to_doc(square_base_quiver())
    edit(doc)
    path = tmp_path / "mistyped.json"
    dump_path(path, doc)
    code, out, err = run(workdir, *command, str(path))
    assert code == 2
    assert out == ""
    assert fragment in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ("cover", "check", "--functor"), ("cover", "aut1", "--functor"),
    ("galois", "check", "--functor"), ("grade", "induce", "--functor"),
    ("grade", "walkdeg", "--grading", "smash-grading.json", "--walk"),
])
@pytest.mark.parametrize("value", [["s"], 5])
def test_non_string_identifier_exit_2(workdir, tmp_path, command, value):
    # an object name in a functor's object_map or a walk step that is not
    # a string is refused as input, never reaching a dict as a key
    from lincat.formats import hwalk_to_doc
    from lincat.grading import HomogeneousWalk, HWalkStep
    if command[-1] == "--walk":
        doc = hwalk_to_doc(HomogeneousWalk(
            "s", (HWalkStep("s", "t", 1, 1), HWalkStep("s", "t", 0, -1))))
        doc["steps"][1]["source"] = value
        fragment = "source must be a string"
    else:
        doc = json.loads((workdir / "F0.json").read_text(encoding="utf-8"))
        doc["object_map"]["s0"] = value
        fragment = "object_map['s0'] must be a string"
    path = tmp_path / "mistyped.json"
    dump_path(path, doc)
    code, out, err = run(workdir, *command, str(path))
    assert code == 2
    assert out == ""
    assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("galois", "structure", "--functor"), ("cover", "aut1", "--functor"),
    ("galois", "check", "--functor"),
])
@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d["object_map"].update(zz="s"),
     "object_map names 'zz', which is not a source object"),
    (lambda d: d["matrices"].update(zz={"s0": [["1"]]}),
     "matrix for hom('zz', 's0') names an object outside the source"),
    (lambda d: d["matrices"]["s0"].update(qq=[["1"]]),
     "matrix for hom('s0', 'qq') names an object outside the source"),
])
def test_unknown_source_object_exit_2(workdir, tmp_path, command, edit,
                                      fragment):
    # a functor file naming an object its source lacks is refused, never
    # dropped or kept: a kept object_map key once turned galois structure
    # false while galois check stayed true
    doc = json.loads((workdir / "F0.json").read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "misspelt.json"
    dump_path(path, doc)
    code, out, err = run(workdir, *command, str(path))
    assert code == 2
    assert out == ""
    assert fragment in err and "Traceback" not in err


def test_galois_homs_from_non_galois_exit_2(workdir):
    code, out, err = run(workdir, "galois", "homs", "--functor", "F2.json",
                         "--to", "F0.json")
    assert code == 2
    assert out == ""
    assert "not Galois" in err


def _write_action(path, category, functors):
    from lincat.formats import action_to_doc
    from lincat.galois import GroupAction
    from lincat.groups import cyclic_group
    dump_path(path, action_to_doc(
        GroupAction(cyclic_group(2), functors, category)))


def test_quotient_invalid_action_exit_2(workdir, tmp_path):
    # g acting as e does on the Kronecker double cover: not free.  The
    # action is refused when decoded, with its first problem, by every
    # command that reads the file
    path = _edited(workdir, tmp_path, "swap-action.json",
                   lambda d: d["functors"].update(g=d["functors"]["e"]))
    line = (f"error: {path}: invalid group action: action is not free: "
            "g·s0 = s0\n")
    for command in (("galois", "quotient"), ("validate",)):
        assert run(workdir, *command, "--action", path) == (2, "", line), \
            command


def test_action_entry_naming_no_element_exit_2(workdir, tmp_path):
    path = _edited(workdir, tmp_path, "swap-action.json",
                   lambda d: d["functors"].update(zzz=d["functors"]["e"]))
    line = (f"error: {path}: invalid group action: functors names 'zzz', "
            "which is not a group element\n")
    for command in (("galois", "quotient"), ("validate",)):
        assert run(workdir, *command, "--action", path) == (2, "", line), \
            command


def test_quotient_disconnected_category_exit_2(workdir, tmp_path):
    from lincat.kcat import LinFunctor, identity_functor
    c = disconnected_double_kronecker().category
    swap = LinFunctor.on_basis(
        c, c, {"s": "s'", "t": "t'", "s'": "s", "t'": "t"},
        {"a": {"a'": 1}, "b": {"b'": 1}, "a'": {"a": 1}, "b'": {"b": 1},
         "1_s": {"1_s'": 1}, "1_t": {"1_t'": 1},
         "1_s'": {"1_s": 1}, "1_t'": {"1_t": 1}})
    path = tmp_path / "disconnected.json"
    _write_action(path, c, {"e": identity_functor(c), "g": swap})
    assert run(workdir, "validate", "--action", str(path))[0] == 0
    code, out, err = run(workdir, "galois", "quotient", "--action", str(path))
    assert code == 2
    assert out == ""
    assert "connected" in err


def test_unknown_fixture_exit_2():
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["fixtures", "nope"], stdout=out, stderr=err)
    assert code == 2
    assert "unknown fixture" in err.getvalue()


def test_bad_fibre_assignment_exit_2(workdir):
    code, _, err = run(workdir, "grade", "induce", "--functor", "F0.json",
                       "--fibre", "s:s1")
    assert code == 2
    assert "KEY=VALUE" in err


@pytest.mark.parametrize("argv,detail", [
    (("grade", "regrade", "--grading", "smash-grading.json",
      "--shift", "nope=g"),
     "shift names 'nope', which is not an object of the category"),
    (("grade", "induce", "--functor", "F0.json", "--fibre", "nope=s0"),
     "fibre choice names 'nope', which is not an object of the base"),
    (("grade", "regrade", "--grading", "smash-grading.json",
      "--shift", "s=g", "--shift", "s=e"), "--shift gives 's' twice"),
    (("grade", "induce", "--functor", "F0.json", "--fibre", "s=s0",
      "--fibre", "s=s1"), "--fibre gives 's' twice"),
], ids=["shift off the objects", "fibre off the base", "repeated shift",
        "repeated fibre"])
def test_assignment_keys_are_objects_given_once(workdir, argv, detail):
    assert run(workdir, *argv) == (2, "", f"error: {detail}\n")


def test_extend_bad_seed_exit_2(workdir):
    code, _, err = run(workdir, "cover", "extend", "--functor", "F0.json",
                       "--to", "F0.json", "--image", "t0")
    assert code == 2
    assert "fibre" in err


def test_present_coefficient_not_in_field_exit_2(workdir, tmp_path):
    path = tmp_path / "third.txt"
    path.write_text("vertices x\narrow u: x -> x\nrel 1/3 u*u*u\nbound 3\n")
    code, out, err = run(workdir, "present", "--presentation", str(path),
                         "--field", "3")
    assert code == 2
    assert out == ""
    assert "1/3" in err and "Traceback" not in err
    assert run(workdir, "present", "--presentation", str(path),
               "--field", "5")[0] == 0


@pytest.mark.parametrize("command", [
    ("cover", "aut1"),
    ("cover", "extend", "--to", "disconnected.json"),
    ("cover", "lambda", "--to", "disconnected.json"),
])
def test_cover_disconnected_source_exit_2(workdir, tmp_path, command):
    from lincat.formats import functor_to_doc
    from lincat.kcat import identity_functor
    ident = identity_functor(disconnected_double_kronecker().category)
    dump_path(tmp_path / "disconnected.json", functor_to_doc(ident))
    code, out, err = run(tmp_path, *command, "--functor", "disconnected.json")
    assert code == 2
    assert out == ""
    assert "connected" in err and "Traceback" not in err
    code, out, _ = run(tmp_path, "galois", "check",
                       "--functor", "disconnected.json")
    assert code == 1
    assert "not connected" in out


def test_repeated_runs_do_not_accumulate_options(workdir):
    for _ in range(2):
        code, doc, _ = run_json(workdir, "grade", "induce", "--functor",
                                "F0.json", "--fibre", "s=s1")
        assert code == 0
        assert doc["witnesses"]["fibre choice"] == {"s": "s1", "t": "t0"}
    code, doc, _ = run_json(workdir, "grade", "induce", "--functor",
                            "F0.json")
    assert doc["witnesses"]["fibre choice"] == {"s": "s0", "t": "t0"}


def test_argparse_rejection_exits_2(workdir, capsys):
    for argv in (["cover", "nope"], ["h1"], ["present", "--presentation",
                                             "p.txt", "--field", "x"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


def test_lambda_bad_seed_exit_2(workdir):
    code, out, err = run(workdir, "cover", "lambda", "--functor", "F0.json",
                         "--to", "F0.json", "--image", "t0")
    assert code == 2
    assert out == ""
    assert err == "error: 't0' is not in the fibre over 's'\n"


@pytest.mark.parametrize("command", ["extend", "lambda"])
def test_seed_outside_the_fibre_has_one_diagnostic(workdir, command):
    """cover extend and cover lambda check a seed image the same way: an
    object that the second covering does not have is not in the fibre."""
    code, out, err = run(workdir, "cover", command, "--functor",
                         "cyclic-cover-4.json", "--to", "cyclic-cover-2.json",
                         "--image", "zz")
    assert code == 2
    assert out == ""
    assert err == "error: 'zz' is not in the fibre over 's'\n"


def test_json_error_rendering(workdir):
    code, out, err = run(workdir, "--json", "h1", "--cat", "missing.json")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]


@pytest.mark.parametrize("argv", [["h1", "--cat"],
                                  ["pi1", "--base", "x", "--presentation"]])
def test_a_file_that_is_not_utf8_is_refused_by_name(tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    problem = (f"{path}: 'utf-8' codec can't decode byte 0xff in position "
               "0: invalid start byte")
    code, out, err = run(tmp_path, *argv, "bad.json")
    assert (code, out, err) == (2, "", f"error: {problem}\n")
    code, out, err = run(tmp_path, "--json", *argv, "bad.json")
    assert (code, out, json.loads(err)) == (2, "", {"error": problem})


def _edited(workdir, tmp_path, name, edit):
    doc = json.loads((workdir / name).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / f"edited-{name}"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_bad_group_table_exit_2(workdir, tmp_path):
    """Group tables read from a file keep the full axiom check, which
    deck groups and cyclic groups skip."""
    path = _edited(workdir, tmp_path, "smash-grading.json",
                   lambda d: d["group"]["table"]["g"].update(g="g"))
    line = (f"error: {path}: invalid group: not a group table: g is not "
            "invertible\n")
    for command in (("delta-inj",), ("validate",), ("grade", "connected")):
        assert run(workdir, *command, "--grading", path) == (2, "", line), \
            command


def test_h1_on_non_category_exit_2(workdir, tmp_path):
    def break_unit(d):
        d["comp"]["1_y"]["a"]["a"] = "0 mod 2"
    path = _edited(workdir, tmp_path, "gdlp-base.json", break_unit)
    for command in ("validate", "h1"):
        code, out, err = run(workdir, command, "--cat", path)
        assert (code, out) == (2, ""), command
        assert err == f"error: {path}: invalid category: id_y ∘ a = 0\n"


def test_h1_refuses_a_composite_outside_its_hom_space(workdir, tmp_path):
    # the category is refused when it is decoded, by validate and h1
    # alike, before any Leibniz system is built on it
    def wrong_hom(d):
        d["comp"]["1_s"]["1_s"] = {"b": "1"}
    path = _edited(workdir, tmp_path, "kronecker.json", wrong_hom)
    for command in ("validate", "h1"):
        code, out, err = run(workdir, command, "--cat", path)
        assert (code, out) == (2, ""), command
        assert err == (f"error: {path}: invalid category: 1_s∘1_s has a "
                       "term b outside hom('s', 's')\n")


def test_non_unital_functor_is_refused_by_every_command(workdir, tmp_path):
    # F0 with id_t0∘a0 = 2·a0 and id_t1∘a1 = 2·a1 in the source and
    # id_t∘a = 2·a in the target: neither side is a category, and the
    # functor file is refused when decoded, before any verdict
    def double_units(d):
        d["source"]["comp"]["1_t0"]["a0"] = {"a0": "2"}
        d["source"]["comp"]["1_t1"]["a1"] = {"a1": "2"}
        d["target"]["comp"]["1_t"]["a"] = {"a": "2"}
    path = _edited(workdir, tmp_path, "F0.json", double_units)
    detail = "invalid category: id_t0 ∘ a0 = (2)*a0"
    for argv in (("validate", "--functor"), ("cover", "check", "--functor"),
                 ("cover", "aut1", "--functor"),
                 ("galois", "check", "--functor"),
                 ("galois", "structure", "--functor"),
                 ("grade", "induce", "--functor")):
        code, out, err = run(workdir, *argv, path)
        assert (code, out, err) == (2, "", f"error: {path}: {detail}\n"), \
            argv
    target = tmp_path / "target.json"
    with open(path, encoding="utf-8") as fh:
        target.write_text(json.dumps(json.load(fh)["target"]),
                          encoding="utf-8")
    code, out, err = run(workdir, "h1", "--cat", str(target))
    assert (code, out, err) == (
        2, "", f"error: {target}: invalid category: id_t ∘ a = (2)*a\n")


def test_pi1_coset_bound_is_not_allocated(workdir):
    code, out, _ = run(workdir, "pi1", "--presentation", "gdlp-R.txt",
                       "--base", "x", "--max-cosets", str(10 ** 9))
    assert code == 0 and "order = 2" in out


def test_library_refusal_exit_2(workdir, tmp_path):
    # refusals raised past the handlers: a bad coset bound, and a
    # composite outside its hom space, refused when the category of a
    # grading is decoded
    code, out, err = run(workdir, "pi1", "--presentation", "gdlp-R.txt",
                         "--base", "x", "--max-cosets", "0")
    assert code == 2 and out == ""
    assert err == "error: max_cosets must be at least 1\n"
    # the bound is checked before a free abelian factor ends the count
    code, out, err = run(workdir, "pi1", "--presentation",
                         "kronecker-quiver.txt", "--base", "s",
                         "--max-cosets", "0")
    assert code == 2 and out == ""
    assert err == "error: max_cosets must be at least 1\n"

    def bad_comp(d):
        d["category"]["comp"]["1_t"]["1_t"] = {"a": "1 mod 2"}
    path = _edited(workdir, tmp_path, "smash-grading.json", bad_comp)
    code, out, err = run(workdir, "grade", "validate", "--grading", path)
    assert code == 2 and out == ""
    assert err == (f"error: {path}: invalid category: 1_t∘1_t has a term a "
                   "outside hom('t', 't')\n")


def test_grading_composing_into_a_zero_hom_exit_2(workdir, tmp_path):
    # x -> y -> z with hom(x,z) = 0, edited to b∘a = a: the category is
    # refused when decoded, alone or inside a grading, by every command
    from lincat.cohomology import Character
    from lincat.formats import (character_to_doc, category_to_doc,
                                grading_to_doc)
    from lincat.grading import grading_on_basis
    from lincat.groups import cyclic_group
    from grading_reference import zero_composite_path
    c = zero_composite_path()
    z = grading_on_basis(c, cyclic_group(2), {"a": "g", "b": "g"})
    cat, grading, chi = (tmp_path / f"{n}.json"
                         for n in ("cat", "grading", "chi"))
    dump_path(cat, category_to_doc(c))
    dump_path(grading, grading_to_doc(z))
    dump_path(chi, character_to_doc(
        Character(z.group, c.field, {"e": 0, "g": 0})))

    def compose_into_zero(d):
        d.get("category", d)["comp"]["b"]["a"] = {"a": "1"}
    cat = _edited(tmp_path, tmp_path, "cat.json", compose_into_zero)
    grading = _edited(tmp_path, tmp_path, "grading.json", compose_into_zero)
    detail = "invalid category: b∘a has a term a outside hom('x', 'z')\n"
    code, out, err = run(workdir, "validate", "--cat", cat)
    assert (code, out, err) == (2, "", f"error: {cat}: {detail}")
    for argv in (("grade", "validate"), ("grade", "smash"),
                 ("grade", "connected"), ("delta-inj",),
                 ("delta", "--character", str(chi))):
        code, out, err = run(workdir, *argv, "--grading", grading)
        assert (code, out, err) == (2, "", f"error: {grading}: {detail}"), \
            argv


def test_unwritable_output_exit_2(workdir, tmp_path):
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run(workdir, "grade", "smash", "--grading",
                         "smash-grading.json", "--out", str(missing))
    assert code == 2 and out == ""
    assert "No such file or directory" in err
    assert len(err.splitlines()) == 1
    code, out, err = run(workdir, "--json", "fixtures", "kronecker",
                         "--dir", str(workdir / "F0.json"))
    assert code == 2 and out == ""
    assert "File exists" in json.loads(err)["error"]


def test_running_out_of_memory_exits_2_with_one_line(tmp_path):
    # two free loops at bound 10: naming the witness walks every path of
    # length <= 20, more than 400 MB of address space hold.  The limit is
    # set in the child only, so the test cannot take the host's memory
    loops = tmp_path / "loops.txt"
    loops.write_text("vertices x\narrow a: x -> x\narrow b: x -> x\n"
                     "bound 10\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20,) * 2)

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "lincat.cli", "present", "--presentation",
         str(loops)], capture_output=True, text=True, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stdout, done.stderr) == \
        (2, "", "error: out of memory\n")


def test_out_of_memory_under_json_is_an_error_document(workdir, monkeypatch):
    def exhausted(*_):
        raise MemoryError

    monkeypatch.setattr(cli, "present", exhausted)
    code, out, err = run(workdir, "--json", "present", "--presentation",
                         "gdlp-R.txt")
    assert (code, out, json.loads(err)) == (2, "", {"error": "out of memory"})


@pytest.mark.parametrize("command,name,edit,fragment", [
    (("cover", "check", "--functor"), "F0.json",
     lambda d: d["matrices"].update(t1=None), "matrices"),
    (("cover", "aut1", "--functor"), "F0.json",
     lambda d: d["matrices"].update(t1=None), "matrices"),
    (("galois", "check", "--functor"), "F0.json",
     lambda d: d["matrices"].update(t1=None), "matrices"),
    (("grade", "induce", "--functor"), "F0.json",
     lambda d: d["matrices"].update(t1=None), "matrices"),
    (("validate", "--functor"), "F0.json",
     lambda d: d["matrices"].update(t1=None), "matrices"),
    (("grade", "validate", "--grading"), "smash-grading.json",
     lambda d: d["degrees"].update(t=None), "degrees"),
    (("delta", "--grading", "smash-grading.json", "--character"),
     "smash-character.json", lambda d: d.update(values=5), "values"),
    (("galois", "quotient", "--action"), "swap-action.json",
     lambda d: d["functors"]["g"]["matrices"].update(s1=5), "matrices"),
])
def test_mistyped_functor_grading_character_action_exit_2(
        workdir, tmp_path, command, name, edit, fragment):
    path = _edited(workdir, tmp_path, name, edit)
    code, out, err = run(workdir, *command, path)
    assert code == 2
    assert out == ""
    assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("cover", "check"), ("validate",), ("galois", "check"),
    ("galois", "structure"), ("cover", "aut1"), ("grade", "induce"),
], ids=" ".join)
def test_mixed_field_functor_exit_2(workdir, tmp_path, command):
    # a functor from the Kronecker category over Q to the one over F_2
    from lincat.fixtures import F2, Q, kronecker
    from lincat.formats import category_to_doc, functor_to_doc
    from lincat.kcat import identity_functor
    doc = functor_to_doc(identity_functor(kronecker(F2).category))
    doc["source"] = category_to_doc(kronecker(Q).category)
    path = tmp_path / "mixed.json"
    dump_path(path, doc)
    code, out, err = run(workdir, *command, "--functor", str(path))
    assert code == 2
    assert out == ""
    assert "field" in err and "Traceback" not in err


def test_fixture_template_name_exit_2():
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["fixtures", "cyclic-cover-n"], stdout=out, stderr=err)
    assert code == 2
    assert "unknown fixture" not in err.getvalue()
    assert "template" in err.getvalue()
    assert "cyclic-cover-4" in err.getvalue()


# -- rendering details ----------------------------------------------------------

def test_color_modes(workdir, monkeypatch):
    monkeypatch.setenv("LINCAT_COLOR", "always")
    _, out, _ = run(workdir, "galois", "check", "--functor", "F0.json")
    assert "\x1b[32m" in out
    monkeypatch.setenv("LINCAT_COLOR", "never")
    _, out, _ = run(workdir, "galois", "check", "--functor", "F0.json")
    assert "\x1b" not in out


def test_report_echoes_command(workdir):
    _, out, _ = run(workdir, "h1", "--cat", "kronecker.json")
    assert out.splitlines()[0].startswith("command: lincat h1 --cat")


def test_report_carries_timing(workdir):
    _, doc, _ = run_json(workdir, "h1", "--cat", "kronecker.json")
    assert doc["elapsed_ms"] >= 0
    _, out, _ = run(workdir, "h1", "--cat", "kronecker.json")
    assert re.search(r"elapsed: \d+\.\d ms", out)


if __name__ == "__main__":
    # record the golden outputs of the current code
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name in FIXTURE_SETS:
            registry.write_fixture(name, d)
        doc = {" ".join(argv): golden_output(d, argv) for argv in MATRIX}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


# -- one refusal for every grading command -----------------------------------

# every command that reads a grading; the other files are valid fixtures
GRADING_COMMANDS = [
    ("validate", "--grading", "P"),
    ("grade", "validate", "--grading", "P"),
    ("grade", "regrade", "--grading", "P"),
    ("grade", "connected", "--grading", "P"),
    ("grade", "smash", "--grading", "P"),
    ("grade", "walkdeg", "--grading", "P", "--walk", "sample-walk.json"),
    ("delta", "--grading", "P", "--character", "smash-character.json"),
    ("delta-inj", "--grading", "P"),
]


def _grading_runs(workdir, path) -> list:
    (workdir / "sample-walk.json").write_text(json.dumps({
        "kind": "walk", "format_version": 1, "start": "s",
        "steps": [{"source": "s", "target": "t", "index": 1, "sign": 1}]}))
    return [run(workdir, *(path if a == "P" else a for a in argv))
            for argv in GRADING_COMMANDS]


def _assert_one_refusal(workdir, path, detail=None) -> bool:
    """When grade validate refuses the grading in path, every grading
    command refuses it with the same one line; otherwise none calls it
    invalid.  Returns whether it was refused."""
    runs = _grading_runs(workdir, path)
    code, out, err = runs[1]
    if code != 2:
        assert code == 0, (out, err)
        assert not any("invalid grading" in e for _, _, e in runs), runs
        return False
    assert err.startswith(f"error: {path}: invalid grading: ")
    assert detail is None or err == f"error: {path}: invalid grading: " \
        f"{detail}\n"
    assert err.count("\n") == 1
    for argv, got in zip(GRADING_COMMANDS, runs):
        assert got == (2, "", err), argv
    return True


@pytest.mark.parametrize("edit,detail", [
    (lambda d: d["basis"]["s"].update(t=[["1 mod 2", "1 mod 2"],
                                         ["1 mod 2", "1 mod 2"]]),
     "hom('s', 't'): change of basis is singular"),
    (lambda d: d["degrees"]["s"].update(s=["g"]),
     "identity of s meets degrees ['g']"),
], ids=["singular block", "identity of degree g"])
def test_every_grading_command_refuses_a_non_grading(workdir, tmp_path,
                                                     edit, detail):
    path = _edited(workdir, tmp_path, "smash-grading.json", edit)
    assert _assert_one_refusal(workdir, path, detail)


def _fixture_gradings() -> list:
    from lincat.covering import fibre
    from lincat.fixtures import cover_f0, cover_f1, cyclic_cover, \
        square_cover
    from lincat.grading import induced_grading
    docs = [registry.fixture_files("smash-demo")["smash-grading.json"]]
    for fix in (cover_f0(), cover_f1(), cyclic_cover(3), square_cover()):
        f = fix.functor
        z = induced_grading(f, {b: fibre(f, b)[0] for b in f.target.objects})
        docs.append(formats.grading_to_doc(z))
    return docs


FIXTURE_GRADINGS = _fixture_gradings()


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 10 ** 6), st.sampled_from(
    ["label", "scale", "duplicate", "identity"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6), st.integers(-1, 2))
def test_edited_fixture_gradings_are_refused_alike(workdir, case, kind,
                                                   pair, column, label,
                                                   factor):
    """One degree label swapped, one basis column scaled or set to the
    next one, or one identity given a degree other than e: the edits
    that break a grading are refused alike by every grading command."""
    doc = copy.deepcopy(FIXTURE_GRADINGS[case % len(FIXTURE_GRADINGS)])
    field = formats.field_from_doc(doc["category"]["field"])
    elements = doc["group"]["elements"]
    keys = [(x, y) for x, row in sorted(doc["degrees"].items())
            for y in sorted(row)]
    x, y = keys[pair % len(keys)]
    labels, rows = doc["degrees"][x][y], doc["basis"][x][y]
    if kind == "identity":
        others = [g for g in elements if g != doc["group"]["identity"]]
        doc["degrees"][x][x] = [others[label % len(others)]]
    else:
        j = column % len(labels)
        if kind == "label":
            labels[j] = elements[label % len(elements)]
        for row in rows:
            if kind == "scale":
                a = formats.scalar_from_doc(field, row[j])
                row[j] = field.format(field.reduce(a * factor))
            elif kind == "duplicate":
                row[j] = row[(j + 1) % len(row)]
    path = workdir / "edited-grading.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    refused = _assert_one_refusal(workdir, str(path))
    # an identity of degree g, a zero column and a repeated column
    # never make a grading (every End(x) here is spanned by 1_x)
    if kind == "identity" or (kind == "scale" and factor == 0) or \
            (kind == "duplicate" and len(labels) > 1):
        assert refused
