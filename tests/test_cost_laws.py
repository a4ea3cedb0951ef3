"""Cost laws: exact operation counts that the code's docstrings promise,
counted with monkeypatch wrappers, one table row per law.

| operation | inputs | counter | law |
|---|---|---|---|
| decoding a functor document | fixtures, cyclic covers | LinCat._check, LinCats built | 2 and 2 |
| present, smash, quotient | fixtures, cyclic covers | LinCat._check | 0 |
| grading_from_doc | induced and declared gradings | grading.inverse | one per block |
| regrade | the same gradings | grading.inverse | 0 |
| presentation_from_text | relations with and without coefficients | Fraction.__new__ | one per written coefficient |
| cli.run | the benchmark's command lines at seed 7 | ArgumentParser.parse_known_args | 0 |
| cli.run | refused command lines, fixtures, galois universal | parse_known_args of the top parser | 1 |

A LinCat is built once its tables are indexed (LinCat._index), whether
it is checked or trusted."""
import argparse
import io
from fractions import Fraction

import pytest

from lincat import cli, registry
from lincat import formats as fm
from lincat import grading as gr
from lincat.covering import fibre
from lincat.fixtures import (F2, Q, cover_f1, cyclic_cover,
                             cyclic_cover_quiver, kronecker_quiver,
                             loop_square_zero, square_base_quiver,
                             square_cover, swap_action)
from lincat.galois import quotient
from lincat.grading import (grading_on_basis, induced_grading, regrade,
                            smash)
from lincat.groups import cyclic_group
from lincat.kcat import LinCat, present
from lincat_reference import shift_subgroup_action
from test_cli_parse import benchmark_argvs


def counter(monkeypatch, owner, name) -> list:
    """From here on, one entry per call of owner.name: its positional
    arguments."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def first_fibres(f) -> dict:
    return {b: fibre(f, b)[0] for b in f.target.objects}


FUNCTORS = {"F1 over F2": lambda: cover_f1(F2).functor,
            "square cover": lambda: square_cover().functor,
            **{f"cyclic_cover({n})": lambda n=n: cyclic_cover(n).functor
               for n in (1, 2, 5, 16)}}


@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_a_functor_document_checks_and_builds_two_categories(
        monkeypatch, name):
    doc = fm.functor_to_doc(FUNCTORS[name]())
    checks = counter(monkeypatch, LinCat, "_check")
    built = counter(monkeypatch, LinCat, "_index")
    fm.functor_from_doc(doc)
    assert (len(checks), len(built)) == (2, 2)


def gradings() -> dict:
    out = {}
    for n in (2, 3, 8):
        f = cyclic_cover(n).functor
        out[f"induced by cyclic_cover({n})"] = induced_grading(
            f, first_fibres(f))
    f = cover_f1(F2).functor
    out["induced by F1 over F2"] = induced_grading(f, first_fibres(f))
    out["loop u:g"] = grading_on_basis(loop_square_zero().category,
                                       cyclic_group(3), {"u": "g"})
    return out


GRADINGS = gradings()


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_smash_checks_no_category(monkeypatch, name):
    z = GRADINGS[name]
    checks = counter(monkeypatch, LinCat, "_check")
    smash(z.category, z)
    assert checks == []


@pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (6, 2), (8, 1)])
def test_quotient_checks_no_category(monkeypatch, n, k):
    a = shift_subgroup_action(n, k)
    checks = counter(monkeypatch, LinCat, "_check")
    quotient(a)
    assert checks == []


def test_quotient_of_the_swap_action_checks_no_category(monkeypatch):
    a = swap_action()
    checks = counter(monkeypatch, LinCat, "_check")
    quotient(a)
    assert checks == []


QUIVERS = {"kronecker": kronecker_quiver(),
           "square base": square_base_quiver(),
           **{f"cyclic cover {n}": cyclic_cover_quiver(n) for n in (1, 8)}}


@pytest.mark.parametrize("field", [Q, F2])
@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_present_checks_no_category(monkeypatch, name, field):
    checks = counter(monkeypatch, LinCat, "_check")
    present(QUIVERS[name], field)
    assert checks == []


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_a_grading_document_inverts_each_block_once(monkeypatch, name):
    doc = fm.grading_to_doc(GRADINGS[name])
    inverted = counter(monkeypatch, gr, "inverse")
    z = fm.grading_from_doc(doc)
    assert len(inverted) == len(z.basis) == len(z.category.hom)


@pytest.mark.parametrize("relations,written", [
    ("rel g*a - d*b\nrel g*b - d*a\n", 0),
    ("rel 2 g*a - 3/2 d*b\nrel -g*b + 5 d*a\n", 3),
    ("rel -1/3 g*a + d*b\n", 1),
])
def test_text_form_makes_one_fraction_per_written_coefficient(
        monkeypatch, relations, written):
    text = ("vertices x y z\narrow a: x -> y\narrow b: x -> y\n"
            "arrow g: y -> z\narrow d: y -> z\n" + relations + "bound 2\n")
    made = counter(monkeypatch, Fraction, "__new__")
    p = fm.presentation_from_text(text)
    assert len(made) == written
    assert all(type(c) is Fraction for rel in p.relations for c, _ in rel)


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_regrade_inverts_no_block(monkeypatch, name):
    z = GRADINGS[name]
    inverted = counter(monkeypatch, gr, "inverse")
    regrade(z, {x: z.group.elements[-1] for x in z.category.objects})
    assert inverted == []


def test_benchmark_command_lines_make_no_argparse_call(monkeypatch,
                                                       tmp_path):
    argvs = benchmark_argvs(tmp_path)
    parsed = counter(monkeypatch, argparse.ArgumentParser,
                     "parse_known_args")
    for argv in argvs:
        cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
    assert (len(argvs), parsed) == (319, [])


@pytest.mark.parametrize("argv,code", [
    (["cover", "nope"], 2), (["h1"], 2),
    (["present", "--presentation", "p.txt", "--field", "x"], 2),
    (["fixtures", "--list"], 0),
    (["fixtures", "kronecker", "--dir", "DIR"], 0),
    (["galois", "universal", "--functor", "cyclic-cover-4.json",
      "--family", "cyclic-cover-2.json"], 0)])
def test_a_command_line_the_table_leaves_enters_the_parser_once(
        monkeypatch, tmp_path, argv, code):
    for name in ("cyclic-cover-2", "cyclic-cover-4"):
        registry.write_fixture(name, tmp_path)
    argv = [str(tmp_path / a) if a.endswith(".json") else
            str(tmp_path) if a == "DIR" else a for a in argv]
    parsed = counter(monkeypatch, argparse.ArgumentParser,
                     "parse_known_args")
    try:
        got = cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
    except SystemExit as e:  # argparse refused the command line
        got = e.code
    entries = [args[0] for args in parsed].count(cli._build_parser())
    assert (got, entries) == (code, 1)
