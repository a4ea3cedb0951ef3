"""cli._parse, the one-pass parse of a command line, against argparse.

For every command line of the corpus, cli._parse(argv) and the full
parser's parse_args(argv) give the same Namespace, or both exit with the
same code and the same stdout and stderr.  The corpus: token soups drawn
from command words, every option string, --json, -h, "--", an
abbreviation, --opt=value and awkward values; every job of the three
benchmark workloads at seed 7; every command of tests/golden/cli.json;
the option fuzz's command lines; and -h at each level."""
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lincat import cli
from test_bench_outputs import bench_outputs
from test_cli_fuzz import OPTION_COMMANDS

ROOT = Path(__file__).resolve().parent.parent

LEAVES = {"validate": "--cat --functor --action --grading --character "
                        "--presentation",
          "present": "--presentation --field --out",
          "cover check": "--functor", "cover aut1": "--functor",
          "cover extend": "--functor --to --object --image",
          "cover lambda": "--functor --to --image",
          "galois check": "--functor", "galois quotient": "--action --out",
          "galois structure": "--functor", "galois homs": "--functor --to",
          "galois universal": "--functor --family",
          "galois gset": "--functor --to",
          "grade induce": "--functor --fibre --out",
          "grade validate": "--grading",
          "grade regrade": "--grading --shift --out",
          "grade connected": "--grading", "grade smash": "--grading --out",
          "grade walkdeg": "--grading --walk", "h1": "--cat",
          "delta": "--grading --character", "delta-inj": "--grading",
          "pi1": "--presentation --base --max-cosets",
          "fixtures": "--dir --list"}
COMMANDS = [[], ["cover"], ["galois"], ["grade"],
            *(line.split() for line in LEAVES)]
OPTIONS = sorted({o for options in LEAVES.values() for o in options.split()})
VALUES = ["", "-", "-3", "0x1", "1_0", " 7", "a=b", "check"]
TOKENS = ["--json", "-h", "--help", "--", "--functor=x", "--func", "h1",
          "cover", "nope"]


def outcome(parse, argv):
    """("namespace", vars) or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return ("namespace", vars(parse(argv)))
    except SystemExit as e:
        return ("exit", e.code, out.getvalue(), err.getvalue())


def assert_parsed_alike(argv):
    assert outcome(cli._parse, argv) == \
        outcome(cli._build_parser().parse_args, argv), argv


@st.composite
def command_lines(draw):
    """A flag or none, command words, option-value pairs (mostly options
    of the command), and up to two stray tokens anywhere after the
    words."""
    head = draw(st.sampled_from([[], [], ["--json"], ["-h"]]))
    words = draw(st.sampled_from(COMMANDS))
    options = LEAVES.get(" ".join(words), "").split()
    pairs = draw(st.lists(st.tuples(
        st.sampled_from(options) if options and draw(st.integers(0, 4))
        else st.sampled_from(OPTIONS),
        st.one_of(st.sampled_from(["x", "7"]), st.sampled_from(VALUES))),
        max_size=4))
    tail = [token for pair in pairs for token in pair]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        tail.insert(draw(st.integers(0, len(tail))),
                    draw(st.sampled_from(TOKENS + OPTIONS + VALUES)))
    return head + words + tail


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(argv=command_lines())
def test_token_soups_parse_as_argparse_does(argv):
    assert_parsed_alike(argv)


def benchmark_argvs(directory: Path) -> list[list[str]]:
    """Every job's argv of the three workloads at seed 7, their inputs
    written under directory by perfbench/generate.py."""
    generate, _ = bench_outputs._import()
    return [job.argv for w in generate.WORKLOADS
            for job in generate.build(w, bench_outputs.SEED, directory / w)]


def test_benchmark_command_lines_parse_as_argparse_does(tmp_path):
    argvs = benchmark_argvs(tmp_path)
    assert len(argvs) == 319
    for argv in argvs:
        assert_parsed_alike(argv)


GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("line", sorted(GOLDEN))
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_golden_commands_parse_as_argparse_does(line, json_flag):
    assert_parsed_alike(json_flag + line.split())


@pytest.mark.parametrize("argv", OPTION_COMMANDS,
                         ids=lambda a: " ".join(a))
def test_fuzzed_option_commands_parse_as_argparse_does(argv):
    assert_parsed_alike(argv)


@pytest.mark.parametrize("words", COMMANDS, ids=lambda w: " ".join(w))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_at_each_level_is_argparse_help(words, flag):
    assert outcome(cli._parse, words + [flag])[:2] == ("exit", 0)
    assert_parsed_alike(words + [flag])


def test_append_options_get_a_fresh_list_on_every_parse():
    argv = ["grade", "induce", "--functor", "f", "--fibre", "a=b"]
    first = cli._parse(argv)
    first.fibre.append("c=d")
    assert cli._parse(argv).fibre == ["a=b"]
