"""Command-line front end.

Every subcommand loads JSON documents (see docs/formats.md), runs one
library operation, and prints a Report.  The text and JSON renderings
carry the same verdicts; the exit code is 0 when every boolean verdict
is true, 1 when one is false, and 2 on malformed or precondition-
violating input, an output path that cannot be written, or a command
that runs out of memory: run() turns every ValueError, OSError and
MemoryError a handler raises into a one-line diagnostic on stderr, and
lets any other exception propagate as a bug.
LINCAT_COLOR ∈ {auto, always, never} controls ANSI color in the text
rendering.
"""
import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field as dcfield
from typing import Callable, Optional, TextIO, Union

from . import registry
from .cohomology import delta, delta_injectivity_check, delta_is_inner, h1
from .covering import aut1, check_covering, extend_morphism, fibre, \
    lambda_map
from .exactlinalg import FieldSpec
from .formats import canonical_dumps, category_to_doc, functor_to_doc, \
    grading_to_doc, group_to_doc, hwalk_to_doc, load_value, matrix_to_doc
from .galois import gset_analysis, hom_coverings, is_galois, quotient, \
    structure_iso, check_universal
from .grading import induced_grading, is_connected_grading, regrade, smash, \
    validate_hwalk, walk_degree
from .kcat import LinFunctor, present, validate_category, \
    validate_functor
from .pi1pres import abelianization, bounded_order, pi1_presentation

Verdict = Union[bool, int, str]


@dataclass
class Report:
    command: str
    verdicts: dict[str, Verdict] = dcfield(default_factory=dict)
    witnesses: dict[str, object] = dcfield(default_factory=dict)
    messages: list[str] = dcfield(default_factory=list)
    elapsed: float = 0.0

    def exit_code(self) -> int:
        bad = [v for v in self.verdicts.values() if v is False]
        return 1 if bad else 0

    def to_json(self) -> dict:
        return {"command": self.command,
                "verdicts": self.verdicts,
                "witnesses": self.witnesses,
                "messages": self.messages,
                "elapsed_ms": round(self.elapsed * 1000, 3)}

    def render_text(self, color: bool) -> str:
        lines = [f"command: {self.command}"]
        for name, v in self.verdicts.items():
            if isinstance(v, bool):
                word = "true" if v else "false"
                if color:
                    word = f"\x1b[32m{word}\x1b[0m" if v \
                        else f"\x1b[31m{word}\x1b[0m"
                lines.append(f"verdict {name}: {word}")
            else:
                lines.append(f"{name} = {v}")
        for m in self.messages:
            lines.append(f"note: {m}")
        for name, v in self.witnesses.items():
            lines.append(f"witness {name}: "
                         f"{json.dumps(v, sort_keys=True)}")
        lines.append(f"elapsed: {self.elapsed * 1000:.1f} ms")
        return "\n".join(lines) + "\n"


class InputError(ValueError):
    """Bad input found by a handler; run() reports it with exit 2."""


def _object_map_witness(omap: dict[str, str]) -> dict:
    return {"object_map": dict(sorted(omap.items()))}


def _pairs_to_nested(d: dict) -> dict:
    out: dict = {}
    for (x, y), v in sorted(d.items()):
        out.setdefault(x, {})[y] = list(v) if isinstance(v, tuple) else v
    return out


def _parse_assignments(pairs: Optional[list[str]], flag: str) -> dict:
    out = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise InputError(f"{flag} expects KEY=VALUE, got {item!r}")
        if key in out:
            raise InputError(f"{flag} gives {key!r} twice")
        out[key] = value
    return out


def _load_covering(path: str) -> LinFunctor:
    """The covering in a file, refused unless check_covering accepts it;
    the report stays on the functor for the library to read."""
    f = load_value(path, "functor")
    report = check_covering(f)
    if not report.ok:
        raise InputError(f"{path}: not a covering: {report.message()}")
    return f


def _seed(f: LinFunctor, g: LinFunctor, x0: Optional[str],
          d0: Optional[str]) -> tuple[str, str]:
    """The seed x0 ↦ d0 of a morphism between the coverings f and g
    over one base: x0 defaults to the first object of f's source, d0 to
    the first object of g's source over F(x0)."""
    if f.target != g.target:
        raise InputError("the two coverings have different bases")
    if x0 is None:
        if not f.source.objects:
            raise InputError("the covering has no objects to seed")
        x0 = f.source.objects[0]
    elif x0 not in f.source.objects:
        raise InputError(f"unknown object {x0!r}")
    over = fibre(g, f.object_map[x0])
    if d0 is None:
        return x0, over[0]
    if d0 not in over:
        raise InputError(
            f"{d0!r} is not in the fibre over {f.object_map[x0]!r}")
    return x0, d0


def _write_doc(path: Optional[str], doc: Callable[[], dict],
               report: Report) -> None:
    """Write doc() to path if one is given; doc is not called otherwise."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(doc()))
        report.messages.append(f"wrote {path}")


# -- handlers -----------------------------------------------------------------

def _cmd_validate(args, report: Report) -> None:
    kinds = [("category", args.cat), ("functor", args.functor),
             ("action", args.action), ("grading", args.grading),
             ("character", args.character),
             ("presentation", args.presentation)]
    given = [(k, p) for k, p in kinds if p]
    if not given:
        raise InputError("nothing to validate; pass at least one file")
    # an action, a grading, a character or a presentation that decodes
    # is one
    validators = {"category": validate_category,
                  "functor": validate_functor}
    for kind, path in given:
        value = load_value(path, kind)
        problems = validators[kind](value) if kind in validators else []
        report.verdicts[f"{kind} {path} valid"] = not problems
        report.messages.extend(f"{path}: {p}" for p in problems)


def _cmd_present(args, report: Report) -> None:
    pres = load_value(args.presentation, "presentation")
    field = FieldSpec(args.field)
    try:
        res = present(pres, field)
    except ZeroDivisionError as e:
        raise InputError(f"relation coefficient not in {field}: {e}") from e
    report.verdicts["objects"] = len(res.category.objects)
    dims = {pair: len(names) for pair, names in res.category.hom.items()}
    report.verdicts["total dimension"] = sum(dims.values())
    report.witnesses["hom dimensions"] = _pairs_to_nested(dims)
    _write_doc(args.out, lambda: category_to_doc(res.category), report)


def _cmd_cover_check(args, report: Report) -> None:
    f = load_value(args.functor, "functor")
    res = check_covering(f)
    report.verdicts["covering"] = res.ok
    report.messages.append(res.message())
    if res.failures:
        report.witnesses["failed star blocks"] = [
            list(t) for t in res.failures]
    if res.violations:
        v = res.violations[0]
        report.witnesses["functor violation"] = {
            "kind": v.kind, "where": list(v.where), "detail": v.detail}


def _cmd_cover_aut1(args, report: Report) -> None:
    grp = aut1(_load_covering(args.functor))
    report.verdicts["order"] = grp.order()
    report.verdicts["isomorphism type"] = grp.label()
    report.witnesses["elements"] = list(grp.group.elements)
    report.witnesses["table"] = group_to_doc(grp.group)["table"]
    report.witnesses["seed fibre"] = list(grp.seed_fibre)


def _cmd_cover_extend(args, report: Report) -> None:
    f, g = _load_covering(args.functor), _load_covering(args.to)
    x0, d0 = _seed(f, g, args.object, args.image)
    h = extend_morphism(f, g, x0, d0)
    report.verdicts["extends"] = h is not None
    report.messages.append(f"seed {x0} -> {d0}")
    if h is not None:
        report.witnesses["morphism"] = _object_map_witness(h)


def _cmd_cover_lambda(args, report: Report) -> None:
    f, g = _load_covering(args.functor), _load_covering(args.to)
    res = lambda_map(f, g, _seed(f, g, None, args.image)[1])
    # theorems (b)-(d) in lambda_map's docstring
    report.verdicts["surjective"] = True
    report.verdicts["kernel matches deck group of the morphism"] = True
    report.verdicts["morphism is a Galois covering"] = True
    report.verdicts["kernel order"] = len(res.kernel)
    report.witnesses["mapping"] = dict(sorted(res.mapping.items()))
    report.witnesses["kernel"] = list(res.kernel)


def _cmd_galois_check(args, report: Report) -> None:
    res = is_galois(load_value(args.functor, "functor"))
    report.verdicts["galois"] = res.galois
    if res.group is not None:
        report.verdicts["deck group order"] = res.group.order()
        report.verdicts["deck group"] = res.group.label()
        report.witnesses["seed fibre"] = list(res.group.seed_fibre)
    if res.reason:
        report.messages.append(f"not Galois: {res.reason}")


def _cmd_galois_quotient(args, report: Report) -> None:
    action = load_value(args.action, "action")
    res = quotient(action)
    # the acting group is the deck group (see quotient), and each orbit
    # is named by its representative
    report.verdicts["objects"] = len(res.quotient.objects)
    report.verdicts["projection deck group"] = action.group.label()
    report.witnesses["orbit representatives"] = {
        r: r for r in sorted(res.quotient.objects)}
    _write_doc(args.out, lambda: category_to_doc(res.quotient), report)


def _cmd_galois_structure(args, report: Report) -> None:
    res = structure_iso(load_value(args.functor, "functor"))
    # theorem (f) in structure_iso's docstring
    report.verdicts["factors through the quotient"] = True
    report.witnesses["isomorphism"] = _object_map_witness(res)


def _cmd_galois_homs(args, report: Report) -> None:
    homs = hom_coverings(_load_covering(args.functor),
                         _load_covering(args.to))
    report.verdicts["morphisms"] = len(homs)
    report.witnesses["object maps"] = [dict(sorted(omap.items()))
                                       for omap in homs]


def _cmd_galois_universal(args, report: Report) -> None:
    u, *family = [_load_covering(p) for p in [args.functor] + args.family]
    res = check_universal(u, family)
    report.verdicts["universal for the family"] = res.ok
    report.verdicts["seed pairs checked"] = res.pairs_checked
    if res.violations:
        report.witnesses["violations"] = [list(v) for v in res.violations]


def _cmd_galois_gset(args, report: Report) -> None:
    res = gset_analysis(_load_covering(args.functor),
                        _load_covering(args.to))
    # theorem (e) in gset_analysis's docstring
    report.verdicts["transitive"] = True
    report.verdicts["isotropy normal"] = True
    report.verdicts["orbit-stabilizer count"] = True
    report.verdicts["morphisms"] = len(res.homs)
    report.witnesses["isotropy"] = list(res.isotropy)


def _cmd_grade_induce(args, report: Report) -> None:
    f = load_value(args.functor, "functor")
    choice = _parse_assignments(args.fibre, "--fibre")
    for b in f.target.objects:  # f may miss b; induced_grading then refuses f
        choice.setdefault(b, (fibre(f, b) or [None])[0])
    z = induced_grading(f, choice)
    report.verdicts["group order"] = z.group.order()
    report.verdicts["group"] = z.group.label()
    report.witnesses["fibre choice"] = dict(sorted(choice.items()))
    report.witnesses["degrees"] = _pairs_to_nested(z.degrees)
    _write_doc(args.out, lambda: grading_to_doc(z), report)


def _cmd_grade_validate(args, report: Report) -> None:
    load_value(args.grading, "grading")  # decoding refuses a non-grading
    report.verdicts["grading valid"] = True


def _cmd_grade_regrade(args, report: Report) -> None:
    z = load_value(args.grading, "grading")
    shift = _parse_assignments(args.shift, "--shift")
    for x in z.category.objects:
        shift.setdefault(x, z.group.identity)
    z2 = regrade(z, shift)
    report.verdicts["group"] = z2.group.label()
    report.witnesses["degrees"] = _pairs_to_nested(z2.degrees)
    _write_doc(args.out, lambda: grading_to_doc(z2), report)


def _cmd_grade_connected(args, report: Report) -> None:
    z = load_value(args.grading, "grading")
    res = is_connected_grading(z)
    report.verdicts["connected"] = res.connected
    if res.missing:
        report.witnesses["unreached"] = [list(p) for p in res.missing]
    elif res.deepest is not None:
        obj, elem = res.deepest
        report.witnesses["sample walk"] = {
            "object": obj, "degree": elem,
            "walk": hwalk_to_doc(res.walk(res.deepest))}


def _cmd_grade_smash(args, report: Report) -> None:
    z = load_value(args.grading, "grading")
    res = smash(z.category, z)
    report.verdicts["objects"] = len(res.category.objects)
    report.witnesses["object pairs"] = {
        name: list(pair) for name, pair in sorted(res.object_pairs.items())}
    _write_doc(args.out, lambda: functor_to_doc(res.projection), report)


def _cmd_grade_walkdeg(args, report: Report) -> None:
    z = load_value(args.grading, "grading")
    w = load_value(args.walk, "walk")
    problems = validate_hwalk(z, w)
    report.verdicts["walk valid"] = not problems
    report.messages.extend(problems)
    if not problems:
        report.verdicts["degree"] = walk_degree(z, w)
        report.verdicts["end"] = w.end


def _cmd_h1(args, report: Report) -> None:
    c = load_value(args.cat, "category")
    res = h1(c)
    report.verdicts["dim H1"] = res.dimension
    report.verdicts["dim derivations"] = res.derivation_dim
    report.verdicts["dim inner"] = res.inner_dim


def _cmd_delta(args, report: Report) -> None:
    z = load_value(args.grading, "grading")
    chi = load_value(args.character, "character")
    d = delta(z.category, z, chi)
    inner = delta_is_inner(z.category, z, chi)
    report.verdicts["derivation"] = True
    report.verdicts["inner"] = "yes" if inner else "no"
    report.witnesses["matrices"] = _pairs_to_nested(
        {pair: matrix_to_doc(m) for pair, m in d.matrices.items()})


def _cmd_delta_inj(args, report: Report) -> None:
    z = load_value(args.grading, "grading")
    ok = delta_injectivity_check(z.category, z)
    report.verdicts["injective on characters"] = ok


def _cmd_pi1(args, report: Report) -> None:
    pres = load_value(args.presentation, "presentation")
    res = pi1_presentation(pres, args.base)
    grp = res.group
    report.verdicts["generators"] = len(grp.generators)
    report.verdicts["relators"] = len(grp.relators)
    report.verdicts["abelianization"] = \
        " x ".join("Z" if d == 0 else f"Z/{d}" for d in abelianization(grp))
    order = bounded_order(grp, args.max_cosets)
    report.verdicts["order"] = order if isinstance(order, int) else \
        f"exceeded {args.max_cosets} cosets"
    report.messages.extend(res.warnings)
    report.witnesses["generators"] = list(grp.generators)
    report.witnesses["relators"] = [grp.word_str(w) for w in grp.relators]
    report.witnesses["spanning tree"] = list(res.tree)


def _cmd_fixtures(args, report: Report) -> None:
    if args.list:
        report.verdicts["fixtures"] = len(registry.fixture_names())
        report.witnesses["names"] = list(registry.fixture_names())
        return
    if not args.name:
        raise InputError("pass a fixture name or --list")
    try:
        paths = registry.write_fixture(args.name, args.dir)
    except KeyError as e:
        raise InputError(str(e.args[0])) from e
    report.verdicts["files"] = len(paths)
    report.messages.extend(f"wrote {p}" for p in paths)


# -- wiring ---------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lincat",
        description="Exact computations with finite linear categories: "
                    "coverings, gradings, smash products, H1, and "
                    "presentation groups.",
        epilog="Paths in relations and walks read left to right: g*a "
               "means g after a.")
    p.add_argument("--json", action="store_true",
                   help="render the report as JSON")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    v = sub.add_parser("validate", help="check files against their axioms")
    for flag in ("cat", "functor", "action", "grading", "character",
                 "presentation"):
        v.add_argument(f"--{flag}")
    v.set_defaults(handler=_cmd_validate)

    pr = sub.add_parser("present",
                        help="build a category from a bound quiver")
    pr.add_argument("--presentation", required=True)
    pr.add_argument("--field", type=int, default=0,
                    help="characteristic (0 or a prime)")
    pr.add_argument("--out", help="write the category file here")
    pr.set_defaults(handler=_cmd_present)

    cover = sub.add_parser("cover", help="covering functor operations")
    csub = cover.add_subparsers(dest="subcommand", required=True,
                                metavar="SUBCOMMAND")
    cc = csub.add_parser("check", help="is the functor a covering?")
    cc.add_argument("--functor", required=True)
    cc.set_defaults(handler=_cmd_cover_check)
    ca = csub.add_parser("aut1", help="deck transformation group")
    ca.add_argument("--functor", required=True)
    ca.set_defaults(handler=_cmd_cover_aut1)
    ce = csub.add_parser("extend",
                         help="extend a seed assignment to a morphism")
    ce.add_argument("--functor", required=True)
    ce.add_argument("--to", required=True)
    ce.add_argument("--object", help="seed object (default: first)")
    ce.add_argument("--image", help="seed image in the other covering")
    ce.set_defaults(handler=_cmd_cover_extend)
    cl = csub.add_parser("lambda",
                         help="induced map between deck groups")
    cl.add_argument("--functor", required=True)
    cl.add_argument("--to", required=True)
    cl.add_argument("--image", help="seed image for the morphism")
    cl.set_defaults(handler=_cmd_cover_lambda)

    gal = sub.add_parser("galois", help="Galois covering analysis")
    gsub = gal.add_subparsers(dest="subcommand", required=True,
                              metavar="SUBCOMMAND")
    gc = gsub.add_parser("check", help="is the covering Galois?")
    gc.add_argument("--functor", required=True)
    gc.set_defaults(handler=_cmd_galois_check)
    gq = gsub.add_parser("quotient", help="categorical quotient")
    gq.add_argument("--action", required=True)
    gq.add_argument("--out", help="write the quotient category here")
    gq.set_defaults(handler=_cmd_galois_quotient)
    gs = gsub.add_parser("structure",
                         help="factor through the deck-group quotient")
    gs.add_argument("--functor", required=True)
    gs.set_defaults(handler=_cmd_galois_structure)
    gh = gsub.add_parser("homs", help="morphisms between two coverings")
    gh.add_argument("--functor", required=True)
    gh.add_argument("--to", required=True)
    gh.set_defaults(handler=_cmd_galois_homs)
    gu = gsub.add_parser("universal",
                         help="universality relative to a family")
    gu.add_argument("--functor", required=True)
    gu.add_argument("--family", nargs="+", required=True)
    gu.set_defaults(handler=_cmd_galois_universal)
    gg = gsub.add_parser("gset", help="deck action on the morphism set")
    gg.add_argument("--functor", required=True)
    gg.add_argument("--to", required=True)
    gg.set_defaults(handler=_cmd_galois_gset)

    gr = sub.add_parser("grade", help="group gradings and smash products")
    rsub = gr.add_subparsers(dest="subcommand", required=True,
                             metavar="SUBCOMMAND")
    ri = rsub.add_parser("induce", help="grading induced by a covering")
    ri.add_argument("--functor", required=True)
    ri.add_argument("--fibre", action="append", metavar="BASE=OBJECT",
                    help="fibre choice (repeatable)")
    ri.add_argument("--out", help="write the grading file here")
    ri.set_defaults(handler=_cmd_grade_induce)
    rv = rsub.add_parser("validate", help="check the grading axioms")
    rv.add_argument("--grading", required=True)
    rv.set_defaults(handler=_cmd_grade_validate)
    rr = rsub.add_parser("regrade", help="shift degrees by object")
    rr.add_argument("--grading", required=True)
    rr.add_argument("--shift", action="append", metavar="OBJECT=ELEMENT",
                    help="group element per object (repeatable; "
                         "default identity)")
    rr.add_argument("--out", help="write the shifted grading here")
    rr.set_defaults(handler=_cmd_grade_regrade)
    rc = rsub.add_parser("connected", help="is the grading connected?")
    rc.add_argument("--grading", required=True)
    rc.set_defaults(handler=_cmd_grade_connected)
    rs = rsub.add_parser("smash", help="smash-product covering")
    rs.add_argument("--grading", required=True)
    rs.add_argument("--out", help="write the projection functor here")
    rs.set_defaults(handler=_cmd_grade_smash)
    rw = rsub.add_parser("walkdeg", help="degree of a homogeneous walk")
    rw.add_argument("--grading", required=True)
    rw.add_argument("--walk", required=True)
    rw.set_defaults(handler=_cmd_grade_walkdeg)

    h = sub.add_parser("h1", help="first Hochschild-Mitchell cohomology")
    h.add_argument("--cat", required=True)
    h.set_defaults(handler=_cmd_h1)

    d = sub.add_parser("delta",
                       help="derivation attached to a character")
    d.add_argument("--grading", required=True)
    d.add_argument("--character", required=True)
    d.set_defaults(handler=_cmd_delta)

    di = sub.add_parser("delta-inj",
                        help="characters embed into H1 (connected "
                             "gradings only)")
    di.add_argument("--grading", required=True)
    di.set_defaults(handler=_cmd_delta_inj)

    pi = sub.add_parser("pi1", help="fundamental group of a presentation")
    pi.add_argument("--presentation", required=True)
    pi.add_argument("--base", required=True, help="base vertex")
    pi.add_argument("--max-cosets", type=int, default=2000)
    pi.set_defaults(handler=_cmd_pi1)

    fx = sub.add_parser("fixtures", help="emit built-in example files")
    fx.add_argument("name", nargs="?")
    fx.add_argument("--dir", default=".")
    fx.add_argument("--list", action="store_true")
    fx.set_defaults(handler=_cmd_fixtures)
    return p


def _use_color(stream: TextIO) -> bool:
    mode = os.environ.get("LINCAT_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def run(argv: Optional[list[str]] = None,
        stdout: Optional[TextIO] = None,
        stderr: Optional[TextIO] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    argv_echo = argv if argv is not None else sys.argv[1:]
    report = Report(command="lincat " + " ".join(argv_echo))
    start = time.perf_counter()
    problem = None
    try:
        args.handler(args, report)
    except (ValueError, OSError) as e:
        problem = str(e)
    except MemoryError:  # reported once the command's frames are freed
        problem = "out of memory"
    if problem is not None:
        if args.json:
            err.write(canonical_dumps({"error": problem}))
        else:
            err.write(f"error: {problem}\n")
        return 2
    report.elapsed = time.perf_counter() - start
    if args.json:
        out.write(canonical_dumps(report.to_json()))
    else:
        out.write(report.render_text(_use_color(out)))
    return report.exit_code()


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
