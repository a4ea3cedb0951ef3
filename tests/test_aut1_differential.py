"""Differential test of aut1 against the all-seed version it replaced,
kept here as the reference together with the _Extension it used (which
composed J with F and compared G with J∘F even when J is the identity,
and decided functoriality itself).  The library extends only the seeds
that the elements found so far do not reach and closes their object
maps under composition; the reference extends every seed of the fibre
and keeps every functor.  Both must give the same element names, table,
seed fibre, object maps and functors (the library's built from its
object maps by deck_functors), and refuse the same inputs: a
disconnected source with the same ValueError text, a non-covering with
the message of its check_covering report, which decides functoriality
as well.  structure_iso, induced_grading, lambda_map and gset_analysis must
return the same results on groups built by either, and so must
reference_structure_iso, reference_lambda_map and
reference_gset_analysis, which build what those no longer build and
decide the verdicts they no longer make.  The reference returns its own
ReferenceDeckGroup, which keeps every element's functor, where a
CoveringGroup keeps object maps only.

The last section counts extensions and built functors: on a Galois
covering of degree n at most log2 n seeds are extended (the first
object's own seed gives the identity without one), and structure_iso
builds no functor and no category."""
from dataclasses import dataclass
from math import ceil, log2
from typing import Optional

import pytest

import lincat.covering as covering
import lincat.galois as galois
import lincat_reference
from lincat import registry
from lincat.covering import (CoveringGroup, aut1, check_covering, fibre,
                             lambda_map)
from lincat.exactlinalg import FieldSpec, Matrix
from lincat.fixtures import (F2, Q, cover_f0, cyclic_cover, kronecker,
                             square_cover)
from lincat.formats import functor_from_doc
from lincat.galois import gset_analysis, is_galois, structure_iso
from lincat.grading import grading_on_basis, induced_grading, smash
from lincat.groups import Group
from lincat.kcat import (Arrow, LinCat, LinFunctor, QuiverPresentation,
                         functor_equal, functor_from_arrows, identity_functor,
                         is_connected, present, validate_functor)
from lincat_reference import (CoveringMorphism, cyclic_reduction,
                              deck_functors, disconnected_double_kronecker,
                              functor_compose, functor_is_isomorphism,
                              reference_covering_report,
                              reference_gset_analysis, reference_lambda_map,
                              reference_structure_iso,
                              reference_structure_problems,
                              shift_subgroup_action)

F3 = FieldSpec(3)


class ReferenceExtension:
    """What extending morphisms F -> G over J needs that no seed changes,
    built once per (F, G, J) and shared by every seed: J∘F, with each
    basis image as a sparse column, whether J∘F and G are functors
    (see extend_morphism), and the star table of G from
    check_covering(g).  G must be a covering: a visited star block that
    is not bijective raises ValueError."""

    def __init__(self, f: LinFunctor, g: LinFunctor, j: LinFunctor):
        base = f.target
        if g.target != base or j.source != base or j.target != base:
            raise ValueError("functors do not share the base category")
        if any(j.object_map[x] != x for x in base.objects):
            raise ValueError("J must fix objects")
        if not functor_is_isomorphism(j):
            raise ValueError("J must be an isomorphism")
        self.f, self.g = f, g
        jf = functor_compose(j, f)
        self.functorial = not validate_functor(jf) and (
            functor_equal(g, jf) or not validate_functor(g))
        self.image = {n: col for pair, m in jf.matrices.items()
                      for n, col in zip(f.source.hom[pair], m.columns)}
        self.stars = check_covering(g).stars

    def star(self, x: str, b: str, direction: str
             ) -> tuple[Matrix, list[tuple[str, int, int]]]:
        """The star table's entry for G's star block at x towards the
        fibre of b."""
        entry = self.stars.get((x, b, direction))
        if entry is None:
            raise ValueError(
                f"G is not a covering: star block at ({x}, {b}), "
                f"{'outgoing' if direction == 'out' else 'incoming'} "
                "half, is not bijective")
        return entry

    def extend(self, x0: str, d0: str) -> Optional[LinFunctor]:
        """extend_morphism(F, G, J, x0, d0) on the shared data."""
        f, g = self.f, self.g
        c, d = f.source, g.source
        if x0 not in c.objects or d0 not in d.objects:
            raise ValueError("unknown seed objects")
        if g.object_map[d0] != f.object_map[x0]:
            raise ValueError(f"seed mismatch: G({d0}) != F({x0}) on the base")
        omap = {x0: d0}
        cols: dict[str, dict] = {}  # basis name -> column of H(name)
        queue = [x0]
        for x in queue:  # the queue grows while it is read
            for direction, names, far in (("out", c.leaving[x], c.target_of),
                                          ("in", c.arriving[x], c.source_of)):
                for n in names:
                    if n in cols:
                        continue
                    y = far(n)
                    inv, owner = self.star(omap[x], f.object_map[y],
                                           direction)
                    cand = inv(self.image[n])
                    if not cand:
                        return None
                    e, first, last = owner[min(cand)]
                    if max(cand) > last:
                        return None  # spread over several blocks
                    if y not in omap:
                        omap[y] = e
                        queue.append(y)
                    elif omap[y] != e:
                        return None
                    cols[n] = {i - first: a for i, a in cand.items()}
        if len(omap) != len(c.objects):
            raise ValueError("source category is not connected; "
                             "the extension is not determined")
        if not self.functorial:
            return None
        mats = {(x, y): Matrix(c.field, d.dim(omap[x], omap[y]),
                               c.dim(x, y),
                               tuple(cols[n] for n in c.hom[(x, y)]))
                for (x, y) in c.pairs}
        return LinFunctor(c, d, omap, mats)


@dataclass
class ReferenceDeckGroup:
    """reference_aut1's deck group: every element's functor, built and
    kept, with the covering and the part of CoveringGroup that the
    library's consumers read."""
    covering: LinFunctor
    group: Group
    object_maps: dict[str, dict[str, str]]
    seed_fibre: tuple[str, ...]
    functors: dict[str, LinFunctor]

    def order(self) -> int:
        return self.group.order()


def reference_aut1(f: LinFunctor) -> ReferenceDeckGroup:
    """All deck transformations of a covering with connected source,
    found by seeding the first object x0 over its fibre.  f must be a
    covering (see extend_morphism); the star table and whether f is a
    functor are decided once.  A star-bijective f that is not a
    functor is not a covering: not even x0 ↦ x0 extends (ValueError).

    The table rests on rigidity: a deck transformation is the unique
    extension of its seed image h(x0), so
    - h1∘h2 is the element whose seed image is h1(h2(x0));
    - the extension of x0 ↦ x0 is the identity functor, named e;
    - an element fixing any object y agrees with the identity at y, so it
      is the identity: the action on objects is free.
    No functor is composed or compared.
    """
    c = f.source
    if not is_connected(c).connected:
        raise ValueError("covering source is not connected")
    x0 = c.objects[0]
    fib = tuple(fibre(f, f.object_map[x0]))
    ext = ReferenceExtension(f, f, identity_functor(f.target))
    functors: dict[str, LinFunctor] = {}
    for d0 in fib:  # x0 comes first: fibres keep declaration order
        h = ext.extend(x0, d0)
        if h is None and d0 == x0:
            raise ValueError("identity extension failed; input is not a covering")
        if h is not None:
            functors[f"g{len(functors)}" if functors else "e"] = h
    by_seed = {h.object_map[x0]: n for n, h in functors.items()}
    table = {(n1, n2): by_seed[h1.object_map[h2.object_map[x0]]]
             for n1, h1 in functors.items() for n2, h2 in functors.items()}
    group = Group(tuple(functors), "e", table)
    return ReferenceDeckGroup(f, group,
                              {n: h.object_map for n, h in functors.items()},
                              fib, functors)


# -- inputs --------------------------------------------------------------------

def twisted_cover(n: int, k: int, field: FieldSpec = Q) -> LinFunctor:
    """cyclic_cover(n) with a_k sent to a + b: still a covering, but no
    seed other than the first extends, so its deck group is trivial."""
    fix = cyclic_cover(n, field)
    omap = {x: x[0] for x in fix.total.category.objects}
    images = {f"{arrow}{i}": {arrow: 1} for i in range(n) for arrow in "ab"}
    images[f"a{k}"] = {"a": 1, "b": 1}
    return functor_from_arrows(fix.total, fix.base.category, omap, images)


def identity_not_kept() -> LinFunctor:
    """F0 with F(1_s0) = 2·1_s: star-bijective but not a functor."""
    f = cover_f0().functor
    mats = dict(f.matrices)
    mats[("s0", "s0")] = Matrix(f.source.field, 1, 1, ({0: 2},))
    return LinFunctor(f.source, f.target, f.object_map, mats)


def disconnected_source() -> LinFunctor:
    dis, k = disconnected_double_kronecker(), kronecker()
    omap = {"s": "s", "t": "t", "s'": "s", "t'": "t"}
    return LinFunctor.on_basis(
        dis.category, k.category, omap,
        {"a": {"a": 1}, "b": {"b": 1}, "a'": {"a": 1}, "b'": {"b": 1},
         "1_s": {"1_s": 1}, "1_t": {"1_t": 1},
         "1_s'": {"1_s": 1}, "1_t'": {"1_t": 1}})


def symmetric_group_3() -> Group:
    """S3 as permutations of (0, 1, 2), with r a 3-cycle and f a swap."""
    perms = {"e": (0, 1, 2), "r": (1, 2, 0), "r2": (2, 0, 1),
             "f": (1, 0, 2), "rf": (2, 1, 0), "r2f": (0, 2, 1)}
    name = {p: n for n, p in perms.items()}
    return Group(tuple(perms), "e",
                 {(s, t): name[tuple(p[q] for q in perms[t])]
                  for s, p in perms.items() for t in perms})


def s3_cover() -> LinFunctor:
    """The smash of three parallel arrows graded e, r and f by S3: a
    Galois covering whose deck group is not abelian."""
    q = QuiverPresentation(("s", "t"), tuple(Arrow(a, "s", "t")
                                             for a in "abc"), (), 1)
    c = present(q, Q).category
    z = grading_on_basis(c, symmetric_group_3(), {"a": "e", "b": "r",
                                                  "c": "f"})
    return smash(c, z).projection


def registry_functors() -> dict[str, LinFunctor]:
    out = {}
    names = [n for n in registry.fixture_names() if n != "cyclic-cover-n"]
    for name in names + [f"cyclic-cover-{n}" for n in range(1, 9)]:
        for filename, doc in registry.fixture_files(name).items():
            if isinstance(doc, dict) and doc["kind"] == "functor":
                out[filename] = functor_from_doc(doc)
    return out


def cases() -> dict[str, LinFunctor]:
    out = registry_functors()
    for n in range(1, 9):
        out[f"cyclic_cover({n})"] = cyclic_cover(n).functor
    out["cyclic_cover(4) over F_2"] = cyclic_cover(4, F2).functor
    out["cyclic_cover(6) over F_3"] = cyclic_cover(6, F3).functor
    for n, m in ((2, 1), (4, 2), (6, 2), (6, 3), (8, 2), (8, 4)):
        out[f"cyclic_reduction({n}, {m})"] = cyclic_reduction(n, m)[2]
    out["square_cover"] = square_cover().functor
    out["S3 cover"] = s3_cover()
    out["twisted(5, 2)"] = twisted_cover(5, 2)
    out["twisted(4, 0) over F_3"] = twisted_cover(4, 0, F3)
    out["F(id) != id"] = identity_not_kept()
    out["disconnected source"] = disconnected_source()
    return out


CASES = cases()


def outcome(run, *args):
    """The result, or the text of the ValueError refusing the input."""
    try:
        return run(*args)
    except ValueError as e:
        return str(e)


def assert_same_group(got: CoveringGroup, want: ReferenceDeckGroup) -> None:
    assert got.group.elements == want.group.elements
    assert got.group.identity == want.group.identity
    assert got.group.table == want.group.table
    assert got.seed_fibre == want.seed_fibre
    assert got.object_maps == want.object_maps
    built = deck_functors(want.covering, got)
    for name, h in want.functors.items():
        assert functor_equal(built[name], h), name


# -- aut1 ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_aut1_agrees_with_reference(name):
    """Twice: the second call reads the report kept on f."""
    f = CASES[name]
    want = outcome(reference_aut1, f)
    report = check_covering(f)
    if isinstance(want, str) and not report.ok:
        want = f"not a covering: {report.message()}"
    for got in (outcome(aut1, f), outcome(aut1, f)):
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_group(got, want)


def test_aut1_over_a_large_base():
    """The projection of cyclic_cover(128)'s total by the order-2 shift
    has 256 objects over 128, and all but 1,024 of its 65,536 star
    blocks are 0x0: the report is ok, its table holds exactly the
    others, and aut1 agrees with the reference."""
    f = galois.quotient(shift_subgroup_action(128, 64)).projection
    report = check_covering(f)
    assert report.ok
    old = reference_covering_report(f)
    assert len(old.stars) == 65536
    nonzero = {key for key, (inv, _) in old.stars.items() if inv.rows}
    assert set(report.stars) == nonzero and len(nonzero) == 1024
    assert_same_group(aut1(f), reference_aut1(f))


def test_the_cases_reach_every_kind_of_result():
    results = {name: outcome(reference_aut1, f) for name, f in CASES.items()}
    refusals = {r for r in results.values() if isinstance(r, str)}
    assert refusals == {
        "identity extension failed; input is not a covering",
        "covering source is not connected",
        "G is not a covering: star block at (s0, t), outgoing half, "
        "is not bijective"}
    orders = {name: r.order() for name, r in results.items()
              if not isinstance(r, str)}
    assert orders["F2.json"] == orders["twisted(5, 2)"] == 1
    assert orders["cyclic_cover(8)"] == 8
    assert orders["cyclic_reduction(8, 2)"] == 4
    assert orders["gdlp-C1.json"] == orders["square_cover"] == 2
    assert orders["S3 cover"] == 6
    assert not results["S3 cover"].group.is_abelian()


# -- consumers, on groups built by aut1 and by the reference -------------------

def reference_deck_group(f: LinFunctor) -> Optional[ReferenceDeckGroup]:
    """covering._deck_group, which is_galois calls, on the reference:
    None for a disconnected source."""
    if not is_connected(f.source).connected:
        return None
    return reference_aut1(f)


def with_reference(monkeypatch, run, *args):
    """run(*args) with aut1 replaced by the reference wherever it is
    called from, tests/lincat_reference.py included."""
    with monkeypatch.context() as m:
        m.setattr(covering, "aut1", reference_aut1)
        m.setattr(lincat_reference, "aut1", reference_aut1)
        m.setattr(galois, "_deck_group", reference_deck_group)
        return outcome(run, *args)


GALOIS = ["F0.json", "F1.json", "gdlp-C1.json", "cyclic_cover(1)",
          "cyclic_cover(5)", "cyclic_cover(8)", "cyclic_cover(4) over F_2",
          "cyclic_cover(6) over F_3", "cyclic_reduction(6, 2)", "S3 cover"]


@pytest.mark.parametrize("name", GALOIS + ["F2.json", "twisted(5, 2)"])
def test_structure_iso_agrees_on_reference_groups(monkeypatch, name):
    """structure_iso on either aut1 gives the object map of the
    reference factorization on either aut1, which passes the checks
    structure_iso once made; a refusal is the same on all four."""
    f = CASES[name]
    got = outcome(structure_iso, f)
    want = with_reference(monkeypatch, structure_iso, f)
    ref = outcome(reference_structure_iso, f)
    want_ref = with_reference(monkeypatch, reference_structure_iso, f)
    if isinstance(want, str):
        assert got == ref == want_ref == want
        return
    assert list(got.items()) == list(want.items()) == \
        list(ref.iso.object_map.items())
    assert reference_structure_problems(f, ref) == \
        reference_structure_problems(f, want_ref) == []
    assert functor_equal(ref.iso, want_ref.iso)
    q, wq = ref.quotient_result, want_ref.quotient_result
    assert q.quotient == wq.quotient
    assert q.quotient.objects == wq.quotient.objects
    assert q.quotient.hom == wq.quotient.hom
    assert functor_equal(q.projection, wq.projection)
    # the acting group is the deck group of the projection: aut1 finds
    # |G| elements, and exactly one has the object map of each s
    grp, deck = aut1(f), aut1(q.projection)
    assert deck.order() == grp.order()
    fs = deck_functors(q.projection, deck)
    for s, h in deck_functors(f, grp).items():
        same = [t for t, omap in deck.object_maps.items()
                if omap == h.object_map]
        assert len(same) == 1 and functor_equal(fs[same[0]], h), s


@pytest.mark.parametrize("name", GALOIS + ["F2.json", "twisted(5, 2)"])
def test_induced_grading_agrees_on_reference_groups(monkeypatch, name):
    f = CASES[name]
    choices = [{b: fibre(f, b)[0] for b in f.target.objects},
               {b: fibre(f, b)[-1] for b in f.target.objects}]
    for choice in choices:
        got = outcome(induced_grading, f, choice)
        want = with_reference(monkeypatch, induced_grading, f, choice)
        if isinstance(want, str):
            assert got == want
            continue
        assert got.group.table == want.group.table
        assert got.basis == want.basis
        assert got.degrees == want.degrees


def reductions():
    for n, m in ((2, 1), (4, 2), (6, 2), (6, 3), (8, 4)):
        top, bottom, h = cyclic_reduction(n, m)
        yield top.functor, bottom.functor, h


def test_lambda_map_agrees_on_reference_groups(monkeypatch):
    """lambda_map on either aut1, and the verdicts it no longer decides
    by reference_lambda_map on either aut1, for the same morphism H."""
    for f, g, h in reductions():
        d0 = h.object_map[f.source.objects[0]]
        got = lambda_map(f, g, d0)
        want = with_reference(monkeypatch, lambda_map, f, g, d0)
        m = CoveringMorphism(h, identity_functor(f.target))
        ref = reference_lambda_map(m, f, g)
        want_ref = with_reference(monkeypatch, reference_lambda_map, m, f, g)
        for res in (ref, want_ref):
            assert res.surjective and res.kernel_matches_h_group
            assert res.h_is_galois
            assert res.h_group.object_maps == aut1(h).object_maps
        assert got.mapping == want.mapping == ref.mapping
        assert got.kernel == want.kernel == ref.kernel
        for res, wres in ((got.source_group, want.source_group),
                          (got.target_group, want.target_group),
                          (ref.h_group, want_ref.h_group)):
            assert_same_group(res, wres)


def test_gset_analysis_agrees_on_reference_groups(monkeypatch):
    """gset_analysis on either aut1, and the action table and verdicts
    it no longer makes by reference_gset_analysis on either aut1."""
    pairs = [(cyclic_cover(n).functor, cyclic_cover(m).functor)
             for n, m in ((4, 2), (6, 3), (6, 2), (3, 3), (4, 1))]
    pairs.append((CASES["S3 cover"], CASES["S3 cover"]))
    pairs.append((CASES["F0.json"], CASES["F1.json"]))
    pairs.append((CASES["F0.json"], CASES["F2.json"]))
    for u, f in pairs:
        got = outcome(gset_analysis, u, f)
        want = with_reference(monkeypatch, gset_analysis, u, f)
        if isinstance(want, str):
            assert got == want
            continue
        assert got.homs == want.homs
        ref = reference_gset_analysis(u, f)
        want_ref = with_reference(monkeypatch, reference_gset_analysis, u, f)
        assert ref.action == want_ref.action
        assert got.isotropy == want.isotropy == ref.isotropy == \
            want_ref.isotropy
        for res in (ref, want_ref):
            assert res.transitive and res.isotropy_normal and \
                res.orbit_stabilizer_ok


# -- cost ----------------------------------------------------------------------

def counted_extensions(monkeypatch) -> list[str]:
    """The seed image of every extension (_Extension.walk, which
    extend_morphism calls too) from here on."""
    seeds: list[str] = []
    real = covering._Extension.walk

    def walk(self, x0, d0):
        seeds.append(d0)
        return real(self, x0, d0)

    monkeypatch.setattr(covering._Extension, "walk", walk)
    return seeds


@pytest.mark.parametrize("n", [8, 64])
def test_only_generators_are_extended(monkeypatch, n):
    f = cyclic_cover(n).functor
    bound = ceil(log2(n))  # x0's own seed gives e and is not extended
    seeds = counted_extensions(monkeypatch)
    assert aut1(f).order() == n
    assert len(seeds) <= bound
    seeds.clear()
    assert is_galois(f).galois
    by_is_galois = len(seeds)
    assert by_is_galois <= bound
    seeds.clear()
    induced_grading(f, {b: fibre(f, b)[0] for b in f.target.objects})
    assert len(seeds) <= by_is_galois


def test_structure_iso_builds_no_functor(monkeypatch):
    """structure_iso builds no functor and no category: the object map
    of the factorization is read from the deck group's object maps.  It
    is the object map of the reference factorization, whose projection
    has the whole deck group."""
    built = []
    f = cyclic_cover(16).functor
    with monkeypatch.context() as m:
        for cls in (LinFunctor, LinCat):
            def counted(self, _real=cls.__post_init__):
                built.append(self)
                return _real(self)
            m.setattr(cls, "__post_init__", counted)
        omap = structure_iso(f)
    assert built == []
    ref = reference_structure_iso(f)
    assert list(omap.items()) == list(ref.iso.object_map.items())
    assert aut1(ref.quotient_result.projection).order() == 16
    assert reference_structure_problems(f, ref) == []


def test_aut1_of_a_prebuilt_cover_checks_no_group_axiom(monkeypatch):
    """A deck group's table is a group by construction (see
    covering._deck_group), so aut1 checks no axiom; the tables pass the
    check all the same, with the same inverses."""
    covers = [cyclic_cover(n).functor for n in (2, 5, 16)] + \
        [square_cover().functor, cover_f0().functor]
    calls = []
    for name in ("check", "_light"):
        monkeypatch.setattr(Group, name,
                            lambda self, name=name: calls.append(name))
    groups = [aut1(f).group for f in covers]
    assert calls == []
    monkeypatch.undo()
    assert [g.order() for g in groups] == [2, 5, 16, 2, 2]
    for g in groups:
        checked = Group(g.elements, g.identity, g.table)
        assert [g.inv(s) for s in g.elements] == \
            [checked.inv(s) for s in g.elements]
