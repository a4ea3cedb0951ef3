"""Differential test of present against the elimination it replaced,
kept here as the reference.  The library compiles every presentation by
a Gröbner basis; the reference builds a path list, a complement and a
truncation check for every pair of objects, and pairs every hom with
every hom.  Both order paths by length, then by the declaration index of
the arrows in the order they apply, so on the inputs where the
reference is exact they give the same bases, structure constants,
identities and insertion orders, and raise the same exception with the
same message (the TruncationError witness included) -- with one
exception, which `assert_agree` checks instead of equality.

The reference decides a bound N from the span of the u·r·v whose terms
all have length <= 2N.  When the relations mix lengths, the library's
rules can reach an element of I that needs longer u·r·v (a rewrite
that lowers the degree), or use a relation longer than 2N.  So where
the reference refuses an inhomogeneous presentation, the library may
accept, or name a later witness.  Neither is taken on trust:
`certified_present` rebuilds an acceptance by linear algebra alone, and
`in_ideal` shows that the reference's witness lies in I.

The reference is also inexact when a relation's term lengths spread by
more than the bound, or a term of a relation of mixed lengths vanishes
in the field: it then sets a relation's room from a term it should not
read.  test_kcat.py pins those cases by hand, and
test_an_accepted_bound_does_not_change_the_result checks them here
against the library itself."""
import random
from fractions import Fraction
from typing import Optional

import pytest

from lincat import fixtures as fx
from lincat.exactlinalg import EchelonBasis, FieldSpec
from lincat.formats import presentation_from_text
from lincat.kcat import (Arrow, LinCat, LinComb, PresentResult,
                         QuiverPresentation, TruncationError, path_name,
                         present)
from lincat.registry import fixture_files
from linalg_reference import complement

Q, F2, F3, F5 = FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(5)


def reference_enumerate_paths(p: QuiverPresentation, maxlen: int
                              ) -> dict[tuple[str, str], list[tuple[str, ...]]]:
    out: dict[tuple[str, str], list[tuple[str, ...]]] = {
        (x, y): [] for x in p.vertices for y in p.vertices}
    cur = [((), x, x) for x in p.vertices]
    for t, x, y in cur:
        out[(x, y)].append(t)
    for _ in range(maxlen):
        nxt = []
        for t, x, y in cur:
            for a in p.arrows:
                if a.source == y:
                    nxt.append(((a.name,) + t, x, a.target))
        for t, x, y in nxt:
            out[(x, y)].append(t)
        cur = nxt
    return out


def reference_present(p: QuiverPresentation, field: FieldSpec
                      ) -> PresentResult:
    """Compile a quiver with relations into a category.

    Hom spaces are spanned by paths of length <= N modulo the span of
    {u·r·v : r a relation, all terms of length <= 2N}.  Soundness of the
    cut at N requires every path of length in (N, 2N] to lie in that span;
    this is checked and TruncationError reports the first witness.  The
    surviving basis is greedy path-monomial: shortest paths first, then
    declaration order.  A relation coefficient whose denominator p
    divides raises ZeroDivisionError naming it.
    """
    n = p.length_bound
    paths = reference_enumerate_paths(p, 2 * n)
    basis_paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    projections: dict[tuple[str, str], list[dict]] = {}
    index: dict[tuple[str, str], dict[tuple[str, ...], int]] = {}
    relations = [[(field.scalar(coeff), path) for coeff, path in rel]
                 for rel in p.relations]

    for pair, plist in paths.items():
        index[pair] = {t: i for i, t in enumerate(plist)}

    for pair, plist in paths.items():
        dim = len(plist)
        idx = index[pair]
        gens: list[dict] = []
        for rel in relations:
            u = p.path_source(rel[0][1])
            v = p.arrow(rel[0][1][0]).target
            room = 2 * n - max(len(path) for _, path in rel)
            # path lists run by increasing length, so the first path too
            # long for the room left ends each loop
            for left in paths[(v, pair[1])]:
                if len(left) > room:
                    break
                for mid in paths[(pair[0], u)]:
                    if len(left) + len(mid) > room:
                        break
                    vec: dict = {}
                    for coeff, path in rel:
                        j = idx[left + path + mid]
                        vec[j] = vec.get(j, 0) + coeff
                    gens.append(vec)
        # shortest paths first, then declaration order
        reps, project = complement(field.characteristic, dim, gens,
                                   range(dim))
        for t in plist:
            # a path lies in the span iff it projects to zero
            if n < len(t) <= 2 * n and project[idx[t]]:
                raise TruncationError(t, n)
        basis_paths[pair] = [plist[j] for j in reps]
        projections[pair] = project

    hom = {pair: tuple(path_name(t, pair[0]) for t in rep_list)
           for pair, rep_list in basis_paths.items()}

    def comb_of_path(t: tuple[str, ...], pair: tuple[str, str]) -> LinComb:
        coords = projections[pair][index[pair][t]]
        return {hom[pair][i]: a for i, a in sorted(coords.items())}

    identities = {x: comb_of_path((), (x, x)) for x in p.vertices}
    comp: dict[tuple[str, str], LinComb] = {}
    for (x, y), f_list in basis_paths.items():
        for (y2, z), g_list in basis_paths.items():
            if y2 != y:
                continue
            for ft in f_list:
                for gt in g_list:
                    comb = comb_of_path(gt + ft, (x, z))
                    if comb:
                        comp[(path_name(gt, y), path_name(ft, x))] = comb

    cat = LinCat(field, p.vertices, hom, comp, identities)
    return PresentResult(cat, {pair: rep_list for pair, rep_list
                               in basis_paths.items() if rep_list})


def relation_multiples(p: QuiverPresentation, field: FieldSpec,
                       paths: dict, pair: tuple[str, str], room) -> list:
    """The u·r·v from pair[0] to pair[1] for each relation r, its terms
    that vanish in the field dropped, and each u, v with |u| + |v| <=
    room(lengths of r's terms), as sparse vectors over the index of
    paths[pair]; terms that paths[pair] does not list are dropped."""
    idx = {t: i for i, t in enumerate(paths[pair])}
    x, y = pair
    out = []
    for r in p.relations:
        terms: dict = {}
        for coeff, path in r:
            terms[path] = terms.get(path, 0) + field.scalar(coeff)
        terms = {t: a for t, a in terms.items() if field.reduce(a)}
        if not terms:
            continue
        first = next(iter(terms))
        src, tgt = p.path_source(first), p.arrow(first[0]).target
        k = room([len(t) for t in terms])
        # path lists run by increasing length
        for left in paths[(tgt, y)]:
            if len(left) > k:
                break
            for mid in paths[(x, src)]:
                if len(left) + len(mid) > k:
                    break
                out.append({idx[left + t + mid]: a for t, a in terms.items()
                            if left + t + mid in idx})
    return out


def span_within(p: QuiverPresentation, field: FieldSpec, paths: dict,
                pair: tuple[str, str], top: int) -> EchelonBasis:
    """The span of the u·r·v from pair[0] to pair[1] whose terms all have
    length <= top, over the index of paths[pair]."""
    e = EchelonBasis(field.characteristic)
    for vec in relation_multiples(p, field, paths, pair,
                                  lambda lengths: top - max(lengths)):
        e.add(vec)
    return e


def in_ideal(p: QuiverPresentation, field: FieldSpec,
             path: tuple[str, ...]) -> bool:
    """Whether, for some L in 2N..4N, path lies in the span of the u·r·v
    whose terms all have length <= L: a certificate that path lies in
    I."""
    n = p.length_bound
    pair = (p.path_source(path), p.arrow(path[0]).target)
    for top in range(2 * n, 4 * n + 1):
        paths = reference_enumerate_paths(p, top)
        if {paths[pair].index(path): 1} in span_within(p, field, paths, pair,
                                                       top):
            return True
    return False


def certifies(p: QuiverPresentation, field: FieldSpec, top: int) -> bool:
    """Whether every path of length N+1 lies in the span of the u·r·v
    whose terms all have length <= top."""
    paths = reference_enumerate_paths(p, top)
    for pair, plist in paths.items():
        e = span_within(p, field, paths, pair, top)
        if any(len(t) == p.length_bound + 1 and {j: 1} not in e
               for j, t in enumerate(plist)):
            return False
    return True


def certified_present(p: QuiverPresentation, field: FieldSpec
                      ) -> Optional[PresentResult]:
    """present by linear algebra alone, or None when no span certifies
    the bound.  The certificate is an L in 2N..4N such that every path
    of length N+1 lies in the span of the u·r·v whose terms all have
    length <= L, so J^(N+1) ⊆ I.  Then I ∩ kQ≤N is spanned by the parts
    of length <= N of the u·r·v with |u| + |v| + (shortest term of r)
    <= N, and the category is kQ≤N modulo that span, with the greedy
    complement basis in path order, assembled as reference_present
    assembles it."""
    n = p.length_bound
    if not any(certifies(p, field, top) for top in range(2 * n, 4 * n + 1)):
        return None
    paths = reference_enumerate_paths(p, n)
    basis_paths, projections = {}, {}
    for pair, plist in paths.items():
        gens = relation_multiples(p, field, paths, pair,
                                  lambda lengths: n - min(lengths))
        reps, projections[pair] = complement(
            field.characteristic, len(plist), gens, range(len(plist)))
        basis_paths[pair] = [plist[j] for j in reps]
    hom = {pair: tuple(path_name(t, pair[0]) for t in ts)
           for pair, ts in basis_paths.items()}

    def comb_of_path(t, pair):
        if len(t) > n:
            return {}
        coords = projections[pair][paths[pair].index(t)]
        return {hom[pair][i]: a for i, a in sorted(coords.items())}

    comp = {}
    for (x, y), f_list in basis_paths.items():
        for (y2, z), g_list in basis_paths.items():
            if y2 == y:
                for ft in f_list:
                    for gt in g_list:
                        if comb := comb_of_path(gt + ft, (x, z)):
                            comp[(path_name(gt, y), path_name(ft, x))] = comb
    identities = {x: comb_of_path((), (x, x)) for x in p.vertices}
    return PresentResult(LinCat(field, p.vertices, hom, comp, identities),
                         {pair: ts for pair, ts in basis_paths.items() if ts})


def outcome(build, p, field):
    try:
        res = build(p, field)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e), getattr(e, "witness", None)
    c = res.category
    dims = [c.dim(x, y) for x in c.objects for y in c.objects]
    return (list(res.basis_paths.items()), dims,
            list(c.hom.items()), list(c.comp.items()),
            list(c.identities.items()))


def with_bound(p, bound):
    return QuiverPresentation(p.vertices, p.arrows, p.relations, bound)


def graded(p: QuiverPresentation) -> bool:
    return all(len({len(t) for _, t in r}) == 1 for r in p.relations)


def path_order(p: QuiverPresentation, path: tuple[str, ...]) -> tuple:
    """The place of path in present's witness order: its pair,
    vertex-major, then its length, then its arrows' declaration indices
    in the order they apply."""
    at = {x: i for i, x in enumerate(p.vertices)}
    number = {a.name: i for i, a in enumerate(p.arrows)}
    return (at[p.path_source(path)], at[p.arrow(path[0]).target],
            len(path), tuple(number[a] for a in reversed(path)))


def assert_agree(p, fields=(Q, F5)):
    """Agreement at the presentation's bound and at one less.  Where the
    reference refuses an inhomogeneous presentation, the library may
    instead accept, with the result that certified_present rebuilds (or,
    when no span certifies it, with its own result at the next two
    bounds), or refuse with a later witness, the reference's being in I.
    Returns those cases as (bound, field, what the library did)."""
    moved = []
    for bound in sorted({p.length_bound, max(1, p.length_bound - 1)}):
        q = with_bound(p, bound)
        for field in fields:
            got, want = outcome(present, q, field), \
                outcome(reference_present, q, field)
            if got == want:
                continue
            assert not graded(q) and want[0] is TruncationError, \
                (bound, field)
            if got[0] is TruncationError:
                assert path_order(q, want[2]) < path_order(q, got[2])
                assert in_ideal(q, field, want[2]), (bound, field)
                moved.append((bound, str(field), got[2]))
            elif (certified := certified_present(q, field)) is not None:
                assert got == outcome(lambda *_: certified, q, field)
                moved.append((bound, str(field), "accepted"))
            else:
                for larger in (bound + 1, bound + 2):
                    assert outcome(present, with_bound(p, larger), field) \
                        == got, (bound, field, larger)
                moved.append((bound, str(field), "accepted, uncertified"))
    return moved


def rel(*terms):
    return tuple((Fraction(c), tuple(path)) for c, path in terms)


def grid_quiver(m, k, seed):
    """The m x k grid with one commutativity relation per square and
    seeded coefficients, some of them fractions."""
    rng = random.Random(seed)
    vs = [f"v{i}_{j}" for i in range(m) for j in range(k)]
    arrows = []
    for i in range(m):
        for j in range(k):
            if i + 1 < m:
                arrows.append(Arrow(f"r{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}"))
            if j + 1 < k:
                arrows.append(Arrow(f"c{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}"))
    rels = [rel((1, (f"c{i + 1}_{j}", f"r{i}_{j}")),
                (-Fraction(rng.choice([1, 2, 3, 4, 6]), rng.choice([1, 1, 2, 3])),
                 (f"r{i}_{j + 1}", f"c{i}_{j}")))
            for i in range(m - 1) for j in range(k - 1)]
    return QuiverPresentation(tuple(vs), tuple(arrows), tuple(rels),
                              max(1, m + k - 2))


def nakayama_quiver(n, length):
    """Cyclic quiver x0 -> x1 -> ... -> x0 with every path of the given
    length set to zero."""
    arrows = tuple(Arrow(f"u{i}", f"x{i}", f"x{(i + 1) % n}")
                   for i in range(n))
    rels = tuple(rel((1, tuple(f"u{(i + s) % n}"
                               for s in reversed(range(length)))))
                 for i in range(n))
    return QuiverPresentation(tuple(f"x{i}" for i in range(n)), arrows,
                              rels, length - 1)


def kuv_quiver():
    """k[u,v]/(uv - vu, u^2, v^2)."""
    return QuiverPresentation(
        ("x",), (Arrow("u", "x", "x"), Arrow("v", "x", "x")),
        (rel((1, "uv"), (-1, "vu")), rel((1, "uu")), rel((1, "vv"))), 2)


def dihedral_quiver(n):
    """One vertex with relations a^(n+1) = a, b^3 = b, aba = b."""
    return QuiverPresentation(
        ("x",), (Arrow("a", "x", "x"), Arrow("b", "x", "x")),
        (rel((1, "a" * (n + 1)), (-1, "a")), rel((1, "bbb"), (-1, "b")),
         rel((1, "aba"), (-1, "b"))), 2)


def registry_quivers():
    texts = [t for name in ("kronecker", "gdlp-base")
             for t in fixture_files(name).values() if isinstance(t, str)]
    loop = QuiverPresentation(("x",), (Arrow("u", "x", "x"),),
                              (rel((1, "uu")),), 1)
    return [presentation_from_text(t) for t in texts] + [
        fx.kronecker_quiver(), fx.square_base_quiver(),
        fx.square_base_quiver_alt(), fx.square_cover_quiver(), loop,
        QuiverPresentation(("o0", "o1"), (), (), 1),
        QuiverPresentation(("s", "t", "s'", "t'"),
                           (Arrow("a", "s", "t"), Arrow("b", "s", "t"),
                            Arrow("a'", "s'", "t'"), Arrow("b'", "s'", "t'")),
                           (), 1)]


def test_registry_quivers():
    quivers = registry_quivers()
    assert len(quivers) == 10
    for p in quivers:
        assert_agree(p, (Q, fx.F2, F5))


@pytest.mark.parametrize("n", range(1, 9))
def test_cyclic_covers(n):
    assert_agree(fx.cyclic_cover_quiver(n))


@pytest.mark.parametrize("m,k", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3),
                                 (2, 4), (3, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grids(m, k, seed):
    assert_agree(grid_quiver(m, k, seed))


@pytest.mark.parametrize("n,length", [(1, 2), (1, 4), (2, 3), (3, 3),
                                      (3, 4), (4, 2)])
def test_nakayama(n, length):
    assert_agree(nakayama_quiver(n, length), (Q, F3, F5))


def test_kuv_and_dihedral():
    for p in [kuv_quiver()] + [dihedral_quiver(n) for n in (1, 2, 3, 5)]:
        assert assert_agree(p, (Q, F3, F5)) == []


def test_refusals_are_compared():
    # outcome() carries refusals, so the families above compare them too
    short = outcome(present, with_bound(nakayama_quiver(3, 4), 2), Q)
    assert short == (TruncationError, str(TruncationError(
        ("u2", "u1", "u0"), 2)), ("u2", "u1", "u0"))
    square = grid_quiver(2, 2, 0)
    third = QuiverPresentation(square.vertices, square.arrows, (rel(
        (1, ("c1_0", "r0_0")), (Fraction(1, 3), ("r0_1", "c0_0"))),), 2)
    assert outcome(present, third, F3)[0] is ZeroDivisionError
    assert_agree(third, (Q, F3))


def random_presentation(seed):
    """A seeded presentation on 1-4 vertices and 1-4 arrows, loops
    allowed, with 1-5 relations among the paths of length <= bound + 1:
    monomials, homogeneous binomials with fractional coefficients, and
    binomials whose lengths differ by less than the bound, so by at most
    the bound one below.  The coefficients of the last kind vanish and
    lose their inverse in none of Q, F_2, F_3 and F_5."""
    rng = random.Random(seed)
    vs = tuple(f"x{i}" for i in range(rng.randint(1, 4)))
    arrows = tuple(Arrow(f"a{i}", rng.choice(vs), rng.choice(vs))
                   for i in range(rng.randint(1, 4)))
    bound = rng.randint(1, 3)
    free = reference_enumerate_paths(
        QuiverPresentation(vs, arrows, (), bound), bound + 1)
    parallel = [ts for ts in ([t for t in ts if t] for ts in free.values())
                if ts]
    rels = []
    for _ in range(rng.randint(1, 5)):
        ts = rng.choice(parallel)
        first = rng.choice(ts)
        c = Fraction(rng.choice([1, 2, 3, 4, 6]), rng.choice([1, 1, 1, 2, 3]))
        other = [t for t in ts if 0 < abs(len(t) - len(first)) < bound]
        kind = rng.random()
        if kind < 0.3:
            rels.append(rel((c, first)))
        elif kind < 0.75 or not other:
            same = [t for t in ts if len(t) == len(first)]
            rels.append(rel((1, first), (-c, rng.choice(same))))
        else:
            c = Fraction(rng.choice([1, 7, 11]), rng.choice([1, 7, 13]))
            rels.append(rel((1, first), (rng.choice([c, -c]),
                                         rng.choice(other))))
    return QuiverPresentation(vs, arrows, tuple(rels), bound)


# the seeds of random_presentation whose reference refusal the library
# does not repeat, with assert_agree's (bound, field, what the library
# did); every one of them is inhomogeneous
MOVED = {
    3: [(1, f, ("a0", "a0")) for f in ("Q", "F_2", "F_3", "F_5")],
    100: [(2, f, ("a0", "a1", "a1")) for f in ("Q", "F_5")],
    110: [(2, f, "accepted") for f in ("Q", "F_2", "F_3", "F_5")],
    121: [(2, "Q", ("a1", "a1", "a0")), (2, "F_2", ("a1", "a0", "a1")),
          (2, "F_3", ("a1", "a1", "a0")), (2, "F_5", ("a1", "a1", "a0"))],
    169: [(1, f, "accepted") for f in ("Q", "F_3", "F_5")],
    176: [(1, f, "accepted") for f in ("Q", "F_3")],
    185: [(2, "F_2", ("a1", "a1", "a1"))] + [
        (3, f, ("a1", "a1", "a1", "a1")) for f in ("Q", "F_2", "F_5")],
    186: [(1, f, ("a1", "a2")) for f in ("Q", "F_5")],
    193: [(1, f, "accepted") for f in ("Q", "F_3", "F_5")],
}


@pytest.mark.parametrize("chunk", range(4))
def test_random_presentations(chunk):
    for seed in range(50 * chunk, 50 * chunk + 50):
        assert assert_agree(random_presentation(seed), (Q, F2, F3, F5)) \
            == MOVED.get(seed, []), seed


def test_random_presentations_cover_every_outcome():
    seen = set()
    for seed in range(200):
        p = random_presentation(seed)
        graded = all(len({len(t) for _, t in r}) == 1 for r in p.relations)
        for field in (Q, F3):
            o = outcome(present, p, field)
            seen.add((graded, o[0] if isinstance(o[0], type) else "ok"))
    assert seen == {(g, o) for g in (True, False) for o in (
        "ok", TruncationError, ZeroDivisionError)}


def long_relations(seed):
    """A seeded presentation at bound 1 whose relations have 1-3 terms
    of any length up to 4, so that their spread may exceed the bound."""
    rng = random.Random(seed)
    vs = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
    arrows = tuple(Arrow(f"a{i}", rng.choice(vs), rng.choice(vs))
                   for i in range(rng.randint(1, 2)))
    free = reference_enumerate_paths(QuiverPresentation(vs, arrows, (), 1), 4)
    parallel = [ts for ts in ([t for t in ts if t] for ts in free.values())
                if ts]
    rels = []
    for _ in range(rng.randint(1, 5)):
        ts = rng.choice(parallel)
        picked = dict.fromkeys(rng.choice(ts)
                               for _ in range(rng.randint(1, 3)))
        rels.append(rel(*[(Fraction(rng.choice([1, -1, 2, 3]),
                                    rng.choice([1, 1, 2])), t)
                          for t in picked]))
    return QuiverPresentation(vs, arrows, tuple(rels), 1)


def test_an_accepted_bound_does_not_change_the_result():
    # once every path of length N+1 lies in the ideal, so does every
    # longer one: the category is the same at every accepted bound, and
    # every larger bound is accepted
    compared = 0
    for seed in range(60):
        p = long_relations(seed)
        for field in (Q, F3):
            accepted = None
            for bound in range(1, 5):
                o = outcome(present, with_bound(p, bound), field)
                if accepted is not None:
                    assert o == accepted, (seed, field, bound)
                    compared += 1
                elif o[0] not in (TruncationError, ZeroDivisionError):
                    accepted = o
    assert compared > 150
