"""Differential test of smash against the version it replaced, kept
here as the reference: the library renames the products and identity
coordinates that building the grading found into each source copy;
the reference scans every pair of smash basis names, recomputes each
composite with compose and expresses it in the homogeneous basis by
applying the inverse change of basis.  Both must give the same objects,
hom bases in the same order, structure constants, identities and
projection, and refuse a grading of another category with the same
ValueError text.  Data that is not a grading is refused when the
Grading is built, with the grading reference's first problem, and a
category composing outside its hom spaces when the LinCat is built, so
neither smash sees them.  The insertion order of `comp` may differ:
dict equality and category_to_doc, which sorts its keys, do not see
it."""
import pytest

from grading_reference import (built_grading, grading_fields,
                               homogeneous_comb, reference_validate_grading)
from lincat import grading, kcat
from lincat.covering import fibre
from lincat.exactlinalg import Matrix
from lincat.fixtures import (F2, cover_f0, cover_f1, cyclic_cover, kronecker,
                             loop_square_zero, square_base, square_cover)
from lincat.formats import canonical_dumps, functor_to_doc
from lincat.grading import (Grading, SmashResult, _unit_row,
                            grading_on_basis, induced_grading, regrade,
                            smash, trivial_grading)
from lincat.groups import cyclic_group
from lincat.kcat import (LinCat, LinComb, LinFunctor, compose,
                         identity_functor)
from linalg_reference import from_cols


def reference_smash(b: LinCat, z: Grading) -> SmashResult:
    """Covering with one object copy per group element whose hom from
    (x,g) to (y,h) is the degree-(h·g⁻¹) component of hom(x,y).  With a
    trivial group this is b itself under the identity projection."""
    invs = z.inverses
    if z.category is not b and z.category != b:
        raise ValueError("grading does not belong to the category")
    grp = z.group
    if grp.order() == 1:
        return SmashResult(b, identity_functor(b),
                           {o: (o, grp.identity) for o in b.objects})

    def oname(x: str, g: str) -> str:
        return f"{x}@{g}"

    objects = [oname(x, g) for x in b.objects for g in grp.elements]
    object_pairs = {oname(x, g): (x, g) for x in b.objects
                    for g in grp.elements}
    # name each homogeneous column once per source copy; unit columns
    # keep the declared name as their stem
    stems: dict[tuple[str, str], list[str]] = {}
    for (x, y), names in b.hom.items():
        row = []
        for j in range(len(names)):
            u = _unit_row(z.basis[(x, y)].columns[j])
            row.append(names[u] if u is not None else f"{x}>{y}#{j}")
        stems[(x, y)] = row

    hom: dict[tuple[str, str], tuple[str, ...]] = {}
    meta: dict[str, tuple[str, str, int]] = {}  # name -> (x, y, column)
    copy_of: dict[str, str] = {}                # name -> source copy g
    for (x, y), row in stems.items():
        for g in grp.elements:
            for j, d in enumerate(z.degrees[(x, y)]):
                h = grp.mul(d, g)
                key = (oname(x, g), oname(y, h))
                nm = f"{row[j]}@{g}"
                hom.setdefault(key, ())
                hom[key] = hom[key] + (nm,)
                meta[nm] = (x, y, j)
                copy_of[nm] = g

    def lift(x: str, w: str, comb: LinComb, g: str, expect: str) -> LinComb:
        """Express a base comb in hom(x,w) through the homogeneous basis
        and rename into the copy starting at g; support outside the
        expected degree would contradict a validated grading."""
        if not comb:
            return {}
        coords = invs[(x, w)]({b.position[n]: a for n, a in comb.items()})
        out = {}
        for j, a in sorted(coords.items()):
            if z.degrees[(x, w)][j] != expect:
                raise RuntimeError("composite escaped its degree component")
            out[f"{stems[(x, w)][j]}@{g}"] = a
        return out

    comp: dict[tuple[str, str], LinComb] = {}
    for fn, (x, y, jf) in meta.items():
        g = copy_of[fn]
        s = z.degrees[(x, y)][jf]
        h = grp.mul(s, g)
        for gn, (y2, w, jg) in meta.items():
            if y2 != y or copy_of[gn] != h:
                continue
            t = z.degrees[(y, w)][jg]
            prod = compose(b, homogeneous_comb(z, y, w, jg),
                           homogeneous_comb(z, x, y, jf))
            if not prod:
                continue
            comp[(gn, fn)] = lift(x, w, prod, g, grp.mul(t, s))

    identities = {}
    for x in b.objects:
        for g in grp.elements:
            identities[oname(x, g)] = lift(x, x, b.identity(x), g,
                                           grp.identity)

    cat = LinCat(b.field, tuple(objects), hom, comp, identities)
    mats = {}
    for (xg, yh), names in cat.hom.items():
        x, y, _ = meta[names[0]]
        columns = z.basis[(x, y)].columns
        mats[(xg, yh)] = Matrix(b.field, b.dim(x, y), len(names),
                                tuple(columns[meta[n][2]] for n in names))
    proj = LinFunctor(cat, b, {o: p[0] for o, p in object_pairs.items()},
                      mats)
    return SmashResult(cat, proj, object_pairs)



# -- inputs ------------------------------------------------------------------

def first_fibre_choice(f):
    return {b: fibre(f, b)[0] for b in f.target.objects}


def valid_gradings() -> dict[str, Grading]:
    """Induced gradings of cyclic_cover(1..8) and one regrade of each;
    the induced gradings of F0, F1 and square_cover over F_2 (F1's
    homogeneous columns are not unit vectors); gradings on the declared
    basis of Kronecker over F_2 and of k[u]/(u²) by C3."""
    out = {}
    for n in range(1, 9):
        f = cyclic_cover(n).functor
        z = induced_grading(f, first_fibre_choice(f))
        out[f"cyclic_cover({n})"] = z
        grp = z.group
        shift = {x: grp.elements[i % len(grp.elements)]
                 for i, x in enumerate(z.category.objects, 1)}
        out[f"cyclic_cover({n}) regraded"] = regrade(z, shift)
    for name, fix in (("F0", cover_f0(F2)), ("F1", cover_f1(F2)),
                      ("square_cover", square_cover(F2))):
        f = fix.functor
        out[name] = induced_grading(f, first_fibre_choice(f))
    k = kronecker(F2).category
    c2 = cyclic_group(2)
    for a in c2.elements:
        for b in c2.elements:
            out[f"kronecker a:{a} b:{b}"] = grading_on_basis(
                k, c2, {"a": a, "b": b})
    out["kronecker trivial"] = trivial_grading(k)
    loop = loop_square_zero().category
    c3 = cyclic_group(3)
    for u in c3.elements:
        out[f"loop u:{u}"] = grading_on_basis(loop, c3, {"u": u})
    return out


VALID = valid_gradings()


def with_degrees(z, pair, labels):
    return grading_fields(z, degrees={**z.degrees, pair: labels})


def with_block(z, pair, m):
    return grading_fields(z, basis={**z.basis, pair: m})


def invalid_gradings() -> dict[str, tuple]:
    """(category, grading) pairs that smash refuses, a grading of
    another category; and (category, grading data) that is no grading:
    a label outside the group, a singular or misshaped change of basis,
    a missing key, and an identity and a composite of the wrong
    degree."""
    k = kronecker(F2).category
    z = VALID["kronecker a:e b:g"]
    b = square_base().category
    square = grading_on_basis(b, cyclic_group(2), {})
    return {
        "unknown label": (k, with_degrees(z, ("s", "t"), ("e", "bogus"))),
        "too few labels": (k, with_degrees(z, ("s", "t"), ("e",))),
        "missing key": (k, grading_fields(z, basis={
            p: m for p, m in z.basis.items() if p != ("t", "t")})),
        "identity of degree g": (k, with_degrees(z, ("t", "t"), ("g",))),
        "other category": (kronecker().category, z),
        "singular": (k, with_block(z, ("s", "t"), from_cols(
            F2, [[1, 0], [1, 0]]))),
        "misshaped": (k, with_block(z, ("s", "t"), from_cols(
            F2, [[1, 0, 0], [0, 1, 0]]))),
        "not multiplicative": (b, grading_fields(square, degrees={
            p: tuple("g" if n == "b" else "e" for n in names)
            for p, names in b.hom.items()})),
    }


INVALID = invalid_gradings()


def outcome(run, b, z):
    """What a caller sees: the projection's document, the object pairs,
    the category and its hom order, or the type and text of a refusal."""
    try:
        res = run(b, z)
    except Exception as e:  # the reference may refuse with any type
        return (type(e).__name__, str(e))
    c = res.category
    return (canonical_dumps(functor_to_doc(res.projection)),
            res.object_pairs, c, c.objects, tuple(c.hom.items()),
            c.identities)


@pytest.mark.parametrize("name", sorted(VALID))
def test_smash_agrees_with_reference(name):
    z = VALID[name]
    got = outcome(smash, z.category, z)
    assert got == outcome(reference_smash, z.category, z)
    assert isinstance(got[2], LinCat), got


@pytest.mark.parametrize("name", sorted([*INVALID,
                                          "composite outside its hom"]))
def test_smash_refuses_as_reference(name):
    if name not in INVALID:
        k = kronecker(F2).category
        with pytest.raises(ValueError, match=r"^1_t∘1_t has a term a "
                           r"outside hom\('t', 't'\)$"):
            LinCat(F2, k.objects, k.hom, {**k.comp, ("1_t", "1_t"): {"a": 1}},
                   k.identities)
        return
    b, z = INVALID[name]
    if isinstance(z, Grading):
        got = outcome(smash, b, z)
        assert got == outcome(reference_smash, b, z)
        assert got[0] == "ValueError", got
    else:
        problems = reference_validate_grading(z)
        assert problems and built_grading(z) == problems[0]


def test_smash_applies_no_matrix_and_composes_nothing(monkeypatch):
    """Once the grading is built, smash only renames: a matrix applied
    or a composite taken fails the test.  The unit laws that LinCat
    checks on the category smash builds are its own products
    (kcat._product), which are left alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("smash recomputed a composite")

    for name in ("cyclic_cover(4)", "F1", "square_cover", "loop u:g"):
        z = VALID[name]
        expected = outcome(reference_smash, z.category, z)
        monkeypatch.setattr(Matrix, "__call__", refuse)
        monkeypatch.setattr(grading, "_product", refuse)
        monkeypatch.setattr(kcat, "compose", refuse)
        got = outcome(smash, z.category, z)
        monkeypatch.undo()
        assert got == expected, name
