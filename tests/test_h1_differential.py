"""Differential test of h1 against the version it replaced, kept here as
the reference: the library ranks the kernel vectors of the Leibniz
system against the inner span directly and turns only the coset
representatives into Derivations; the reference turns every kernel
vector into a Derivation and flattens it back before ranking.  Both must
give the same dimensions and the same representatives in the same
order, and refuse a non-associative category with the same ValueError
text.  The other two non-categories the reference refuses (an identity
that is not one, a composite outside its hom space) are refused by
LinCat when they are built, so h1 never sees them."""
from bisect import bisect_right
from fractions import Fraction

import pytest

from lincat import cohomology
from lincat import formats as fm
from lincat import registry
from lincat.cohomology import (Derivation, H1Result, _inner_generators,
                               _layout, _products, h1, in_derivation_space)
from lincat.exactlinalg import EchelonBasis, FieldSpec, Matrix
from lincat.fixtures import cyclic_cover, kronecker, square_base
from lincat.kcat import Arrow, LinCat, QuiverPresentation, present

Q = FieldSpec(0)


def reference_sparse_derivation(c: LinCat, d: Derivation) -> dict:
    offset, _ = _layout(c)
    out = {}
    for pair, at in offset.items():
        n = c.dim(*pair)
        for j, col in enumerate(d.matrices[pair].columns):
            for i, a in col.items():
                out[at + i * n + j] = a
    return out


def reference_derivation_of(c: LinCat, vec: dict) -> Derivation:
    offset, _ = _layout(c)
    starts = list(offset.values())
    cols = {pair: [{} for _ in range(c.dim(*pair))] for pair in c.pairs}
    for k in sorted(vec):
        pair = c.pairs[bisect_right(starts, k) - 1]
        i, j = divmod(k - offset[pair], c.dim(*pair))
        cols[pair][j][i] = vec[k]
    return Derivation(c, {pair: Matrix(c.field, len(m), len(m), tuple(m))
                          for pair, m in cols.items()})


def reference_derivation_space(c: LinCat) -> list[Derivation]:
    offset, total = _layout(c)
    prod = _products(c)
    system = EchelonBasis(c.field.characteristic)
    for f in c.basis_names():
        x, y = c.pair_of(f)
        jf = c.position[f]
        for g in c.leaving[y]:
            w = c.target_of(g)
            nxw = c.dim(x, w)
            if nxw == 0:
                # zero target space: both sides vanish identically
                continue
            jg = c.position[g]
            # D(g∘f) - g∘D(f) - D(g)∘f = 0, one row per coordinate r
            rows: list[dict] = [{} for _ in range(nxw)]
            for m, a in prod.get((g, f), ()):
                for r in range(nxw):
                    k = offset[(x, w)] + r * nxw + m
                    rows[r][k] = rows[r].get(k, 0) + a
            for i, fi in enumerate(c.hom[(x, y)]):
                k = offset[(x, y)] + i * c.dim(x, y) + jf
                for r, a in prod.get((g, fi), ()):
                    rows[r][k] = rows[r].get(k, 0) - a
            for i, gi in enumerate(c.hom[(y, w)]):
                k = offset[(y, w)] + i * c.dim(y, w) + jg
                for r, a in prod.get((gi, f), ()):
                    rows[r][k] = rows[r].get(k, 0) - a
            for row in rows:
                system.add(row)
    # coordinate r of D(1_x) is a linear form in the entries of D's
    # End(x) matrix, with the coordinates of 1_x as coefficients
    kills: list[tuple[str, dict]] = []
    for x in c.objects:
        if (x, x) in offset:
            at, n = offset[(x, x)], c.dim(x, x)
            kills.extend((x, {at + r * n + c.position[m]: s
                              for m, s in c.identities[x].items()})
                         for r in range(n))
    red = c.field.reduce
    out = []
    for v in system.kernel(total):
        for x, form in kills:
            if red(sum(v.get(k, 0) * s for k, s in form.items())):
                raise ValueError("input is not a category: derivation does "
                                 f"not kill identity of {x}")
        out.append(reference_derivation_of(c, v))
    return out


def reference_inner_span(c: LinCat) -> EchelonBasis:
    e = EchelonBasis(c.field.characteristic)
    for g in _inner_generators(c):
        e.add(g)
    return e


def reference_h1(c: LinCat) -> H1Result:
    """dim(derivations) − dim(inner), with coset representatives taken
    from the derivation basis itself: the basis elements that raise the
    rank over the inner span and the representatives before them."""
    ders = reference_derivation_space(c)
    span = reference_inner_span(c)
    inner_dim = len(span)
    reps = [d for d in ders if span.add(reference_sparse_derivation(c, d))]
    if len(span) != len(ders):
        raise ValueError("input is not a category: inner derivation "
                         "outside the derivation space")
    return H1Result(len(ders) - inner_dim, len(ders), inner_dim, reps)


# -- inputs ------------------------------------------------------------------

def truncated_loop(field, n):
    """k[u]/(u^n)."""
    q = QuiverPresentation(("x",), (Arrow("u", "x", "x"),),
                           (((Fraction(1), ("u",) * n),),), n - 1)
    return present(q, field).category


def categories() -> dict[str, LinCat]:
    """Every category in a registry fixture file (documents decoded,
    text presentations presented over Q), the totals of
    cyclic_cover(1..6), k[u]/(u^n) over Q, F_2, F_3 and F_5, and one
    category that is typed and unital but not associative."""
    out = {}
    for name in registry.fixture_names():
        if name == "cyclic-cover-n":
            continue
        for filename, content in registry.fixture_files(name).items():
            if isinstance(content, str):
                out[filename] = present(
                    fm.presentation_from_text(content), Q).category
            elif content["kind"] == "category":
                out[filename] = fm.category_from_doc(content)
            elif content["kind"] == "functor":
                for side in ("source", "target"):
                    out[f"{filename} {side}"] = \
                        fm.category_from_doc(content[side])
            elif "category" in content:  # an action or a grading
                out[filename] = fm.category_from_doc(content["category"])
    for n in range(1, 7):
        out[f"cyclic_cover({n}) total"] = cyclic_cover(n).total.category
    for p in (0, 2, 3, 5):
        for n in range(2, 7):
            out[f"k[u]/(u^{n}) over {p or 'Q'}"] = \
                truncated_loop(FieldSpec(p), n)
    c = truncated_loop(Q, 3)
    out["(u*u)∘u = 2·u*u"] = LinCat(Q, c.objects, c.hom,
                                     {**c.comp, ("u*u", "u"): {"u*u": 2}},
                                     c.identities)
    return out


CATEGORIES = categories()


def non_categories() -> dict[str, tuple]:
    """Builders LinCat refuses, with the text of the refusal."""
    k = kronecker().category
    return {
        "i∘i = 0 with i the identity": (lambda: LinCat.make(
            Q, ["x"], {("x", "x"): ["i"]}, {}, {"x": {"i": 1}}),
            "id_x ∘ i = 0"),
        "1_t∘1_t = a": (lambda: LinCat(
            Q, k.objects, k.hom, {**k.comp, ("1_t", "1_t"): {"a": 1}},
            k.identities), "1_t∘1_t has a term a outside hom('t', 't')"),
    }


NON_CATEGORIES = non_categories()


def outcome(run, c):
    try:
        return run(c)
    except ValueError as e:
        return ("ValueError", str(e))


@pytest.mark.parametrize("name", sorted({**CATEGORIES, **NON_CATEGORIES}))
def test_h1_agrees_with_reference(name):
    if name in NON_CATEGORIES:
        build, text = NON_CATEGORIES[name]
        with pytest.raises(ValueError) as e:
            build()
        assert str(e.value) == text
        return
    c = CATEGORIES[name]
    got = outcome(h1, c)
    want = outcome(reference_h1, c)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.dimension, got.derivation_dim, got.inner_dim) == \
        (want.dimension, want.derivation_dim, want.inner_dim)
    assert len(got.representatives) == len(want.representatives)
    for mine, theirs in zip(got.representatives, want.representatives):
        assert mine.category is c
        assert mine.matrices == theirs.matrices
        assert list(mine.matrices) == list(theirs.matrices)


@pytest.mark.parametrize("name", ["kronecker.json", "k[u]/(u^4) over 2",
                                  "cyclic_cover(3) total"])
def test_in_derivation_space_agrees_with_reference(name):
    c = CATEGORIES[name]
    ders = reference_derivation_space(c)
    e = EchelonBasis(c.field.characteristic)
    for d in ders:
        e.add(reference_sparse_derivation(c, d))
    # each basis derivation, and one entry of it moved off its place
    for d in ders:
        assert in_derivation_space(d)
        for pair, m in d.matrices.items():
            if m.rows > 1 and any(m.columns):
                moved = dict(d.matrices)
                moved[pair] = Matrix(m.field, m.rows, m.cols,
                                     m.columns[1:] + m.columns[:1])
                off = Derivation(c, moved)
                assert in_derivation_space(off) == \
                    (reference_sparse_derivation(c, off) in e)


def test_h1_builds_one_derivation_per_representative(monkeypatch):
    built = []

    def counted(*args, _real=Derivation):
        built.append(args)
        return _real(*args)
    monkeypatch.setattr(cohomology, "Derivation", counted)
    # derivation bases of 4, 6 and 6 elements, 3, 1 and 4 representatives
    for c in (kronecker().category, cyclic_cover(3).total.category,
              square_base().category):
        built.clear()
        res = h1(c)
        assert res.derivation_dim > len(res.representatives) > 0
        assert len(built) == len(res.representatives)
