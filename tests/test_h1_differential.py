"""Differential test of h1 against the version it replaced, kept here as
the reference (with its derivation space and inner span from
lincat_reference.py): the library ranks the kernel vectors of the Leibniz
system against the inner span directly and turns only the coset
representatives into Derivations; the reference turns every kernel
vector into a Derivation and flattens it back before ranking.  Both must
give the same dimensions and the same representatives in the same
order, and refuse a non-associative category with the same ValueError
text.  The other two non-categories the reference refuses (an identity
that is not one, a composite outside its hom space) are refused by
LinCat when they are built, so h1 never sees them."""
from fractions import Fraction

import pytest

from lincat import cohomology
from lincat import formats as fm
from lincat import registry
from lincat.cohomology import (Derivation, H1Result, _derivation_vectors,
                               _span, h1)
from lincat.exactlinalg import EchelonBasis, FieldSpec, Matrix
from lincat.fixtures import cyclic_cover, kronecker, square_base
from lincat.kcat import Arrow, LinCat, QuiverPresentation, present
from lincat_reference import (make_category, reference_derivation_space,
                              reference_inner_span,
                              reference_sparse_derivation)
from linalg_reference import ReferenceEchelonBasis, typed

Q = FieldSpec(0)


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
        "i∘i = 0 with i the identity": (lambda: make_category(
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


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_leibniz_elimination_agrees_with_reference(name, monkeypatch):
    """Every echelon basis h1 builds (the Leibniz system, the inner span
    and the ranking of the derivations against it) answers each add as
    the Fraction-based reference does, and ends with the reference's
    rows, kernel and tails, value types included."""
    built = []

    class Checked(EchelonBasis):
        def __init__(self, characteristic):
            super().__init__(characteristic)
            self.reference = ReferenceEchelonBasis(characteristic)
            built.append(self)

        def add(self, vec):
            got = super().add(vec)
            assert got == self.reference.add(vec)
            return got

        def kernel(self, ncols):
            got = super().kernel(ncols)
            assert typed(got) == typed(self.reference.kernel(ncols))
            return got

    monkeypatch.setattr(cohomology, "EchelonBasis", Checked)
    outcome(h1, CATEGORIES[name])
    assert built
    for e in built:
        rows = e.rows()
        assert typed(rows) == typed(dict(sorted(e.reference.rows.items())))
        for c in rows:
            assert typed(e.tail(c)) == typed(e.reference.tail(c))


@pytest.mark.parametrize("name", ["kronecker.json", "k[u]/(u^4) over 2",
                                  "cyclic_cover(3) total"])
def test_in_derivation_space_agrees_with_reference(name):
    """Membership in the span of the Leibniz kernel that h1 ranks
    (_derivation_vectors) agrees with membership in the reference
    derivation space."""
    c = CATEGORIES[name]
    ders = reference_derivation_space(c)
    e = EchelonBasis(c.field.characteristic)
    for d in ders:
        e.add(reference_sparse_derivation(c, d))
    kernel = _span(c, _derivation_vectors(c))
    # each basis derivation, and one entry of it moved off its place
    for d in ders:
        assert reference_sparse_derivation(c, d) in kernel
        for pair, m in d.matrices.items():
            if m.rows > 1 and any(m.columns):
                moved = dict(d.matrices)
                moved[pair] = Matrix(m.field, m.rows, m.cols,
                                     m.columns[1:] + m.columns[:1])
                off = Derivation(c, moved)
                assert (reference_sparse_derivation(c, off) in kernel) == \
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


def test_h1_builds_the_product_table_once(monkeypatch):
    """_derivation_vectors and _inner_generators share one _products
    table per h1 call."""
    tables = []

    def counted(c, _real=cohomology._products):
        tables.append(c)
        return _real(c)
    monkeypatch.setattr(cohomology, "_products", counted)
    for c in (kronecker().category, square_base().category):
        tables.clear()
        h1(c)
        assert tables == [c]
