"""Differential test of hom_coverings and gset_analysis against the
versions they replaced, kept verbatim in tests/lincat_reference.py:
reference_hom_coverings extends every seed of the fibre into a whole
functor, and reference_gset_analysis reads its action table from those
functors and decides transitivity, normal isotropy and the
orbit-stabilizer count from it.  The library extends one seed per orbit
of the target's deck group on the fibre (one, the target being Galois),
lists the other morphisms as k∘H₀ by their object maps, builds no
functor, and reads the isotropy from H₀ alone.  Both must list the same
morphisms in the same order, with equal object maps and, once the test
builds each morphism from its object map, equal functors, give the same
isotropy, and
refuse the same inputs with the same text; the reference must find
every verdict true on every pair it accepts.  The pairs are cyclic
covers of the Kronecker category and the n -> n/2 reductions between
them, the double covers F0, F1 (whose star blocks are not monomial)
and F2, and twisted covers, which are not Galois, over Q, F_2, F_3
and F_5."""
import pytest

from lincat.exactlinalg import FieldSpec
from lincat.fixtures import (Q, F2, cover_f0, cover_f1, cover_f2,
                             cyclic_cover, identity_cover, kronecker)
from lincat.galois import gset_analysis, hom_coverings
from lincat.kcat import LinCat, LinFunctor, functor_equal
from lincat_reference import (cyclic_reduction, morphism_functor,
                              reference_gset_analysis,
                              reference_hom_coverings, twisted_cover)

F3, F5 = FieldSpec(3), FieldSpec(5)
FIELDS = (Q, F2, F3, F5)


def reordered(f, objects):
    """f with its source objects declared in another order."""
    src = f.source
    c = LinCat(src.field, objects, src.hom, src.comp, src.identities)
    return LinFunctor(c, f.target, dict(f.object_map), dict(f.matrices))


def coverings(field):
    """Coverings of one Kronecker category over field, by label.  In
    "C4 t first" the first object lies over t; in "C4 t reversed" the
    fibre over t runs t0, t3, t2, t1, so its order is not the order of
    the deck group's elements, which are named by their image of s0."""
    base = kronecker(field)
    out = {f"C{n}": cyclic_cover(n, field, base).functor
           for n in (1, 2, 3, 4, 6)}
    s, t = [f"s{i}" for i in range(4)], [f"t{i}" for i in range(4)]
    out["C4 t first"] = reordered(out["C4"], t + s)
    out["C4 t reversed"] = reordered(out["C4"], s + t[:1] + t[:0:-1])
    out["twisted-3"] = twisted_cover(3, field, base)
    for make in (cover_f0, cover_f1, cover_f2, identity_cover):
        fix = make(field)
        out[fix.name] = fix.functor
    return out


def pairs():
    out = []
    for field in FIELDS:
        covers = coverings(field)
        for a, u in covers.items():
            for b, f in covers.items():
                out.append((f"{a} -> {b} over {field}", u, f))
        for n, m in ((2, 1), (4, 2), (6, 3)):
            top, bottom, h = cyclic_reduction(n, m, field)
            out.append((f"C{n} -> C{m} over {field}", top.functor,
                        bottom.functor))
            # the reduction itself covers the m-fold cover's total, a
            # base no cover of the Kronecker category shares
            out.append((f"reduction {n} -> {m} over {field}", h, h))
            out.append((f"C{n} -> reduction {n} -> {m} over {field}",
                        top.functor, h))
    return out


PAIRS = pairs()


def outcome(fn, u, f):
    try:
        return fn(u, f)
    except ValueError as e:
        return f"refused: {e}"


def test_the_pairs_are_broad():
    got = [outcome(hom_coverings, u, f) for _, u, f in PAIRS]
    refusals = [g for g in got if isinstance(g, str)]
    assert any("not Galois" in r for r in refusals)
    assert any("do not share a base" in r for r in refusals)
    assert sum(1 for g in got if not isinstance(g, str) and len(g) > 1) >= 20
    assert any(not isinstance(g, str) and len(g) == 0 for g in got)


@pytest.mark.parametrize("label,u,f", PAIRS, ids=[p[0] for p in PAIRS])
def test_hom_sets_agree(label, u, f):
    got = outcome(hom_coverings, u, f)
    want = outcome(lambda u, f: reference_hom_coverings(u, f)[0], u, f)
    if isinstance(want, str):
        assert got == want
        return
    assert got == [h.object_map for h in want]
    for i, h in enumerate(want):
        assert functor_equal(morphism_functor(u, f, got[i]), h), (label, i)


@pytest.mark.parametrize("label,u,f", PAIRS, ids=[p[0] for p in PAIRS])
def test_gset_analysis_agrees(label, u, f, monkeypatch):
    built = []

    def counted(self, _real=LinFunctor.__post_init__):
        built.append(self)
        return _real(self)
    with monkeypatch.context() as m:
        m.setattr(LinFunctor, "__post_init__", counted)
        got = outcome(gset_analysis, u, f)
    assert built == []  # the morphisms and the isotropy need no functor
    want = outcome(reference_gset_analysis, u, f)
    if isinstance(want, str):
        assert got == want
        return
    assert got.homs == [h.object_map for h in want.homs]
    assert got.isotropy == want.isotropy
    assert want.transitive and want.isotropy_normal and \
        want.orbit_stabilizer_ok


def test_the_accepted_gset_pairs():
    """gset_analysis accepts 204 of the pairs, so the verdicts above are
    asserted on each of them."""
    got = [outcome(gset_analysis, u, f) for _, u, f in PAIRS]
    assert sum(not isinstance(g, str) for g in got) == 204
