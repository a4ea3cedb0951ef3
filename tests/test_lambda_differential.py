"""Differential test of lambda_map against the version it replaced, kept
in tests/lincat_reference.py as reference_lambda_map: the library walks
the seed once, builds no functor and decides nothing about H; the
reference takes the whole morphism (H, 1), built from the object map
that extend_morphism returns, re-validates G∘H = J∘F by composing
functors, decides whether λ is onto and H Galois, and compares each
kernel element's functor with an element of aut1(H).  Both must agree on
every seed d0 of G's source: the same mapping, kernel and deck groups,
or the same refusal; and the reference must find λ onto, its kernel the
deck group of H and H Galois on every morphism."""
import pytest

from lincat.covering import CoveringGroup, extend_morphism, lambda_map
from lincat.exactlinalg import FieldSpec
from lincat.fixtures import (Q, cover_f0, cover_f1, cover_f2, cyclic_cover,
                             identity_cover, square_cover)
from lincat.kcat import LinFunctor, identity_functor
from lincat_reference import (CoveringMorphism, cyclic_reduction,
                              morphism_functor, reference_lambda_map)

F3 = FieldSpec(3)


def reference(f: LinFunctor, g: LinFunctor, d0: str):
    """The result for the seed x0 ↦ d0 as the command line once made it:
    extend, refuse a seed that does not extend, then λ of the morphism."""
    x0 = f.source.objects[0]
    h = extend_morphism(f, g, x0, d0)
    if h is None:
        raise ValueError("no morphism between the coverings from "
                         f"seed {x0} -> {d0}")
    m = CoveringMorphism(morphism_functor(f, g, h),
                         identity_functor(f.target))
    return reference_lambda_map(m, f, g)


def outcome(run, *args):
    """The result, or the text of the ValueError refusing the input."""
    try:
        return run(*args)
    except ValueError as e:
        return str(e)


def pairs():
    """(label, F, G) for coverings over one base."""
    for field, name in ((Q, "Q"), (F3, "F_3")):
        for n, m in ((4, 2), (6, 3), (6, 2), (8, 4)):
            top, bottom, _ = cyclic_reduction(n, m, field)
            yield f"{n}->{m} over {name}", top.functor, bottom.functor
            if (n, m) == (4, 2):
                yield f"{m}->{n} over {name}", bottom.functor, top.functor
        for fix in (cyclic_cover(3, field), cover_f0(field), cover_f1(field),
                    cover_f2(field), identity_cover(field)):
            base = identity_functor(fix.base.category)
            yield f"{fix.name} identity over {name}", fix.functor, fix.functor
            yield f"{fix.name} to the base over {name}", fix.functor, base
    fix = square_cover()
    yield "square-cover identity", fix.functor, fix.functor
    yield ("square-cover to the base", fix.functor,
           identity_functor(fix.base.category))


PAIRS = {label: (f, g) for label, f, g in pairs()}


def assert_same_group(got: CoveringGroup, want: CoveringGroup) -> None:
    assert got.group.elements == want.group.elements
    assert got.group.table == want.group.table
    assert got.seed_fibre == want.seed_fibre
    assert got.object_maps == want.object_maps


@pytest.mark.parametrize("label", sorted(PAIRS))
def test_lambda_map_agrees_with_reference_on_every_seed(label):
    f, g = PAIRS[label]
    for d0 in g.source.objects:
        got = outcome(lambda_map, f, g, d0)
        want = outcome(reference, f, g, d0)
        if isinstance(want, str):
            assert got == want, (label, d0)
            continue
        assert got.mapping == want.mapping, (label, d0)
        assert got.kernel == want.kernel, (label, d0)
        assert want.surjective and want.kernel_matches_h_group and \
            want.h_is_galois, (label, d0)
        for res, wres in ((got.source_group, want.source_group),
                          (got.target_group, want.target_group)):
            assert_same_group(res, wres)


def test_the_pairs_reach_every_kind_of_result():
    """Every refusal that a covering can reach, and kernels of orders
    1, 2 and 3; every λ found is surjective, with the kernel of H's deck
    group, and H Galois."""
    results = [outcome(reference, f, g, d0) for f, g in PAIRS.values()
               for d0 in g.source.objects]
    refusals = {r.split(":")[0].split(" from seed")[0]
                for r in results if isinstance(r, str)}
    assert refusals == {"seed mismatch", "covering is not Galois",
                        "no morphism between the coverings"}
    found = [r for r in results if not isinstance(r, str)]
    assert {len(r.kernel) for r in found} == {1, 2, 3}
    assert all(r.surjective and r.kernel_matches_h_group and r.h_is_galois
               for r in found)
