"""End-to-end acceptance checks, one test per criterion.

Each test prints one line `criterion N PASS: <summary>` on success; a
failure shows up as the usual pytest failure line for that criterion.
Everything runs from built-in fixtures.
"""
from lincat.cohomology import characters, delta, delta_injectivity_check, \
    h1
from lincat.covering import aut1, check_covering, extend_morphism, fibre, \
    lambda_map
from lincat.exactlinalg import Matrix
from lincat.fixtures import (F2, Q, corrupted_collapse, cover_f0, cover_f1,
                             cover_f2, cyclic_cover, discrete, kronecker,
                             loop_square_zero, square_base_quiver,
                             square_base_quiver_alt, square_cover,
                             swap_action)
from lincat.galois import gset_analysis, is_galois, quotient, structure_iso
from lincat.grading import induced_grading, is_connected_grading, regrade, \
    same_components, smash
from lincat.kcat import LinFunctor, functor_equal, identity_functor, \
    is_connected, validate_functor
from lincat.pi1pres import abelianization, bounded_order, pi1_presentation
from lincat_reference import (CoveringMorphism, functor_compose,
                              functor_is_isomorphism, is_inner,
                              morphism_functor,
                              reference_gset_analysis, reference_lambda_map,
                              reference_structure_iso,
                              reference_structure_problems,
                              reference_validate_derivation,
                              reference_validate_morphism)


def _first_choice(f: LinFunctor) -> dict[str, str]:
    return {b: fibre(f, b)[0] for b in f.target.objects}


def test_criterion_01_covering_recognition():
    """the three double covers are coverings; the collapse is not"""
    for fix in (cover_f0(), cover_f1(), cover_f2()):
        report = check_covering(fix.functor)
        assert report.ok, fix.name
    broken = corrupted_collapse()
    assert validate_functor(broken.functor) == []
    assert not check_covering(broken.functor).ok
    print("criterion  1 PASS: covering recognition (F0, F1, F2 yes; "
          "collapse no)")


def test_criterion_02_non_galois_detection():
    """F2 has a trivial deck group on a 2-point fibre; F0, F1 are Galois"""
    res2 = is_galois(cover_f2().functor)
    assert res2.galois is False
    assert res2.group is not None and res2.group.order() == 1
    assert len(res2.group.seed_fibre) == 2
    assert "order 1" in res2.reason and "size 2" in res2.reason
    for fix in (cover_f0(), cover_f1()):
        res = is_galois(fix.functor)
        assert res.galois and res.group.order() == 2, fix.name
    print("criterion  2 PASS: Galois detection (F0, F1 with C2; F2 not)")


def test_criterion_03_quotient_and_structure_theorem():
    """the C2 quotient of the double cover is the two-arrow category,
    and every Galois fixture factors through its deck quotient"""
    res = quotient(swap_action())
    k = kronecker().category
    q = res.quotient
    assert [q.dim(x, y) for x in q.objects for y in q.objects] == \
        [k.dim(x, y) for x in k.objects for y in k.objects]
    omap = dict(zip(q.objects, k.objects))
    mats = {p: Matrix.identity(q.field, q.dim(*p))
            for p in q.hom if q.dim(*p)}
    iso = LinFunctor(q, k, omap, mats)
    assert validate_functor(iso) == []
    assert functor_is_isomorphism(iso)
    for fix in (cover_f0(), cover_f1(), square_cover()):
        ref = reference_structure_iso(fix.functor)
        assert reference_structure_problems(fix.functor, ref) == [], fix.name
        assert functor_equal(
            functor_compose(ref.iso, ref.quotient_result.projection),
            fix.functor), fix.name
        assert structure_iso(fix.functor) == ref.iso.object_map, fix.name
    print("criterion  3 PASS: quotient matches the base and the structure "
          "isomorphism factors F0, F1, C1")


def test_criterion_04_lambda_surjection():
    """the C4 -> C2 morphism of covers induces a surjection of deck
    groups whose kernel is the deck group of the morphism"""
    f = cyclic_cover(4).functor
    g = cyclic_cover(2).functor
    assert f.target == g.target
    x0 = f.source.objects[0]
    d0 = fibre(g, f.object_map[x0])[0]
    res = lambda_map(f, g, d0)
    omap = extend_morphism(f, g, x0, d0)
    assert omap[x0] == d0
    h = morphism_functor(f, g, omap)
    assert functor_equal(functor_compose(g, h), f)
    ref = reference_lambda_map(CoveringMorphism(h, identity_functor(f.target)),
                               f, g)
    assert ref.mapping == res.mapping and ref.kernel == res.kernel
    assert ref.surjective
    assert res.mapping == {"e": "e", "g1": "g1", "g2": "e", "g3": "g1"}
    src, tgt = res.source_group.group, res.target_group.group
    for s in src.elements:
        for t in src.elements:
            assert res.mapping[src.mul(s, t)] == \
                tgt.mul(res.mapping[s], res.mapping[t])
    assert sorted(res.kernel) == ["e", "g2"]
    assert ref.kernel_matches_h_group and ref.h_group.order() == 2
    assert ref.h_group.object_maps == aut1(h).object_maps
    assert ref.h_is_galois
    print("criterion  4 PASS: deck-group surjection C4 -> C2 with kernel "
          "of order 2 = deck group of the morphism")


def test_criterion_05_first_cohomology_dimensions():
    """dim H1 is 3 for the two-arrow category, 0 for the discrete one,
    1 for the dual numbers"""
    assert h1(kronecker().category).dimension == 3
    assert h1(discrete().category).dimension == 0
    assert h1(loop_square_zero().category).dimension == 1
    print("criterion  5 PASS: dim H1 = 3 / 0 / 1 on the three benchmarks")


def test_criterion_06_delta_embedding():
    """in characteristic 2 the nontrivial character maps to a non-inner
    derivation and the character-to-H1 map is injective; over the
    rationals there are no additive characters at all"""
    fix = cover_f0(F2)
    f = fix.functor
    z = induced_grading(f, _first_choice(f))
    k = f.target
    chis = characters(z.group, F2)
    assert len(chis) == 1 and any(chis[0].values.values())
    d = delta(k, z, chis[0])
    assert reference_validate_derivation(d) == []
    assert not is_inner(d)
    assert delta_injectivity_check(k, z) is True
    zq = induced_grading(cover_f0().functor,
                         _first_choice(cover_f0().functor))
    assert characters(zq.group, Q) == []
    assert delta_injectivity_check(kronecker().category, zq) is True
    print("criterion  6 PASS: character embeds as a non-inner derivation "
          "in characteristic 2; no characters over the rationals")


def test_criterion_07_grading_suite(galois_matrix):
    """induced gradings are valid and connected; fibre choices differ by
    a regrade; smash and induce invert each other up to isomorphism"""
    for fix in galois_matrix:
        f = fix.functor
        choice = _first_choice(f)
        z = induced_grading(f, choice)  # built, so a grading
        assert is_connected_grading(z).connected, fix.name

    f = cover_f0().functor
    grp = is_galois(f).group
    choices = [{"s": s, "t": t} for s in fibre(f, "s") for t in fibre(f, "t")]
    base_choice = choices[0]
    z1 = induced_grading(f, base_choice)
    for other in choices:
        t = {}
        for b, x in base_choice.items():
            t[b] = next(u for u in grp.group.elements
                        if grp.object_maps[u][x] == other[b])
        z2 = induced_grading(f, other)
        assert same_components(regrade(z1, t), z2), other

    for fix in galois_matrix:
        f = fix.functor
        base = f.target
        choice = _first_choice(f)
        z = induced_grading(f, choice)
        sm = smash(base, z)
        b0 = base.objects[0]
        seed = next(o for o, (b, g) in sm.object_pairs.items()
                    if b == b0 and g == z.group.identity)
        omap = extend_morphism(sm.projection, f, seed, choice[b0])
        assert omap is not None, fix.name
        j = morphism_functor(sm.projection, f, omap)
        assert functor_is_isomorphism(j), fix.name
        assert functor_equal(functor_compose(f, j), sm.projection), fix.name

        r = is_galois(sm.projection)
        assert r.galois, fix.name
        unit = {b: next(o for o, (bb, g) in sm.object_pairs.items()
                        if bb == b and g == z.group.identity)
                for b in base.objects}
        zi = induced_grading(sm.projection, unit)
        probe = unit[b0]
        relabel = {u: sm.object_pairs[r.group.object_maps[u][probe]][1]
                   for u in zi.group.elements}
        assert sorted(relabel.values()) == sorted(z.group.elements), fix.name
        assert same_components(zi, z, relabel), fix.name
    print("criterion  7 PASS: grading suite (valid + connected + regrade "
          "relation + both smash round trips)")


def test_criterion_08_presentation_dependence():
    """the same algebra presented two ways: one presentation group has
    order 2, the other is infinite cyclic"""
    res_r = pi1_presentation(square_base_quiver(), "x")
    assert bounded_order(res_r.group, 64) == 2
    assert abelianization(res_r.group) == [2]
    res_rp = pi1_presentation(square_base_quiver_alt(), "x")
    assert abelianization(res_rp.group) == [0]
    assert bounded_order(res_rp.group, 2000) == "exceeded"
    gal = is_galois(square_cover().functor)
    assert gal.galois and gal.group.order() == 2
    print("criterion  8 PASS: presentation groups differ (order 2 vs "
          "infinite cyclic) for the same algebra")


def test_criterion_09_gset_analysis():
    """deck actions on morphism sets are transitive with normal isotropy
    and satisfy the orbit-stabilizer count"""
    pairs = [(cyclic_cover(4).functor, cyclic_cover(2).functor),
             (cover_f0().functor, cover_f0().functor)]
    for u, f in pairs:
        rep = gset_analysis(u, f)
        ref = reference_gset_analysis(u, f)
        assert rep.isotropy == ref.isotropy
        assert ref.transitive
        assert ref.isotropy_normal
        assert ref.orbit_stabilizer_ok
        assert len(rep.homs) * len(rep.isotropy) == aut1(u).order()
    print("criterion  9 PASS: transitive deck actions with normal "
          "isotropy and exact orbit-stabilizer counts")


def test_criterion_10_rigidity_sweeps(covering_matrix, galois_matrix):
    """morphisms are determined by one object value; Galois fibres all
    have deck-group size; singleton fibres force isomorphisms;
    connectivity descends along coverings"""
    for fix in covering_matrix:
        f = fix.functor
        x0 = f.source.objects[0]
        j = identity_functor(f.target)
        seen = {}
        for d0 in fibre(f, f.object_map[x0]):
            # J is the identity, so J∘F is F
            h_a = extend_morphism(f, f, x0, d0)
            h_b = extend_morphism(f, f, x0, d0)
            assert (h_a is None) == (h_b is None), fix.name
            if h_a is not None:
                assert h_a == h_b, fix.name
                assert h_a[x0] == d0, fix.name
                h = morphism_functor(f, f, h_a)
                assert reference_validate_morphism(
                    CoveringMorphism(h, j), f, f) == [], fix.name
                seen[d0] = h
        for d0, h in seen.items():
            for d1, k in seen.items():
                if d0 != d1:
                    assert not functor_equal(h, k), fix.name

    for fix in galois_matrix:
        f = fix.functor
        order = aut1(f).order()
        for b in f.target.objects:
            assert len(fibre(f, b)) == order, (fix.name, b)

    for fix in covering_matrix:
        f = fix.functor
        if all(len(fibre(f, b)) == 1 for b in f.target.objects):
            assert functor_is_isomorphism(f), fix.name

    for fix in covering_matrix:
        f = fix.functor
        if is_connected(f.source).connected:
            assert is_connected(f.target).connected, fix.name
    print("criterion 10 PASS: rigidity, fibre sizes, singleton fibres, "
          "connectivity descent across the fixture matrix")
