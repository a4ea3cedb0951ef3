"""Gradings, induced gradings, homogeneous walks, connectivity, smash."""
import pytest
from hypothesis import given, strategies as st

from grading_reference import (built_grading, composite_in_a_zero_hom,
                               grading_fields, zero_composite_path)

from lincat.covering import extend_morphism, fibre
from lincat.exactlinalg import Matrix
from lincat.fixtures import (F2, Q, cover_f0, cover_f1, identity_cover,
                             kronecker, square_base, square_cover)
from lincat.galois import is_galois
from lincat.grading import (Grading, HomogeneousWalk, HWalkStep,
                            component_span, grading_on_basis,
                            induced_grading, is_connected_grading,
                            regrade, same_components, smash,
                            trivial_grading, walk_degree)
from lincat.groups import cyclic_group, trivial_group
from lincat.kcat import (LinFunctor, functor_compose, functor_equal,
                         functor_is_isomorphism, identity_functor,
                         is_connected, validate_category, validate_functor)
from linalg_reference import from_cols


def degree_grading():
    return grading_on_basis(kronecker().category, cyclic_group(2),
                            {"a": "e", "b": "g"})


def span_names(z, x, y, s):
    """Degree component as a set of declared names, for components that
    happen to be spanned by declared basis vectors."""
    names = z.category.hom[(x, y)]
    out = set()
    for row in component_span(z, x, y, s):
        hits = [j for j, a in enumerate(row) if a]
        assert len(hits) == 1 and row[hits[0]] == 1
        out.add(names[hits[0]])
    return out


# -- construction --------------------------------------------------------

def test_degree_grading_is_valid():
    z = degree_grading()
    assert z.identity_coords == {"s": {0: 1}, "t": {0: 1}}
    assert sorted(z.inverses) == sorted(z.category.hom)


def test_trivial_grading_valid_on_every_fixture(covering_matrix):
    # on the declared basis every nonzero basis product is one product
    # of homogeneous columns
    for fix in covering_matrix:
        cat = fix.total.category
        assert len(trivial_grading(cat).products) == len(cat.comp)
        assert len(trivial_grading(cat, cyclic_group(2)).products) == \
            len(cat.comp)


def test_degenerate_columns_rejected():
    z = degree_grading()
    # duplicate column: both "homogeneous" elements are a
    dup = from_cols(Q, [[1, 0], [1, 0]])
    assert built_grading(grading_fields(
        z, basis={**z.basis, ("s", "t"): dup})) == \
        "hom('s', 't'): change of basis is singular"


def test_unknown_degree_label_rejected():
    z = degree_grading()
    assert built_grading(grading_fields(
        z, degrees={**z.degrees, ("s", "t"): ("e", "nope")})) == \
        "hom('s', 't'): unknown degree labels ['nope']"


def test_multiplicativity_violation_detected():
    b = square_base().category
    grp = cyclic_group(2)
    with pytest.raises(ValueError, match="expected g$"):
        grading_on_basis(b, grp, {"a": "e", "b": "g", "g": "e", "d": "e",
                                  "g*a": "e", "d*a": "e"})


def test_char2_square_grading_valid():
    b = square_base().category
    grp = cyclic_group(2)
    grading_on_basis(b, grp, {"a": "e", "b": "g", "g": "e", "d": "g",
                              "g*a": "e", "d*a": "g"})


def test_each_fault_is_refused_with_its_text():
    z = degree_grading()
    st_, tt = ("s", "t"), ("t", "t")
    singular = from_cols(Q, [[1, 0], [1, 0]])
    faults = [
        ({"basis": {k: m for k, m in z.basis.items() if k != tt}},
         "basis keys [('t', 't')] do not match the nonzero hom pairs"),
        ({"degrees": {k: d for k, d in z.degrees.items() if k != tt}},
         "degree keys do not match the nonzero hom pairs"),
        ({"basis": {**z.basis, st_: Matrix.identity(Q, 3)}},
         "hom('s', 't'): change of basis is 3x3, expected 2x2"),
        ({"degrees": {**z.degrees, st_: ("e",)}},
         "hom('s', 't'): 1 degree labels for 2 columns"),
        ({"degrees": {**z.degrees, tt: ("g",)}},
         "identity of t meets degrees ['g']"),
        # the first problem wins: pairs come before identities
        ({"basis": {**z.basis, st_: singular},
          "degrees": {**z.degrees, tt: ("g",)}},
         "hom('s', 't'): change of basis is singular"),
    ]
    for changes, text in faults:
        assert built_grading(grading_fields(z, **changes)) == text


# -- induced gradings ----------------------------------------------------

def test_induced_grading_of_double_cover():
    z = induced_grading(cover_f0().functor, {"s": "s0", "t": "t0"})
    assert span_names(z, "s", "t", "e") == {"a"}
    assert span_names(z, "s", "t", "g1") == {"b"}


def test_induced_grading_alternate_fibre_choice_swaps_degrees():
    z = induced_grading(cover_f0().functor, {"s": "s0", "t": "t1"})
    assert span_names(z, "s", "t", "e") == {"b"}
    assert span_names(z, "s", "t", "g1") == {"a"}


def test_induced_grading_identity_cover_is_trivial():
    z = induced_grading(identity_cover().functor, {"s": "s", "t": "t"})
    assert z.group.order() == 1
    assert same_components(z, trivial_grading(kronecker().category),
                           {"e": "e"})


def test_induced_grading_mixing_cover_needs_base_change():
    # the second cover sends a_j to a+b, so its degree components are
    # spanned by a+b and b rather than by declared basis vectors
    z = induced_grading(cover_f1().functor, {"s": "s0", "t": "t0"})
    rows_e = component_span(z, "s", "t", "e")
    assert len(rows_e) == 1 and all(rows_e[0])


def test_induced_grading_rejects_bad_fibre_choice():
    with pytest.raises(ValueError):
        induced_grading(cover_f0().functor, {"s": "s0", "t": "s1"})


def test_induced_grading_refuses_a_choice_off_the_base():
    with pytest.raises(ValueError, match=r"^fibre choice names 'nope', "
                       "which is not an object of the base$"):
        induced_grading(cover_f0().functor,
                        {"s": "s0", "t": "t0", "nope": "s0"})


def test_induced_grading_rejects_non_galois():
    from lincat.fixtures import cover_f2
    with pytest.raises(ValueError):
        induced_grading(cover_f2().functor, {"s": "s0", "t": "t0"})


# -- regrading -----------------------------------------------------------

def test_regrade_by_identity_family_is_identity():
    z = degree_grading()
    z2 = regrade(z, {"s": "e", "t": "e"})
    assert z2 == z


def test_regrade_swaps_kronecker_degrees():
    z = degree_grading()
    z2 = regrade(z, {"s": "e", "t": "g"})
    assert span_names(z2, "s", "t", "e") == {"b"}
    assert span_names(z2, "s", "t", "g") == {"a"}


def test_regrade_by_constant_family_conjugates():
    # abelian group, so conjugation fixes every label
    z = induced_grading(cover_f0().functor, {"s": "s0", "t": "t0"})
    z2 = regrade(z, {"s": "g1", "t": "g1"})
    assert z2 == z


def test_regrade_refuses_an_invalid_grading():
    # an invalid grading is refused when it is built, before regrade
    z = degree_grading()
    with pytest.raises(ValueError, match="unknown degree labels"):
        regrade(Grading(z.group, z.category, z.basis,
                        {**z.degrees, ("s", "t"): ("zz", "g")}),
                {"s": "e", "t": "e"})


def test_regrade_refuses_a_shift_off_the_objects():
    with pytest.raises(ValueError, match=r"^shift names 'nope', which is "
                       "not an object of the category$"):
        regrade(degree_grading(), {"s": "e", "t": "e", "nope": "g"})


# -- walk degrees --------------------------------------------------------

def test_walk_degree_examples():
    z = degree_grading()
    assert walk_degree(z, HomogeneousWalk("s")) == "e"
    w = HomogeneousWalk("s", (HWalkStep("s", "t", 0, 1),
                              HWalkStep("s", "t", 1, -1)))
    assert walk_degree(z, w) == "g"
    w2 = HomogeneousWalk("s", (HWalkStep("s", "t", 1, 1),
                               HWalkStep("s", "t", 1, -1)))
    assert walk_degree(z, w2) == "e"


def test_walk_degree_rejects_broken_chain():
    z = degree_grading()
    w = HomogeneousWalk("s", (HWalkStep("s", "t", 0, 1),
                              HWalkStep("s", "t", 0, 1)))
    with pytest.raises(ValueError):
        walk_degree(z, w)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                max_size=6),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                max_size=6))
def test_walk_degree_multiplicative_under_concat(bits1, bits2):
    z = degree_grading()

    def closed_walk(bits):
        steps = []
        for up, down in bits:
            steps.append(HWalkStep("s", "t", up, 1))
            steps.append(HWalkStep("s", "t", down, -1))
        return HomogeneousWalk("s", tuple(steps))

    w1, w2 = closed_walk(bits1), closed_walk(bits2)
    both = w1.concat(w2)
    assert walk_degree(z, both) == z.group.mul(walk_degree(z, w2),
                                               walk_degree(z, w1))


# -- connectivity --------------------------------------------------------

def test_induced_grading_is_connected():
    z = induced_grading(cover_f0().functor, {"s": "s0", "t": "t0"})
    rep = is_connected_grading(z)
    assert rep.connected
    w = rep.walks[("t", "g1")]
    assert w.start == "s" or w.end == "t"
    assert walk_degree(z, w) == "g1" and w.end == "t"


def test_trivial_nontrivial_group_grading_is_not_connected():
    rep = is_connected_grading(trivial_grading(kronecker().category,
                                               cyclic_group(2)))
    assert not rep.connected
    assert ("s", "g") in rep.missing and ("t", "g") in rep.missing


def test_trivial_group_grading_connected_iff_category_is():
    from lincat.fixtures import disconnected_double_kronecker
    assert is_connected_grading(
        trivial_grading(kronecker().category)).connected
    assert not is_connected_grading(
        trivial_grading(disconnected_double_kronecker().category)).connected


def test_connectivity_witnesses_are_valid_walks():
    z = degree_grading()
    rep = is_connected_grading(z)
    for (obj, s), w in rep.walks.items():
        assert w.end == obj
        assert walk_degree(z, w) == s


# -- smash ---------------------------------------------------------------

def test_smash_of_graded_kronecker_is_the_double_cover():
    sm = smash(kronecker().category, degree_grading())
    assert validate_category(sm.category) == []
    assert validate_functor(sm.projection) == []
    r = is_galois(sm.projection)
    assert r.galois and r.group.order() == 2
    total = cover_f0().functor.source
    iso = LinFunctor.on_basis(
        sm.category, total,
        {"s@e": "s0", "s@g": "s1", "t@e": "t0", "t@g": "t1"},
        {"a@e": {"a0": 1}, "b@e": {"b0": 1}, "a@g": {"a1": 1},
         "b@g": {"b1": 1}, "1_s@e": {"1_s0": 1}, "1_s@g": {"1_s1": 1},
         "1_t@e": {"1_t0": 1}, "1_t@g": {"1_t1": 1}})
    assert validate_functor(iso) == []
    assert functor_is_isomorphism(iso)
    assert functor_equal(functor_compose(cover_f0().functor, iso),
                         sm.projection)


def test_smash_with_trivial_group_returns_the_category():
    k = kronecker().category
    sm = smash(k, trivial_grading(k))
    assert sm.category is k
    assert functor_equal(sm.projection, identity_functor(k))


def test_smash_of_unconnected_grading_is_not_galois():
    from lincat.covering import check_covering
    k = kronecker().category
    sm = smash(k, trivial_grading(k, cyclic_group(2)))
    assert check_covering(sm.projection).ok
    assert not is_connected(sm.category).connected
    r = is_galois(sm.projection)
    assert not r.galois and "connected" in r.reason


def test_smash_rejects_invalid_grading():
    # an invalid grading is refused when it is built, before smash
    z = degree_grading()
    with pytest.raises(ValueError, match="unknown degree labels"):
        smash(kronecker().category,
              Grading(z.group, z.category, z.basis,
                      {**z.degrees, ("s", "t"): ("e", "bogus")}))


def test_composite_in_a_zero_hom_is_refused():
    # the product loop of the grading check has nothing to compose into
    # hom(x,z), so the category itself refuses the composite
    with pytest.raises(ValueError, match=r"^b∘a has a term a outside "
                       r"hom\('x', 'z'\)$"):
        composite_in_a_zero_hom()
    # with b∘a = 0 the same grading is one, and smash builds a category
    c = zero_composite_path()
    z = grading_on_basis(c, cyclic_group(2), {"a": "g", "b": "g"})
    assert validate_category(smash(c, z).category) == []
    assert regrade_by_e(z) == z


def regrade_by_e(z):
    return regrade(z, {o: z.group.identity for o in z.category.objects})


# -- round trips and coherence across the Galois fixtures -----------------

def first_fibre_choice(f):
    return {b: fibre(f, b)[0] for b in f.target.objects}


def roundtrip_a(fix):
    """smash of the induced grading is the original covering, up to an
    isomorphism over the identity of the base."""
    f = fix.functor
    base = f.target
    choice = first_fibre_choice(f)
    z = induced_grading(f, choice)
    sm = smash(base, z)
    b0 = base.objects[0]
    seed = next(o for o, (b, g) in sm.object_pairs.items()
                if b == b0 and g == z.group.identity)
    j = extend_morphism(sm.projection, f, identity_functor(base),
                        seed, choice[b0])
    assert j is not None and functor_is_isomorphism(j), fix.name
    assert functor_equal(functor_compose(f, j), sm.projection), fix.name


def roundtrip_b(fix):
    """re-inducing from the smash recovers the grading, after renaming
    deck elements through their translation of the identity copy."""
    f = fix.functor
    base = f.target
    z = induced_grading(f, first_fibre_choice(f))
    sm = smash(base, z)
    r = is_galois(sm.projection)
    assert r.galois
    unit = {b: next(o for o, (bb, g) in sm.object_pairs.items()
                    if bb == b and g == z.group.identity)
            for b in base.objects}
    zi = induced_grading(sm.projection, unit)
    probe = unit[base.objects[0]]
    relabel = {u: sm.object_pairs[r.group.functor(u).object_map[probe]][1]
               for u in zi.group.elements}
    assert sorted(relabel.values()) == sorted(z.group.elements), fix.name
    assert same_components(zi, z, relabel), fix.name


def test_smash_roundtrips_across_galois_matrix(galois_matrix):
    for fix in galois_matrix:
        roundtrip_a(fix)
        roundtrip_b(fix)


def test_every_induced_grading_is_connected(galois_matrix):
    for fix in galois_matrix:
        z = induced_grading(fix.functor, first_fibre_choice(fix.functor))
        assert is_connected_grading(z).connected, fix.name


def test_fibre_choices_differ_by_a_regrade(galois_matrix):
    for fix in galois_matrix:
        f = fix.functor
        grp = is_galois(f).group
        choice = first_fibre_choice(f)
        z = induced_grading(f, choice)
        for u in grp.group.elements:
            moved = {b: grp.functor(u).object_map[x]
                     for b, x in choice.items()}
            z2 = induced_grading(f, moved)
            t = {b: u for b in f.target.objects}
            assert same_components(regrade(z, t), z2), (fix.name, u)
