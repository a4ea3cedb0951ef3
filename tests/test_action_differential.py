"""Differential test of the GroupAction decision (galois.check_action)
against the all-pairs check it replaced, kept here as the reference: the
library checks F_(s·g) = F_s∘F_g for the generators g only and stops at
the first problem, and leaves out the reference's automorphism check,
which the unit law and compatibility imply.  On valid actions and on
actions made wrong on purpose, GroupAction must build iff the reference
finds no problem, and each refusal must name one of the reference's
problems."""
from dataclasses import dataclass

import pytest

from lincat import galois
from lincat.covering import aut1
from lincat.exactlinalg import FieldSpec
from lincat.fixtures import (cover_f0, cover_f1, cyclic_cover, identity_cover,
                             square_cover, swap_action)
from lincat.galois import GroupAction
from lincat.groups import Group, cyclic_group
from lincat.kcat import (LinCat, LinFunctor, functor_equal,
                         functor_from_arrows, identity_functor,
                         validate_functor)
from linalg_reference import entries, row_major
from lincat_reference import (deck_functors, functor_compose,
                              functor_is_isomorphism, shift_functor,
                              shift_subgroup_action)

F3 = FieldSpec(3)


def reference_check_action(a):
    """check_action with the n² compatibility scan, verbatim in behaviour."""
    problems = []
    for s in a.group.elements:
        if s not in a.functors:
            problems.append(f"no functor for group element {s}")
            return problems
        f = a.functors[s]
        if f.source != a.category or f.target != a.category:
            problems.append(f"functor of {s} is not an endofunctor of the category")
            return problems
        if validate_functor(f):
            problems.append(f"functor of {s} is not functorial")
        if not functor_is_isomorphism(f):
            problems.append(f"functor of {s} is not an automorphism")
    ident = a.functors[a.group.identity]
    if not functor_equal(ident, identity_functor(a.category)):
        problems.append("identity element does not act as the identity functor")
    for s in a.group.elements:
        for t in a.group.elements:
            st = a.group.mul(s, t)
            if not functor_equal(functor_compose(a.functors[s], a.functors[t]),
                                 a.functors[st]):
                problems.append(f"action is not compatible: {s}·{t} ≠ {st} on functors")
    for s in a.group.elements:
        if s == a.group.identity:
            continue
        for x in a.category.objects:
            if a.apply_object(s, x) == x:
                problems.append(f"action is not free: {s}·{x} = {x}")
    return problems


@dataclass
class Unchecked:
    """The fields of a GroupAction, not decided: what the reference reads."""
    group: Group
    functors: dict[str, LinFunctor]
    category: LinCat

    def apply_object(self, s: str, x: str) -> str:
        return self.functors[s].object_map[x]


def unchecked(a) -> Unchecked:
    return Unchecked(a.group, dict(a.functors), a.category)


def shift_actions():
    """Every shift-subgroup action on cyclic_cover(n), n = 1..8."""
    for n in range(1, 9):
        for k in range(n):
            yield f"shift-{n}-{k}", unchecked(shift_subgroup_action(n, k))


def two_generator_action():
    """C6 shifting cyclic_cover(6), its elements listed so that
    Group.generators() returns two generators (g2, then g3)."""
    a = shift_subgroup_action(6, 1)
    grp = a.group
    order = ("e", "g2", "g3", "g", "g4", "g5")
    return Unchecked(Group(order, grp.identity, grp.table), dict(a.functors),
                     a.category)


def valid_actions():
    yield "swap", unchecked(swap_action())
    yield "swap-F3", unchecked(swap_action(F3))
    yield "shift-F3", unchecked(shift_subgroup_action(4, 1, F3))
    yield from shift_actions()
    yield "two-generators", two_generator_action()
    for fix in (cover_f0(), cover_f1(), identity_cover(), cyclic_cover(3),
                square_cover()):
        grp = aut1(fix.functor)
        yield f"deck-{fix.name}", Unchecked(
            grp.group, deck_functors(fix.functor, grp), fix.functor.source)


def exchanged(a, s, t):
    """a with the functors of s and t swapped: each stays an
    automorphism, but the object images no longer follow the table."""
    fs = dict(a.functors)
    fs[s], fs[t] = fs[t], fs[s]
    return Unchecked(a.group, fs, a.category)


def scaled(a, s, factor=2):
    """a with one block of F_s scaled: still an automorphism of the
    Kronecker cover (no composable arrows), but not compatible."""
    f = a.functors[s]
    pair = f.source.pairs[-1]
    m = f.matrices[pair]
    fld = m.field
    block = row_major(fld, m.rows, m.cols,
                      [fld.reduce(factor * v) for v in entries(m)])
    fs = dict(a.functors)
    fs[s] = LinFunctor(f.source, f.target, f.object_map,
                       {**f.matrices, pair: block})
    return Unchecked(a.group, fs, a.category)


def perturbed_actions():
    for n in (2, 3, 4, 6):
        a = shift_subgroup_action(n, 1)
        els = a.group.elements
        yield f"exchange-e-{n}", exchanged(a, els[0], els[1])
        yield f"scale-gen-{n}", scaled(a, els[1])
        yield f"scale-last-{n}", scaled(a, els[-1])
        yield f"scale-e-{n}", scaled(a, els[0])
        yield f"zero-gen-{n}", scaled(a, els[1], 0)
        if n > 3:  # on C3, g <-> g2 is an automorphism of the group
            yield f"exchange-{n}", exchanged(a, els[1], els[2])
    yield "exchange-F3", exchanged(shift_subgroup_action(4, 1, F3), "g", "g2")
    yield "scale-F3", scaled(shift_subgroup_action(3, 1, F3), "g2")
    a = two_generator_action()
    yield "two-generators-scaled", scaled(a, "g3")
    total = cyclic_cover(4).total
    trivial = shift_subgroup_action(4, 2)
    yield "not-free", Unchecked(
        trivial.group, {s: shift_functor(total, 4, 0)
                        for s in trivial.group.elements}, total.category)
    yield "not-free-exchanged", exchanged(trivial, "e", "g")
    # C1 acting by a shift: no generator, so only the unit law catches it
    total = cyclic_cover(3).total
    yield "shifted-unit", Unchecked(cyclic_group(1),
                                    {"e": shift_functor(total, 3, 1)},
                                    total.category)
    # g folding the double cover onto one sheet: functorial, not
    # invertible, so g·g is not the identity
    total = cyclic_cover(2).total
    fold = functor_from_arrows(
        total, total.category, {x: x[0] + "0" for x in total.category.objects},
        {f"{a}{i}": {"a0": 1} for a in "ab" for i in range(2)})
    yield "fold", Unchecked(cyclic_group(2), {
        "e": identity_functor(total.category), "g": fold}, total.category)


def cases(actions):
    return [pytest.param(a, id=name) for name, a in actions]


def build(a) -> GroupAction:
    return GroupAction(a.group, a.functors, a.category)


@pytest.mark.parametrize("action", cases(valid_actions()))
def test_valid_actions_agree(action):
    assert reference_check_action(action) == []
    assert galois.check_action(action) is None
    assert build(action).functors == action.functors


@pytest.mark.parametrize("action", cases(perturbed_actions()))
def test_perturbed_actions_agree(action):
    want = reference_check_action(action)
    assert want  # each perturbation is caught
    with pytest.raises(ValueError) as refused:
        build(action)
    assert str(refused.value) in want
    assert galois.check_action(action) == str(refused.value)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_cyclic_action_composes_n_times(n, monkeypatch):
    """F_s∘F_g = F_(s·g) is decided once per element s for the one
    generator g, without building a composite functor: the only functor
    built is the identity that F_e is compared with."""
    a = unchecked(shift_subgroup_action(n, 1))
    identity = identity_functor(a.category)
    calls, built = [], []
    composes_to = galois._composes_to

    def counted(fs, fg, h):
        calls.append(1)
        return composes_to(fs, fg, h)

    def constructed(self, _real=LinFunctor.__post_init__):
        built.append(self)
        return _real(self)

    monkeypatch.setattr(galois, "_composes_to", counted)
    monkeypatch.setattr(LinFunctor, "__post_init__", constructed)
    build(a)
    assert len(calls) == n  # one generator, n elements: not n²
    assert built == [identity]


@pytest.mark.parametrize("action", cases(
    [(f"shift-{n}", unchecked(shift_subgroup_action(n, 1)))
     for n in (2, 3, 5, 8)]
    + [("two-generators", two_generator_action())]))
def test_valid_action_validates_the_generators_only(action, monkeypatch):
    calls = []
    validate = galois.validate_functor

    def counted(f):
        calls.append(f)
        return validate(f)

    monkeypatch.setattr(galois, "validate_functor", counted)
    build(action)
    gens = action.group.generators()
    assert len(calls) == len(gens)
    assert all(f is action.functors[g] for f, g in zip(calls, gens))


@pytest.mark.parametrize("name,problem", [
    ("fold", "action is not compatible: g·g ≠ e on functors"),
    ("shifted-unit", "identity element does not act as the identity functor"),
    ("scale-e-2", "identity element does not act as the identity functor"),
    ("zero-gen-2", "functor of g is not functorial"),
    ("scale-last-4", "action is not compatible: g2·g ≠ g3 on functors"),
    ("not-free", "action is not free: g·s0 = s0"),
])
def test_refusals_follow_the_check_order(name, problem):
    action = dict(perturbed_actions())[name]
    with pytest.raises(ValueError, match=f"^{problem}$"):
        build(action)


def test_functors_must_match_the_elements():
    a = unchecked(swap_action())
    fs = dict(a.functors)
    fs["zzz"] = fs.pop("g")
    with pytest.raises(ValueError, match="^functors names 'zzz', which is "
                                         "not a group element$"):
        build(Unchecked(a.group, fs, a.category))
    del fs["zzz"]
    with pytest.raises(ValueError, match="^no functor for group element g$"):
        build(Unchecked(a.group, fs, a.category))


def test_each_action_is_decided_once_when_built(monkeypatch):
    fields = unchecked(shift_subgroup_action(4, 1))
    calls = []
    check = galois.check_action

    def counted(a):
        calls.append(a)
        return check(a)

    monkeypatch.setattr(galois, "check_action", counted)
    a = build(fields)
    assert calls == [a]
    galois.quotient(a)
    assert calls == [a]
