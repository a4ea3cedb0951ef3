"""Differential test of bounded_order against the plain HLT enumeration it
replaced, kept here as the reference: the library skips the scans of a
proper-power relator uᵏ at the cosets c·uʲ of a cycle it has already
scanned closed, on a per-letter table; the reference scans every relator
at every live coset, on a dict per coset.  The skipped scans are no-ops,
so both define the same cosets in the same order and must agree on every
result, "exceeded" included.  The library does not enumerate at all when
the abelianization has a free factor: the table could only close on a
finite group, so the reference must run out of cosets there."""
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from lincat.fixtures import square_base_quiver, square_base_quiver_alt
from lincat.formats import presentation_from_text
from lincat.pi1pres import FPGroup, bounded_order, free_reduce, \
    pi1_presentation
from lincat.registry import fixture_files


class _ReferenceExceeded(Exception):
    pass


def reference_bounded_order(g, max_cosets):
    """The plain HLT bounded_order, verbatim in behaviour."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    relators = [w for w in (free_reduce(r) for r in g.relators) if w]
    n = len(g.generators)
    letters = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]
    parent = [0, 1]
    table = [{}, {}]

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c, x):
        if len(table) - 1 >= max_cosets:
            raise _ReferenceExceeded
        d = len(table)
        parent.append(d)
        table.append({})
        table[c][x] = d
        table[d][-x] = c
        return d

    def coincidence(a, b):
        queue = deque()

        def merge(u, v):
            u, v = rep(u), rep(v)
            if u == v:
                return
            if u > v:
                u, v = v, u
            parent[v] = u
            queue.append(v)

        merge(a, b)
        while queue:
            dead = queue.popleft()
            entries = table[dead]
            table[dead] = {}
            for x, d in entries.items():
                u, v = rep(dead), rep(d)
                if x in table[u]:
                    merge(table[u][x], v)
                else:
                    table[u][x] = v
                u, v = rep(d), rep(dead)
                if -x in table[u]:
                    merge(table[u][-x], v)
                else:
                    table[u][-x] = v

    def scan_and_fill(start, w):
        f = b = rep(start)
        i, j = 0, len(w) - 1
        while True:
            while i <= j and w[i] in table[f]:
                f = rep(table[f][w[i]])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and -w[j] in table[b]:
                b = rep(table[b][-w[j]])
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][w[i]] = b
                table[b][-w[i]] = f
                return
            define(f, w[i])

    try:
        idx = 1
        while idx < len(table):
            if rep(idx) != idx:
                idx += 1
                continue
            for w in relators:
                scan_and_fill(idx, w)
                if rep(idx) != idx:
                    break
            if rep(idx) == idx:
                for x in letters:
                    if x not in table[idx]:
                        define(idx, x)
            idx += 1
    except _ReferenceExceeded:
        return "exceeded"
    return sum(1 for c in range(1, len(table)) if rep(c) == c)


def assert_same(g, bounds):
    for bound in bounds:
        assert bounded_order(g, bound) == \
            reference_bounded_order(g, bound), (g.relators, bound)


def power(w, k):
    return tuple(w) * k


@pytest.mark.parametrize("n", [3, 50, 100, 1000])
def test_dihedral(n):
    # ⟨a, b | aⁿ, b², abab⁻¹⟩ has order 2n; HLT needs more than 2n cosets
    g = FPGroup(("a", "b"), (power((1,), n), (2, 2), (1, 2, 1, -2)))
    assert bounded_order(g, 16 * n + 64) == 2 * n
    assert_same(g, [2 * n, 16 * n + 64])


def reference_definitions(g):
    """The number of cosets the reference defines before its table
    closes: the least bound at which it answers an order."""
    bound = 1
    while reference_bounded_order(g, bound) == "exceeded":
        bound += 1
    return bound


@pytest.mark.parametrize("g,order", [
    *((FPGroup(("a", "b"), (power((1,), n), (2, 2), (1, 2, 1, -2))), 2 * n)
      for n in range(1, 13)),
    (FPGroup(("i", "j"), (power((1,), 4), (1, 1, -2, -2), (2, 1, -2, 1))),
     8),
    (FPGroup(("a", "b"), (power((1,), 3), (2, 2), power((1, 2), 2))), 6),
], ids=[f"D{n}" for n in range(1, 13)] + ["Q8", "S3"])
def test_every_bound_up_to_the_exact_limit(g, order):
    # "exceeded" at one coset short of what the reference defines, the
    # order from there on
    limit = reference_definitions(g)
    assert_same(g, range(1, limit + 2))
    assert bounded_order(g, limit - 1) == "exceeded"
    assert bounded_order(g, limit) == bounded_order(g, limit + 1) == order


@pytest.mark.parametrize("n", [2, 3, 5, 12, 40])
def test_coxeter_dihedral(n):
    # ⟨a, b | a², b², (ab)ⁿ⟩, the dihedral group again, of order 2n
    g = FPGroup(("a", "b"), ((1, 1), (2, 2), power((1, 2), n)))
    assert bounded_order(g, 8 * n + 16) == 2 * n
    assert_same(g, [n, 2 * n, 8 * n + 16])


@pytest.mark.parametrize("relators", [
    ((1, -2, 1, -2, 1, -2), (1, 1), (2, 2)),
    (power((-1, -2), 4), power((1,), 3), power((-2,), 2)),
    (power((1, -2, -1, 2), 2), power((-1,), 4), power((2,), 4)),
    (power((1, 1, -2), 3), power((2, -1), 2)),
    (power((-3, 2, -1), 2), power((1,), 2), power((-2,), 3),
     power((3,), 2)),
], ids=["(ab^-1)^3", "(a^-1b^-1)^4", "[a,b]^2", "(aab^-1)^3",
        "(c^-1ba^-1)^2"])
def test_powers_of_roots_with_inverse_letters(relators):
    g = FPGroup(("a", "b", "c")[:max(abs(x) for w in relators for x in w)],
                relators)
    assert_same(g, [5, 30, 200, 1000])


@pytest.mark.parametrize("relators,order", [
    (((2, 2, 2), (2, 2, 2, 2, 1)), 3),
    (((2, 2, 2), (2, 1, 2, 1, 1)), 9),
    (((1, 1, 1), (2, 2, 2, 2, 1)), 12),
], ids=["b^3,b^4a", "b^3,(ba)^2a", "a^3,b^4a"])
def test_powers_with_a_tail(relators, order):
    # uᵏv is no power: it may hold at c and fail at c·u
    g = FPGroup(("a", "b"), relators)
    assert bounded_order(g, 200) == order
    assert_same(g, [5, 30, 200])


@pytest.mark.parametrize("relators", [
    (), ((1, 2, -1, -2),), ((1, 1),), ((1, 2, -1, -2), (2, 2)),
    ((1, 2, 1, -2),),
], ids=["free", "ZxZ", "Z/2*Z", "ZxZ/2", "Klein-bottle"])
def test_free_abelian_factor_exceeded(relators):
    # the library answers "exceeded" from the abelianization, the
    # reference by running out of cosets
    g = FPGroup(("a", "b"), relators)
    assert bounded_order(g, 200) == "exceeded"
    assert_same(g, [1, 5, 200])


def test_gdlp_and_square_base_groups():
    texts = [t for t in fixture_files("gdlp-base").values()
             if isinstance(t, str)]
    quivers = [presentation_from_text(t) for t in texts] + \
        [square_base_quiver(), square_base_quiver_alt()]
    assert len(quivers) == 4
    for q in quivers:
        for base in q.vertices:
            assert_same(pi1_presentation(q, base).group, [1, 2, 5, 40, 200])


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 3))
    letter = st.integers(1, n).flatmap(lambda i: st.sampled_from((i, -i)))
    word = st.lists(letter, min_size=1, max_size=3)
    # proper powers, plain words, and powers with a tail, which look like
    # powers from the front
    relators = draw(st.lists(st.one_of(
        st.tuples(word, st.integers(2, 6)).map(lambda uk: power(*uk)),
        st.lists(letter, min_size=1, max_size=8).map(tuple),
        st.tuples(word, st.integers(2, 4), word).map(
            lambda ukv: power(*ukv[:2]) + tuple(ukv[2]))), max_size=4))
    return FPGroup(("a", "b", "c")[:n], tuple(relators)), \
        draw(st.sampled_from([5, 30, 200]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=presentations())
def test_random_presentations(case):
    g, bound = case
    assert_same(g, [bound])
