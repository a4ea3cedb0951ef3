"""Group.check decides associativity by Light's test on a generating set;
the cubic scan it replaced is kept here verbatim as the reference.  Both
must refuse the same tables with the same problem list, witness included,
on groups and on non-associative loops (Latin squares with an identity,
all 56 normalized ones of order 5)."""
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from lincat.groups import Group, cyclic_group


def reference_problems(elements, identity, table):
    """Group.check with the n³ associativity scan."""
    index = {e: i for i, e in enumerate(elements)}
    problems = []
    if len(set(elements)) != len(elements):
        problems.append("duplicate element names")
    if identity not in index:
        problems.append("identity not among elements")
        return problems
    for s in elements:
        for t in elements:
            if table.get((s, t)) not in index:
                problems.append(f"missing or foreign product {s}*{t}")
                return problems
    for s in elements:
        if table[(identity, s)] != s or table[(s, identity)] != s:
            problems.append(f"{identity} is not a two-sided identity on {s}")
    for s in elements:
        row = {table[(s, t)] for t in elements}
        col = {table[(t, s)] for t in elements}
        if len(row) != len(elements) or len(col) != len(elements):
            problems.append(f"{s} is not invertible")
    for a in elements:
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    problems.append(f"associativity fails on ({a},{b},{c})")
                    return problems
    return problems


def assert_same_verdict(elements, identity, table):
    want = reference_problems(elements, identity, table)
    if not want:
        assert Group(elements, identity, table).check() == []
        return
    with pytest.raises(ValueError) as err:
        Group(elements, identity, table)
    assert str(err.value) == "not a group table: " + "; ".join(want)


def normalized_latin_squares(n):
    """Every n×n Latin square whose first row and column are 0..n-1: the
    multiplication tables of the loops on 0..n-1 with identity 0."""
    rows = [list(range(n))]
    out = []

    def fill(r):
        if r == n:
            out.append([row[:] for row in rows])
            return
        for perm in permutations(range(n)):
            if perm[0] == r and all(perm[j] != rows[i][j]
                                    for i in range(r) for j in range(n)):
                rows.append(list(perm))
                fill(r + 1)
                rows.pop()
    fill(1)
    return out


LOOPS_5 = normalized_latin_squares(5)


def table_of(square, names):
    n = len(square)
    return {(names[i], names[j]): names[square[i][j]]
            for i in range(n) for j in range(n)}


def test_loops_of_order_5():
    assert len(LOOPS_5) == 56
    groups = 0
    for square in LOOPS_5:
        names = tuple("eabcd")
        if not reference_problems(names, "e", table_of(square, names)):
            groups += 1
        assert_same_verdict(names, "e", table_of(square, names))
    # C5 is the only group of order 5; its normalized squares are the
    # 4! / |Aut C5| = 6 labellings of 1..4
    assert groups == 6


def test_associativity_witness_text():
    square = [[0, 1, 2, 3, 4],
              [1, 0, 3, 4, 2],
              [2, 4, 0, 1, 3],
              [3, 2, 4, 0, 1],
              [4, 3, 1, 2, 0]]
    names = tuple("eabcd")
    with pytest.raises(ValueError, match=r"^not a group table: "
                                         r"associativity fails on \(a,a,b\)$"):
        Group(names, "e", table_of(square, names))


def cyclic_square(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_square(a, b):
    """The direct product of two loops, (i, j) numbered i·|b| + j."""
    m = len(b)
    return [[a[i1][i2] * m + b[j1][j2] for i2 in range(len(a))
             for j2 in range(m)]
            for i1 in range(len(a)) for j1 in range(m)]


FACTORS = st.one_of(st.integers(1, 4).map(cyclic_square),
                    st.sampled_from(LOOPS_5))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_light_matches_the_cubic_scan(data):
    # groups, loops, and products of them; a product of a group with a
    # non-associative loop has generators that pass Light's condition
    square = data.draw(FACTORS)
    if data.draw(st.booleans()):
        square = product_square(square, data.draw(FACTORS))
    n = len(square)
    names = data.draw(st.permutations([f"x{i}" for i in range(n)]))
    table = table_of(square, names)
    if n > 1 and data.draw(st.booleans()):
        # one product changed: breaks identity, invertibility or
        # associativity, or some of them at once
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[(names[i], names[j])] = names[k]
    identity = names[0] if data.draw(st.integers(0, 4)) else names[-1]
    assert_same_verdict(tuple(names), identity, table)


def test_light_makes_far_fewer_products(monkeypatch):
    calls = []
    real = Group.mul
    c64 = cyclic_group(64)

    def counted(self, s, t):
        calls.append(1)
        return real(self, s, t)
    monkeypatch.setattr(Group, "mul", counted)
    Group(c64.elements, c64.identity, c64.table)
    assert len(calls) < 64 ** 3 // 8


def test_cyclic_groups_are_groups_by_construction(monkeypatch):
    """cyclic_group checks no axiom, and its table passes the check
    with the same inverses."""
    monkeypatch.setattr(Group, "check", lambda self: pytest.fail("checked"))
    groups = [cyclic_group(n) for n in range(1, 13)]
    monkeypatch.undo()
    for g in groups:
        checked = Group(g.elements, g.identity, g.table)
        assert g == checked
        assert [g.inv(s) for s in g.elements] == \
            [checked.inv(s) for s in g.elements]
