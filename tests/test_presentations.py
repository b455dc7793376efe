"""Presentations of the built-in groups against the law checks they replace.

A presentation is only as good as its relations: a missing one would pass
generator rows that extend to no action, and a wrong one would refuse a true
action. The oracle is the row compare: extend the generator rows along the
spanning tree (the row of s * parent is row s after the row of parent) and
run first_law_failure on every row. The relator check must pass exactly when
that does."""

import functools
import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_card import groups
from groupoid_card.categorified import cycle_tuple_action, cycle_tuple_actions, verify_categorified
from groupoid_card.functors import (
    EquivariantFunctor,
    category_of_elements,
    make_cycle_tuple_functor,
    make_fixed_point_functor,
    make_trivial_functor,
    validate_functor,
    verify_general_theorem,
)
from groupoid_card.groupoids import GroupAction, first_law_failure, first_relation_failure, orbit_decomposition
from groupoid_card.permutations import CapExceededError, iter_pvectors
from law_cases import law_caps, rows_of

PRESENTED = {
    **{f"S{n}": (lambda n=n: groups.SymmetricGroup(n)) for n in range(6)},
    **{f"Z{k}": (lambda k=k: groups.CyclicGroup(k)) for k in range(1, 6)},
    "Z2xZ2": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(2)),
    "Z2xZ3": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(3)),
    "Z2xS3": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.SymmetricGroup(3)),
    "S3xZ2xZ2": lambda: groups.ProductGroup(
        groups.SymmetricGroup(3), groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(2))),
}


def word_element(group, word):
    return functools.reduce(group.mul, word, group.identity)


def tree_rows(group, generator_rows, size):
    """Every row, extended from the generators' rows along the spanning tree."""
    rows = [None] * group.order
    rows[group.identity] = list(range(size))
    for child, s, parent in group.spanning_tree()[1]:
        rows[child] = [generator_rows[s][t] for t in rows[parent]]
    return rows


def in_range(group, generator_rows, size):
    return all(0 <= t < size for s in group.presentation()[0] for t in generator_rows[s])


def relations_hold(group, generator_rows, size):
    """The relator check's verdict, straight from the kernel."""
    return in_range(group, generator_rows, size) and first_relation_failure(
        generator_rows, group.presentation()[1], size) is None


def extends_to_an_action(group, generator_rows, size):
    """The row compare's verdict on the tree-extended rows."""
    return in_range(group, generator_rows, size) and first_law_failure(
        tree_rows(group, generator_rows, size), group.multiplication_row, group.spanning_tree()[0]) is None


@pytest.mark.parametrize("name", sorted(PRESENTED))
def test_relations_hold_in_the_group(name):
    group = PRESENTED[name]()
    generators, relations = group.presentation()
    assert len(set(generators)) == len(generators) and group.identity not in generators
    assert group.spanning_tree()[0] == generators
    for lhs, rhs in relations:
        assert set(lhs + rhs) <= set(generators)
        assert word_element(group, lhs) == word_element(group, rhs), (lhs, rhs)


def test_presentation_sizes():
    for n, (k, relations, letters) in {0: (0, 0, 0), 1: (0, 0, 0), 2: (1, 1, 2), 3: (2, 4, 24), 6: (2, 6, 74)}.items():
        generators, rels = groups.SymmetricGroup(n).presentation()
        assert (len(generators), len(rels), sum(len(a) + len(b) for a, b in rels)) == (k, relations, letters)
    # s^5 = e; and the factors' 2 + 24 letters plus 2 commutators of 4 letters.
    assert groups.CyclicGroup(5).presentation() == ([1], [((1,) * 5, ())])
    z2_s3 = PRESENTED["Z2xS3"]().presentation()
    assert (len(z2_s3[1]), sum(len(a) + len(b) for a, b in z2_s3[1])) == (1 + 4 + 2, 2 + 24 + 8)
    cayley = groups.from_cayley_table(groups.CyclicGroup(4).multiplication_table())
    assert cayley.presentation() is None
    assert groups.ProductGroup(cayley, groups.CyclicGroup(2)).presentation() is None


# Every assignment of permutations of a small carrier to the generators.
# Some assignments here break one relation alone, so the verdict rests on
# it: s^2 of S2 and S3, (s t)^2 of S3, (s t)^3 of S4 on three points, and
# s^2 and (s t)^3 of S4 on four; a transposition for the generator of Z3
# breaks only s^3; and (0 1), (1 2) for Z2 x Z2 break only the commutator.
# That the relations define S_n exactly is the certificate's to show (below).
ASSIGNMENT_CASES = [("S2", 3), ("S3", 3), ("S4", 3), ("S5", 2), ("Z2", 3), ("Z3", 3), ("Z4", 3),
                    ("Z2xZ2", 3), ("Z2xZ3", 3), ("Z2xS3", 3), ("S4", 4), ("S5", 4)]


@pytest.mark.parametrize("name, size", ASSIGNMENT_CASES)
def test_relations_hold_exactly_when_every_assignment_extends(name, size):
    group = PRESENTED[name]()
    generators = group.presentation()[0]
    rows = [None] * group.order
    verdicts = []
    for assignment in itertools.product(itertools.permutations(range(size)), repeat=len(generators)):
        for s, row in zip(generators, assignment):
            rows[s] = list(row)
        verdict = relations_hold(group, rows, size)
        assert verdict == extends_to_an_action(group, rows, size), assignment
        verdicts.append(verdict)
    assert True in verdicts and (False in verdicts or size == 1 or not generators)


def subset_rows(n, k):
    subsets = list(itertools.combinations(range(n), k))
    index = {frozenset(c): i for i, c in enumerate(subsets)}
    group = groups.make_symmetric(n)
    return [[index[frozenset(group.images_at(g)[x] for x in c)] for c in subsets] for g in group.elements()]


def coset_rows(group, x):
    """The group acting on the left cosets of the cyclic subgroup of x."""
    subgroup, y = {group.identity}, x
    while y != group.identity:
        subgroup.add(y)
        y = group.mul(x, y)
    cosets = sorted({frozenset(group.mul(g, h) for h in subgroup) for g in group.elements()}, key=min)
    index = {c: i for i, c in enumerate(cosets)}
    return [[index[frozenset(group.mul(g, c) for c in coset)] for coset in cosets] for g in group.elements()]


def true_actions(name):
    group = PRESENTED[name]()
    tables = [coset_rows(group, x) for x in range(group.order)]
    tables.append([[group.conjugate(s, g) for s in group.elements()] for g in group.elements()])
    if name.startswith("S"):
        n = int(name[1:])
        tables += [subset_rows(n, k) for k in range(n + 1)]
        for p in iter_pvectors(n, max_entry=2, max_weight=n):
            action = cycle_tuple_action(n, p)
            tables.append([[action.act(g, s) for s in range(action.carrier_size)] for g in group.elements()])
    return group, [table for table in tables if table and table[0]]


@settings(max_examples=150)
@given(st.sampled_from(["S2", "S3", "S4", "Z2", "Z3", "Z4", "Z5", "Z2xZ2", "Z2xZ3", "Z2xS3"]), st.data())
def test_relator_check_matches_the_row_compare(name, data):
    """True actions (S_n on k-subsets, any group on the cosets of a cyclic
    subgroup and by conjugation, and the Q-action at n <= 4), unchanged, with
    one image of one generator row changed (inside the carrier or not), or
    with one generator row replaced by any permutation of the carrier."""
    group, tables = true_actions(name)
    table = data.draw(st.sampled_from(tables))
    size = len(table[0])
    generators = group.presentation()[0]
    rows = [None] * group.order
    for s in generators:
        rows[s] = list(table[s])
    assert relations_hold(group, rows, size)
    assert tree_rows(group, rows, size) == [list(row) for row in table]
    s = data.draw(st.sampled_from(generators))
    kind = data.draw(st.sampled_from(["none", "point", "row"]))
    if kind == "point":
        x = data.draw(st.integers(0, size - 1))
        rows[s][x] = data.draw(st.integers(-1, size).filter(lambda t: t != rows[s][x]))
    elif kind == "row":
        rows[s] = data.draw(st.permutations(range(size)))
    assert relations_hold(group, rows, size) == extends_to_an_action(group, rows, size)


def test_relator_route_reads_only_the_generator_rows():
    group = groups.SymmetricGroup(4)
    table = subset_rows(4, 2)
    reads = []

    def act(g, s):
        reads.append(g)
        return table[g][s]

    action = GroupAction(group, 6, rows_of(act, 6), _presented=True)
    report = action.validate()
    generators, relations = group.presentation()
    assert report.ok and report.mode == "exhaustive"
    assert report.checks == (2 + 42) * 6
    assert sorted(set(reads)) == sorted(generators) and len(reads) == 2 * 6
    assert [o.size for o in orbit_decomposition(action)] == [6]
    assert len(reads) == 2 * 6


def broken_q_action(n, p, point=0):
    """The Q-action with the first generator's image of one point moved."""
    base = cycle_tuple_action(n, p)
    s = base.group.presentation()[0][0]
    size = base.carrier_size

    def act(g, x):
        t = base.act(g, x)
        return (t + 1) % size if (g, x) == (s, point) else t

    return base.group, size, act


def test_a_failed_relation_is_reported_not_refused():
    """Under the default cap a failed relation reads every row, so the report
    is the row compare's, with its lowest witness. Under a cap between the
    relator check's reads and the row compare's, it names the relation:
    never a refusal."""
    group, size, act = broken_q_action(4, (1, 1, 0, 0))
    relator_reads = (2 + 42) * size
    row_reads = size + 3 * 24 * size
    report = GroupAction(group, size, rows_of(act, size), _presented=True).validate()
    assert not report.ok and report == GroupAction(group, size, rows_of(act, size)).validate()
    assert report.failure.startswith("compatibility fails at (g=1, h=6, s=0)")
    with law_caps(relator_reads):
        narrow = GroupAction(group, size, rows_of(act, size), _presented=True).validate()
    assert row_reads > relator_reads
    assert not narrow.ok and narrow.mode == "exhaustive"
    assert narrow.failure.startswith("relation 6*6 = e fails at s=")


def test_a_failed_functor_relation_is_reported_not_refused():
    base = make_fixed_point_functor(4)
    s = base.group.presentation()[0][0]

    def transport(h, g):
        arr = base.transport(h, g)
        return arr[::-1] if h == s and len(arr) == 4 else arr

    def build(presented):
        return EquivariantFunctor(base.group, base.fiber_sizes, transport, name="flipped", _presented=presented)

    report = validate_functor(build(True))
    assert not report.ok and report == validate_functor(build(False))
    assert report.failing_law == "composition"
    k, letters, total = 2, 42, base.total_size
    with law_caps(k * 24 + (k + letters) * total):
        narrow = validate_functor(build(True))
    assert narrow.failing_law == "relation" and narrow.witness == ((6, 6), (), 0)
    assert narrow.message == "relation 6*6 = e fails at fiber element 0 of F(0)"


def q_cases():
    cases = [(n, p) for n in range(5) for p in iter_pvectors(n, max_entry=2, max_weight=n + 1)]
    return cases + [(5, (2, 1, 0, 0, 0)), (5, (0, 1, 1, 0, 0)), (5, (1, 0, 0, 1, 0)), (5, (0, 0, 0, 0, 0))]


def assert_tree_rows_equal_act(action):
    assert action.validate().ok
    size = action.carrier_size
    rows = tree_rows(action.group, action._rows, size)
    for g in action.group.elements():
        assert rows[g] == [action.act(g, s) for s in range(size)], (action.name, g)


@pytest.mark.parametrize("n, p", q_cases())
def test_tree_rows_equal_act_for_the_q_action_and_the_elements_action(n, p):
    assert_tree_rows_equal_act(cycle_tuple_action(n, p))
    assert_tree_rows_equal_act(category_of_elements(make_cycle_tuple_functor(n, p)))


@pytest.mark.parametrize("n", range(6))
def test_tree_rows_equal_act_for_fixed_points_and_trivial_functors(n):
    assert_tree_rows_equal_act(category_of_elements(make_fixed_point_functor(n)))
    assert_tree_rows_equal_act(category_of_elements(make_trivial_functor(groups.make_symmetric(n))))


@pytest.mark.parametrize("n, p", [(0, ()), (1, (0,)), (1, (1,)), (2, (0, 0)), (2, (2, 0)), (2, (0, 1)),
                                  (3, (0, 0, 2)), (3, (4, 0, 0)), (2, (1, 1))])
def test_small_degrees_and_empty_carriers(n, p):
    action = cycle_tuple_action(n, p)
    report = action.validate()
    generators, relations = action.group.presentation()
    letters = sum(len(a) + len(b) for a, b in relations)
    assert report.ok and report.mode == "exhaustive"
    assert report.checks == (len(generators) + letters) * action.carrier_size
    assert verify_categorified(n, p).ok
    theorem = verify_general_theorem(make_cycle_tuple_functor(n, p))
    assert theorem.equal
    if action.carrier_size == 0:
        assert orbit_decomposition(action) == [] and theorem.orbits == ()


def test_coset_enumeration_on_known_groups(monkeypatch):
    """A5 = <a, b | a^2 = b^3 = (a b)^5 = e> has order 60; a b = b^2 a and
    b a = a^2 b present the trivial group, reached only through
    coincidences; a free group never closes."""
    a, b = 1, 2
    a5 = [((a, a), ()), ((b, b, b), ()), ((a, b) * 5, ())]
    assert [groups.enumerate_cosets([a, b], a5, subgroup).index for subgroup in ([], [(a,)], [(b,)], [(a, b)])] == [60, 30, 20, 12]
    trivial = [((a, b), (b, b, a)), ((b, a), (a, a, b))]
    assert groups.enumerate_cosets([a, b], trivial, []).index == 1
    assert groups.enumerate_cosets([a, b], a5, []).defined == 82
    monkeypatch.setattr(groups, "DEFAULT_COSET_CAP", 81)
    assert groups.enumerate_cosets([a], [], []) == (None, 81)
    assert groups.enumerate_cosets([a, b], a5, []) == (None, 81)


def without(relations, drop):
    return [relation for relation in relations if relation != drop]


@pytest.mark.parametrize("n", range(9))
def test_the_presentation_of_s_n_is_certified(n):
    """The cosets of <t> close at index (n - 1)!, and t^n = e bounds <t> by
    n, so the presented group has order at most n!; the relations hold in
    S_n and s, t reach all of it, so it is S_n."""
    group = groups.SymmetricGroup(n)
    enumeration = groups.certify_presentation(group, group.presentation())
    assert enumeration is not None and group.certified()
    assert enumeration.index == math.factorial(max(n - 1, 0))
    assert enumeration.defined <= groups.DEFAULT_COSET_CAP


@pytest.mark.parametrize("n", range(3, 8))
def test_dropping_a_load_bearing_relation_fails_the_certificate(monkeypatch, n):
    """Without s^2 or (s t)^(n-1) the enumeration runs into the coset cap
    (patched low here, well above the 1 947 cosets S7 needs); without t^n
    the index is still (n - 1)!, but nothing bounds <t>."""
    monkeypatch.setattr(groups, "DEFAULT_COSET_CAP", 20_000)
    group = groups.SymmetricGroup(n)
    generators, relations = group.presentation()
    s, t = generators
    assert groups.certify_presentation(group, (generators, relations)) is not None
    for drop in [((s, s), ()), ((s, t) * (n - 1), ()), ((t,) * n, ())]:
        assert drop in relations
        assert groups.certify_presentation(group, (generators, without(relations, drop))) is None, drop
    rest = without(relations, ((t,) * n, ()))
    assert groups.enumerate_cosets(generators, rest, [(t,)]).index == math.factorial(n - 1)


def test_a_presentation_that_fails_in_the_group_is_not_certified():
    group = groups.SymmetricGroup(4)
    generators, relations = group.presentation()
    s, t = generators
    assert groups.certify_presentation(group, (generators, relations + [((s, t), (t, s))])) is None
    assert groups.certify_presentation(group, ([s], [((s, s), ())])) is None


def test_cyclic_and_product_groups_are_certified_without_enumeration(forbid):
    s3 = groups.SymmetricGroup(3)
    assert s3.certified()
    forbid(groups.enumerate_cosets, groups.certify_presentation)
    assert all(groups.CyclicGroup(k).certified() for k in range(1, 7))
    assert groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(3)).certified()
    assert groups.ProductGroup(groups.CyclicGroup(4), s3).certified()
    cayley = groups.from_cayley_table(groups.CyclicGroup(4).multiplication_table())
    assert not cayley.certified()
    assert not groups.ProductGroup(cayley, groups.CyclicGroup(2)).certified()


def test_refusals_empty_carriers_and_size_reads_certify_nothing(forbid, monkeypatch):
    """A check-cap refusal reads the presentation's size only, and an empty
    carrier has no point to check: neither runs an enumeration."""

    def uncertifiable(group):
        raise AssertionError("a presentation was certified")

    forbid(groups.enumerate_cosets, groups.certify_presentation)
    monkeypatch.setattr(groups.SymmetricGroup, "certified", uncertifiable)
    for n in range(11):
        groups.SymmetricGroup(n).presentation()
    with pytest.raises(CapExceededError):
        next(cycle_tuple_actions(9, [(0,) * 9]))
    with pytest.raises(CapExceededError):
        make_fixed_point_functor(9)
    with law_caps(10):
        with pytest.raises(CapExceededError):
            cycle_tuple_action(4, (1, 1, 0, 0)).validate()
        with pytest.raises(CapExceededError):
            validate_functor(make_fixed_point_functor(3))
    assert cycle_tuple_action(4, (0, 0, 0, 2)).validate().ok
    assert validate_functor(make_cycle_tuple_functor(3, (0, 0, 2))).ok


@pytest.mark.parametrize("name", ["S3", "S4"])
def test_an_uncertified_presentation_is_never_a_pass(monkeypatch, name):
    """With the coset cap patched to 1 no enumeration of S3 or S4 closes,
    so the relator route gives the row compare's report, true action or
    broken, also under a check cap that fits the relator check: there the
    check is refused when the row compare does not fit."""
    monkeypatch.setattr(groups, "DEFAULT_COSET_CAP", 1)
    _, tables = true_actions(name)
    for table in tables[-3:]:
        size = len(table[0])
        broken = [list(row) for row in table]
        broken[PRESENTED[name]().presentation()[0][-1]][0] = (table[1][0] + 1) % size
        for rows in (table, broken):
            group = PRESENTED[name]()
            act = lambda g, x, rows=rows: rows[g][x]
            report = GroupAction(group, size, rows_of(act, size), _presented=True).validate()
            assert not group.certified()
            assert report == GroupAction(group, size, rows_of(act, size)).validate()
            generators, relations = group.presentation()
            relator_reads = (len(generators) + sum(len(u) + len(v) for u, v in relations)) * size
            row_reads = size + (len(generators) + 1) * group.order * size
            with law_caps(relator_reads):
                if row_reads > relator_reads:
                    with pytest.raises(CapExceededError):
                        GroupAction(group, size, rows_of(act, size), _presented=True).validate()
                else:
                    assert GroupAction(group, size, rows_of(act, size), _presented=True).validate() == report


def test_an_uncertified_functor_presentation_is_never_a_pass(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_COSET_CAP", 1)
    base = make_fixed_point_functor(4)
    group = groups.SymmetricGroup(4)

    def build(presented):
        return EquivariantFunctor(group, base.fiber_sizes, base.transport, name="fixed", _presented=presented)

    assert validate_functor(build(True)) == validate_functor(build(False))
    assert not group.certified()
    with law_caps(validate_functor(base).checks):
        with pytest.raises(CapExceededError):
            validate_functor(build(True))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sympy_orders_the_presented_group(n):
    """An independent oracle, when sympy is installed: its coset
    enumeration orders the presented group at n!."""
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    free_groups = pytest.importorskip("sympy.combinatorics.free_groups")
    generators, relations = groups.SymmetricGroup(n).presentation()
    free, *letters = free_groups.free_group("s t")
    letter = dict(zip(generators, letters))

    def word(w):
        return functools.reduce(operator.mul, (letter[x] for x in w), free.identity)

    presented = fp_groups.FpGroup(free, [word(u) * word(v) ** -1 for u, v in relations])
    assert presented.order() == math.factorial(n)
