"""The walk check of formula actions against the law check it must agree with.

An action marked _presented is checked from its generators' rows alone:
from each orbit's smallest point the images are filled along the spanning
tree and every Cayley-graph edge is compared (groupoids.walk_orbits). A
missed edge would pass generator rows that extend to no action, and a
wrong compare would refuse a true action. The oracle is a literal scan:
extend the generator rows along the spanning tree (the row of s * parent
is row s after the row of parent) and check every triple of the extended
rows (law_cases.lowest_law_witness). The walk must pass exactly when that
does, with the orbits of the extended rows."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_card import groups
from groupoid_card.categorified import cycle_tuple_action, verify_categorified
from groupoid_card.functors import (
    EquivariantFunctor,
    category_of_elements,
    make_cycle_tuple_functor,
    make_fixed_point_functor,
    make_trivial_functor,
    validate_functor,
    verify_general_theorem,
)
from groupoid_card.groupoids import GroupAction, orbit_decomposition, walk_orbits
from groupoid_card.permutations import CapExceededError, iter_pvectors
from law_cases import assert_same_report, law_caps, lowest_law_witness, presented, relabelled_cayley, rows_of, tree_edges

GROUPS = {
    **{f"S{n}": (lambda n=n: groups.SymmetricGroup(n)) for n in range(6)},
    **{f"Z{k}": (lambda k=k: groups.CyclicGroup(k)) for k in range(1, 6)},
    "Z2xZ2": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(2)),
    "Z2xZ3": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(3)),
    "Z2xS3": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.SymmetricGroup(3)),
    "S3xZ2xZ2": lambda: groups.ProductGroup(
        groups.SymmetricGroup(3), groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(2))),
    # Known only by its table: its generators are the greedy set that its
    # associativity check compared over, less the identity.
    "cayley(Z2xS3)": lambda: relabelled_cayley(groups.ProductGroup(groups.CyclicGroup(2), groups.SymmetricGroup(3))),
}


@pytest.mark.parametrize("name", GROUPS)
def test_the_tree_is_built_over_the_named_generators(name):
    """Every group's spanning tree closes over generators() and no other."""
    group = GROUPS[name]()
    assert group.generators() == group.spanning_tree().generators


def tree_rows(group, generator_rows, size):
    """Every row, extended from the generators' rows along the spanning tree."""
    rows = [None] * group.order
    rows[group.identity] = list(range(size))
    for child, s, parent in tree_edges(group.spanning_tree()):
        rows[child] = [generator_rows[s][t] for t in rows[parent]]
    return rows


def in_range(group, generator_rows, size):
    return all(0 <= t < size for s in group.spanning_tree().generators for t in generator_rows[s])


def walk(group, generator_rows, size):
    """The walk check's orbits and witness, straight from the kernel."""
    tree = group.spanning_tree()
    return walk_orbits(tree, [generator_rows[s] for s in tree.generators], size, afford=lambda orbits: None)


def walk_passes(group, generator_rows, size):
    """The walk check's verdict: the rows lie in the carrier, then no edge breaks."""
    return in_range(group, generator_rows, size) and walk(group, generator_rows, size)[1] is None


def extends_to_an_action(group, generator_rows, size):
    """The literal scan's verdict on the tree-extended rows."""
    return in_range(group, generator_rows, size) and lowest_law_witness(group, tree_rows(group, generator_rows, size)) is None


def literal_orbits(rows, size):
    """(representative, size, stabilizer order) of each orbit, read from every row."""
    orbits, seen = [], set()
    for x in range(size):
        if x not in seen:
            images = [row[x] for row in rows]
            seen.update(images)
            orbits.append((x, len(set(images)), images.count(x)))
    return orbits


# Every assignment of permutations of a small carrier to the generators.
# Some assignments here break one edge family alone, so the verdict rests
# on it: s^2 of S2 and S3, (s t)^2 of S3, (s t)^3 of S4 on three points, and
# s^2 and (s t)^3 of S4 on four; a transposition for the generator of Z3
# breaks only s^3; (0 1), (1 2) for Z2 x Z2 break only the commutator; and
# the table group has the three greedy generators its table check chose.
ASSIGNMENT_CASES = [("S2", 3), ("S3", 3), ("S4", 3), ("S5", 2), ("Z2", 3), ("Z3", 3), ("Z4", 3),
                    ("Z2xZ2", 3), ("Z2xZ3", 3), ("Z2xS3", 3), ("S4", 4), ("S5", 4), ("cayley(Z2xS3)", 3)]


@pytest.mark.parametrize("name, size", ASSIGNMENT_CASES)
def test_relations_hold_exactly_when_every_assignment_extends(name, size):
    """The walk passes exactly when the assignment extends to an action,
    and then finds the extended rows' orbits."""
    group = GROUPS[name]()
    generators = group.spanning_tree().generators
    rows = [None] * group.order
    verdicts = []
    for assignment in itertools.product(itertools.permutations(range(size)), repeat=len(generators)):
        for s, row in zip(generators, assignment):
            rows[s] = list(row)
        verdict = walk_passes(group, rows, size)
        assert verdict == extends_to_an_action(group, rows, size), assignment
        if verdict:
            orbits = walk(group, rows, size)[0]
            assert [(o.representative, o.size, o.stabilizer_order) for o in orbits] == literal_orbits(
                tree_rows(group, rows, size), size)
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
    group = GROUPS[name]()
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
@given(st.sampled_from(["S2", "S3", "S4", "Z2", "Z3", "Z4", "Z5", "Z2xZ2", "Z2xZ3", "Z2xS3", "cayley(Z2xS3)"]), st.data())
def test_walk_check_matches_the_row_compare(name, data):
    """True actions (S_n on k-subsets, any group on the cosets of a cyclic
    subgroup and by conjugation, and the Q-action at n <= 4), unchanged, with
    one image of one generator row changed (inside the carrier or not), or
    with one generator row replaced by any permutation of the carrier: the
    walk passes exactly when the literal scan of the tree-extended rows does,
    and then finds their orbits."""
    group, tables = true_actions(name)
    table = data.draw(st.sampled_from(tables))
    size = len(table[0])
    generators = group.spanning_tree().generators
    rows = [None] * group.order
    for s in generators:
        rows[s] = list(table[s])
    assert walk_passes(group, rows, size)
    assert tree_rows(group, rows, size) == [list(row) for row in table]
    s = data.draw(st.sampled_from(generators))
    kind = data.draw(st.sampled_from(["none", "point", "row"]))
    if kind == "point":
        x = data.draw(st.integers(0, size - 1))
        rows[s][x] = data.draw(st.integers(-1, size).filter(lambda t: t != rows[s][x]))
    elif kind == "row":
        rows[s] = data.draw(st.permutations(range(size)))
    verdict = walk_passes(group, rows, size)
    assert verdict == extends_to_an_action(group, rows, size)
    if verdict:
        orbits = walk(group, rows, size)[0]
        assert [(o.representative, o.size, o.stabilizer_order) for o in orbits] == literal_orbits(
            tree_rows(group, rows, size), size)


def test_walk_check_reads_only_the_generator_rows():
    """The walk check of S4 on its 6 two-point subsets reads the 2 generator
    rows and walks the one orbit, 2 * 6 + 3 * 24 reads; the quotient reads
    no row again."""
    group = groups.SymmetricGroup(4)
    table = subset_rows(4, 2)
    reads = []

    def act(g, s):
        reads.append(g)
        return table[g][s]

    action = presented(GroupAction(group, 6, rows_of(act, 6)))
    report = action.validate()
    assert report.ok and report.mode == "exhaustive"
    assert report.checks == 2 * 6 + 3 * 24
    assert sorted(set(reads)) == sorted(group.generators()) and len(reads) == 2 * 6
    assert [o.size for o in orbit_decomposition(action)] == [6]
    assert len(reads) == 2 * 6


def test_the_check_cap_bounds_the_walk():
    """Identity generator rows on 20 000 points make 20 000 orbits of S6:
    the walk would read 2 * 20 000 + 3 * 720 per orbit, 43.2 M values in
    all, so it is refused once its next orbit would pass the check cap, and
    no report, and so no orbit, is kept."""
    size = 20_000
    action = presented(GroupAction(groups.SymmetricGroup(6), size, lambda g: list(range(size))))
    affordable = (10_000_000 - 2 * size) // (3 * 720)
    with pytest.raises(CapExceededError, match=f"needs {2 * size + 3 * 720 * (affordable + 1)} reads, above the check cap"):
        action.validate()
    assert action._validation is None


def broken_q_action(n, p, point=0):
    """The Q-action with the first generator's image of one point moved."""
    base = cycle_tuple_action(n, p)
    s = base.group.generators()[0]
    size = base.carrier_size

    def act(g, x):
        t = base.act(g, x)
        return (t + 1) % size if (g, x) == (s, point) else t

    return base.group, size, act


def test_a_failed_walk_is_reported_not_refused():
    """A failed walk is reported with its broken edge, under the default cap
    and under a cap at the walk's reads, below the reads of the same rows
    taken as data, whose check also compares every row along the tree and
    is refused. That compare names the first row that differs from its
    tree parent's after its generator's."""
    group, size, act = broken_q_action(4, (1, 1, 0, 0))
    walk_reads = 2 * size + 3 * 24
    row_reads = (24 + 2) * size + 3 * 24
    report = presented(GroupAction(group, size, rows_of(act, size))).validate()
    # The generator rows, the first orbit's tree images and its first generator's edges.
    assert not report.ok and report.mode == "exhaustive" and report.checks == 2 * size + 2 * 24
    assert report.failure == "walk from s=0 breaks at generator 6, g=6: act(6, act(6, 0)) != act(6*6, 0)"
    assert row_reads > walk_reads
    with law_caps(walk_reads):
        assert presented(GroupAction(group, size, rows_of(act, size))).validate() == report
        with pytest.raises(CapExceededError):
            GroupAction(group, size, rows_of(act, size)).validate()
    rows = GroupAction(group, size, rows_of(act, size)).validate()
    assert not rows.ok and rows.failure.startswith("compatibility fails at (g=6, h=9, s=3)")


def test_a_failed_functor_walk_is_reported_not_refused():
    """A functor's failed walk names the broken edge, under the default cap
    and under one at the walk's reads; the same transports taken as data
    fail the compare along the tree first, at a composition triple."""
    base = make_fixed_point_functor(4)
    s = base.group.generators()[0]

    def transport(h, g):
        arr = base.transport(h, g)
        return arr[::-1] if h == s and len(arr) == 4 else arr

    def build(flag):
        return presented(EquivariantFunctor(base.group, base.fiber_sizes, transport, name="flipped"), flag)

    report = validate_functor(build(True))
    assert not report.ok and report.law == "walk" and report.witness == (6, 6, 0)
    assert report.failure == "walk from fiber element 0 of F(0) breaks at generator 6, h=6"
    assert validate_functor(build(False)).law == "composition"
    k, total = 2, base.total_size
    # The generator images and the 3 orbits of the true functor.
    with law_caps(k * total + 3 * 24 * 3):
        assert_same_report(validate_functor(build(True)), report)


def q_cases():
    cases = [(n, p) for n in range(5) for p in iter_pvectors(n, max_entry=2, max_weight=n + 1)]
    return cases + [(5, (2, 1, 0, 0, 0)), (5, (0, 1, 1, 0, 0)), (5, (1, 0, 0, 1, 0)), (5, (0, 0, 0, 0, 0))]


def assert_tree_rows_equal_act(action):
    assert action.validate().ok
    size = action.carrier_size
    rows = tree_rows(action.group, action._rows, size)
    for g in action.group.elements():
        assert rows[g] == [action.act(g, s) for s in range(size)], (action.name, g)
    assert [(o.representative, o.size, o.stabilizer_order) for o in orbit_decomposition(action)] == literal_orbits(rows, size)


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
    k = len(action.group.generators())
    assert report.ok and report.mode == "exhaustive"
    orbits = orbit_decomposition(action)
    assert report.checks == k * action.carrier_size + (k + 1) * math.factorial(n) * len(orbits)
    assert verify_categorified(n, p).ok
    theorem = verify_general_theorem(make_cycle_tuple_functor(n, p))
    assert theorem.equal
    if action.carrier_size == 0:
        assert orbits == [] and theorem.orbits == ()
