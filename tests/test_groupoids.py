import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupoid_card import groupoids, groups
from groupoid_card.categorified import cycle_tuple_action
from groupoid_card.functors import EquivariantFunctor, category_of_elements, make_fixed_point_functor, validate_functor
from groupoid_card.groups import make_cyclic, make_product, make_symmetric
from groupoid_card.groupoids import (
    DEFAULT_CHECK_CAP,
    EMPTY_SKELETON,
    ActionValidation,
    ActionValidationError,
    GroupAction,
    GroupoidSkeleton,
    SkeletonComponent,
    cardinality,
    cardinality_of_orders,
    cardinality_via_outdegrees,
    conjugation_action,
    coproduct,
    delooping,
    label_to_json,
    orbit_decomposition,
    perm_groupoid_skeleton,
    perm_skeleton_groups,
    power,
    product,
    rational_str,
    refuse_walk_above_cap,
    skeletons_equivalent,
    weak_quotient,
)
from groupoid_card.permutations import DEFAULT_PARTITION_CAP, CapExceededError, cycle_type_table, partition_counts
from law_cases import (
    LAW_GROUPS,
    assert_agrees_with_reference,
    last_generator_coset,
    law_caps,
    lowest_law_witness,
    rows_of,
    tree_edges,
    validation_or_refusal,
)

skeletons = st.lists(
    st.tuples(st.integers(1, 30), st.one_of(st.none(), st.integers(0, 5))),
    max_size=5,
).map(lambda items: GroupoidSkeleton(tuple(SkeletonComponent(o, lbl) for o, lbl in items)))


def sk(*orders):
    return GroupoidSkeleton(tuple(SkeletonComponent(o) for o in orders))


def test_rational_serialization():
    assert rational_str(Fraction(1)) == "1/1"
    assert rational_str(Fraction(5, 6)) == "5/6"
    assert rational_str(Fraction(0)) == "0/1"
    assert Fraction(rational_str(Fraction(22, 7))) == Fraction(22, 7)


def test_component_validation():
    with pytest.raises(ValueError):
        SkeletonComponent(0)


def test_skeleton_canonical_order():
    a = GroupoidSkeleton((SkeletonComponent(3), SkeletonComponent(2), SkeletonComponent(2)))
    assert a.aut_orders() == (2, 2, 3)


mixed_labels = st.recursive(
    st.one_of(st.none(), st.integers(-3, 12), st.text("ab1()", max_size=2)),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


@given(st.lists(st.tuples(st.integers(1, 3), mixed_labels), max_size=40))
def test_skeleton_order_is_the_aut_order_then_repr_key(items):
    """The canonical order is the one of the key (aut_order, repr(label)),
    with ties in the order given: the components themselves, not only equal
    ones, come out where that sort puts them. Three aut orders make most
    components tie on the first key, and the labels mix kinds."""
    components = [SkeletonComponent(order, label) for order, label in items]
    expected = sorted(components, key=lambda c: (c.aut_order, repr(c.label)))
    ordered = GroupoidSkeleton(tuple(components)).components
    assert ordered == tuple(expected)
    assert [id(c) for c in ordered] == [id(c) for c in expected]


def test_cardinality_examples():
    assert cardinality(EMPTY_SKELETON) == 0
    for k in (1, 2, 5, 12):
        assert cardinality(sk(k)) == Fraction(1, k)
    assert cardinality(sk(6, 2, 3)) == 1


# Aut orders: small ones, which repeat, and ones near 40!, the largest
# centralizer order under the partition cap, with its divisors 40!/k.
FACTORIAL_40 = math.factorial(40)
counted_orders = st.lists(
    st.tuples(
        st.one_of(
            st.integers(1, 12),
            st.integers(FACTORIAL_40 - 64, FACTORIAL_40 + 64),
            st.sampled_from([FACTORIAL_40 // k for k in range(1, 41)]),
        ),
        st.integers(1, 50),
    ),
    max_size=12,
)


@given(counted_orders)
@example([])
def test_counted_cardinality_is_the_naive_sum(pairs):
    """Each (order, count) pair adds count/order, repeated orders included;
    no pair gives 0."""
    assert cardinality_of_orders(pairs) == sum((Fraction(count, z) for z, count in pairs), Fraction(0))
    assert cardinality_of_orders(iter(pairs)) == cardinality_of_orders(pairs)


def test_grouped_perm_skeleton_has_cardinality_one():
    """At every degree up to the cap the groups' orders ascend, their sizes
    sum to the partition count, and one term per order sums to 1."""
    partitions = partition_counts(DEFAULT_PARTITION_CAP)
    for n in range(DEFAULT_PARTITION_CAP + 1):
        groups = perm_skeleton_groups(n)
        orders = [z for z, _ in groups]
        assert orders == sorted(set(orders))
        assert sum(len(texts) for _, texts in groups) == partitions[n]
        assert cardinality_of_orders((z, len(texts)) for z, texts in groups) == 1


def test_delooping():
    assert cardinality(delooping(make_cyclic(1))) == 1
    assert delooping(make_cyclic(5)).aut_orders() == (5,)
    assert cardinality(delooping(make_cyclic(5))) == Fraction(1, 5)
    assert cardinality(delooping(make_symmetric(3))) == Fraction(1, 6)
    assert delooping(make_cyclic(2), label="Z/2").components[0].label == "Z/2"


def test_coproduct_examples():
    a = sk(2, 7)
    assert coproduct(a, EMPTY_SKELETON) == a
    assert cardinality(coproduct(sk(2), sk(3))) == Fraction(5, 6)
    assert coproduct(sk(2), sk(3)).aut_orders() == (2, 3)


def test_product_examples():
    a = sk(2, 7)
    assert product(a, sk(1)).aut_orders() == (2, 7)
    assert product(sk(2), sk(3)).aut_orders() == (6,)
    assert product(sk(2, 3), sk(2)).aut_orders() == (4, 6)
    assert product(a, EMPTY_SKELETON) == EMPTY_SKELETON


def test_power_examples():
    assert power(sk(5, 7), 0).aut_orders() == (1,)
    assert power(sk(2), 3).aut_orders() == (8,)
    for k, p in [(2, 4), (3, 2)]:
        assert cardinality(power(sk(k), p)) == Fraction(1, k**p)
    assert power(EMPTY_SKELETON, 2) == EMPTY_SKELETON
    with pytest.raises(ValueError):
        power(sk(2), -1)


@given(skeletons, skeletons)
def test_cardinality_additive(a, b):
    assert cardinality(coproduct(a, b)) == cardinality(a) + cardinality(b)


@given(skeletons, skeletons)
def test_cardinality_multiplicative(a, b):
    assert cardinality(product(a, b)) == cardinality(a) * cardinality(b)


def test_skeletons_equivalent():
    assert skeletons_equivalent(EMPTY_SKELETON, EMPTY_SKELETON)
    assert skeletons_equivalent(sk(2, 3), sk(3, 2))
    assert not skeletons_equivalent(sk(4), sk(2, 2))
    labeled_a = GroupoidSkeleton((SkeletonComponent(2, "x"),))
    labeled_b = GroupoidSkeleton((SkeletonComponent(2, "y"),))
    assert skeletons_equivalent(labeled_a, labeled_b)


def trivial_action(points):
    return GroupAction(make_cyclic(1), points, rows_of(lambda g, s: s, points), name=f"trivial on {points}")


def test_action_validation_passes_and_caches():
    action = conjugation_action(make_symmetric(3))
    report = action.validate()
    assert report.ok
    assert report.mode == "exhaustive"
    assert action.validate() is report


def test_a_walk_check_report_is_its_one_record():
    """A passing report holds the orbits its walk found, the ones
    orbit_decomposition returns, and its checks is the cost
    refuse_walk_above_cap gives for that many orbits: no whole row compared
    for a formula action, |G| for one built from data. A failing report
    holds no orbits, and an empty carrier's holds the empty tuple."""
    s3, s4 = make_symmetric(3), make_symmetric(4)
    both = action_tables(s3)[3]
    for action, rows in [
        (cycle_tuple_action(4, (0, 1, 0, 0)), 0),
        (conjugation_action(s4), s4.order),
        (GroupAction(s3, len(both[0]), both.__getitem__, name="conjugation and left"), s3.order),
    ]:
        report = action.validate()
        assert report.ok and report.orbits == tuple(orbit_decomposition(action))
        assert report.checks == refuse_walk_above_cap(action.name, action.group, action.carrier_size, len(report.orbits), rows)
    identity = GroupAction(make_cyclic(3), 2, rows_of(lambda h, s: 5, 2)).validate()
    # A transposition for the generator of Z/3 breaks a walk edge.
    walk = GroupAction(make_cyclic(3), 2, lambda g: [1, 0] if g else [0, 1], _presented=True).validate()
    assert (identity.law, identity.orbits, walk.law, walk.orbits) == ("identity", None, "walk", None)
    assert GroupAction(make_cyclic(3), 0, rows_of(lambda h, s: s, 0)).validate().orbits == ()


def test_only_a_law_check_sets_the_report():
    """The report is no constructor argument, so no action is built valid;
    every report is exhaustive, and mode is a class constant, no field."""
    report = ActionValidation(True, 0)
    with pytest.raises(TypeError):
        GroupAction(make_cyclic(3), 2, rows_of(lambda h, s: 5, 2), _validation=report)
    assert "mode" not in {f.name for f in dataclasses.fields(ActionValidation)}
    assert report.mode == ActionValidation.mode == "exhaustive"
    bad = GroupAction(make_cyclic(3), 2, rows_of(lambda h, s: 5, 2))
    assert not bad.validate().ok and bad.validate().mode == "exhaustive"
    with pytest.raises(ActionValidationError) as refused:
        orbit_decomposition(bad)
    assert str(refused.value) == "invalid action 'action': identity law fails at s=0: act(e, s) = 5"
    assert refused.value.report is bad.validate()


def test_the_check_cap_is_read_before_the_identity_row():
    """Z/3 on 2 points, from data, with a failing identity law: its check
    would read (3 + 1) * 2 + 2 * 3 = 14 values through its first orbit, so
    under a cap of 13 it is refused before any row is asked for, and under
    14 the identity law's failure is reported after its first point."""
    asked = []

    def row(g):
        asked.append(g)
        return [5, 5]

    with law_caps(13), pytest.raises(CapExceededError, match="needs 14 reads, above the check cap 13"):
        GroupAction(make_cyclic(3), 2, row).validate()
    assert asked == []
    with law_caps(14):
        report = GroupAction(make_cyclic(3), 2, row).validate()
    assert (report.ok, report.checks, report.law, report.witness) == (False, 1, "identity", (0,))
    assert asked == [0]


def test_rows_are_no_constructor_argument():
    """Rows passed in were read by validate and orbit_decomposition without
    a compare with the action's own rows, so rows that leave the carrier
    validated as ok."""
    with pytest.raises(TypeError):
        GroupAction(make_cyclic(3), 2, rows_of(lambda h, s: 5, 2), _rows={g: [0, 1] for g in range(3)})
    bad = GroupAction(make_cyclic(3), 2, rows_of(lambda h, s: 5, 2))
    assert bad._rows == {} and not bad.validate().ok


def test_rows_of_the_wrong_shape_are_refused_and_never_pass():
    """A row is checked when it is first read: a generator's row (Z/3 has
    the one generator 1) of the wrong length, with an entry that is not an
    int, or no list, raises ValueError on either route, and no report is
    kept. Empty rows on a nonempty carrier are among them: a scan of every
    triple that reads the size from rows[0] would pass them. An int outside
    the carrier fails the law check."""
    group = make_cyclic(3)
    empty = [[], [], []]
    assert lowest_law_witness(group, empty) is None
    wrong = [
        empty,
        [[0, 1, 2], [1, 2], [2, 0, 1]],
        [[0, 1, 2, 0], [1, 2, 0, 1], [2, 0, 1, 2]],
        [[0, 1, 2], [1, 2.0, 0], [2, 0, 1]],
        [[0, 1, 2], [1, "2", 0], [2, 0, 1]],
        [[0, 1, 2], (1, 2, 0), [2, 0, 1]],
    ]
    for rows in wrong:
        for presented in (False, True):
            action = GroupAction(group, 3, lambda g, rows=rows: rows[g], _presented=presented)
            with pytest.raises(ValueError, match=r"row\(\d\) of 'action' is not a list of 3 ints"):
                action.validate()
            assert action._validation is None
            with pytest.raises(ValueError, match="is not a list of 3 ints"):
                orbit_decomposition(action)
    outside = [[0, 1, 2], [1, 3, 0], [2, 0, 1]]
    for presented in (False, True):
        report = GroupAction(group, 3, outside.__getitem__, _presented=presented).validate()
        assert not report.ok and report.failure == "act(1, 1) = 3 is outside the carrier"


def test_carrier_size_is_checked_at_entry():
    with pytest.raises(ValueError, match="carrier size must be nonnegative, got -1"):
        GroupAction(make_cyclic(3), -1, rows_of(lambda h, s: s, -1))
    with pytest.raises(TypeError):
        GroupAction(make_cyclic(3), 2.5, rows_of(lambda h, s: s, 2.5))
    action = GroupAction(make_cyclic(3), True, rows_of(lambda h, s: s, 1))
    assert type(action.carrier_size) is int and [o.size for o in orbit_decomposition(action)] == [1]


def test_conjugation_action_checks_its_arguments():
    """act refuses an element or a point out of range, negative ones too,
    which a row would read from its end (the decorated action once gave
    act(1, -1) = 8 and act(-1, 0) = 3 at n = 4, p = (0,1,0,0))."""
    for action in (
        conjugation_action(make_symmetric(3)),
        cycle_tuple_action(4, (0, 1, 0, 0)),
        category_of_elements(make_fixed_point_functor(3)),
    ):
        order, size = action.group.order, action.carrier_size
        for h, s in ((0, size), (order, 0), (-1, 0), (0, -1), (1, -1)):
            with pytest.raises(ValueError):
                action.act(h, s)
        assert [action.act(1, s) for s in range(size)] == action._row(1)


def test_action_validation_identity_failure():
    bad = GroupAction(make_cyclic(2), 3, rows_of(lambda g, s: (s + 1) % 3 if g == 0 else s, 3))
    report = bad.validate()
    assert not report.ok
    assert "identity" in report.failure
    with pytest.raises(ActionValidationError):
        weak_quotient(bad)


def test_action_validation_compatibility_failure():
    # act(1, s) swaps 0 and 1 on a 3-point carrier; act(1, act(1, 2)) = 2 but
    # the group has order 3, so compatibility with g*h must fail somewhere:
    # the rows of Z/3's tree agree, so the walk finds the broken edge. With
    # row 1 the rotation and row 2 the identity, row 2 = 1 * 1 differs from
    # row 1 after row 1, its tree parent's, at s = 0.
    z3 = make_cyclic(3)
    bad = GroupAction(z3, 3, rows_of(lambda g, s: s if g == 0 else ((1, 0, 2)[s] if g == 1 else s), 3))
    report = bad.validate()
    assert not report.ok and (report.law, report.witness) == ("walk", (0, 1, 2))
    assert report.failure == "walk from s=0 breaks at generator 1, g=2: act(1, act(2, 0)) != act(1*2, 0)"
    rotated = GroupAction(z3, 3, rows_of(lambda g, s: (s + 1) % 3 if g == 1 else s, 3))
    assert rotated.validate() == ActionValidation(
        False, 3 + 3 + 3 + 1, "compatibility fails at (g=1, h=1, s=0): act(g, act(h, s)) = 2 but act(g*h, s) = 0")
    assert (rotated.validate().law, rotated.validate().witness) == ("composition", (1, 1, 0))


def test_check_above_the_cap_is_refused_not_sampled():
    """No sampled mode: a check above the check cap is refused, not sampled.
    The check of Z/4 acting on itself reads its |G| |S| = 16 rows' images,
    the k |S| = 4 of its generator and (k + 1) |G| = 8 for the walk of its
    one orbit, 28 in all, and reports them."""

    def build():
        return GroupAction(make_cyclic(4), 4, rows_of(lambda g, s: (g + s) % 4, 4), name="z4")

    with law_caps(10):
        with pytest.raises(CapExceededError, match=r"'z4' needs 28 reads, above the check cap 10"):
            build().validate()
    with law_caps(28):
        assert build().validate() == ActionValidation(True, 28)


def test_orbit_decomposition_rejects_images_outside_the_carrier():
    # Trivial S4 action on many points with one image sent to -1. The quotient
    # refuses it instead of writing seen[-1]: the compare along the tree reads
    # that image and names it, and under a small check cap the check is refused.
    def act(g, s):
        return -1 if (g, s) == (5, 0) else s

    action = GroupAction(make_symmetric(4), 2_000, rows_of(act, 2_000), name="one-bad-image")
    with law_caps(1_000):
        with pytest.raises(CapExceededError, match="above the check cap 1000"):
            orbit_decomposition(action)
    assert action._validation is None
    with pytest.raises(ActionValidationError, match=r"act\(5, 0\) = -1 is outside the carrier"):
        orbit_decomposition(action)
    assert not action.validate().ok and action.validate().mode == "exhaustive"


def test_weak_quotient_trivial_group():
    quotient = weak_quotient(trivial_action(4))
    assert quotient.aut_orders() == (1, 1, 1, 1)
    assert cardinality(quotient) == 4


def test_weak_quotient_conjugation_s3():
    action = conjugation_action(make_symmetric(3))
    quotient = weak_quotient(action)
    assert quotient.aut_orders() == (2, 3, 6)
    assert cardinality(quotient) == 1


def test_weak_quotient_free_swap():
    z2 = make_cyclic(2)
    action = GroupAction(z2, 2, rows_of(lambda g, s: (s + g) % 2, 2), name="swap")
    quotient = weak_quotient(action)
    assert quotient.aut_orders() == (1,)
    assert cardinality(quotient) == 1


def test_orbit_stabilizer_products():
    for action in (
        conjugation_action(make_symmetric(3)),
        conjugation_action(make_symmetric(4)),
        conjugation_action(make_product(make_cyclic(2), make_cyclic(3))),
        trivial_action(5),
    ):
        orbits = orbit_decomposition(action)
        assert sum(o.size for o in orbits) == action.carrier_size
        for orbit in orbits:
            assert orbit.stabilizer_order * orbit.size == action.group.order
        assert cardinality(weak_quotient(action)) == Fraction(action.carrier_size, action.group.order)


def test_orbit_representatives_are_minimal():
    action = conjugation_action(make_symmetric(4))
    orbits = orbit_decomposition(action)
    reps = [o.representative for o in orbits]
    assert reps == sorted(reps)
    assert reps[0] == 0


def test_outdegree_cardinality():
    s3_conj = conjugation_action(make_symmetric(3))
    assert cardinality_via_outdegrees(s3_conj) == 1
    assert cardinality_via_outdegrees(trivial_action(7)) == 7
    for action in (s3_conj, trivial_action(3), conjugation_action(make_cyclic(8))):
        assert cardinality_via_outdegrees(action) == cardinality(weak_quotient(action))


@given(st.integers(1, 12), st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_weak_quotient_cardinality_formula(k, divisor_picks):
    # Z/k acting by translation on a disjoint union of Z/m blocks with m | k:
    # a genuine action whose quotient cardinality must be |S|/|G|.
    divisors = [d for d in divisor_picks if k % d == 0] or [1]
    blocks = []
    offset = 0
    for m in divisors:
        blocks.append((offset, m))
        offset += m
    total = offset

    def act(g, s):
        for start, m in blocks:
            if start <= s < start + m:
                return start + ((s - start) + g) % m
        raise AssertionError

    action = GroupAction(make_cyclic(k), total, rows_of(act, total))
    assert action.validate().ok
    assert cardinality(weak_quotient(action)) == Fraction(total, k)


def test_perm_groupoid_skeleton_examples():
    assert perm_groupoid_skeleton(-2) == EMPTY_SKELETON
    assert cardinality(perm_groupoid_skeleton(-2)) == 0
    assert perm_groupoid_skeleton(0).aut_orders() == (1,)
    assert cardinality(perm_groupoid_skeleton(0)) == 1

    three = perm_groupoid_skeleton(3)
    assert three.aut_orders() == (2, 3, 6)
    by_label = {c.label: c.aut_order for c in three.components}
    assert by_label == {(1, 1, 1): 6, (2, 1): 2, (3,): 3}


def test_perm_groupoid_skeleton_degree_cap():
    with pytest.raises(CapExceededError, match="partition cap 40"):
        perm_groupoid_skeleton(DEFAULT_PARTITION_CAP + 1)


@pytest.mark.parametrize("n", range(9))
def test_perm_groupoid_skeleton_cardinality_one(n):
    assert cardinality(perm_groupoid_skeleton(n)) == 1


@pytest.mark.parametrize("n", range(5))
def test_perm_skeleton_matches_conjugation_quotient(n):
    left = perm_groupoid_skeleton(n)
    right = weak_quotient(conjugation_action(make_symmetric(n)))
    assert skeletons_equivalent(left, right)


def joined_skeleton_rows(n):
    """The skeleton rows built the direct way: each label joined from the
    partition's part strings, the rows sorted as (z, text) tuples."""
    if n < 0:
        return []
    digits = [str(k) for k in range(n + 1)]
    rows = [(z, ", ".join(map(digits.__getitem__, partition))) for _, z, partition in cycle_type_table(n)]
    rows.sort()
    return rows


def test_perm_skeleton_rows_equal_the_joined_rows():
    """The label texts built from the live walk's kept prefixes and runs of
    1s, grouped by aut order and each group sorted, read in turn are the
    joined rows at every degree from -2 to the partition cap. It takes
    1.4-1.5 s on a 2-core x86 machine, and its budget there is 3 s: every
    degree up to the cap, and no more."""
    for n in range(-2, DEFAULT_PARTITION_CAP + 1):
        assert [(z, text) for z, texts in perm_skeleton_groups(n) for text in texts] == joined_skeleton_rows(n)


def test_skeleton_json():
    three = perm_groupoid_skeleton(3)
    data = three.to_json_dict()
    assert data == {
        "components": [
            {"aut_order": 2, "label": [2, 1]},
            {"aut_order": 3, "label": [3]},
            {"aut_order": 6, "label": [1, 1, 1]},
        ]
    }
    assert label_to_json((("a", 1), None)) == [["a", 1], None]


def test_skeleton_json_bytes_with_mixed_labels():
    """Components in canonical order, each as its aut order and its label,
    nested tuples written as arrays and a missing label as null."""
    skeleton = GroupoidSkeleton((
        SkeletonComponent(2, ((2, 1), ("Z/2", (3,)))),
        SkeletonComponent(1, None),
        SkeletonComponent(6, (1, 1, 1)),
    ))
    assert json.dumps(skeleton.to_json_dict()) == (
        '{"components": [{"aut_order": 1, "label": null}, '
        '{"aut_order": 2, "label": [[2, 1], ["Z/2", [3]]]}, '
        '{"aut_order": 6, "label": [1, 1, 1]}]}'
    )


def reference_action_validation(group, size, act):
    """Literal per-triple validator: the identity law, then every (g, h, s)
    in lexicographic order."""
    order = group.order
    checks = 0
    for s in range(size):
        checks += 1
        t = act(group.identity, s)
        if t != s:
            return ActionValidation(False, checks, f"identity law fails at s={s}: act(e, s) = {t}", "identity", (s,))
    for g in range(order):
        for h in range(order):
            gh = group.mul(g, h)
            for s in range(size):
                checks += 1
                t = act(h, s)
                if not 0 <= t < size:
                    return ActionValidation(False, checks, f"act({h}, {s}) = {t} is outside the carrier", "carrier", (h, s))
                if act(g, t) != act(gh, s):
                    return ActionValidation(
                        False, checks,
                        f"compatibility fails at (g={g}, h={h}, s={s}): "
                        f"act(g, act(h, s)) = {act(g, t)} but act(g*h, s) = {act(gh, s)}",
                        "composition", (g, h, s),
                    )
    return ActionValidation(True, size + len(group.spanning_tree().generators) * order * size)


def witness_breaks_a_law(group, rows, report):
    """Whether the report's witness, read literally on the rows, breaks the
    law it names."""
    size = len(rows[0])
    law, witness = report.law, report.witness
    if law == "identity":
        (s,) = witness
        return rows[group.identity][s] != s
    if law == "carrier":
        g, s = witness
        return not 0 <= rows[g][s] < size
    # The walk's (x, s, g) is the triple (s, g, x).
    g, h, s = witness if law == "composition" else (witness[1], witness[2], witness[0])
    t = rows[h][s]
    return 0 <= t < size and rows[g][t] != rows[group.mul(g, h)][s]


def action_tables(group):
    """Image tables of a few genuine actions of the group."""
    order = group.order
    conj = [[group.conjugate(s, g) for s in range(order)] for g in range(order)]
    left = [[group.mul(g, s) for s in range(order)] for g in range(order)]
    trivial = [list(range(3)) for _ in range(order)]
    both = [conj[g] + [order + t for t in left[g]] for g in range(order)]
    return [conj, left, trivial, both]


def twist_last_coset(group, table, a, b):
    """The rows of the coset H r (law_cases.last_generator_coset) changed
    to row g r^-1 after the swap of points a and b after row r. For s in H,
    row s h = row s after row h still holds for every h, so only the compares
    of the last generator can see the change."""
    subgroup, r = last_generator_coset(group)
    rinv = group.inv(r)
    swap = list(range(len(table[0])))
    swap[a], swap[b] = b, a
    rows = [list(row) for row in table]
    for g in range(group.order):
        h = group.mul(g, rinv)
        if h in subgroup:
            rows[g] = [table[h][swap[t]] for t in table[r]]
    return rows


@settings(max_examples=200)
@given(st.sampled_from(sorted(LAW_GROUPS)), st.data())
def test_action_validation_matches_reference(name, data):
    """One entry of a genuine action corrupted anywhere (out of the carrier
    too), or a coset twisted so that the law breaks only at the last
    generator; with a check cap at the generator count, below what the
    check reads, which must refuse."""
    group = LAW_GROUPS[name]()
    order = group.order
    table = [list(row) for row in data.draw(st.sampled_from(action_tables(group)))]
    size = len(table[0])
    corruption = data.draw(st.sampled_from(["none", "entry", "twist"]))
    if corruption == "entry":
        g = data.draw(st.integers(0, order - 1))
        s = data.draw(st.integers(0, size - 1))
        table[g][s] = data.draw(st.integers(-1, size).filter(lambda t: t != table[g][s]))
    elif corruption == "twist" and last_generator_coset(group):
        a, b = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        table = twist_last_coset(group, table, a, b)
    k = len(group.spanning_tree().generators)
    generator_checks = size + k * order * size
    check_cap = data.draw(st.sampled_from([DEFAULT_CHECK_CAP, 50, generator_checks]))
    act = lambda g, s: table[g][s]
    with law_caps(check_cap):
        report = validation_or_refusal(GroupAction(group, size, rows_of(act, size)).validate)
    reference = reference_action_validation(group, size, act)
    reads = (order + k) * size
    assert_agrees_with_reference(report, reference, reference.failure.startswith("identity") if reference.failure else False,
                                 check_cap, reads + (k + 1) * order, reads + (k + 1) * order * size)
    if report != "refused" and not report.ok:
        assert witness_breaks_a_law(group, table, report)


def random_rows(group, size, data):
    """Rows of the group on size points: each generator's row any list of
    images in -1..size (a permutation, the identity among them, half the
    time), each other row its tree parent's after its step's generator
    row where that stays in the carrier, then a few images anywhere set to
    any value in -1..size."""
    images = st.lists(st.integers(-1, size), min_size=size, max_size=size)
    permutations = st.one_of(st.just(list(range(size))), st.permutations(range(size)))
    rows = [None] * group.order
    rows[group.identity] = list(range(size))
    for s in group.generators():
        rows[s] = list(data.draw(st.one_of(permutations, images)))
    for child, s, parent in tree_edges(group.spanning_tree()):
        if rows[child] is None:
            rows[child] = [rows[s][t] if 0 <= t < size else t for t in rows[parent]]
    for _ in range(data.draw(st.integers(0, 2))):
        g, x = data.draw(st.integers(0, group.order - 1)), data.draw(st.integers(0, size - 1))
        rows[g][x] = data.draw(st.integers(-1, size))
    return rows


@settings(max_examples=300)
@given(st.sampled_from(["S3", "S4", "Z2xZ3", "cayley(Z2xS3)"]), st.integers(1, 4), st.data())
def test_data_check_matches_the_literal_scan(name, size, data):
    """Rows built from data on at most 4 points, true actions and ones
    broken at a relation, a row or an image: the check passes exactly when
    a literal scan of the identity law and of every triple does, and a
    failure's witness, read literally on the rows, breaks the law it
    names."""
    group = LAW_GROUPS[name]()
    rows = random_rows(group, size, data)
    report = GroupAction(group, size, lambda g: rows[g]).validate()
    literal = rows[group.identity] == list(range(size)) and lowest_law_witness(group, rows) is None
    assert report.ok == literal
    if not report.ok:
        assert witness_breaks_a_law(group, rows, report)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: groups.SymmetricGroup(4), id="S4"),
    pytest.param(lambda: groups.from_cayley_table(make_product(make_cyclic(2), make_symmetric(3)).multiplication_table()),
                 id="cayley(Z2xS3)"),
])
def test_only_a_walk_builds_the_spanning_tree(make, monkeypatch):
    """An action on no point, and a functor with empty fibers, pass with no
    spanning tree built; the law check of any other action, and of a
    functor, is a walk, which builds it, and the quotient walks nothing
    again."""
    group = make()
    assert GroupAction(group, 0, lambda g: []).validate().ok
    assert validate_functor(EquivariantFunctor(group, (0,) * group.order, lambda h, g: ())).ok
    assert group._tree is None
    action = conjugation_action(group)
    assert action.validate().ok
    assert group._tree is not None
    functor = EquivariantFunctor(group, (1,) * group.order, lambda h, g: (0,), "one point")
    assert validate_functor(functor).ok
    monkeypatch.setattr(groupoids, "walk_orbits", None)
    classes = {frozenset(row[x] for row in action._rows.values()) for x in range(group.order)}
    assert len(orbit_decomposition(action)) == len(classes)
    assert len(orbit_decomposition(category_of_elements(functor))) == len(classes)


def test_passing_action_asks_for_each_row_once_in_tree_order(monkeypatch):
    """A passing check of the conjugation action of S5 asks the action for
    the identity row, then the rows of its k = 2 generators, then each other
    row once, in tree order, and reports |S| + k |S| + (|G| - 1) |S| +
    (k + 1) |G| reads an orbit, over the 7 conjugacy classes. No conjugation
    row of the group is read, and none is kept."""
    group = groups.SymmetricGroup(5)
    tree = group.spanning_tree()
    assert len(tree.generators) == 2
    conjugation_rows = []
    original = group.conjugation_row
    monkeypatch.setattr(group, "conjugation_row", lambda h: conjugation_rows.append(h) or original(h))
    action = conjugation_action(group)
    asked, row = [], action.row
    action.row = lambda g: asked.append(g) or row(g)
    assert action.validate() == ActionValidation(True, 120 + 2 * 120 + 119 * 120 + 3 * 120 * 7)
    others = [g for g in tree.elements[1:] if g not in tree.generators]
    assert asked == [group.identity] + tree.generators + others
    assert conjugation_rows == []
    assert group._conjugation_table() == {}


def test_validated_conjugation_action_keeps_no_group_row():
    """Validating the conjugation action of S6 keeps its own 720 rows, each
    the literal products h s h^-1, and no conjugation row of the group. It
    reports the reads it makes: the identity row, the k = 2 generator rows,
    the 719 others compared along the tree and the walk of the 11
    conjugacy classes."""
    group = groups.SymmetricGroup(6)
    action = conjugation_action(group)
    assert action.validate() == ActionValidation(True, 720 + 2 * 720 + 719 * 720 + 3 * 720 * 11)
    assert group._conjugation_table() == {}
    assert sorted(action._rows) == list(range(720))
    mul, inv = group.mul, group.inv
    for h in (0, 1, 359, 719):
        assert action._rows[h] == [mul(mul(h, s), inv(h)) for s in range(720)]


def test_action_validation_matches_reference_on_s4_corruptions():
    """Entries of genuine S4 actions set out of the carrier or moved, at the
    identity, in the middle and at the last element: each report has the
    literal reference's ok, and a failure's witness breaks its law."""
    group = groups.SymmetricGroup(4)
    reports = []
    for table in action_tables(group):
        size = len(table[0])
        corruptions = [None] + [(g, s, t) for g, s in ((0, 0), (5, size - 1), (23, size // 2))
                                for t in (-1, size, (table[g][s] + 1) % size)]
        for corruption in corruptions:
            rows = [list(row) for row in table]
            if corruption:
                g, s, t = corruption
                rows[g][s] = t
            act = lambda g, s, rows=rows: rows[g][s]
            report = GroupAction(group, size, rows_of(act, size)).validate()
            assert report.ok == reference_action_validation(group, size, act).ok
            assert report.ok or witness_breaks_a_law(group, rows, report)
            assert report.mode == "exhaustive"
            reports.append(report)
    assert sum(not r.ok for r in reports) >= 30
