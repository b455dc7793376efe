import copy
import dataclasses
import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_card import functors, groupoids, groups
from groupoid_card.categorified import cycle_tuple_action
from groupoid_card.functors import (
    EquivariantFunctor,
    category_of_elements,
    expected_size,
    functor_from_json,
    make_cycle_tuple_functor,
    make_fixed_point_functor,
    make_trivial_functor,
    validate_functor,
    verify_general_theorem,
)
from groupoid_card.groups import make_cyclic, make_product, make_symmetric, to_cayley_json
from groupoid_card.groupoids import (
    DEFAULT_CHECK_CAP,
    ActionValidation,
    ActionValidationError,
    GroupAction,
    orbit_decomposition,
    skeletons_equivalent,
    weak_quotient,
)
from groupoid_card.permutations import CapExceededError, iter_pvectors
from decorated_permutations import build_Q
from law_cases import (
    LAW_GROUPS,
    assert_agrees_with_reference,
    assert_same_report,
    enumeration_cap,
    last_generator_coset,
    law_caps,
    presented,
    rows_of,
    validation_or_refusal,
)


def test_trivial_functor_valid_and_unit_expectation():
    for group in (make_cyclic(1), make_cyclic(7), make_symmetric(3), make_product(make_cyclic(2), make_cyclic(2))):
        functor = make_trivial_functor(group)
        report = validate_functor(functor)
        assert report.ok
        assert expected_size(functor) == 1
        theorem = verify_general_theorem(functor)
        assert theorem.equal
        assert theorem.expected == theorem.elements_cardinality == 1


def test_trivial_functor_elements_is_conjugation_quotient():
    group = make_symmetric(3)
    action = category_of_elements(make_trivial_functor(group))
    assert action.carrier_size == group.order
    assert weak_quotient(action).aut_orders() == (2, 3, 6)


def test_fixed_point_functor_s3():
    functor = make_fixed_point_functor(3)
    assert sorted(functor.fiber_sizes) == [0, 0, 1, 1, 1, 3]
    assert validate_functor(functor).ok
    assert expected_size(functor) == 1

    action = category_of_elements(functor)
    assert action.carrier_size == 6
    theorem = verify_general_theorem(functor)
    assert theorem.equal
    assert theorem.expected == 1
    assert len(theorem.orbits) == 2
    for orbit in theorem.orbits:
        assert orbit.size == 3
        assert orbit.stabilizer_order == 2


def test_fixed_point_functor_degenerate_degrees():
    one = make_fixed_point_functor(1)
    assert one.fiber_sizes == (1,)
    assert verify_general_theorem(one).equal

    zero = make_fixed_point_functor(0)
    assert zero.fiber_sizes == (0,)
    theorem = verify_general_theorem(zero)
    assert theorem.equal
    assert theorem.expected == 0

    with enumeration_cap(3), pytest.raises(CapExceededError):
        make_fixed_point_functor(4)


def test_cycle_tuple_functor_matches_decorated_permutations():
    functor = make_cycle_tuple_functor(3, (0, 1, 0))
    assert expected_size(functor) == Fraction(1, 2)
    action = category_of_elements(functor)
    assert action.carrier_size == len(build_Q(3, (0, 1, 0))) == 3
    assert skeletons_equivalent(weak_quotient(action), weak_quotient(cycle_tuple_action(3, (0, 1, 0))))
    theorem = verify_general_theorem(functor)
    assert theorem.equal


def test_cycle_tuple_functor_impossible_weight():
    functor = make_cycle_tuple_functor(3, (2, 1, 0))
    assert functor.total_size == 0
    theorem = verify_general_theorem(functor)
    assert theorem.equal
    assert theorem.expected == 0
    assert theorem.elements_cardinality == 0


def test_cycle_tuple_functor_mixed_vector():
    functor = make_cycle_tuple_functor(4, (1, 1, 0, 0))
    assert expected_size(functor) == Fraction(1, 2)
    assert verify_general_theorem(functor).equal


def test_corrupted_transport_is_reported_with_triple():
    group = make_cyclic(4)
    # Parity action on a 2-element fiber is functorial; breaking one entry
    # must surface a witnessing triple.
    def good(h, g):
        return (h % 2, 1 - h % 2) if h % 2 else (0, 1)

    healthy = EquivariantFunctor(group, (2, 2, 2, 2), good, name="parity")
    assert validate_functor(healthy).ok

    def bad(h, g):
        if h == 2 and g == 1:
            return (1, 0)  # should be the identity
        return good(h, g)

    corrupted = EquivariantFunctor(group, (2, 2, 2, 2), bad, name="corrupted")
    report = validate_functor(corrupted)
    assert not report.ok
    assert report.law == "composition"
    assert report.witness is not None
    assert len(report.witness) == 3
    with pytest.raises(ActionValidationError) as refused:
        verify_general_theorem(corrupted)
    assert refused.value.report is report
    assert str(refused.value) == f"functor validation failed (composition law, witness {report.witness}): {report.failure}"


def test_identity_transport_violation():
    group = make_cyclic(2)
    functor = EquivariantFunctor(group, (2, 2), lambda h, g: (1, 0), name="flip-identity")
    report = validate_functor(functor)
    assert not report.ok
    assert report.law == "identity"


def test_fiber_size_invariance_violation():
    group = make_symmetric(3)
    sizes = [1] * group.order
    sizes[1] = 2  # an element and its conjugates disagree
    functor = EquivariantFunctor(group, tuple(sizes), lambda h, g: (0,), name="lopsided")
    report = validate_functor(functor)
    assert not report.ok
    assert report.law == "bijection"


def test_malformed_bijection_is_caught():
    # Repeated, out-of-range and negative indices, wrong lengths, and entries
    # that are no index, on both routes. sorted() let 0.0 through, and the
    # elements action's row check then raised a ValueError naming an action
    # the caller never built; "1" made sorted() raise TypeError.
    # A data functor's check reads the identity transports first, a formula
    # functor's its one generator's, 1.
    group = make_cyclic(3)
    for images in [(0, 0), (0, 2), (1, -1), (0,), (0, 1, 2), (0.0, 1), (0, "1")]:
        for formula, h in ((False, 0), (True, 1)):
            functor = presented(EquivariantFunctor(group, (2, 2, 2), lambda h, g: images, name="malformed"), formula)
            report = validate_functor(functor)
            assert not report.ok
            assert report.law == "bijection"
            assert report.failure == (
                f"transport({h}, 0) = {images!r} is not a bijection from a fiber of size 2 onto one of size 2"
            )
            assert_same_report(report, ActionValidation(False, 6, report.failure, "bijection", (1, 0)) if formula
                               else reference_functor_validation(functor))


def test_a_broken_generator_transport_fails_the_walk_under_a_cap_that_refuses_the_row_compare():
    """Z/3 over its one generator 1, with the generator's transport not a
    bijection: the walk check would read 3 + (1 + 1) * 3 = 9 values
    through its first orbit, and the check of the same transports as data,
    which compares every row, (3 + 1) * 3 + (1 + 1) * 3 = 18, so under a
    cap of 17 the walk's bijection failure is the report, after its 3
    generator images, and the data check is refused. Under a cap of 18 the
    data check names the same transport, after the 3 identity images."""
    group = make_cyclic(3)
    assert group.spanning_tree().generators == [1]
    functor = presented(EquivariantFunctor(group, (1, 1, 1), lambda h, g: (1,) if h == 1 else (0,)))
    message = "transport(1, 0) = (1,) is not a bijection from a fiber of size 1 onto one of size 1"
    with law_caps(17):
        assert_same_report(validate_functor(functor), ActionValidation(False, 3, message, "bijection", (1, 0)))
    with law_caps(17), pytest.raises(CapExceededError, match="needs 18 reads, above the check cap 17"):
        validate_functor(EquivariantFunctor(group, (1, 1, 1), functor.transport))
    with law_caps(18):
        assert_same_report(validate_functor(EquivariantFunctor(group, (1, 1, 1), functor.transport)),
                           ActionValidation(False, 6, message, "bijection", (1, 0)))


def test_triple_scan_finds_composition_before_a_broken_transport():
    """Z/3 with the labels 0 and 1 swapped has identity 1 and the one
    generator 0, whose tree reaches 0 and then 2 = 0 * 0. With (0, g) and
    (2, g) the swap, (2, 1) the non-bijection (0, 0) and every other
    transport the identity, row 2 differs from row 0 after row 0 first in
    fiber 0, so composition fails at (0, 0, 0), before the compare reaches
    the marks of (2, 1); a scan of every triple in lexicographic order
    names the same triple. The check reads the 6 identity images, the 6 of
    the generator, row 0 again as its own tree product, and one image of
    row 2."""
    swap = [1, 0, 2]
    table = [[0] * 3 for _ in range(3)]
    for x in range(3):
        for y in range(3):
            table[swap[x]][swap[y]] = swap[(x + y) % 3]
    group = groups.from_cayley_table(table)
    assert group.identity == 1

    def transport(h, g):
        return (0, 0) if (h, g) == (2, 1) else (1, 0) if h in (0, 2) else (0, 1)

    functor = EquivariantFunctor(group, (2, 2, 2), transport)
    message = "composition law fails at (h2=0, h1=0, g=0), fiber element 0"
    assert_same_report(validate_functor(functor), ActionValidation(False, 6 + 6 + 6 + 1, message, "composition", (0, 0, 0)))
    assert_same_report(reference_functor_validation(functor), ActionValidation(False, 7, message, "composition", (0, 0, 0)))


def test_the_fixed_point_walk_is_refused_one_read_below_its_count():
    """No sampled mode: the S4 fixed-point functor's walk check reads
    k * total + (k + 1) |G| * orbits = 2 * 24 + 3 * 24 * 3 = 264 values,
    one orbit per partition of the 3 points a fixed point leaves; one read
    fewer in the cap refuses it."""
    with law_caps(263):
        with pytest.raises(CapExceededError, match="needs 264 reads, above the check cap 263"):
            validate_functor(make_fixed_point_functor(4))
    with law_caps(264):
        assert_same_report(validate_functor(make_fixed_point_functor(4)), ActionValidation(True, 264))


def test_law_caps_switch_both_validators():
    """Both validators read the check cap from groupoids at call time, so
    one patch makes both refuse a check above it, and it ends with the
    context. The functor's check is the check of its category of elements,
    named after it: (|G| + k) |S| images for |S| its total fiber size, and
    (k + 1) |G| for each orbit, 21 here, one per conjugacy class of
    commuting pairs of S4. The category of elements keeps the report of that
    one law pass; the same action checked afresh is refused as the functor
    was."""
    group = make_symmetric(4)
    _, table = functor_tables(group)[1]
    sizes = tuple(len(table[(group.identity, g)]) for g in range(group.order))

    def build():
        return EquivariantFunctor(group, sizes, lambda h, g: table[(h, g)], name="centralizers(S4)")

    functor_cost = (24 + 2) * sum(sizes) + 3 * 24 * 21
    with law_caps(functor_cost - 1):
        with pytest.raises(CapExceededError, match=rf"'centralizers\(S4\)' needs {functor_cost} reads, above the check cap {functor_cost - 1}"):
            validate_functor(build())
    functor = build()
    with law_caps(functor_cost):
        assert validate_functor(functor).ok
        action = category_of_elements(functor)
    with law_caps(functor_cost - 1):
        assert action.validate().ok
        with pytest.raises(CapExceededError, match=rf"'centralizers\(S4\)' needs {functor_cost} reads"):
            GroupAction(group, action.carrier_size, action.row, action.name).validate()
    assert GroupAction(group, action.carrier_size, action.row, action.name).validate().ok


def test_n6_fixed_point_functor_is_exhaustive():
    """Over the 2 generators of S6 the check reads the 2 * 720 generator
    images of the category of elements, and 3 * 720 tree images and edge
    compares for each of its 7 orbits, where sampling once drew 5 000
    triples; its action keeps that report and those orbits."""
    functor = make_fixed_point_functor(6)
    assert_same_report(validate_functor(functor), ActionValidation(True, 2 * 720 + 3 * 720 * 7))
    action = category_of_elements(functor)
    assert action.validate() == ActionValidation(True, 2 * 720 + 3 * 720 * 7)
    assert sorted(action._rows) == sorted(action.group.generators()) and len(action._rows) == 2
    # One orbit per conjugacy class of S5, the stabilizer of a point.
    orbits = orbit_decomposition(action)
    assert len(orbits) == 7 and sum(o.size for o in orbits) == 720
    assert all(o.size * o.stabilizer_order == 720 for o in orbits)


@pytest.mark.parametrize("n", range(7))
def test_fixed_point_functor_reads_the_image_table_whole(monkeypatch, n):
    """make_fixed_point_functor and its transports read S_n's image table
    whole rather than element by element: with images_at made to raise, a
    functor built on a fresh S_n has the fibers of one built before, the
    points each element fixes, and gives the same transports, check and
    theorem report."""
    group = groups.SymmetricGroup(n)
    monkeypatch.setattr(functors, "make_symmetric", lambda n: group)
    before = make_fixed_point_functor(n)
    fixed = [sum(x == i for i, x in enumerate(group.images_at(g))) for g in group.elements()]
    pairs = [(h, g) for h in group.generators() for g in group.elements()]
    expected = ([before.transport(h, g) for h, g in pairs], validate_functor(before), verify_general_theorem(before).to_json_dict())

    def refuse(group, a):
        raise AssertionError("the functor read the image table element by element")

    monkeypatch.setattr(groups.SymmetricGroup, "images_at", refuse)
    fresh = groups.SymmetricGroup(n)
    monkeypatch.setattr(functors, "make_symmetric", lambda n: fresh)
    functor = make_fixed_point_functor(n)
    assert functor.group is fresh
    assert functor.fiber_sizes == before.fiber_sizes == tuple(fixed)
    assert ([functor.transport(h, g) for h, g in pairs], validate_functor(functor), verify_general_theorem(functor).to_json_dict()) == expected


def test_walk_check_fills_only_the_generators_conjugation_rows(monkeypatch):
    """The S6 fixed-point functor's walk check, its category of elements
    and its orbits read the conjugation rows of the 2 generators only:
    at most 2 of the 720 rows are filled, not a 720 x 720 table."""
    group = groups.SymmetricGroup(6)  # fresh, so no row is filled yet
    monkeypatch.setattr(functors, "make_symmetric", lambda n: group)
    functor = make_fixed_point_functor(6)
    assert validate_functor(functor).ok
    assert orbit_decomposition(category_of_elements(functor))
    filled = list(group._conjugation_table())
    assert len(filled) <= 2
    assert set(filled) <= set(group.generators())


@pytest.mark.parametrize("build", [
    make_fixed_point_functor,
    lambda n: make_cycle_tuple_functor(n, [0, 1] + [0] * (n - 2)),
], ids=["fixed-points", "cycle-tuples"])
@pytest.mark.parametrize("n", [2, 4, 5])
def test_builtin_functor_refusal_is_the_refusal_of_its_check(build, n):
    """The built-in constructors count the walk check's reads before any
    fiber is built, one orbit per carrying cycle type, which is each type's
    one orbit: one read below what the built functor's check reads,
    the constructor refuses with that check's message; at the check's reads
    it builds, and the check passes."""
    functor = build(n)
    report = validate_functor(functor)
    assert report.ok
    with law_caps(report.checks - 1):
        with pytest.raises(CapExceededError) as refused:
            build(n)
    assert str(refused.value) == f"law check of {functor.name!r} needs {report.checks} reads, above the check cap {report.checks - 1}"
    with law_caps(report.checks):
        assert_same_report(validate_functor(build(n)), report)


def test_passing_functor_reads_one_row_per_generator(monkeypatch):
    """A table-built functor's check reads every row, and conjugates the
    targets of its transports with mul and inv, so no conjugation row is
    read. The built-in fixed-point functor's transports read the
    generators' conjugation rows only. The group keeps the generators' rows
    and no other."""
    builtin = make_fixed_point_functor(5)
    nonempty = [g for g in builtin.group.elements() if builtin.fiber_sizes[g]]
    table = {(h, g): builtin.transport(h, g) for h in builtin.group.elements() for g in nonempty}
    group = groups.SymmetricGroup(5)  # fresh, so no row is filled yet
    monkeypatch.setattr(functors, "make_symmetric", lambda n: group)
    generators = group.spanning_tree().generators
    assert len(generators) == 2
    read = []
    original = group.conjugation_row
    monkeypatch.setattr(group, "conjugation_row", lambda g: read.append(g) or original(g))
    functor = EquivariantFunctor(group, builtin.fiber_sizes, lambda h, g: table.get((h, g), ()))
    total = functor.total_size
    assert total == 120
    # The identity row, the 2 generator rows, the 119 others along the tree and 5 orbits.
    assert_same_report(validate_functor(functor), ActionValidation(True, (1 + 2 + 119) * total + 3 * 120 * 5))
    assert read == []
    # The walk reads the 2 generator rows and 5 orbits; each transport reads its generator's row.
    assert_same_report(validate_functor(make_fixed_point_functor(5)), ActionValidation(True, 2 * total + 3 * 120 * 5))
    assert set(read) == set(generators)
    assert sorted(group._conjugation_table()) == sorted(generators)


def test_validation_result_is_cached():
    functor = make_fixed_point_functor(3)
    first = validate_functor(functor)
    assert validate_functor(functor) is first


def rotation_json_functor():
    # Z/4 acting on 2-point fibers through its parity quotient.
    group_json = to_cayley_json(make_cyclic(4))
    transports = {}
    for h in range(4):
        flip = h % 2
        arr = [1, 0] if flip else [0, 1]
        transports[str(h)] = {str(g): list(arr) for g in range(4)}
    return {
        "group": group_json,
        "fibers": {str(g): 2 for g in range(4)},
        "transports": transports,
        "name": "parity-json",
    }


def test_functor_json_round_trip_and_theorem():
    functor = functor_from_json(rotation_json_functor())
    assert validate_functor(functor).ok
    assert expected_size(functor) == 2
    theorem = verify_general_theorem(functor)
    assert theorem.equal
    assert theorem.elements_cardinality == 2


def test_functor_json_symmetric_group_spec():
    data = {
        "group": "S2",
        "fibers": {"0": 1, "1": 1},
        "transports": {str(h): {str(g): [0] for g in range(2)} for h in range(2)},
    }
    functor = functor_from_json(data)
    assert functor.group.name == "S2"
    assert verify_general_theorem(functor).equal


def test_functor_json_rejects_omissions():
    data = rotation_json_functor()
    del data["transports"]["2"]["1"]
    with pytest.raises(ValueError, match="omitted"):
        functor_from_json(data)

    data = rotation_json_functor()
    del data["fibers"]["3"]
    with pytest.raises(ValueError, match="missing"):
        functor_from_json(data)

    with pytest.raises(ValueError):
        functor_from_json({"group": "S2", "fibers": {}})
    with pytest.raises(ValueError, match='^"fibers" must be an object mapping elements to sizes$'):
        functor_from_json({"group": "S2", "fibers": [1, 1], "transports": {}})
    with pytest.raises(ValueError, match="^a group table cannot be empty$"):
        functor_from_json({"group": {"order": 0, "table": []}, "fibers": {}, "transports": {}})
    with pytest.raises(ValueError):
        functor_from_json({"group": "Q8", "fibers": {}, "transports": {}})


@pytest.mark.parametrize("spec", ["S\u0663", "S\u00b2", "S+3", "S-0", "S 3", "S3 ", "S1_0", "s3", "S"])
def test_functor_json_group_spec_is_S_and_ascii_digits(spec):
    """The degree of "S<n>" is read by parse_integer with no sign, so an
    Arabic-Indic 3 or a superscript 2 gets the spec's own refusal."""
    with pytest.raises(ValueError) as refusal:
        functor_from_json({"group": spec, "fibers": {}, "transports": {}})
    assert str(refusal.value) == f'group spec {spec!r} is not "S<n>" or a Cayley table object'


def test_functor_json_allows_empty_fiber_omission():
    data = {
        "group": "S2",
        "fibers": {"0": 0, "1": 0},
        "transports": {},
    }
    functor = functor_from_json(data)
    assert validate_functor(functor).ok
    assert verify_general_theorem(functor).expected == 0


def test_functor_json_null_transport_is_an_omitted_one():
    """A JSON null transport is read as an omitted one: the empty bijection
    on an empty fiber, and refused on a nonempty one."""
    data = {"group": "S2", "fibers": {"0": 1, "1": 0}, "transports": {h: {"0": [0], "1": None} for h in "01"}}
    functor = functor_from_json(data)
    assert [functor.transport(h, 1) for h in range(2)] == [(), ()]
    assert verify_general_theorem(functor).expected == Fraction(1, 2)
    data["transports"]["1"]["0"] = None
    with pytest.raises(ValueError, match=r"^transport for \(h=1, g=0\) is omitted; transports may not be inferred$"):
        functor_from_json(data)


def literal_first_defect(data):
    """The message of the first transport defect in (h, g) order, read by
    visiting every (h, g) pair of a four-element group; None when there is none."""
    sizes = [data["fibers"][str(g)] for g in range(4)]
    for h in range(4):
        per_h = data["transports"].get(str(h), {})
        if not isinstance(per_h, dict):
            return f"transports for h={h} must be an object mapping g to images"
        for g in range(4):
            entry = per_h.get(str(g))
            if entry is None:
                if sizes[g]:
                    return f"transport for (h={h}, g={g}) is omitted; transports may not be inferred"
            elif not isinstance(entry, list):
                return f"transport for (h={h}, g={g}) must be a list of indices"
            elif any(type(x) is not int for x in entry):
                x = next(x for x in entry if type(x) is not int)
                return f"transport entry for (h={h}, g={g}) must be an integer, got {x!r}"
    return None


def test_functor_json_reports_its_first_defect_in_h_g_order():
    """Only nonempty fibers and listed entries are visited, yet every pair of
    defects, on empty fibers or not, is reported as a scan of every (h, g)
    reports it."""
    base = {
        "group": to_cayley_json(make_cyclic(4)),
        "fibers": {"0": 1, "1": 0, "2": 1, "3": 0},
        "transports": {str(h): {"0": [0], "2": [0]} for h in range(4)},
    }
    defects = [None, "omit", 5, ["0"], [None], {}]
    count = 0
    for (h1, g1), (h2, g2) in itertools.combinations(itertools.product(range(4), repeat=2), 2):
        for d1, d2 in itertools.product(defects[1:], defects):
            data = copy.deepcopy(base)
            for h, g, d in ((h1, g1, d1), (h2, g2, d2)):
                per_h = data["transports"][str(h)]
                if d is None or not isinstance(per_h, dict):
                    continue
                if d == "omit":
                    per_h.pop(str(g), None)
                elif d == {}:
                    data["transports"][str(h)] = 5
                else:
                    per_h[str(g)] = d
            expected = literal_first_defect(data)
            if expected is None:
                functor_from_json(data)
                continue
            with pytest.raises(ValueError) as raised:
                functor_from_json(data)
            assert str(raised.value) == expected
            count += 1
    assert count > 1000


def literal_fiber_defect(fibers, order):
    """The message of the first fiber-size defect, read size by size."""
    for g in range(order):
        if str(g) not in fibers:
            return f"fiber size for element {g} is missing"
        size = fibers[str(g)]
        if type(size) is not int:
            return f"fiber size for element {g} must be an integer, got {size!r}"
        if size < 0:
            return f"fiber size for element {g} is negative"
    return None


def test_functor_json_reports_its_first_fiber_size_defect():
    """The sizes are read one by one only when one of them fails, and the
    first defect in element order is reported as a size-by-size reading
    reports it, whatever defect follows it."""
    defects = ["omit", None, "2", 2.0, True, False, -1, [2], {}]
    count = 0
    for g1, g2 in itertools.combinations(range(4), 2):
        for d1, d2 in itertools.product(defects, [2, *defects]):
            data = rotation_json_functor()
            for g, d in ((g1, d1), (g2, d2)):
                if d == "omit":
                    del data["fibers"][str(g)]
                else:
                    data["fibers"][str(g)] = d
            with pytest.raises(ValueError) as raised:
                functor_from_json(data)
            assert str(raised.value) == literal_fiber_defect(data["fibers"], 4)
            count += 1
    assert count == 6 * 9 * 10


class CountedReads(dict):
    """A dict that counts the reads of its keys."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


@pytest.mark.parametrize("fibers, message", [
    ({}, "fiber size for element 0 is missing"),
    ({"0": "x"}, "fiber size for element 0 must be an integer, got 'x'"),
    ({"0": 1, "1": -1}, "fiber size for element 1 is negative"),
    ({"0": 1}, "fiber size for element 1 is missing"),
    ({str(g): 1 for g in range(1, 100)}, "fiber size for element 0 is missing"),
    ({**{str(g): 1 for g in range(100)}, "x": 1}, "fiber size for element 100 is missing"),
])
def test_functor_json_reads_a_short_fibers_object_in_proportion_to_its_keys(fibers, message):
    """With fewer fiber keys than the 10! elements of S10, one of the first
    keys + 1 elements has no size, so the first defect is found within
    keys + 1 reads."""
    counted = CountedReads(fibers)
    with pytest.raises(ValueError) as refusal:
        functor_from_json({"group": "S10", "fibers": counted, "transports": {}})
    assert str(refusal.value) == message
    assert counted.reads <= len(fibers) + 1


def test_functor_json_reads_a_full_fibers_object_once_per_element():
    counted = CountedReads({str(g): int(g == 0) for g in range(6)})
    functor_from_json({"group": "S3", "fibers": counted, "transports": {str(h): {"0": [0]} for h in range(6)}})
    assert counted.reads == 6


def test_functor_json_stores_only_the_transports_it_lists():
    """An unlisted transport out of an empty fiber reads as the empty
    bijection, and so does a listed empty one."""
    data = {"group": "S3", "fibers": {str(g): 0 for g in range(6)}, "transports": {"1": {"2": []}}}
    functor = functor_from_json(data)
    assert [functor.transport(h, g) for h in range(6) for g in range(6)] == [()] * 36
    assert validate_functor(functor).ok


@pytest.mark.parametrize("h", range(6))
def test_functor_json_refuses_a_point_listed_on_an_empty_fiber(h):
    """The laws never read a transport out of an empty fiber, so a nonempty
    entry there is refused as it is read, for every h."""
    data = {"group": "S3", "fibers": {str(g): int(g == 0) for g in range(6)},
            "transports": {str(x): {"0": [0]} for x in range(6)}}
    data["transports"][str(h)]["2"] = [0]
    with pytest.raises(ValueError, match=rf"^transport for \(h={h}, g=2\) must be empty: the fiber at g=2 is empty$"):
        functor_from_json(data)


def test_fiber_sizes_must_cover_group():
    with pytest.raises(ValueError):
        EquivariantFunctor(make_cyclic(3), (1, 1), lambda h, g: (0,))
    with pytest.raises(ValueError, match="^fiber sizes must be nonnegative$"):
        EquivariantFunctor(make_cyclic(2), (1, -1), lambda h, g: (0,))


def test_only_validate_functor_sets_the_report_and_the_elements():
    """Neither the report nor the category of elements is a constructor
    argument, so no functor is built valid; mode is a class constant."""
    group = make_cyclic(2)
    report = ActionValidation(True, 0)
    for bypass in ({"_validation": report}, {"_elements": GroupAction(group, 2, rows_of(lambda h, s: s, 2))}):
        with pytest.raises(TypeError):
            EquivariantFunctor(group, (1, 1), lambda h, g: (0,), **bypass)
    assert "mode" not in {f.name for f in dataclasses.fields(ActionValidation)}
    assert report.mode == ActionValidation.mode == "exhaustive"
    functor = EquivariantFunctor(group, (1, 1), lambda h, g: (0,))
    assert verify_general_theorem(functor).equal and validate_functor(functor).mode == "exhaustive"


def test_non_integral_fiber_size_is_refused_not_truncated():
    with pytest.raises(ValueError, match=r"fiber_sizes\[1\] must be an integer, got 1.7"):
        EquivariantFunctor(make_cyclic(2), (1, 1.7), lambda h, g: (0,))


def reference_functor_validation(functor):
    """Literal per-triple validator: the identity transports of the nonempty
    fibers, then every (h2, h1, g) in lexicographic order, one check per
    fiber element compared."""
    group, sizes = functor.group, functor.fiber_sizes
    order, total = group.order, sum(sizes)
    checks = 0

    def failed(law, witness, message):
        return ActionValidation(False, checks, message, law, witness)

    nonempty = [g for g in range(order) if sizes[g] > 0]
    e = group.identity
    for g in nonempty:
        try:
            arr = checked_transport(functor, e, g)
        except ValueError as exc:
            checks += 1
            return failed("bijection", (e, g), str(exc))
        for x in range(sizes[g]):
            checks += 1
            if arr[x] != x:
                return failed("identity", (g,), f"transport(e, {g}) = {arr!r} is not the identity")

    def composition(h2, h1, g):
        nonlocal checks
        try:
            first = checked_transport(functor, h1, g)
            second = checked_transport(functor, h2, group.conjugate(g, h1))
            combined = checked_transport(functor, group.mul(h2, h1), g)
        except ValueError as exc:
            checks += 1
            return "bijection", (h2, h1, g), str(exc)
        for x in range(sizes[g]):
            checks += 1
            if combined[x] != second[first[x]]:
                return ("composition", (h2, h1, g),
                        f"composition law fails at (h2={h2}, h1={h1}, g={g}), fiber element {x}")
        return None

    k = len(group.spanning_tree().generators)
    for h2 in range(order):
        for h1 in range(order):
            for g in nonempty:
                failure = composition(h2, h1, g)
                if failure:
                    return failed(*failure)
    return ActionValidation(True, total + k * order * total)


def checked_transport(functor, h, g):
    """transport(h, g), its entries read with operator.index, or ValueError
    unless it is a bijection F(g) -> F(h g h^-1)."""
    arr = tuple(functor.transport(h, g))
    sizes = functor.fiber_sizes
    target = functor.group.conjugate(g, h)
    indices = all(hasattr(type(x), "__index__") for x in arr)
    if not indices or sorted(map(operator.index, arr)) != list(range(sizes[target])) or len(arr) != sizes[g]:
        raise ValueError(f"transport({h}, {g}) = {arr!r} is not a bijection from a fiber of size "
                         f"{sizes[g]} onto one of size {sizes[target]}")
    return tuple(map(operator.index, arr))


def witness_breaks_a_law(functor, report):
    """Whether the report's witness, read literally from the transports,
    breaks the law it names: a walk's (s, h, g) reads as a composition
    triple."""
    group, law, witness = functor.group, report.law, report.witness
    try:
        if law == "bijection":
            checked_transport(functor, *witness)
            return False
        if law == "identity":
            (g,) = witness
            return checked_transport(functor, group.identity, g) != tuple(range(functor.fiber_sizes[g]))
        h2, h1, g = witness
        first = checked_transport(functor, h1, g)
        second = checked_transport(functor, h2, group.conjugate(g, h1))
        combined = checked_transport(functor, group.mul(h2, h1), g)
    except ValueError:
        return law == "bijection"
    return combined != tuple(second[x] for x in first)


def centralizer_transports(group):
    """F(g) = the centralizer of g (sorted), transported by conjugation."""
    order = group.order
    cent = [[x for x in range(order) if group.mul(g, x) == group.mul(x, g)] for g in range(order)]
    position = [{x: i for i, x in enumerate(c)} for c in cent]
    return {
        (h, g): tuple(position[group.conjugate(g, h)][group.conjugate(x, h)] for x in cent[g])
        for h in range(order)
        for g in range(order)
    }


def functor_tables(group):
    """Fiber sizes and transport tables of a few genuine functors on the group."""
    order = group.order
    trivial = {(h, g): (0,) for h in range(order) for g in range(order)}
    centralizer = centralizer_transports(group)
    tables = [trivial, centralizer]
    if group.name in ("S3", "S4"):
        fixed = make_fixed_point_functor(int(group.name[1:]))
        tables.append({(h, g): tuple(fixed.transport(h, g)) for h in range(order) for g in range(order)})
    return [(tuple(len(table[(group.identity, g)]) for g in range(order)), table) for table in tables]


@pytest.mark.parametrize("make", [
    lambda: groups.SymmetricGroup(4),
    lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.SymmetricGroup(3)),
    lambda: groups.from_cayley_table(make_product(make_cyclic(2), make_symmetric(3)).multiplication_table()),
], ids=["S4", "Z2xS3", "cayley(Z2xS3)"])
def test_row_compare_keeps_only_the_generators_conjugation_rows(make):
    """Table-built functors, passing and with one fiber size raised: their
    check conjugates with mul and inv, so the group keeps no conjugation
    row, the k generators' included."""
    tables = functor_tables(make())  # their conjugates fill the rows of another instance
    group = make()
    last = group.order - 1
    for sizes, table in tables:
        assert validate_functor(EquivariantFunctor(group, sizes, lambda h, g: table[(h, g)])).ok
        raised = sizes[:last] + (sizes[last] + 1,)
        report = validate_functor(EquivariantFunctor(group, raised, lambda h, g: table[(h, g)]))
        assert report.law == "bijection"
    assert group._conjugation_table() == {}


def twist_last_coset(group, sizes, table, c):
    """The transports of the coset H r (law_cases.last_generator_coset)
    into fiber c changed: transport(h, g) with r g r^-1 = c becomes
    transport(h r^-1, c) after a swap of the first two points of fiber c
    after transport(r, g). Composition with h2 in H still holds, so only the
    last generator's row compares can see the change."""
    subgroup, r = last_generator_coset(group)
    rinv = group.inv(r)
    swap = list(range(sizes[c]))
    swap[0], swap[1] = 1, 0
    twisted = dict(table)
    for h in range(group.order):
        hr = group.mul(h, rinv)
        if hr in subgroup:
            for g in range(group.order):
                if group.conjugate(g, r) == c:
                    twisted[(h, g)] = tuple(table[(hr, c)][swap[t]] for t in table[(r, g)])
    return twisted


@settings(max_examples=200)
@given(st.sampled_from(sorted(LAW_GROUPS)), st.data())
def test_functor_validation_matches_reference(name, data):
    """One transport of a genuine functor corrupted anywhere (swapped, or
    made non-bijective by an entry that repeats or leaves the fiber), one
    fiber size changed, fiber sizes raised on one conjugacy class of the
    subgroup H of all generators but the last, or transports twisted so that
    composition breaks only at the last generator; with a check cap at the
    generator count, below what the check reads, which must refuse unless an
    earlier law fails."""
    group = LAW_GROUPS[name]()
    order = group.order
    sizes, table = data.draw(st.sampled_from(functor_tables(group)))
    sizes, table = list(sizes), dict(table)
    corruption = data.draw(st.sampled_from(["none", "swap", "entry", "fiber", "fiber_class", "twist"]))
    populated = sorted(key for key, arr in table.items() if arr)
    coset = last_generator_coset(group)
    if corruption == "swap":
        key = data.draw(st.sampled_from(populated))
        arr = list(table[key])
        i, j = data.draw(st.integers(0, len(arr) - 1)), data.draw(st.integers(0, len(arr) - 1))
        arr[i], arr[j] = arr[j], arr[i]
        table[key] = tuple(arr)
    elif corruption == "entry":
        key = data.draw(st.sampled_from(populated))
        arr = list(table[key])
        i = data.draw(st.integers(0, len(arr) - 1))
        arr[i] = data.draw(st.integers(-1, len(arr)).filter(lambda t: t != arr[i]))
        table[key] = tuple(arr)
    elif corruption == "fiber":
        g = data.draw(st.integers(0, order - 1))
        sizes[g] = data.draw(st.integers(0, sizes[g] + 1).filter(lambda k: k != sizes[g]))
    elif corruption == "fiber_class" and coset:
        x = data.draw(st.integers(0, order - 1))
        for y in {group.conjugate(x, h) for h in coset[0]}:
            sizes[y] += 1
    elif corruption == "twist" and coset and max(sizes) > 1:
        c = data.draw(st.sampled_from([g for g in range(order) if sizes[g] > 1]))
        table = twist_last_coset(group, sizes, table, c)
    sizes = tuple(sizes)
    k = len(group.spanning_tree().generators)
    generator_checks = k * order + order + k * order * sum(sizes)
    check_cap = data.draw(st.sampled_from([DEFAULT_CHECK_CAP, 200, generator_checks]))

    def build():
        return EquivariantFunctor(group, sizes, lambda h, g: table[(h, g)])

    with law_caps(check_cap):
        report = validation_or_refusal(lambda: validate_functor(build()))
    reference = reference_functor_validation(build())
    total = sum(sizes)
    # The identity stage's witnesses, (g,) and (e, g), are the short ones.
    identity_failed = reference.witness is not None and len(reference.witness) < 3
    assert_agrees_with_reference(report, reference, identity_failed, check_cap,
                                 (order + k) * total + (k + 1) * order, (order + k + (k + 1) * order) * total)
    if report != "refused" and not report.ok:
        assert witness_breaks_a_law(build(), report)


@pytest.mark.parametrize("with_table", [True, False])
def test_fiber_size_check_same_with_or_without_conjugation_table(with_table):
    """One fiber size raised at each element in turn: the transport that
    reads the moved size, no bijection, is named, as the reference names
    it, whether every conjugation row is filled beforehand or each is
    computed on its first read."""
    # Fresh instances: the make_* constructors hand out cached groups whose rows may be filled.
    for group in (groups.SymmetricGroup(3), groups.SymmetricGroup(4),
                  groups.ProductGroup(groups.CyclicGroup(2), groups.SymmetricGroup(3))):
        if with_table:
            for h in range(group.order):
                group.conjugation_row(h)
        assert (len(group._conjugation_table()) == group.order) == with_table
        sizes, table = functor_tables(group)[1]
        for g in range(group.order):
            corrupted = list(sizes)
            corrupted[g] += 1

            def build():
                return EquivariantFunctor(group, tuple(corrupted), lambda h, x: table[(h, x)])

            assert_same_report(validate_functor(build()), reference_functor_validation(build()))


def test_functor_validation_matches_reference_on_s4_corruptions():
    """Transports of genuine S4 functors with their first and last points
    swapped, or their first point sent outside the fiber: each report has
    the literal reference's ok, and a failure's witness breaks its law."""
    group = groups.SymmetricGroup(4)
    reports = []
    for sizes, table in functor_tables(group):
        populated = sorted(key for key, arr in table.items() if len(arr) > 1)
        corruptions = [None] + [(key, kind) for key in populated[:: max(1, len(populated) // 4)]
                                for kind in ("swap", "entry")]
        for corruption in corruptions:
            corrupted = dict(table)
            if corruption:
                key, kind = corruption
                arr = list(corrupted[key])
                if kind == "swap":
                    arr[0], arr[-1] = arr[-1], arr[0]
                else:
                    arr[0] = len(arr)
                corrupted[key] = tuple(arr)

            def build(corrupted=corrupted):
                return EquivariantFunctor(group, sizes, lambda h, g: corrupted[(h, g)])

            report = validate_functor(build())
            assert report.ok == reference_functor_validation(build()).ok
            assert report.ok or witness_breaks_a_law(build(), report)
            assert report.mode == "exhaustive"
            reports.append(report)
    assert sum(report.law == "composition" for report in reports) >= 4


def exhaustively_validated_functors():
    yield make_trivial_functor(make_symmetric(3))
    for n in range(1, 6):
        yield make_fixed_point_functor(n)
    for p in iter_pvectors(4, max_entry=4, max_weight=4):
        yield make_cycle_tuple_functor(4, p)
    for name in ("S3", "S4", "Z2xS3", "cayley(Z2xS3)"):
        group = LAW_GROUPS[name]()
        for sizes, table in functor_tables(group):
            yield EquivariantFunctor(group, sizes, lambda h, g, table=table: table[(h, g)], name=name)


def test_elements_action_reuses_exhaustive_rows():
    """The category of elements starts from the rows validate_functor built:
    every row for a table-built functor, the generators' rows only for a
    built-in one. Each kept row is the row its row
    function now reads from the transports, and validating and quotienting
    the action ask row no more, with the same report and orbits as an
    action that reads every row it needs from the transports itself."""
    count = 0
    for functor in exhaustively_validated_functors():
        assert validate_functor(functor).mode == "exhaustive", functor.name
        action = category_of_elements(functor)
        row, group, size = action.row, action.group, action.carrier_size
        kept = sorted(action._rows)
        generators = group.spanning_tree().generators
        assert kept == (sorted(generators) if functor._presented else list(range(group.order))), functor.name
        for g in kept:
            assert action._rows[g] == row(g), functor.name

        def forbidden(h):
            raise AssertionError("row asked for although the rows exist")

        action.row = forbidden
        fresh = presented(GroupAction(group=group, carrier_size=size, row=row, name=action.name), functor._presented)
        report = action.validate()
        assert report == fresh.validate()
        assert report.ok and report.mode == "exhaustive"
        assert orbit_decomposition(action) == orbit_decomposition(fresh)
        count += 1
    # trivial, fixed points, twelve p-vectors, and 3, 3, 2, 2 table functors
    assert count == 1 + 5 + 12 + 10


def test_general_theorem_runs_one_law_kernel_per_functor(monkeypatch):
    """verify_general_theorem passes each functor's category-of-elements rows
    through the walk once, built-in or table-built, and its orbits are kept,
    so the quotient walks nothing again."""
    calls = kernel_calls(monkeypatch)
    count = 0
    for functor in exhaustively_validated_functors():
        calls.clear()
        assert verify_general_theorem(functor).equal
        assert calls == ["walk_orbits"], functor.name
        count += 1
    assert count == 1 + 5 + 12 + 10


def kernel_calls(monkeypatch):
    """The names of the law kernels run, in order: walk_orbits, the one
    kernel, patched in groupoids."""
    calls = []
    kernel = groupoids.walk_orbits

    def counting(*args):
        calls.append(kernel.__name__)
        return kernel(*args)

    monkeypatch.setattr(groupoids, "walk_orbits", counting)
    return calls


def test_broken_transports_are_found_by_the_one_law_kernel(monkeypatch):
    """Table-built functors on Z/3, on Z/3 relabelled to have identity 1 and
    on S3, with one transport at a time sent outside its fiber, and the
    functor of test_triple_scan_finds_composition_before_a_broken_transport:
    the check lays the broken transport out as marks, which the identity
    check, the generator rows' carrier check or the compare along the tree
    meets, so the walk never runs. Each report has the literal reference's
    ok, and its witness breaks its law."""
    swap = [1, 0, 2]
    relabelled = groups.from_cayley_table([[swap[(swap[x] + swap[y]) % 3] for y in range(3)] for x in range(3)])
    assert relabelled.identity == 1

    def triple_scan_transport(h, g):
        return (0, 0) if (h, g) == (2, 1) else (1, 0) if h in (0, 2) else (0, 1)

    cases = [EquivariantFunctor(relabelled, (2, 2, 2), triple_scan_transport)]
    for group in (make_cyclic(3), relabelled, groups.SymmetricGroup(3)):
        for sizes, table in functor_tables(group):
            for key, arr in table.items():
                if arr:
                    broken = {**table, key: (len(arr),) + arr[1:]}
                    cases.append(EquivariantFunctor(group, sizes, lambda h, g, broken=broken: broken[(h, g)]))
    calls = kernel_calls(monkeypatch)
    laws = set()
    for functor in cases:
        report = validate_functor(functor)
        assert not report.ok and not reference_functor_validation(functor).ok
        assert witness_breaks_a_law(functor, report)
        laws.add(report.law)
    assert calls == []
    assert laws == {"bijection", "composition"}
    assert len(cases) == 133


def test_a_row_read_after_a_passing_check_refuses_a_broken_transport():
    """The walk check of S3 reads only its generators' transports, so a
    broken transport at h = 1 passes it; reading row 1 of the category of
    elements later raises that transport's ValueError, not a refusal of the
    row by an action the caller never built."""
    group = make_symmetric(3)
    assert 1 not in group.generators()
    functor = presented(EquivariantFunctor(group, (1,) * 6, lambda h, g: (0.0,) if h == 1 else (0,)))
    # 2 * 6 generator images, then 3 * 6 reads for each of the 3 conjugacy classes.
    assert_same_report(validate_functor(functor), ActionValidation(True, 2 * 6 + 3 * 6 * 3))
    with pytest.raises(ValueError, match=r"^transport\(1, 0\) = \(0\.0,\) is not a bijection from a fiber of size 1 onto one of size 1$"):
        category_of_elements(functor).act(1, 0)
