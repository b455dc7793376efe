"""Planted faults in the two cross-checks that only the acceptance suite
compares: the Q-action against the category of elements, and an orbit's
stabilizer, counted directly, against its size. Each test breaks one side
with monkeypatch and shows that the pair's comparison fails while the other
side keeps its clean value; the acceptance module is not touched, so its
criteria's comparisons are restated here."""

import json
import math

import pytest

from groupoid_card import categorified, functors, groupoids
from groupoid_card.categorified import cycle_tuple_action, verify_categorified
from groupoid_card.cli import main
from groupoid_card.functors import category_of_elements, make_cycle_tuple_functor, verify_general_theorem
from groupoid_card.groupoids import GroupAction, skeletons_equivalent
from law_cases import first_row_difference, presented

N, P = 4, (0, 1, 0, 0)


def generator_rows(action):
    return [action._row(g) for g in action.group.generators()]


def both_sides():
    return cycle_tuple_action(N, P), category_of_elements(make_cycle_tuple_functor(N, P))


def first_shared_fiber():
    """(rank, a, b): the first permutation, by rank, with two choices, and
    the points a < b of its first two, in the carrier both sides lay out."""
    sizes = make_cycle_tuple_functor(N, P).fiber_sizes
    rank = next(g for g, size in enumerate(sizes) if size >= 2)
    a = sum(sizes[:rank])
    return rank, a, a + 1


def swap_of(size, a, b):
    swap = list(range(size))
    swap[a], swap[b] = b, a
    return swap


def plant_relabelled_q_points(monkeypatch, a, b):
    """Every row of the laid-out Q-action conjugated by the swap of points a
    and b: the same action with two choices of one sigma relabelled, so its
    own walk check passes."""
    clean = categorified._laid_out_action

    def relabelled(name, pvec, group, walk):
        action = clean(name, pvec, group, walk)
        swap = swap_of(action.carrier_size, a, b)

        def row(g):
            images = action.row(g)
            return [swap[images[t]] for t in swap]

        return presented(GroupAction(group, action.carrier_size, row, name))

    monkeypatch.setattr(categorified, "_laid_out_action", relabelled)


def plant_relabelled_choices(monkeypatch, sigma_rank):
    """The first two choices of the permutation of rank sigma_rank listed in
    the other order in its fiber: a consistent relabelling of the functor,
    whose transports are read off the listed fibers, so it stays a functor."""
    clean = functors.list_cycle_tuples
    group = functors.make_symmetric(N)
    target = group.permutation_at(sigma_rank)

    def relabelled(sigma, pvec):
        choices = list(clean(sigma, pvec))
        if sigma == target:
            choices[0], choices[1] = choices[1], choices[0]
        return choices

    monkeypatch.setattr(functors, "list_cycle_tuples", relabelled)


def criterion_9_pair():
    """What criterion 9 compares of the pair: the carrier sizes and the
    skeletons' aut orders, with both reports' own checks."""
    cat, theorem = verify_categorified(N, P), verify_general_theorem(make_cycle_tuple_functor(N, P))
    return cat.ok and theorem.equal, cat.q_size == theorem.fiber_total, skeletons_equivalent(theorem.skeleton, cat.lhs_skeleton)


@pytest.mark.parametrize("side", ["q-action", "elements"])
def test_relabelled_points_fail_the_rows_compare_and_pass_criterion_9(monkeypatch, side):
    q_side, elements = both_sides()
    clean = {"q-action": generator_rows(q_side), "elements": generator_rows(elements)}
    assert first_row_difference(q_side, elements) is None
    assert criterion_9_pair() == (True, True, True)
    sigma_rank, a, b = first_shared_fiber()
    if side == "q-action":
        plant_relabelled_q_points(monkeypatch, a, b)
    else:
        plant_relabelled_choices(monkeypatch, sigma_rank)
    q_side, elements = both_sides()
    planted, other = (q_side, elements) if side == "q-action" else (elements, q_side)
    assert planted.validate().ok and other.validate().ok
    assert generator_rows(planted) != clean[side]
    assert generator_rows(other) == clean["elements" if side == "q-action" else "q-action"]
    swap = swap_of(planted.carrier_size, a, b)
    assert generator_rows(planted) == [[swap[row[t]] for t in swap] for row in clean[side]]
    assert first_row_difference(q_side, elements) is not None
    # Criterion 9 sees nothing: fiber_total = q_size, and the aut orders agree.
    assert criterion_9_pair() == (True, True, True)


THEOREM = ["theorem-general", "--builtin", "cycle-tuples", "--n", "4", "--p", "0,1,0,0"]
CATEGORIFIED = ["verify-categorified", "--n", "4", "--p", "0,1,0,0"]


def plant_orbit_count_off_by_one(monkeypatch, count):
    """One more in every orbit's count named count, "size" or
    "stabilizer_order", as walk_orbits builds the orbit."""
    clean = groupoids.Orbit

    def broken(**fields):
        fields[count] += 1
        return clean(**fields)

    monkeypatch.setattr(groupoids, "Orbit", broken)


def orbits_of(args, capsys):
    """The exit code and the orbits of one run."""
    code = main(args)
    return code, json.loads(capsys.readouterr().out)["orbits"]


@pytest.mark.parametrize("args", [THEOREM, CATEGORIFIED], ids=["theorem-general", "verify-categorified"])
@pytest.mark.parametrize("count, other", [("size", "stabilizer_order"), ("stabilizer_order", "size")])
def test_an_orbit_count_fault_fails_criterion_10_and_spares_the_other_count(capsys, monkeypatch, args, count, other):
    order = math.factorial(N)
    code, clean = orbits_of(args, capsys)
    assert code == 0
    assert all(o["stabilizer_order"] * o["size"] == order for o in clean)

    plant_orbit_count_off_by_one(monkeypatch, count)
    code, orbits = orbits_of(args, capsys)
    # No report compares an orbit's size with its stabilizer, so a size fault
    # exits 0; a stabilizer fault changes the quotient's cardinality.
    assert code == (0 if count == "size" else 1)
    assert not any(o["stabilizer_order"] * o["size"] == order for o in orbits)
    assert [o[other] for o in orbits] == [o[other] for o in clean]
    assert [o["representative"] for o in orbits] == [o["representative"] for o in clean]
