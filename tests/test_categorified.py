import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from groupoid_card import categorified, functors, permutations
from groupoid_card.categorified import (
    categorified_rhs_skeleton,
    cycle_tuple_action,
    cycle_tuple_actions,
    verify_categorified,
)
from groupoid_card.cycle_stats import cll_rhs, expected_product_brute
from groupoid_card.functors import category_of_elements, make_cycle_tuple_functor, verify_general_theorem
from groupoid_card.groups import SymmetricGroup, make_symmetric
from groupoid_card.groupoids import EMPTY_SKELETON, cardinality, orbit_decomposition, skeletons_equivalent, weak_quotient
from groupoid_card.permutations import (
    CapExceededError,
    Permutation,
    cycle_counts,
    enumerate_permutations,
    falling_power,
    iter_pvectors,
    lex_rank,
    weight,
)
from decorated_permutations import DecoratedPermutation, build_Q, q_action
from law_cases import enumeration_cap, first_row_difference


def test_build_q_examples():
    q = build_Q(3, (0, 1, 0))
    assert len(q) == 3
    sigmas = {d.sigma.images for d in q}
    assert sigmas == {(1, 0, 2), (2, 1, 0), (0, 2, 1)}
    for d in q:
        (k, cycles), = d.choice
        assert k == 2
        assert len(cycles) == 1

    assert build_Q(3, (2, 1, 0)) == []
    assert len(build_Q(4, (0, 2, 0, 0))) == 6
    assert len(build_Q(4, (2, 0, 0, 0))) == 24


@pytest.mark.parametrize("n", range(6))
def test_build_q_count_formula(n):
    for p in iter_pvectors(n, max_entry=2, max_weight=n):
        expected = 0
        for sigma in enumerate_permutations(n):
            counts = cycle_counts(sigma)
            term = 1
            for k, pk in enumerate(p, start=1):
                term *= falling_power(counts[k - 1], pk)
            expected += term
        assert len(build_Q(n, p)) == expected


def test_build_q_cap():
    with enumeration_cap(5), pytest.raises(CapExceededError):
        build_Q(6, (0,) * 6)


def test_q_action_examples():
    d = DecoratedPermutation(Permutation((1, 0, 2)), ((2, ((0, 1),)),))
    identity = Permutation.identity(3)
    assert q_action(identity, d) == d

    tau = Permutation((0, 2, 1))  # (12)
    moved = q_action(tau, d)
    assert moved.sigma.images == (2, 1, 0)  # (02)
    assert moved.choice == ((2, ((0, 2),)),)

    with pytest.raises(ValueError):
        q_action(Permutation((0, 1)), d)


def test_q_action_group_laws():
    taus = list(enumerate_permutations(3))
    for p in [(0, 1, 0), (1, 0, 0), (0, 0, 1)]:
        for d in build_Q(3, p):
            assert q_action(Permutation.identity(3), d) == d
            for t1 in taus:
                for t2 in taus:
                    assert q_action(t2, q_action(t1, d)) == q_action(t2 * t1, d)


def test_q_action_stays_in_q():
    q = set(build_Q(4, (0, 2, 0, 0)))
    for tau in enumerate_permutations(4):
        for d in q:
            assert q_action(tau, d) in q


def test_orbit_is_transitive_for_single_transposition_choice():
    q = build_Q(3, (0, 1, 0))
    start = q[0]
    orbit = {q_action(tau, start) for tau in enumerate_permutations(3)}
    assert orbit == set(q)


def test_c_groupoid_skeleton_examples():
    assert weak_quotient(cycle_tuple_action(3, (0, 1, 0))).aut_orders() == (2,)
    assert weak_quotient(cycle_tuple_action(4, (0, 2, 0, 0))).aut_orders() == (4,)
    assert weak_quotient(cycle_tuple_action(3, (1, 0, 1))) == EMPTY_SKELETON


def test_categorified_rhs_examples():
    assert categorified_rhs_skeleton(3, (0, 1, 0)).aut_orders() == (2,)
    assert categorified_rhs_skeleton(4, (0, 2, 0, 0)).aut_orders() == (4,)
    assert categorified_rhs_skeleton(4, (2, 0, 0, 0)).aut_orders() == (2, 2)
    assert categorified_rhs_skeleton(3, (1, 0, 1)) == EMPTY_SKELETON
    # Saturated weight: no permutation factor remains.
    saturated = categorified_rhs_skeleton(6, (1, 1, 1, 0, 0, 0))
    assert cardinality(saturated) == Fraction(1, 6)
    assert saturated.aut_orders() == (6,)
    # Zero p-vector: the permutation groupoid itself.
    assert categorified_rhs_skeleton(3, (0, 0, 0)).aut_orders() == (2, 3, 6)


def test_verify_categorified_reports():
    report = verify_categorified(3, (0, 1, 0))
    assert report.equivalent
    assert report.lhs_card == report.rhs_card == Fraction(1, 2)
    assert report.bridge_check
    assert report.ok
    assert report.q_size == 3
    assert len(report.orbits) == 1
    assert report.orbits[0].size == 3
    assert report.orbits[0].stabilizer_order == 2

    report = verify_categorified(5, (0, 0, 0, 2, 0))
    assert report.equivalent
    assert report.lhs_skeleton == report.rhs_skeleton == EMPTY_SKELETON
    assert report.lhs_card == 0

    report = verify_categorified(4, (2, 0, 0, 0))
    assert report.lhs_skeleton.aut_orders() == (2, 2)
    assert report.rhs_skeleton.aut_orders() == (2, 2)
    assert report.lhs_card == 1
    assert report.ok


def test_verify_categorified_cap():
    with enumeration_cap(6), pytest.raises(CapExceededError):
        verify_categorified(7, (0,) * 7)


@pytest.mark.parametrize("n", range(5))
def test_skeleton_equivalence_small_sweep(n):
    for p in iter_pvectors(n, max_entry=2, max_weight=n):
        lhs = weak_quotient(cycle_tuple_action(n, p))
        rhs = categorified_rhs_skeleton(n, p)
        assert skeletons_equivalent(lhs, rhs), (n, p)
        assert cardinality(lhs) == cll_rhs(n, p)


@pytest.mark.parametrize("n", range(5))
def test_bridge_identity_small_sweep(n):
    for p in iter_pvectors(n, max_entry=2, max_weight=n + 2):
        q_size = len(build_Q(n, p))
        assert Fraction(q_size, math.factorial(n)) == expected_product_brute(n, p)


@pytest.mark.parametrize("n, p, mode", [(5, (0, 1, 1, 0, 0), "exhaustive"),
                                         (6, (0, 0, 0, 0, 0, 1), "exhaustive")])
def test_verify_categorified_validation_mode(monkeypatch, n, p, mode):
    """The Q-action reads the rows of the two generators s = (0 1) and
    t = (0 1 ... n-1) and walks its one orbit, one per partition of the
    n - weight(p) = 0 unchosen points: 2 |Q| + 3 n! reads. At n=6 that is
    2 400 reads where a sample of 5 000 triples was once drawn."""
    built = []

    def recording(*args):
        for action in cycle_tuple_actions(*args):
            built.append(action)
            yield action

    monkeypatch.setattr(categorified, "cycle_tuple_actions", recording)
    assert verify_categorified(n, p).ok
    (action,) = built
    assert action._validation.ok
    assert action._validation.mode == mode
    assert len(action._validation.orbits) == 1
    assert action._validation.checks == 2 * action.carrier_size + 3 * math.factorial(n)


def test_cycle_tuple_action_is_valid():
    action = cycle_tuple_action(4, (1, 1, 0, 0))
    report = action.validate()
    assert report.ok
    assert report.mode == "exhaustive"


def test_report_json_schema():
    data = verify_categorified(3, (0, 1, 0)).to_json_dict()
    assert data["n"] == 3
    assert data["p"] == [0, 1, 0]
    assert data["equivalent"] is True
    assert data["lhs_card"] == "1/2"
    assert data["rhs_card"] == "1/2"
    assert data["bridge_check"] is True
    assert data["lhs_skeleton"] == {"components": [{"aut_order": 2, "label": 0}]}
    assert data["rhs_skeleton"]["components"][0]["aut_order"] == 2
    assert data["orbit_count"] == 1
    assert data["orbits"] == [{"representative": 0, "size": 3, "stabilizer_order": 2}]


# Every p-vector up to n = 4, so n = 0, n = 1 and empty carriers (weight(p) > n)
# are included, and a few at n = 5.
KERNEL_CASES = [(n, p) for n in range(5) for p in iter_pvectors(n, max_entry=2, max_weight=n + 1)] + [
    (5, (2, 1, 0, 0, 0)), (5, (1, 0, 1, 0, 0)), (5, (0, 1, 1, 0, 0)), (5, (1, 2, 0, 0, 0)), (5, (0, 0, 0, 0, 1))]


@pytest.mark.parametrize("n, p", KERNEL_CASES)
def test_cycle_tuple_action_rows_match_q_action(n, p):
    q = build_Q(n, p)
    index = {d: i for i, d in enumerate(q)}
    action = cycle_tuple_action(n, p)
    assert action.carrier_size == len(q)
    group = make_symmetric(n)
    for g in group.elements():
        tau = group.permutation_at(g)
        assert [action.act(g, s) for s in range(len(q))] == [index[q_action(tau, d)] for d in q]


@pytest.mark.parametrize("n", sorted({n for n, _ in KERNEL_CASES}))
def test_one_sweep_equals_its_single_calls(walks, n):
    """One cycle_tuple_actions call over every KERNEL_CASES p-vector of a
    degree walks S_n once, and gives each p-vector the carrier and the
    generator rows that its own cycle_tuple_action call gives. A single call
    walks S_n only for a carrier with points, weight(p) <= n."""
    ps = [p for m, p in KERNEL_CASES if m == n]
    generators = make_symmetric(n).generators()
    swept = [(a.carrier_size, [a._row(g) for g in generators]) for a in cycle_tuple_actions(n, ps)]
    assert walks == [n]
    single = []
    for p in ps:
        a = cycle_tuple_action(n, p)
        single.append((a.carrier_size, [a._row(g) for g in generators]))
    assert walks == [n] * (1 + sum(weight(p) <= n for p in ps))
    assert swept == single


INDEPENDENCE_CASES = [(3, (0, 1, 0)), (4, (1, 1, 0, 0)), (4, (0, 2, 0, 0)), (5, (2, 1, 0, 0, 0)), (5, (0, 1, 1, 0, 0))]


def test_q_action_route_never_relabels_cycles(forbid):
    expected = [verify_categorified(n, p) for n, p in INDEPENDENCE_CASES]
    forbid(functors.relabel_choice, permutations.canonical_cycle)
    with pytest.raises(AssertionError):
        q_action(Permutation.identity(3), build_Q(3, (0, 1, 0))[0])
    assert [verify_categorified(n, p) for n, p in INDEPENDENCE_CASES] == expected


def q_images(n, p):
    tau = make_symmetric(n).permutation_at(1)
    return [q_action(tau, d) for d in build_Q(n, p)]


def test_elements_route_never_reads_the_kernel(forbid):
    expected = [verify_general_theorem(make_cycle_tuple_functor(n, p)) for n, p in INDEPENDENCE_CASES]
    expected_q = [q_images(n, p) for n, p in INDEPENDENCE_CASES]
    forbid(categorified._cycle_minima_walk)
    with pytest.raises(AssertionError):
        cycle_tuple_action(3, (0, 1, 0))
    assert [verify_general_theorem(make_cycle_tuple_functor(n, p)) for n, p in INDEPENDENCE_CASES] == expected
    assert [q_images(n, p) for n, p in INDEPENDENCE_CASES] == expected_q


# At n = 7: the largest carrier, e_1; e_3 + e_4, whose chosen cycles cover every
# point; and e_1 + e_2 + e_3, with three chosen lengths.
ROWS_CASES = [(n, p) for n in range(7) for p in iter_pvectors(n, max_entry=2)]
ROWS_CASES += [(7, (1, 0, 0, 0, 0, 0, 0)), (7, (0, 0, 1, 1, 0, 0, 0)), (7, (1, 1, 1, 0, 0, 0, 0))]


@pytest.mark.parametrize("n", sorted({n for n, _ in ROWS_CASES}))
def test_the_q_action_and_the_category_of_elements_have_the_same_rows(n):
    """The Q-action and the category of elements of the cycle-tuple functor
    lay out one carrier in one order, sigma in element order and then its
    choices in list_cycle_tuples order, from independent routes. Both pass
    their own walk check, and their carrier sizes and generator rows are
    equal, so they are one action: the isomorphism of their groupoids is
    the identity on points. Only the finished rows are read."""
    ps = [p for m, p in ROWS_CASES if m == n]
    assert len(ps) == {0: 1, 1: 2, 2: 4, 3: 6, 4: 10, 5: 15, 6: 22, 7: 3}[n]
    for p in ps:
        q_side, elements = cycle_tuple_action(n, p), category_of_elements(make_cycle_tuple_functor(n, p))
        assert q_side.validate().ok, p
        assert q_side.carrier_size == elements.carrier_size, p
        difference = first_row_difference(q_side, elements)
        assert difference is None, f"p={p}: rows differ at (generator, point) = {difference}"


# Two sweeps at one degree; the first has an empty carrier, weight 12 > 5.
REPEATED_SWEEPS = ([(2, 1, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 3, 0)], [(1, 0, 1, 0, 0), (0, 1, 1, 0, 0), (5, 0, 0, 0, 0)])


def sweep_facts(n, ps):
    """Per action of one cycle_tuple_actions call: its name, carrier size,
    generator rows, validate() report and orbits."""
    facts = []
    for action in cycle_tuple_actions(n, ps):
        generators = action.group.generators()
        rows = [action._row(g) for g in generators]
        facts.append((action.name, action.carrier_size, rows, action.validate(), orbit_decomposition(action)))
    return facts


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["first-second", "second-first"])
def test_sweeps_at_one_degree_share_one_walk(monkeypatch, order):
    """Two cycle_tuple_actions calls at one degree walk S5 once, reading its
    image table whole rather than element by element, and each gives what
    it gives on a fresh S5 of its own, in either call order."""
    walked = []
    walk = categorified._walk_cycle_minima

    def counting(group):
        walked.append(group)
        return walk(group)

    def refuse(group, a):
        raise AssertionError("the walk read the image table element by element")

    monkeypatch.setattr(categorified, "_walk_cycle_minima", counting)
    monkeypatch.setattr(SymmetricGroup, "images_at", refuse)
    group = SymmetricGroup(5)
    monkeypatch.setattr(categorified, "make_symmetric", lambda n: group)
    shared = [sweep_facts(5, REPEATED_SWEEPS[i]) for i in order]
    assert walked == [group]
    assert categorified._cycle_minima_walk(group).taus is group.image_table()
    monkeypatch.setattr(categorified, "make_symmetric", SymmetricGroup)
    fresh = [sweep_facts(5, REPEATED_SWEEPS[i]) for i in order]
    assert len(walked) == 3 and group not in walked[1:]
    assert shared == fresh


def test_a_kept_walk_lives_as_long_as_its_group():
    group = SymmetricGroup(4)
    walk = categorified._cycle_minima_walk(group)
    assert categorified._cycle_minima_walk(group) is walk
    alive = weakref.ref(group)
    del group
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("p, partitions", [((0, 0, 0, 0, 0, 1), 1), ((2, 2, 0, 0, 0, 0), 45)])
def test_only_the_partitions_that_carry_p_are_laid_out(monkeypatch, p, partitions):
    """Of S6's 203 set partitions, one is a 6-cycle's and 45 have two fixed
    points and two 2-cycles; only they are laid out, only the elements with
    one of them are read, and the carrier is still the whole of Q."""
    laid_out = []
    carrying_layouts = categorified._carrying_layouts

    def counting(walk, pvec):
        layouts, elements = carrying_layouts(walk, pvec)
        laid_out.append((len(layouts), sum(layout is not None for layout in layouts), list(elements)))
        return layouts, elements

    monkeypatch.setattr(categorified, "_carrying_layouts", counting)
    action = cycle_tuple_action(6, p)
    q = build_Q(6, p)
    assert laid_out == [(203, partitions, sorted({lex_rank(d.sigma.images) for d in q}))]
    assert action.carrier_size == len(q)


@pytest.mark.parametrize("p", [p for p in iter_pvectors(6, max_entry=2) if weight(p) >= 4])
def test_generator_rows_at_n6_match_q_action(p):
    """KERNEL_CASES stops at n = 5; at n = 6, for every p-vector of weight at
    least 4 with entries at most 2, most partitions carry no point and every
    generator moves each carrying sigma's fiber, through one or two chosen
    lengths."""
    q = build_Q(6, p)
    index = {d: i for i, d in enumerate(q)}
    action = cycle_tuple_action(6, p)
    group = action.group
    assert action.carrier_size == len(q)
    for g in group.generators():
        tau = group.permutation_at(g)
        assert action._row(g) == [index[q_action(tau, d)] for d in q]


@pytest.mark.parametrize("p", [(4, 0, 0, 0), (2, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0)])
def test_every_row_at_n4_matches_q_action(p):
    """A law check reads the generators' rows only; every other row, which
    act() reads, moves the choices by index
    permutations that are neither a swap nor a rotation: at p = 4e_1 by
    every permutation of the identity's four fixed points."""
    q = build_Q(4, p)
    index = {d: i for i, d in enumerate(q)}
    action = cycle_tuple_action(4, p)
    group = action.group
    for g in range(group.order):
        tau = group.permutation_at(g)
        assert action._row(g) == [index[q_action(tau, d)] for d in q]


def literal_moved_ranks(pi, r):
    """M(pi, r) read off a listing of itertools.permutations(range(m), r)."""
    listing = list(itertools.permutations(range(len(pi)), r))
    rank = {marks: i for i, marks in enumerate(listing)}
    return [rank[tuple(pi[a] for a in marks)] for marks in listing]


@pytest.mark.parametrize("m", range(7))
def test_moved_ranks_equal_the_literal_listing(m):
    """Every r <= m, with pi the identity, the swap of 0 and 1, each rotation
    and three seeded random permutations of range(m)."""
    rng = random.Random(m)
    pis = [tuple(range(m))] + [tuple((a + c) % m for a in range(m)) for c in range(1, m)]
    if m >= 2:
        pis.append((1, 0, *range(2, m)))
    pis += [tuple(rng.sample(range(m), m)) for _ in range(3)]
    for pi in pis:
        for r in range(m + 1):
            assert list(categorified._moved_ranks(pi, r)) == literal_moved_ranks(pi, r), (pi, r)
