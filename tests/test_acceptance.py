"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Criteria 1-10 are exact rational checks; criterion 11 is the single
statistical check, run at a fixed published seed with a 4-standard-error
tolerance (failure probability below 1e-4 per check).
"""

import math
import random
from fractions import Fraction

import pytest

from groupoid_card.categorified import verify_categorifieds
from groupoid_card.cycle_stats import (
    cll_rhs,
    expected_product_brute,
    expected_product_by_type,
    expected_total_cycles,
    monte_carlo_moments,
    uncorrelated_check,
)
from groupoid_card.functors import (
    EquivariantFunctor,
    make_cycle_tuple_functor,
    make_fixed_point_functor,
    make_trivial_functor,
    validate_functor,
    verify_general_theorem,
)
from groupoid_card.groups import (
    from_cayley_table,
    make_cyclic,
    make_product,
    make_symmetric,
)
from groupoid_card.groupoids import (
    GroupoidSkeleton,
    SkeletonComponent,
    cardinality,
    cardinality_via_outdegrees,
    conjugation_action,
    coproduct,
    orbit_decomposition,
    perm_groupoid_skeleton,
    power,
    product,
    skeleton_from_orbits,
    skeletons_equivalent,
    weak_quotient,
)
from groupoid_card.permutations import Permutation, iter_pvectors, weight

PUBLISHED_SEED = 20260810


def _line(number, ok, detail):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def lemma_suite():
    return [(n, p) for n in range(8) for p in iter_pvectors(n, max_entry=2, max_weight=n + 2)]


@pytest.fixture(scope="module")
def quotient_suite():
    return [(n, p) for n in range(7) for p in iter_pvectors(n, max_entry=2, max_weight=n)]


@pytest.fixture(scope="module")
def categorified_reports(quotient_suite):
    # One sweep per degree, so S_n is walked once for all its p-vectors.
    reports = {}
    for n in sorted({n for n, _ in quotient_suite}):
        ps = [p for m, p in quotient_suite if m == n]
        reports.update(((n, p), report) for p, report in zip(ps, verify_categorifieds(n, ps)))
    return reports


@pytest.fixture(scope="module")
def conjugation_quotients():
    out = {}
    for n in range(7):
        action = conjugation_action(make_symmetric(n))
        out[n] = (action, orbit_decomposition(action))
    return out


@pytest.fixture(scope="module")
def cycle_tuple_theorem_reports(quotient_suite):
    return {
        (n, p): verify_general_theorem(make_cycle_tuple_functor(n, p))
        for n, p in quotient_suite
    }


@pytest.fixture(scope="module")
def fixed_point_reports():
    return {n: verify_general_theorem(make_fixed_point_functor(n)) for n in range(7)}


@pytest.fixture(scope="module")
def builtin_small_groups():
    groups = [make_cyclic(k) for k in range(1, 25)]
    groups += [make_symmetric(n) for n in range(5)]
    for a in range(2, 25):
        for b in range(a, 25):
            if a * b <= 24:
                groups.append(make_product(make_cyclic(a), make_cyclic(b)))
    groups.append(make_product(make_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2)))
    groups.append(make_product(make_symmetric(3), make_cyclic(2)))
    groups.append(make_product(make_symmetric(3), make_cyclic(4)))
    assert all(g.order <= 24 for g in groups)
    return groups


@pytest.fixture(scope="module")
def trivial_theorem_reports(builtin_small_groups):
    return [verify_general_theorem(make_trivial_functor(g)) for g in builtin_small_groups]


def _dihedral_square_group():
    # Closure of a quarter turn and a reflection of the square's vertices.
    rot = Permutation((1, 2, 3, 0))
    flip = Permutation((3, 2, 1, 0))
    elems = {Permutation.identity(4)}
    frontier = list(elems)
    while frontier:
        fresh = []
        for x in frontier:
            for gen in (rot, flip):
                y = x * gen
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        frontier = fresh
    ordered = sorted(elems, key=lambda q: q.images)
    index = {q.images: i for i, q in enumerate(ordered)}
    table = [[index[(a * b).images] for b in ordered] for a in ordered]
    return ordered, from_cayley_table(table)


@pytest.fixture(scope="module")
def cayley_functor_reports():
    """Hand-built functors over validated Cayley tables (criterion 9d)."""
    reports = []

    # Z/4 with 2-point fibers moved through the parity quotient.
    z4 = from_cayley_table([[(i + j) % 4 for j in range(4)] for i in range(4)])
    parity = EquivariantFunctor(
        z4, (2, 2, 2, 2), lambda h, g: (1, 0) if h % 2 else (0, 1), name="z4-parity"
    )
    reports.append((parity, Fraction(2)))

    # Klein four group, fibers swapped by the first coordinate.
    v4_table = make_product(make_cyclic(2), make_cyclic(2)).multiplication_table()
    v4 = from_cayley_table(v4_table)
    swap = EquivariantFunctor(
        v4, (2, 2, 2, 2), lambda h, g: (1, 0) if h // 2 else (0, 1), name="klein-swap"
    )
    reports.append((swap, Fraction(2)))

    # Z/6 with divisor-sized fibers rotated by translation.
    z6 = from_cayley_table([[(i + j) % 6 for j in range(6)] for i in range(6)])
    sizes = (1, 2, 3, 6, 2, 3)  # each divides the group order
    rotate = EquivariantFunctor(
        z6,
        sizes,
        lambda h, g: tuple((x + h) % sizes[g] for x in range(sizes[g])),
        name="z6-rotation",
    )
    reports.append((rotate, Fraction(17, 6)))

    # Non-abelian order 8: symmetries of the square, fibers the fixed vertices.
    perms, d4 = _dihedral_square_group()
    assert d4.order == 8
    assert any(d4.mul(a, b) != d4.mul(b, a) for a in d4.elements() for b in d4.elements())
    fixed = [tuple(v for v in range(4) if q.images[v] == v) for q in perms]

    def vertex_transport(h, g):
        himg = perms[h].images
        target = fixed[d4.conjugate(g, h)]
        position = {v: i for i, v in enumerate(target)}
        return tuple(position[himg[v]] for v in fixed[g])

    vertices = EquivariantFunctor(
        d4, tuple(len(f) for f in fixed), vertex_transport, name="d4-fixed-vertices"
    )
    reports.append((vertices, Fraction(1)))

    return [(functor, expected, verify_general_theorem(functor)) for functor, expected in reports]


def test_criterion_01_lemma_exhaustive_brute(lemma_suite):
    failures = [
        (n, p)
        for n, p in lemma_suite
        if expected_product_brute(n, p) != cll_rhs(n, p)
    ]
    ok = not failures
    _line(1, ok, f"enumeration expectation equals closed form on {len(lemma_suite)} cases (n <= 7), failures: {failures[:3]}")
    assert ok


def test_criterion_02_oracle_agreement(lemma_suite):
    failures = [
        (n, p)
        for n, p in lemma_suite
        if expected_product_by_type(n, p) != expected_product_brute(n, p)
    ]
    ok = not failures
    _line(2, ok, f"cycle-type method equals enumeration on {len(lemma_suite)} cases, failures: {failures[:3]}")
    assert ok


def test_criterion_03_unit_expectations():
    cases = 0
    ok = True
    for n in range(1, 11):
        for k in range(1, n + 1):
            e_k = tuple(1 if m == k else 0 for m in range(1, n + 1))
            cases += 1
            if expected_product_by_type(n, e_k) != Fraction(1, k):
                ok = False
    _line(3, ok, f"expected k-cycle count equals 1/k for all {cases} pairs with k <= n <= 10")
    assert ok


def test_criterion_04_harmonic_identity():
    ok = True
    for n in range(1, 11):
        total = sum(
            expected_product_by_type(n, tuple(1 if m == k else 0 for m in range(1, n + 1)))
            for k in range(1, n + 1)
        )
        if total != expected_total_cycles(n):
            ok = False
    _line(4, ok, "sum of per-length expectations equals the harmonic number for n <= 10")
    assert ok


def test_criterion_05_uncorrelated_pairs():
    cases = 0
    ok = True
    for n in range(2, 9):
        for j in range(1, n):
            for k in range(j + 1, n + 1):
                if j + k > n:
                    continue
                cases += 1
                report = uncorrelated_check(n, j, k)
                if not report.equal or report.lhs != Fraction(1, j * k):
                    ok = False
    _line(5, ok, f"product expectations factor exactly on {cases} pairs with j + k <= n <= 8")
    assert ok


def test_criterion_06_permutation_groupoid_cardinality_one(conjugation_quotients):
    ok = True
    for n in range(13):
        if cardinality(perm_groupoid_skeleton(n)) != 1:
            ok = False
    for n in range(7):
        action, orbits = conjugation_quotients[n]
        quotient = skeleton_from_orbits(orbits)
        if cardinality(quotient) != 1:
            ok = False
        if not skeletons_equivalent(quotient, perm_groupoid_skeleton(n)):
            ok = False
    _line(6, ok, "partition skeleton gives cardinality 1 for n <= 12 and matches the conjugation quotient for n <= 6")
    assert ok


def test_criterion_07_categorified_lemma(categorified_reports):
    failures = []
    for (n, p), report in categorified_reports.items():
        if not report.equivalent or report.lhs_card != report.rhs_card:
            failures.append((n, p))
        if report.lhs_card != cll_rhs(n, p):
            failures.append((n, p))
    ok = not failures
    _line(7, ok, f"quotient and product skeletons agree on {len(categorified_reports)} cases (n <= 6), failures: {failures[:3]}")
    assert ok


def test_criterion_08_bridge_identity(categorified_reports):
    failures = []
    for (n, p), report in categorified_reports.items():
        if Fraction(report.q_size, math.factorial(n)) != expected_product_brute(n, p):
            failures.append((n, p))
        if not report.bridge_check:
            failures.append((n, p))
    ok = not failures
    _line(8, ok, f"|Q|/n! equals the enumeration expectation on {len(categorified_reports)} cases")
    assert ok


def test_criterion_09_general_theorem(
    trivial_theorem_reports,
    fixed_point_reports,
    cycle_tuple_theorem_reports,
    cayley_functor_reports,
    categorified_reports,
):
    ok = True
    details = []

    for report in trivial_theorem_reports:
        if not report.equal or report.expected != 1:
            ok = False
    details.append(f"{len(trivial_theorem_reports)} trivial functors on groups of order <= 24")

    for n, report in fixed_point_reports.items():
        if not report.equal:
            ok = False
        if n >= 1 and report.expected != 1:
            ok = False
    details.append(f"fixed-point functors n <= 6")

    for (n, p), report in cycle_tuple_theorem_reports.items():
        if not report.equal or report.expected != cll_rhs(n, p):
            ok = False
        partner = categorified_reports[(n, p)]
        if report.fiber_total != partner.q_size:
            ok = False
        if not skeletons_equivalent(report.skeleton, partner.lhs_skeleton):
            ok = False
    details.append(f"{len(cycle_tuple_theorem_reports)} cycle-tuple functors")

    for functor, expected, report in cayley_functor_reports:
        if not validate_functor(functor).ok:
            ok = False
        if not report.equal or report.expected != expected:
            ok = False
    details.append(f"{len(cayley_functor_reports)} hand-built Cayley functors (incl. non-abelian order 8)")

    _line(9, ok, "average fiber size equals elements-groupoid cardinality: " + ", ".join(details))
    assert ok


def test_criterion_10_property_suites(
    categorified_reports,
    conjugation_quotients,
    cycle_tuple_theorem_reports,
    fixed_point_reports,
    trivial_theorem_reports,
    cayley_functor_reports,
):
    ok = True
    rnd = random.Random(PUBLISHED_SEED)

    def random_skeleton():
        components = tuple(
            SkeletonComponent(rnd.randint(1, 60), rnd.choice([None, rnd.randint(0, 9)]))
            for _ in range(rnd.randint(0, 6))
        )
        return GroupoidSkeleton(components)

    pair_count = 1000
    for _ in range(pair_count):
        a, b = random_skeleton(), random_skeleton()
        if cardinality(coproduct(a, b)) != cardinality(a) + cardinality(b):
            ok = False
        if cardinality(product(a, b)) != cardinality(a) * cardinality(b):
            ok = False
    sk = random_skeleton()
    if cardinality(power(sk, 3)) != cardinality(sk) ** 3:
        ok = False

    # Orbit-stabilizer products on every weak quotient from criteria 6-9.
    quotient_records = []
    for n, (action, orbits) in conjugation_quotients.items():
        quotient_records.append((orbits, action.group.order, action.carrier_size))
    for report in categorified_reports.values():
        quotient_records.append((report.orbits, report.group_order, report.q_size))
    for report in cycle_tuple_theorem_reports.values():
        quotient_records.append((report.orbits, report.group_order, report.fiber_total))
    for report in fixed_point_reports.values():
        quotient_records.append((report.orbits, report.group_order, report.fiber_total))
    for report in trivial_theorem_reports:
        quotient_records.append((report.orbits, report.group_order, report.fiber_total))
    for _, _, report in cayley_functor_reports:
        quotient_records.append((report.orbits, report.group_order, report.fiber_total))

    orbit_total = 0
    for orbits, group_order, carrier in quotient_records:
        orbit_total += len(orbits)
        if sum(o.size for o in orbits) != carrier:
            ok = False
        for orbit in orbits:
            if orbit.stabilizer_order * orbit.size != group_order:
                ok = False

    # Out-degree formula against the weak-quotient cardinality, live on the
    # conjugation actions and fresh small instances, by record elsewhere.
    for n, (action, orbits) in conjugation_quotients.items():
        if cardinality_via_outdegrees(action) != cardinality(skeleton_from_orbits(orbits)):
            ok = False
    from groupoid_card.categorified import cycle_tuple_action
    from groupoid_card.functors import category_of_elements

    for n in range(5):
        for p in iter_pvectors(n, max_entry=2, max_weight=n):
            action = cycle_tuple_action(n, p)
            if cardinality_via_outdegrees(action) != cardinality(weak_quotient(action)):
                ok = False
        elements = category_of_elements(make_fixed_point_functor(n))
        if cardinality_via_outdegrees(elements) != cardinality(weak_quotient(elements)):
            ok = False

    for orbits, group_order, carrier in quotient_records:
        if Fraction(carrier, group_order) != cardinality(skeleton_from_orbits(orbits)):
            ok = False
    for report in categorified_reports.values():
        # Every element of the group labels one morphism out of each of the q_size objects.
        if Fraction(report.q_size, report.group_order) != report.lhs_card:
            ok = False
    for report in list(cycle_tuple_theorem_reports.values()) + list(fixed_point_reports.values()) + trivial_theorem_reports:
        if report.outdegree_cardinality != report.elements_cardinality:
            ok = False
    for _, _, report in cayley_functor_reports:
        if report.outdegree_cardinality != report.elements_cardinality:
            ok = False

    _line(10, ok, f"additivity/multiplicativity on {pair_count} random pairs; orbit-stabilizer and out-degree checks on {orbit_total} orbits")
    assert ok


# Criteria 7 and 9 at n = 7, on a named subset of the quotient-suite
# p-vectors that keeps the suite's wall time down: p = 0 and p = e_1 (the
# largest carriers, 5 040 points each) and the nine p-vectors of weight 7
# (every point on a chosen cycle, so the Perm_0 factor is trivial and the
# product of deloopings carries the whole skeleton).
DEGREE_SEVEN_PVECTORS = [p for p in iter_pvectors(7, max_entry=2, max_weight=7) if weight(p) in (0, 1, 7)]


@pytest.fixture(scope="module")
def degree_seven_reports():
    reports = verify_categorifieds(7, DEGREE_SEVEN_PVECTORS)
    return {
        p: (report, verify_general_theorem(make_cycle_tuple_functor(7, p)))
        for p, report in zip(DEGREE_SEVEN_PVECTORS, reports)
    }


def test_criterion_07_categorified_lemma_at_degree_7(degree_seven_reports):
    assert len(degree_seven_reports) == 11
    failures = [p for p, (report, _) in degree_seven_reports.items()
                if not report.ok or report.lhs_card != cll_rhs(7, p)]
    ok = not failures
    _line(7, ok, f"quotient and product skeletons agree on {len(degree_seven_reports)} cases at n = 7, failures: {failures[:3]}")
    assert ok


def test_criterion_09_general_theorem_at_degree_7(degree_seven_reports):
    failures = []
    for p, (partner, report) in degree_seven_reports.items():
        if not report.equal or report.expected != cll_rhs(7, p) or report.fiber_total != partner.q_size:
            failures.append(p)
        if not skeletons_equivalent(report.skeleton, partner.lhs_skeleton):
            failures.append(p)
    fixed_points = verify_general_theorem(make_fixed_point_functor(7))
    ok = not failures and fixed_points.equal and fixed_points.expected == 1
    _line(9, ok, f"{len(degree_seven_reports)} cycle-tuple functors and the fixed-point functor at n = 7, failures: {failures[:3]}")
    assert ok


def test_criterion_11_monte_carlo():
    ok = True
    details = []
    ks = (1, 2, 3, 5)
    ps = [tuple(1 if m == k else 0 for m in range(1, 101)) for k in ks]
    # One stream of 1e5 permutations serves all four statistics.
    reports = monte_carlo_moments(100, ps, 100_000, seed=PUBLISHED_SEED)
    for k, report in zip(ks, reports):
        target = 1.0 / k
        deviation = abs(report.estimate - target)
        within = report.standard_error > 0 and deviation <= 4 * report.standard_error
        if not within:
            ok = False
        details.append(f"k={k}: {report.estimate:.5f} vs {target:.5f} (se {report.standard_error:.5f})")
    _line(11, ok, "n=100, 1e5 samples, seed " + str(PUBLISHED_SEED) + ": " + "; ".join(details))
    assert ok
