"""Groups and generator cosets shared by the law-check differential tests.

Groups are built by name, fresh, so that no conjugation row is filled
before the test reads it; `law_caps` moves the check cap above which law
checks refuse, and `enumeration_cap` the degree above which S_n is not
enumerated; `rows_of` turns a per-point act into the row function a
GroupAction is built from; `tree_edges` lists a spanning tree's edges;
`lowest_law_witness` scans every triple of given rows,
`first_row_difference` compares the generator rows of two actions,
`assert_same_report` compares two law reports with their laws and
witnesses, and `assert_agrees_with_reference` compares a law check of data
with a literal validator's report."""

import random
from unittest import mock

from groupoid_card import groupoids, groups, permutations
from groupoid_card.permutations import CapExceededError


def relabelled_cayley(group, seed=7):
    """The group's Cayley table with its elements relabelled by a seeded
    permutation that moves the identity off index 0."""
    table = group.multiplication_table()
    m = len(table)
    relabel = list(range(m))
    random.Random(seed).shuffle(relabel)
    assert relabel[group.identity] != 0
    relabelled = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            relabelled[relabel[a]][relabel[b]] = relabel[table[a][b]]
    return groups.from_cayley_table(relabelled)


LAW_GROUPS = {
    **{f"Z{k}": (lambda k=k: groups.CyclicGroup(k)) for k in range(1, 6)},
    "S3": lambda: groups.SymmetricGroup(3),
    "S4": lambda: groups.SymmetricGroup(4),
    "Z2xZ2": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(2)),
    "Z2xZ3": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.CyclicGroup(3)),
    "Z2xS3": lambda: groups.ProductGroup(groups.CyclicGroup(2), groups.SymmetricGroup(3)),
    "cayley(Z2xS3)": lambda: relabelled_cayley(groups.ProductGroup(groups.CyclicGroup(2), groups.SymmetricGroup(3))),
}


def law_caps(check_cap):
    """A context in which action and functor law checks read this check cap
    in place of groupoids.DEFAULT_CHECK_CAP. A validation caches its first
    report, so the check to be refused must run inside."""
    return mock.patch.object(groupoids, "DEFAULT_CHECK_CAP", check_cap)


def enumeration_cap(cap):
    """A context in which every enumeration of S_n, and every "S<n>" functor
    file, reads this cap in place of permutations.DEFAULT_ENUMERATION_CAP."""
    return mock.patch.object(permutations, "DEFAULT_ENUMERATION_CAP", cap)


def validation_or_refusal(validate):
    """The report, or "refused" when the check raises CapExceededError."""
    try:
        return validate()
    except CapExceededError as exc:
        assert "check cap" in str(exc)
        return "refused"


def assert_same_report(report, expected):
    """Two ActionValidation reports agree: equal, which compares ok, checks
    and the failure message, and with the same law and witness, which
    equality skips."""
    assert report == expected
    assert (report.law, report.witness) == (expected.law, expected.witness)


def assert_agrees_with_reference(report, reference, identity_failed, check_cap, first_orbit, per_point):
    """report, a data law check under check_cap or "refused"
    (validation_or_refusal), against reference, the literal validator's
    report with no cap. The check is refused when the reads through its
    first orbit, first_orbit, are above the cap, before any row is read,
    and never when the reads of a walk of one orbit per point, per_point,
    are within it. Within the cap a failing identity law is reported as the
    reference reports it, and any other report has the reference's ok."""
    if check_cap < first_orbit:
        assert report == "refused"
    elif identity_failed:
        assert_same_report(report, reference)
    elif report == "refused":
        assert check_cap < per_point
    else:
        assert report.ok == reference.ok


def rows_of(act, size):
    """The row function of the action on 0..size-1 whose image of s under g
    is act(g, s): row g asks act once per point."""
    return lambda g: [act(g, s) for s in range(size)]


def tree_edges(tree):
    """The edges (child, generator, parent) of a FiniteGroup.spanning_tree(),
    as elements, in the order reached."""
    edges, end = [], 1
    for i, parents in tree.steps:
        for m, parent in enumerate(parents):
            edges.append((tree.elements[end + m], tree.generators[i], tree.elements[parent]))
        end += len(parents)
    return edges


def last_generator_coset(group):
    """(H, r): the subgroup H generated by every greedy generator of
    FiniteGroup.spanning_tree() but the last, as a set, and that last
    generator r, which lies outside H; None below two generators."""
    generators = group.spanning_tree().generators
    if len(generators) < 2:
        return None
    subgroup = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for s in generators[:-1]:
            y = group.mul(s, x)
            if y not in subgroup:
                subgroup.add(y)
                frontier.append(y)
    return subgroup, generators[-1]


def lowest_law_witness(group, rows):
    """Literal scan of every triple: the lowest (g, h, s) whose image
    rows[h][s] leaves the carrier or breaks rows[g][rows[h][s]] =
    rows[g h][s]; None when every triple holds. It shares no code with the
    walk check, so the walk is checked against it."""
    size = len(rows[0])
    for g in range(group.order):
        for h in range(group.order):
            gh = group.mul(g, h)
            for s in range(size):
                t = rows[h][s]
                if not 0 <= t < size or rows[g][t] != rows[gh][s]:
                    return g, h, s
    return None


def first_row_difference(a, b):
    """The first (generator, point), generators in generators() order, at
    which the rows of two actions of one group on one carrier size differ;
    None when every generator row is equal. Two actions that pass their law
    checks are then one action, since a valid action is fixed by its
    generator rows."""
    assert a.group is b.group and a.carrier_size == b.carrier_size
    for g in a.group.generators():
        row_a, row_b = a._row(g), b._row(g)
        if row_a != row_b:
            return g, next(s for s, (x, y) in enumerate(zip(row_a, row_b)) if x != y)
    return None
