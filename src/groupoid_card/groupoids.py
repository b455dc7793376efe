"""Finite groupoids via skeletons and group actions.

A skeleton is the multiset of automorphism-group orders of a groupoid's
components; cardinality is the exact rational sum of their reciprocals.
Group actions yield skeletons through their orbit decomposition (the weak
quotient). Comparing skeletons checks aut-order multisets, which is the
component-level shadow of equivalence; all groups compared here are known
by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, ClassVar, Iterable, Optional, Sequence

from .groups import FiniteGroup, SpanningTree
from .permutations import CapExceededError, check_partition_cap, cycle_type_table

DEFAULT_CHECK_CAP = 10_000_000


def rational_str(q: Fraction) -> str:
    """Serialize exactly, always as "num/den" (integers included: "1/1")."""
    return f"{q.numerator}/{q.denominator}"


def label_to_json(label: Any):
    """A label as JSON data: tuples become lists, recursively. A flat tuple of
    ints, such as a partition, is copied in one step."""
    if isinstance(label, tuple):
        if all(type(x) is int for x in label):
            return list(label)
        return [label_to_json(x) for x in label]
    return label


@dataclass(frozen=True, slots=True)
class SkeletonComponent:
    """One isomorphism class of objects with aut_order automorphisms each."""

    aut_order: int
    label: Any = None

    def __post_init__(self) -> None:
        if self.aut_order < 1:
            raise ValueError(f"automorphism group order must be positive, got {self.aut_order}")


@dataclass(frozen=True)
class GroupoidSkeleton:
    """Multiset of components, kept in a canonical sorted order: by aut
    order, ties by repr(label), further ties in the order given."""

    components: tuple[SkeletonComponent, ...] = ()

    def __post_init__(self) -> None:
        # Two stable passes, the tie-break first, give the order of the key
        # (aut_order, repr(label)) without building a key tuple per component.
        ordered = sorted(self.components, key=lambda c: repr(c.label))
        ordered.sort(key=operator.attrgetter("aut_order"))
        object.__setattr__(self, "components", tuple(ordered))

    def aut_orders(self) -> tuple[int, ...]:
        return tuple(c.aut_order for c in self.components)

    def to_json_dict(self) -> dict:
        """Each component as its aut order and its label as JSON data."""
        return {"components": [{"aut_order": c.aut_order, "label": label_to_json(c.label)} for c in self.components]}


EMPTY_SKELETON = GroupoidSkeleton(())


def cardinality(skeleton: GroupoidSkeleton) -> Fraction:
    """Sum of 1/aut_order over components; 0 for the empty groupoid."""
    return cardinality_of_orders(zip(skeleton.aut_orders(), itertools.repeat(1)))


def cardinality_of_orders(counted: Iterable[tuple[int, int]]) -> Fraction:
    """Sum of count/z over the (aut order z, count) pairs, 0 for none. The
    sum is kept over the least common multiple of the orders so far and
    normalised once. An order that already divides that multiple, as every
    repeated order does, is not folded in again, so each pair costs one
    remainder, one division and one multiply by its count, and a skeleton
    grouped by order pays once per distinct order, not once per component."""
    numerator, denominator = 0, 1
    for z, count in counted:
        if denominator % z:
            multiple = math.lcm(denominator, z)
            numerator *= multiple // denominator
            denominator = multiple
        numerator += denominator // z * count
    return Fraction(numerator, denominator)


def delooping(group: FiniteGroup, label: Any = None) -> GroupoidSkeleton:
    """One object whose automorphisms form the given group."""
    return GroupoidSkeleton((SkeletonComponent(group.order, label),))


def coproduct(a: GroupoidSkeleton, b: GroupoidSkeleton) -> GroupoidSkeleton:
    """Disjoint union; cardinality adds."""
    return GroupoidSkeleton(a.components + b.components)


def product(a: GroupoidSkeleton, b: GroupoidSkeleton) -> GroupoidSkeleton:
    """Componentwise product; automorphism orders multiply and labels pair up."""
    comps = tuple(
        SkeletonComponent(x.aut_order * y.aut_order, (x.label, y.label))
        for x in a.components
        for y in b.components
    )
    return GroupoidSkeleton(comps)


def power(a: GroupoidSkeleton, p: int) -> GroupoidSkeleton:
    """p-fold product; the empty product is the one-object trivial groupoid."""
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    comps = []
    for combo in itertools.product(a.components, repeat=p):
        order = 1
        for c in combo:
            order *= c.aut_order
        comps.append(SkeletonComponent(order, tuple(c.label for c in combo)))
    return GroupoidSkeleton(tuple(comps))


def skeletons_equivalent(a: GroupoidSkeleton, b: GroupoidSkeleton) -> bool:
    """Multiset equality of aut orders; labels are not compared."""
    return a.aut_orders() == b.aut_orders()


@dataclass(frozen=True)
class ActionValidation:
    """Outcome of checking the laws of an action, or of a functor as its
    category of elements (functors.validate_functor)."""

    ok: bool
    checks: int
    failure: Optional[str] = None
    # A failure's law and witness: an action's "identity", "carrier",
    # "composition" or "walk" (GroupAction.validate), a functor's
    # "bijection", "identity", "composition" or "walk". The failure message
    # names both, so reports compare without them.
    law: Optional[str] = field(default=None, compare=False)
    witness: Optional[tuple] = field(default=None, compare=False)
    # A passing walk's orbits (walk_orbits), () for an empty carrier; None
    # for a failure.
    orbits: Optional[tuple[Orbit, ...]] = field(default=None, compare=False, repr=False)
    # Every image a report rests on is read: no law check samples.
    mode: ClassVar[str] = "exhaustive"


class ActionValidationError(ValueError):
    """A law check failed: an action cannot be quotiented, or a functor has
    no category of elements. The failed report is .report."""

    def __init__(self, message: str, report: ActionValidation):
        super().__init__(message)
        self.report = report


def require_valid(report: ActionValidation, lead: str) -> None:
    """Raise ActionValidationError, carrying report, as "<lead>: <failure>"
    unless report is ok."""
    if not report.ok:
        raise ActionValidationError(f"{lead}: {report.failure}", report)


def refuse_walk_above_cap(name: str, group: FiniteGroup, size: int, orbits: int, rows: int = 0) -> int:
    """The values the walk check of an action named name, of group over its
    k generators() on size points, reads through its orbits-th orbit, and
    so the checks of a passing report with that many orbits:
    (rows + k) * size + (k + 1) * |G| * orbits, where rows is the number of
    whole rows the check compares besides the generators' (|G| for an
    action built from data, none for a formula). Raise CapExceededError
    when that is more than DEFAULT_CHECK_CAP, read at call time. A
    constructor that knows its carrier's size and a lower bound on its
    orbits can call it before building anything: the generators are read,
    and no spanning tree is built."""
    k = len(group.generators())
    cost = (rows + k) * size + (k + 1) * group.order * orbits
    if cost > DEFAULT_CHECK_CAP:
        raise CapExceededError(f"law check of {name!r} needs {cost} reads, above the check cap {DEFAULT_CHECK_CAP}")
    return cost


@dataclass(eq=False)
class GroupAction:
    """A finite group acting on the carrier {0..carrier_size-1}; row(g)
    lists the images of every point under g.

    Immutable once built. The rows read are kept in a dict, each asked of
    row on its first read and refused with ValueError unless it is a list
    of carrier_size ints; the law check reads whether they lie in the
    carrier. Only the package's builders whose rows are a formula set
    _presented, after construction, so that validate reads only the
    generators' rows; an action a caller builds is data. The carrier size
    is read with operator.index and must be nonnegative; only the law check
    sets the report, which holds the orbits its walk finds.
    """

    group: FiniteGroup
    carrier_size: int
    row: Callable[[int], list[int]]
    name: str = "action"
    _rows: dict[int, list[int]] = field(default_factory=dict, init=False, repr=False)
    _presented: bool = field(default=False, init=False, repr=False)
    _validation: Optional[ActionValidation] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.carrier_size = operator.index(self.carrier_size)
        if self.carrier_size < 0:
            raise ValueError(f"carrier size must be nonnegative, got {self.carrier_size}")

    def act(self, g: int, s: int) -> int:
        """The image of s under g, read from row g; ValueError out of range."""
        if not 0 <= s < self.carrier_size:
            raise ValueError(f"point {s} is outside the carrier of {self.name!r}, of size {self.carrier_size}")
        return self._row(self.group.check_element(g))[s]

    def _row(self, g: int) -> list[int]:
        """Row g, read from the rows kept or else asked of row, checked and kept."""
        row = self._rows.get(g)
        if row is None:
            row = self.row(g)
            if type(row) is not list or len(row) != self.carrier_size or not set(map(type, row)) <= {int}:
                raise ValueError(f"row({g}) of {self.name!r} is not a list of {self.carrier_size} ints")
            self._rows[g] = row
        return row

    def validate(self) -> ActionValidation:
        """Check act(e, s) = s for every s, and act(g, act(h, s)) = act(gh, s),
        from every image the check rests on; the first result is cached.

        Every action takes the walk check: the rows of the k generators of
        FiniteGroup.generators() lie in the carrier, and walk_orbits finds no
        broken edge from any orbit's smallest point, k |S| + (k + 1) |G|
        reads an orbit. They then extend to exactly one action, and the
        report holds the orbits the walk found. A _presented action's other
        rows are that action by construction. Every other action's rows are
        compared with it: the identity row first, point by point, and before
        the walk each other row, in the spanning tree's order, with its tree
        parent's row moved by its step's generator row (_compare_along_tree),
        |G| |S| reads more. A passing report's checks is the count that
        refuse_walk_above_cap gives for its orbits. So the walk runs on rows that are every row of the
        action, and each witness it reports reads as a broken law of the
        given rows.

        A failure is reported with its law and witness: "identity" (s,),
        "carrier" (g, s) for an image act(g, s) outside the carrier,
        "composition" (g, h, s) for act(g, act(h, s)) != act(g h, s) with g
        a generator and h a tree parent, and "walk" (x, s, g) for the first
        broken edge, act(s, act(g, x)) != act(s g, x).

        A check of more reads than DEFAULT_CHECK_CAP, read at call time,
        raises CapExceededError before any row is read, and as soon as the
        walk's next orbit would pass it (refuse_walk_above_cap).
        """
        if self._validation is None:
            self._validation = self._walk()
        return self._validation

    def _walk(self) -> ActionValidation:
        group, size, order = self.group, self.carrier_size, self.group.order
        if not size:
            return ActionValidation(True, 0, orbits=())
        afford = functools.partial(refuse_walk_above_cap, self.name, group, size, rows=0 if self._presented else order)
        afford(1)
        checks = 0
        if not self._presented:
            for s, t in enumerate(self._row(group.identity)):
                if t != s:
                    return ActionValidation(False, s + 1, f"identity law fails at s={s}: act(e, s) = {t}", "identity", (s,))
            checks = size
        tree = group.spanning_tree()
        generators = tree.generators
        rows = [self._row(s) for s in generators]
        checks += len(generators) * size
        for s, row in zip(generators, rows):
            if min(row) < 0 or max(row) >= size:
                x = next(x for x, t in enumerate(row) if not 0 <= t < size)
                return ActionValidation(False, checks, f"act({s}, {x}) = {row[x]} is outside the carrier", "carrier", (s, x))
        if not self._presented:
            failure = self._compare_along_tree(tree, rows, checks)
            if failure is not None:
                return failure
        orbits, witness = walk_orbits(tree, rows, size, afford)
        checks = afford(len(orbits))
        if witness is not None:
            x, s, g = witness
            # The failing orbit's tree images, and its compares through s's.
            checks += (2 + generators.index(s)) * order
            return ActionValidation(False, checks, f"walk from s={x} breaks at generator {s}, g={g}: "
                                                   f"act({s}, act({g}, {x})) != act({s}*{g}, {x})", "walk", witness)
        return ActionValidation(True, checks, orbits=tuple(orbits))

    def _compare_along_tree(self, tree: SpanningTree, rows: list[list[int]], checks: int) -> Optional[ActionValidation]:
        """Compare every row but the identity's, in tree position order, with
        its parent's row moved by its step's generator row, rows[i] for
        generator i, one map a row; the report of the first that differs, at
        its first differing point, after checks reads, or None. Each parent
        row has passed first, so it lies in the carrier and indexes the
        generator row; a row equal to its product is, by induction along the
        tree, the row the generator rows give."""
        size, elements, end = self.carrier_size, tree.elements, 1
        for i, parents in tree.steps:
            s, row_s = tree.generators[i], rows[i]
            for j, parent in enumerate(parents, end):
                g, h = elements[j], elements[parent]
                row, moved = self._row(g), list(map(row_s.__getitem__, self._rows[h]))
                if row != moved:
                    x = next(x for x, (a, b) in enumerate(zip(row, moved)) if a != b)
                    checks += (j - 1) * size + x + 1
                    if not 0 <= row[x] < size:
                        return ActionValidation(False, checks, f"act({g}, {x}) = {row[x]} is outside the carrier", "carrier", (g, x))
                    return ActionValidation(False, checks, f"compatibility fails at (g={s}, h={h}, s={x}): "
                                                           f"act(g, act(h, s)) = {moved[x]} but act(g*h, s) = {row[x]}",
                                            "composition", (s, h, x))
            end += len(parents)
        return None


@dataclass(frozen=True)
class Orbit:
    """One orbit: smallest-index representative, size, stabilizer order."""

    representative: int
    size: int
    stabilizer_order: int

    def to_json_dict(self) -> dict:
        return {"representative": self.representative, "size": self.size, "stabilizer_order": self.stabilizer_order}


def walk_orbits(
    tree: SpanningTree,
    rows: Sequence[Sequence[int]],
    size: int,
    afford: Callable[[int], None],
) -> tuple[list[Orbit], Optional[tuple[int, int, int]]]:
    """The orbits of the carrier 0..size-1 under the generator rows, rows[i]
    the row of tree.generators[i], each inside the carrier, in order of
    their smallest point; and the first broken edge, or None.

    From each smallest point x not yet seen, the images v(g) of x are filled
    along the tree, v(e) = x and v(s g) = row s at v(g), by one map per
    step: |G| reads and no product. The orbit is the set of the images, and
    its stabilizer order a direct count of the images equal to x.

    The walk is the law check: afford(m), called before the m-th orbit,
    may raise to stop it, and every edge of the Cayley graph is compared, v(s g) with row s at v(g) for each generator s and every g,
    over the tree's products in two maps per generator, k |G| reads. The
    first orbit and generator at which they differ, and the first g in the
    tree's order, give the witness (x, s, g). With no broken edge the rows
    extend to exactly one action (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 4, Schreier graphs): induction on
    a word s_1 ... s_m for g gives v_x(g h) = row s_1 after ... after row
    s_m at v_x(h) for every h, so rho(g) y = v_x(g h), for y = v_x(h),
    depends neither on the word nor on h; rho(e) is the identity,
    rho(g h) = rho(g) rho(h), and rho(s) is row s. An orbit met again would
    hold the smallest point of the later one, so orbits never meet."""
    generators, steps, products = tree.generators, tree.steps, tree.products
    images = [0] * len(tree.elements)
    seen = bytearray(size)
    orbits: list[Orbit] = []
    x = seen.find(0)
    while x >= 0:
        afford(len(orbits) + 1)
        images[0] = x
        end = 1
        for i, parents in steps:
            start, end = end, end + len(parents)
            images[start:end] = map(rows[i].__getitem__, map(images.__getitem__, parents))
        for i, moved in enumerate(products):
            heads, tails = list(map(images.__getitem__, moved)), list(map(rows[i].__getitem__, images))
            if heads != tails:
                j = next(j for j, (a, b) in enumerate(zip(heads, tails)) if a != b)
                return orbits, (x, generators[i], tree.elements[j])
        members = set(images)
        for t in members:
            seen[t] = 1
        orbits.append(Orbit(representative=x, size=len(members), stabilizer_order=images.count(x)))
        x = seen.find(0, x + 1)
    return orbits, None


def orbit_decomposition(action: GroupAction) -> list[Orbit]:
    """Orbits in order of their smallest carrier index: the ones the walk
    check found (walk_orbits), held by its report, so nothing is walked
    again. An empty carrier has no orbit, and its spanning tree is not
    read."""
    report = action.validate()
    require_valid(report, f"invalid action {action.name!r}")
    return list(report.orbits)


def skeleton_from_orbits(orbits: list[Orbit]) -> GroupoidSkeleton:
    return GroupoidSkeleton(tuple(SkeletonComponent(o.stabilizer_order, label=o.representative) for o in orbits))


def weak_quotient(action: GroupAction) -> GroupoidSkeleton:
    """The action groupoid, skeletonized: one component per orbit whose
    aut order is the stabilizer order of the orbit representative.
    Its cardinality is exactly carrier_size / group order."""
    return skeleton_from_orbits(orbit_decomposition(action))


def cardinality_via_outdegrees(action: GroupAction) -> Fraction:
    """Sum of 1/|out(s)| over carrier objects. Every group element labels
    exactly one morphism out of each object, so |out(s)| = |G| for all s;
    the count is taken by explicit iteration and must agree with the
    weak-quotient cardinality."""
    require_valid(action.validate(), f"invalid action {action.name!r}")
    out_degree = sum(1 for _ in action.group.elements())
    if action.carrier_size == 0:
        return Fraction(0)
    return Fraction(action.carrier_size, out_degree)


def conjugation_action(group: FiniteGroup) -> GroupAction:
    """The group acting on its own elements by h . g = h g h^-1, computed
    with mul and inv, so the group keeps no conjugation row: the action's
    rows are the only |G|^2 images kept."""
    mul, inv = group.mul, group.inv

    def row(h: int) -> list[int]:
        hinv = inv(h)
        return [mul(mul(h, s), hinv) for s in range(group.order)]

    return GroupAction(group=group, carrier_size=group.order, row=row, name=f"conjugation({group.name})")


def perm_groupoid_skeleton(n: int) -> GroupoidSkeleton:
    """Skeleton of the groupoid of n-element sets with a permutation: one
    component per cycle type, labeled by its partition, with aut order the
    centralizer order. Empty for n < 0; cardinality 1 for n >= 0. Degrees
    above DEFAULT_PARTITION_CAP raise CapExceededError."""
    if n < 0:
        return EMPTY_SKELETON
    check_partition_cap(n)
    comps = tuple(SkeletonComponent(z, label=partition) for _, z, partition in cycle_type_table(n))
    return GroupoidSkeleton(comps)


def perm_skeleton_groups(n: int) -> list[tuple[int, list[str]]]:
    """The components of perm_groupoid_skeleton(n), in its order, grouped
    by aut order: a list of (aut order, label texts), orders ascending and
    each group's texts in str order. A text joins the partition's parts
    with ", ", so "[" + text + "]" is the label both as a JSON array and as
    the repr of a list. Empty for n < 0; refuses as perm_groupoid_skeleton
    does.

    The partitions are built a part size at a time, from n down to 1, as
    in the product form of the cycle index, prod_k sum_m x^(km) / (k^m m!),
    with no walk of the partitions one at a time. After level k, table[r]
    holds the aut orders and texts of the partitions of r >= 1 whose parts
    are all at least k. Level k appends to table[r], for r descending and
    each m >= 1 with mk <= r, the partition into m parts k alone when
    mk = r, and otherwise the items of table[r - mk], their orders times
    k^m m! and their texts followed by m parts k: one map and one list
    comprehension per (k, r, m). Since r descends, table[r - mk] still
    holds level k + 1 when it is read. The 1s come last: o of them extend
    table[n - o], popped from the table's end, by o! and o parts 1 (all n
    of them are the partition into 1s), and each text goes to its order's
    group as it is made.

    The groups read in turn are the canonical order (z, repr(label)): no
    text is a proper prefix of another of the same degree, since the
    longer one would need an extra part or a larger part, so its parts
    would sum to more. Two texts therefore differ at a character inside
    both, and that character orders their reprs the same way, whatever
    follows it. So one sort of the distinct orders and one sort per group
    give that order, with no sort of the whole list."""
    if n < 0:
        return []
    check_partition_cap(n)
    table: list[tuple[list[int], list[str]]] = [([], []) for _ in range(n + 1)]
    for k in range(n, 1, -1):
        part = f", {k}"
        for r in range(n, k - 1, -1):
            zs, texts = table[r]
            f = 1
            for m in range(1, r // k + 1):
                f *= k * m
                run = part * m
                if r == m * k:
                    zs.append(f)
                    texts.append(run[2:])
                else:
                    rest_zs, rest_texts = table[r - m * k]
                    zs += map(f.__mul__, rest_zs)
                    texts += [text + run for text in rest_texts]
    groups: defaultdict[int, list[str]] = defaultdict(list)
    f = 1
    for o in range(n + 1):
        f *= o or 1
        run = ", 1" * o
        zs, texts = table.pop()
        for z, text in zip(map(f.__mul__, zs), texts):
            groups[z].append(text + run)
    groups[f].append(run[2:])
    ordered = sorted(groups.items(), key=operator.itemgetter(0))
    for _, texts in ordered:
        texts.sort()
    return ordered
