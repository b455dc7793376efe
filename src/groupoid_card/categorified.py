"""Permutations decorated with ordered tuples of distinct cycles.

For a degree n and a p-vector, the decorated permutations form a finite set
carrying a conjugation-style action of the full symmetric group. Its weak
quotient is compared, as a skeleton, against the product of the permutation
groupoid of degree n - weight(p) with one cyclic delooping factor per chosen
cycle. The bridge identity |Q| / n! ties the same set back to the exact
expectation of the falling-power product.
"""

from __future__ import annotations

import itertools
import math
import weakref
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import ge, itemgetter
from typing import Iterator, NamedTuple, Sequence

from .cycle_stats import decorated_permutation_counts, expected_product_brute
from .groups import SymmetricGroup, make_cyclic, make_symmetric
from .groupoids import (
    GroupAction,
    GroupoidSkeleton,
    Orbit,
    cardinality,
    delooping,
    orbit_decomposition,
    perm_groupoid_skeleton,
    power,
    product,
    rational_str,
    refuse_walk_above_cap,
    skeleton_from_orbits,
    skeletons_equivalent,
)
from .permutations import check_enumeration_cap, partition_counts, validate_pvector, weight


class _Walk(NamedTuple):
    """What one walk of S_n keeps: the group's image table; per element, the
    index of its set partition (its interned minima array); per set
    partition, that array and the smallest points of its k-cycles,
    ascending, at index k - 1; and the set partitions listed under their
    cycle-length counts (the bytes of the number of k-cycles, at index
    k - 1), so a p-vector reads only the set partitions that can carry it.
    It holds no reference to the group, so the group's entry in _WALKS
    lives as long as the group."""

    taus: tuple[tuple[int, ...], ...]
    partition_of: array
    minima: list[tuple[int, ...]]
    by_length: list[tuple[tuple[int, ...], ...]]
    by_counts: dict[bytes, list[int]]


# The walk of each symmetric group walked so far, kept for the group's life.
_WALKS: weakref.WeakKeyDictionary[SymmetricGroup, _Walk] = weakref.WeakKeyDictionary()


def _cycle_minima_walk(group: SymmetricGroup) -> _Walk:
    """The walk of the symmetric group, made on the group's first request and
    kept with it, as its element tables and spanning tree are: every later
    cycle_tuple_actions call at that degree reuses it."""
    walk = _WALKS.get(group)
    if walk is None:
        walk = _WALKS[group] = _walk_cycle_minima(group)
    return walk


def _walk_cycle_minima(group: SymmetricGroup) -> _Walk:
    """One walk of the symmetric group, in element order, over the group's own
    image table: each element's "smallest point of my cycle" array. That
    array depends only on the cycles as point sets, so it is interned:
    Bell(n) distinct tuples are kept (4 140 at n = 8), and per element the
    index of its tuple, in 4 bytes. Each set partition is then listed under
    its cycle-length counts, once per degree: p(n) lists (22 at n = 8). The
    counts are bytes: the key made per partition is dropped unless its
    counts are new, and dropped tuples stay on the tuple free list (0.3 MB
    of peak RSS at n = 8)."""
    n = group.n
    taus = group.image_table()
    index: dict[tuple[int, ...], int] = {}
    partition_of = array("I")
    for images in taus:
        minima = [-1] * n
        for start in range(n):
            x = start
            while minima[x] < 0:
                minima[x] = start
                x = images[x]
        partition_of.append(index.setdefault(tuple(minima), len(index)))
    by_length = []
    by_counts: dict[bytes, list[int]] = {}
    for k, minima in enumerate(index):
        groups: list[list[int]] = [[] for _ in range(n)]
        for x in range(n):
            if minima[x] == x:
                groups[minima.count(x) - 1].append(x)
        by_length.append(tuple(map(tuple, groups)))
        by_counts.setdefault(bytes(map(len, groups)), []).append(k)
    return _Walk(taus, partition_of, list(index), by_length, by_counts)


def _mark_offsets(by_length: tuple[tuple[int, ...], ...], pvec: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The marks of every decorated permutation over one set partition, in
    list_cycle_tuples order, each with its offset in the fiber. A mark tuple
    lists the smallest point of each chosen cycle, in choice order; the
    k-cycles are taken by ascending smallest point, as cycle_decomposition
    lists them."""
    streams = [itertools.permutations(by_length[k - 1], pk) for k, pk in enumerate(pvec, start=1) if pk]
    return {tuple(itertools.chain.from_iterable(combo)): i for i, combo in enumerate(itertools.product(*streams))}


def _laid_out_action(name: str, pvec: tuple[int, ...], group: SymmetricGroup, walk: _Walk) -> GroupAction:
    """The decorated-permutation action for one p-vector, laid out from the
    walk. Only the set partitions with at least p_k k-cycles for every k
    carry points, and only they are laid out: one layout (partition index,
    minima, marks-to-offset dict) per such partition, shared by every sigma
    with those cycles. Each carrying sigma j, in element order, keeps its
    image tuple sigmas[j], its partition's layout and its first point
    starts[j], so point s belongs to sigma j = bisect_right(starts, s) - 1,
    and its marks are the key of offset s - starts[j] in that layout's dict.

    tau sends sigma's partition P to tau(P), the partition of
    tau sigma tau^-1, so the offsets its marks move to depend on (tau, P)
    alone. row_of(tau) finds each carrying sigma's conjugate, one image
    tuple each, and maps the marks of each partition once; the action asks
    it for each row it reads, once, and keeps the row."""
    taus = walk.taus
    layouts: list = [None] * len(walk.minima)
    for counts, partitions in walk.by_counts.items():
        if all(map(ge, counts, pvec)):
            for k in partitions:
                layouts[k] = (k, walk.minima[k], _mark_offsets(walk.by_length[k], pvec))
    # A layout is truthy and None is not: both lists keep the carrying sigmas only.
    sigmas = list(itertools.compress(taus, map(layouts.__getitem__, walk.partition_of)))
    layout_of = list(filter(None, map(layouts.__getitem__, walk.partition_of)))
    starts = array("q", itertools.accumulate([len(local) for _, _, local in layout_of], initial=0))
    index_of = dict(zip(sigmas, itertools.count()))

    def row_of(g: int) -> list[int]:
        timg = taus[g]
        if len(timg) < 2:
            # itemgetter of one index returns a bare item, not a tuple; below
            # degree 2 the only element is the identity.
            return list(range(starts[-1]))
        # g sigma g^-1 reads sigma at the images of g^-1, then maps by g.
        at_inverse = itemgetter(*taus[group.inv(g)])
        conjugates = [index_of[itemgetter(*at_inverse(simg))(timg)] for simg in sigmas]
        moved: list = [None] * len(layouts)  # per partition P, its marks' offsets in g(P)
        for j, (k, _, local) in zip(conjugates, layout_of):
            if moved[k] is None:
                _, image_minima, image_local = layout_of[j]
                moved[k] = [image_local[tuple([image_minima[timg[a]] for a in marks])] for marks in local]
        return [starts[j] + offset for j, (k, _, _) in zip(conjugates, layout_of) for offset in moved[k]]

    return GroupAction(group=group, carrier_size=starts[-1], row=row_of, name=name, _presented=True)


def cycle_tuple_actions(n: int, ps: Sequence[Sequence[int]]) -> Iterator[GroupAction]:
    """The symmetric group of degree n acting on the decorated permutations
    of each p-vector in ps, on marked points rather than cycle tuples, indexed
    by sigma in element order and then by choice in list_cycle_tuples order;
    the actions come lazily, in ps order, so each carrier can be dropped
    before the next is built.

    A chosen cycle of sigma is fixed by sigma and any one point on it, so a
    decorated permutation is stored as sigma and the smallest point of each
    chosen cycle, in choice order. tau sends sigma to sigma' = tau sigma
    tau^-1, computed from the S_n image table, and a marked point a to the
    smallest point of the cycle of sigma' through tau(a). S_n is walked once
    per process (_cycle_minima_walk keeps the walk with the group). A
    p-vector's marks are laid out only over the set partitions with at least
    p_k k-cycles for every k, once per partition, and a row of tau computes
    each carrying sigma's conjugate once and the moved marks once per
    partition. No Permutation is built, no cycle is listed or
    re-canonicalized, and no conjugation row of the group is read. The
    tests' literal oracle and make_cycle_tuple_functor's transport relabel
    canonical cycles instead, so the routes the acceptance suite compares
    stay independent.

    The enumeration cap is read before ps is listed. Each p-vector is
    validated once, and its carrier is counted over cycle types
    (decorated_permutation_counts) before the walk. A carrier whose walk
    check the check cap would refuse is refused, with the refusal validate
    would give: conjugation keeps the cycle type of sigma, so each type that
    carries points, one per partition of the n - weight(p) unchosen points,
    is at least one orbit. An empty carrier, weight(p) > n, is laid out
    without the walk, and S_n is walked only when some carrier has points."""
    check_enumeration_cap(n)
    pvecs = [validate_pvector(n, p) for p in ps]
    group = make_symmetric(n)
    names = [f"S{n} on Q{list(pvec)}" for pvec in pvecs]
    sizes = decorated_permutation_counts(n, pvecs)
    types = partition_counts(n)
    for name, pvec, size in zip(names, pvecs, sizes):
        refuse_walk_above_cap(name, group, size, types[n - weight(pvec)] if size else 0)
    walk = _cycle_minima_walk(group) if any(sizes) else None
    return (
        _laid_out_action(name, pvec, group, walk) if size else GroupAction(group, 0, lambda g: [], name, _presented=True)
        for name, pvec, size in zip(names, pvecs, sizes)
    )


def cycle_tuple_action(n: int, p: Sequence[int]) -> GroupAction:
    """The action for one p-vector: `cycle_tuple_actions` with ps = [p]."""
    return next(cycle_tuple_actions(n, [p]))


def categorified_rhs_skeleton(n: int, p: Sequence[int]) -> GroupoidSkeleton:
    """Skeleton of Perm_{n-|p|} x prod_k B(Z/k)^{p_k}, built from constructors.
    Empty whenever weight(p) > n, via the empty permutation groupoid."""
    pvec = validate_pvector(n, p)
    perm_part = perm_groupoid_skeleton(n - weight(pvec))
    factors = None
    for k, pk in enumerate(pvec, start=1):
        if pk == 0:
            continue
        factor = power(delooping(make_cyclic(k), label=f"Z/{k}"), pk)
        factors = factor if factors is None else product(factors, factor)
    if factors is None:
        return perm_part
    return product(perm_part, factors)


@dataclass(frozen=True)
class CategorifiedReport:
    """Skeleton-level comparison of the two constructions, with the orbit
    data of the decorated-permutation quotient for debugging."""

    n: int
    p: tuple[int, ...]
    lhs_skeleton: GroupoidSkeleton
    rhs_skeleton: GroupoidSkeleton
    equivalent: bool
    lhs_card: Fraction
    rhs_card: Fraction
    bridge_check: bool
    q_size: int
    group_order: int
    orbits: tuple[Orbit, ...]

    @property
    def ok(self) -> bool:
        return self.equivalent and self.lhs_card == self.rhs_card and self.bridge_check

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": list(self.p),
            "lhs_skeleton": self.lhs_skeleton.to_json_dict(),
            "rhs_skeleton": self.rhs_skeleton.to_json_dict(),
            "equivalent": self.equivalent,
            "lhs_card": rational_str(self.lhs_card),
            "rhs_card": rational_str(self.rhs_card),
            "bridge_check": self.bridge_check,
            "q_size": self.q_size,
            "orbit_count": len(self.orbits),
            "orbits": [o.to_json_dict() for o in self.orbits],
        }


def _categorified_report(pvec: tuple[int, ...], action: GroupAction) -> CategorifiedReport:
    n = len(pvec)
    orbits = orbit_decomposition(action)
    lhs = skeleton_from_orbits(orbits)
    rhs = categorified_rhs_skeleton(n, pvec)
    lhs_card = cardinality(lhs)
    rhs_card = cardinality(rhs)
    bridge = Fraction(action.carrier_size, math.factorial(n)) == expected_product_brute(n, pvec)
    return CategorifiedReport(
        n=n,
        p=pvec,
        lhs_skeleton=lhs,
        rhs_skeleton=rhs,
        equivalent=skeletons_equivalent(lhs, rhs),
        lhs_card=lhs_card,
        rhs_card=rhs_card,
        bridge_check=bridge,
        q_size=action.carrier_size,
        group_order=action.group.order,
        orbits=tuple(orbits),
    )


def verify_categorifieds(n: int, ps: Sequence[Sequence[int]]) -> list[CategorifiedReport]:
    """For every p-vector in ps, build both skeletons, compare them as
    multisets of aut orders and as exact cardinalities, and check |Q| / n!
    against the enumeration expectation of the falling-power product. The
    actions come from one `cycle_tuple_actions` call, which asks for the walk
    of S_n once; the enumeration cap is read first, so a refused degree lists no ps."""
    check_enumeration_cap(n)
    pvecs = [validate_pvector(n, p) for p in ps]
    actions = cycle_tuple_actions(n, pvecs)
    # map holds no action once its report is made, so one carrier is alive at a time.
    return list(map(_categorified_report, pvecs, actions))


def verify_categorified(n: int, p: Sequence[int]) -> CategorifiedReport:
    """The report for one p-vector: `verify_categorifieds` with ps = [p]."""
    return verify_categorifieds(n, [p])[0]
