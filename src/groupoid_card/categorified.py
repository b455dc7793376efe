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
from operator import eq, ge, itemgetter
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
    partition, the smallest point of each of its cycles, shortest cycles
    first and then by ascending smallest point, and per point the index of
    its cycle among the cycles of its length in that order; and, under each
    tuple of cycle-length counts (the bytes of the number of k-cycles, at
    index k - 1), its set partitions and the elements that have one of
    them, in element order, so a p-vector reads only the set partitions and
    elements that can carry it. The rows fill induced: per group element g
    read so far, per set partition P, the index of each of P's cycles among
    g(P)'s cycles of its length, which every p-vector that P carries reads.
    It holds no reference to the group, so the group's entry in _WALKS
    lives as long as the group."""

    taus: tuple[tuple[int, ...], ...]
    partition_of: array
    cycles: list[tuple[int, ...]]
    positions: list[tuple[int, ...]]
    by_counts: dict[bytes, tuple[list[int], array]]
    induced: dict[int, list]


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
    array depends only on the cycles as point sets, so it is interned while
    the walk runs: Bell(n) distinct tuples (4 140 at n = 8), and per element
    the index of its tuple, in 4 bytes. Each set partition is then listed
    under its cycle-length counts, once per degree: p(n) classes (22 at
    n = 8), and each element, in 4 bytes, under its partition's class. The
    counts are bytes: the key made per partition is dropped unless its
    counts are new, and dropped tuples stay on the tuple free list (0.3 MB
    of peak RSS at n = 8)."""
    n = group.n
    taus = group.image_table()
    index: dict[tuple[int, ...], int] = {}
    partition_of = array("I")
    # Bound once: the loop below runs n! times.
    append, intern, points, unset = partition_of.append, index.setdefault, range(n), [-1] * n
    for images in taus:
        minima = unset.copy()
        for start in points:
            x = start
            while minima[x] < 0:
                minima[x] = start
                x = images[x]
        append(intern(tuple(minima), len(index)))
    cycles, positions, joins = [], [], []
    by_counts: dict[bytes, tuple[list[int], array]] = {}
    for part, minima in enumerate(index):
        by_length: list[list[int]] = [[] for _ in points]
        place = [0] * n
        for x in points:
            if minima[x] == x:
                same_length = by_length[minima.count(x) - 1]
                place[x] = len(same_length)
                same_length.append(x)
        cycles.append(tuple(itertools.chain.from_iterable(by_length)))
        positions.append(tuple(map(place.__getitem__, minima)))
        counts = bytes(map(len, by_length))
        if counts not in by_counts:
            by_counts[counts] = ([], array("I"))
        partitions, elements = by_counts[counts]
        partitions.append(part)
        joins.append(elements.append)
    for element, part in enumerate(partition_of):
        joins[part](element)
    return _Walk(taus, partition_of, cycles, positions, by_counts, {})


# M(pi, r) for every (pi, r) asked so far, kept for the life of the process.
_MOVED: dict[tuple[tuple[int, ...], int], Sequence[int]] = {}


def _moved_ranks(pi: tuple[int, ...], r: int) -> Sequence[int]:
    """M(pi, r): entry i is the rank of pi applied entry by entry to the i-th
    r-permutation of range(m), m = len(pi), both ranked in
    itertools.permutations(range(m), r) order, which is lexicographic
    (Knuth, TAOCP 4A, 7.2.1.2). The r-permutations that start with v fill
    block v, of perm(m - 1, r - 1) ranks, and their tails are the
    (r - 1)-permutations of the other indices, ranked after relabelling
    them in order as range(m - 1). pi sends block v to block pi[v], and the
    tails by pi restricted to the other indices, relabelled the same way on
    both sides; so block v of M(pi, r) is pi[v] times the block size plus
    M of that restriction at r - 1. No r-tuple is built, and the identity's
    map is a range. Each map is kept, with the maps it was built from, in 4
    bytes an entry (the enumeration cap keeps m! below 2^32): at p = 9e_1
    the generators of S9 read two maps of 362 880 entries, 3.3 MB with
    their parts."""
    key = (pi, r)
    ranks = _MOVED.get(key)
    if ranks is None:
        m = len(pi)
        if not r or all(map(eq, pi, range(m))):
            ranks = range(math.perm(m, r))
        else:
            block = math.perm(m - 1, r - 1)
            ranks = array("I")
            for v, image in enumerate(pi):
                rest = tuple([x - (x > image) for x in pi[:v] + pi[v + 1:]])
                ranks.extend(map((image * block).__add__, _moved_ranks(rest, r - 1)))
        _MOVED[key] = ranks
    return ranks


def _carrying_layouts(walk: _Walk, pvec: tuple[int, ...]) -> tuple[list, Sequence[int]]:
    """Per set partition of the walk, its layout if it has at least p_k
    k-cycles for every k, else None; and the elements with such a
    partition, in element order. A layout is (index, fiber size, memo,
    segments), and all but the index are shared by the partitions of one
    class of cycle-length counts m: the fiber size is the product over k of
    perm(m_k, p_k); segments lists, per chosen length k, the slice of the
    partition's cycles that are k-cycles and p_k; memo keeps the moved
    offsets of each index permutation of the cycles read so far."""
    layouts: list = [None] * len(walk.cycles)
    carrying = []
    for counts, (partitions, elements) in walk.by_counts.items():
        if all(map(ge, counts, pvec)):
            size = math.prod(map(math.perm, counts, pvec))
            ends = list(itertools.accumulate(counts, initial=0))
            segments = [(ends[i], ends[i + 1], r) for i, r in enumerate(pvec) if r]
            memo: dict = {}
            for part in partitions:
                layouts[part] = (part, size, memo, segments)
            carrying.append(elements)
    return layouts, carrying[0] if len(carrying) == 1 else sorted(itertools.chain.from_iterable(carrying))


def _laid_out_action(name: str, pvec: tuple[int, ...], group: SymmetricGroup, walk: _Walk) -> GroupAction:
    """The decorated-permutation action for one p-vector, laid out from the
    walk. Only the set partitions with at least p_k k-cycles for every k
    carry points, and only they and their elements are read: a layout is
    the partition's index and its class's fiber size, the product over the
    chosen lengths k of perm(m_k, p_k), m_k its number of k-cycles
    (_carrying_layouts), shared by every sigma with those cycles. Each
    carrying sigma j, in element order, keeps its image tuple sigmas[j],
    its partition's layout and its first point starts[j], so point s
    belongs to sigma j = bisect_right(starts, s) - 1. A choice takes, for
    each chosen k in turn, a p_k-permutation of the indices of sigma's
    k-cycles, listed by ascending smallest point; its offset s - starts[j]
    is the mixed-radix number whose k-th digit is that permutation's rank
    in itertools.permutations order.

    tau sends sigma's partition P to tau(P), the partition of
    tau sigma tau^-1, and its k-cycles to those of tau(P) by an index
    permutation pi_k, read off tau(P)'s positions at the images of P's
    smallest points and kept with the walk; a choice follows pi_k entry by
    entry. So the offsets the choices move to depend on (tau, P) alone,
    through the pi_k: they are the mixed-radix combination of the maps
    M(pi_k, p_k) (_moved_ranks), kept per class for each tuple of the pi_k
    met.
    row_of(tau) finds each carrying sigma's conjugate, one image tuple
    each, and the moved offsets of each partition once; the action asks it
    for each row it reads, once, and keeps the row."""
    taus, cycles, positions = walk.taus, walk.cycles, walk.positions
    layouts, elements = _carrying_layouts(walk, pvec)
    sigmas = list(map(taus.__getitem__, elements))
    layout_of = list(map(layouts.__getitem__, map(walk.partition_of.__getitem__, elements)))
    parts = list(map(itemgetter(0), layout_of))
    starts = array("q", itertools.accumulate(map(itemgetter(1), layout_of), initial=0))
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
        image_of = timg.__getitem__
        induced = walk.induced.get(g)
        if induced is None:
            induced = walk.induced[g] = [None] * len(layouts)
        moved: list = [None] * len(layouts)  # per partition P, its choices' offsets in g(P)
        for j, (part, _, memo, segments) in zip(conjugates, layout_of):
            if moved[part] is None:
                pis = induced[part]
                if pis is None:
                    pis = induced[part] = tuple(map(positions[parts[j]].__getitem__, map(image_of, cycles[part])))
                offsets = memo.get(pis)
                if offsets is None:
                    offsets = range(1)
                    for start, stop, r in segments:
                        ranks = _moved_ranks(pis[start:stop], r)
                        # One offset is offset 0, so the digits so far add nothing.
                        offsets = ranks if len(offsets) == 1 else [a * len(ranks) + b for a in offsets for b in ranks]
                    memo[pis] = offsets
                moved[part] = offsets
        return [starts[j] + offset for j, part in zip(conjugates, parts) for offset in moved[part]]

    action = GroupAction(group=group, carrier_size=starts[-1], row=row_of, name=name)
    action._presented = True
    return action


def cycle_tuple_actions(n: int, ps: Sequence[Sequence[int]]) -> Iterator[GroupAction]:
    """The symmetric group of degree n acting on the decorated permutations
    of each p-vector in ps, each stored as sigma and a choice of cycle
    indices rather than as cycle tuples, indexed by sigma in element order
    and then by choice in list_cycle_tuples order; the actions come lazily,
    in ps order, so each carrier can be dropped before the next is built.

    A chosen cycle of sigma is fixed by sigma and any one point on it, so a
    decorated permutation is stored as sigma and, for each chosen length k,
    the ordered p_k-tuple of the indices of its chosen k-cycles among
    sigma's k-cycles by ascending smallest point, one rank per tuple. tau
    sends sigma to sigma' = tau sigma tau^-1, computed from the S_n image
    table, and its k-cycles to those of sigma' by an index permutation pi_k,
    read from the cycles' smallest points. S_n is walked once per process
    (_cycle_minima_walk keeps the walk with the group). A p-vector is laid
    out only over the set partitions with at least p_k k-cycles for every
    k, each as its fiber size, and a row of tau computes each carrying
    sigma's conjugate once and the moved offsets once per partition, from
    the maps M(pi_k, p_k) that the process keeps (_moved_ranks). No tuple
    is built per choice, no Permutation is built, no cycle is listed or
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
        _laid_out_action(name, pvec, group, walk) if size else GroupAction(group, 0, lambda g: [], name)
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
