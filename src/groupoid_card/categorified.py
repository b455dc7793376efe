"""Permutations decorated with ordered tuples of distinct cycles.

For a degree n and a p-vector, the decorated permutations form a finite set
carrying a conjugation-style action of the full symmetric group. Its weak
quotient is compared, as a skeleton, against the product of the permutation
groupoid of degree n - weight(p) with one cyclic delooping factor per chosen
cycle. The bridge identity |Q| / n! ties the same set back to the exact
expectation of the falling-power product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cycle_stats import decorated_permutation_counts, expected_product_brute
from .groups import make_cyclic, make_symmetric
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
    refuse_relator_check_above_cap,
    skeleton_from_orbits,
    skeletons_equivalent,
)
from .permutations import (
    DEFAULT_ENUMERATION_CAP,
    CycleTupleChoice,
    Permutation,
    canonical_cycle,
    check_enumeration_cap,
    conjugate_permutation,
    cycle_decomposition,
    enumerate_permutations,
    list_cycle_tuples,
    validate_pvector,
    weight,
)


@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation together with, for each k, an ordered tuple of distinct
    k-cycles of that permutation (stored canonically, minimum entry first)."""

    sigma: Permutation
    choice: CycleTupleChoice


def build_Q(n: int, p: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP) -> list[DecoratedPermutation]:
    """All decorated permutations of degree n for the given p-vector, in
    deterministic order. Total count is sum over sigma of
    prod_k falling_power(c_k(sigma), p_k); empty when weight(p) > n."""
    pvec = validate_pvector(n, p)
    return [
        DecoratedPermutation(sigma, choice)
        for sigma in enumerate_permutations(n, cap)
        for choice in list_cycle_tuples(sigma, pvec)
    ]


def relabel_choice(timg: Sequence[int], choice: CycleTupleChoice) -> CycleTupleChoice:
    """Push every chosen cycle through the permutation with image tuple timg
    and re-canonicalize."""
    return tuple(
        (k, tuple([canonical_cycle([timg[a] for a in cyc]) for cyc in cycles]))
        for k, cycles in choice
    )


def q_action(tau: Permutation, d: DecoratedPermutation) -> DecoratedPermutation:
    """Conjugate the underlying permutation by tau and map the chosen cycles
    to the corresponding cycles of the conjugate."""
    if tau.degree != d.sigma.degree:
        raise ValueError(f"degree mismatch: {tau.degree} vs {d.sigma.degree}")
    return DecoratedPermutation(conjugate_permutation(d.sigma, tau), relabel_choice(tau.images, d.choice))


def _cycle_minima(sigma: Permutation) -> tuple[int, ...]:
    """Entry x is the smallest point of the cycle of sigma through x."""
    minima = [0] * sigma.degree
    for cyc in cycle_decomposition(sigma):
        for x in cyc:
            minima[x] = cyc[0]
    return tuple(minima)


def _marked_points(choice: CycleTupleChoice) -> tuple[int, ...]:
    """The smallest point of each chosen cycle, in choice order."""
    return tuple([cyc[0] for _, cycles in choice for cyc in cycles])


def cycle_tuple_action(n: int, p: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP) -> GroupAction:
    """The symmetric group of degree n acting on the decorated permutations,
    indexed in build_Q order, on marked points rather than cycle tuples.

    A chosen cycle of sigma is fixed by sigma and any one point on it, so a
    decorated permutation is stored as the image tuple of sigma and the
    smallest point of each chosen cycle, in choice order. tau sends sigma to
    sigma' = tau sigma tau^-1, computed from the S_n image table, and a marked
    point a to the smallest point of the cycle of sigma' through tau(a). Each
    sigma with a nonempty fiber keeps that "smallest point of my cycle" array
    and one dict from marks to carrier index; both are found by sigma's image
    tuple. No cycle is rebuilt or re-canonicalized, and no conjugation row
    of the group is read. q_action and make_cycle_tuple_functor's transport
    relabel canonical cycles instead, so the routes the acceptance suite
    compares stay independent.

    A carrier whose relator check the check cap would refuse is refused
    before anything is enumerated, with the refusal validate would give:
    its size is counted over cycle types (decorated_permutation_counts)."""
    pvec = validate_pvector(n, p)
    check_enumeration_cap(n, cap)
    group = make_symmetric(n)
    name = f"S{n} on Q{list(p)}"
    refuse_relator_check_above_cap(name, group.presentation(), decorated_permutation_counts(n, [pvec])[0])
    points: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    fibers: dict[tuple[int, ...], tuple[tuple[int, ...], dict[tuple[int, ...], int]]] = {}
    for sigma in enumerate_permutations(n, cap):
        local: dict[tuple[int, ...], int] = {}
        for choice in list_cycle_tuples(sigma, pvec):
            marks = _marked_points(choice)
            local[marks] = len(points)
            points.append((sigma.images, marks))
        if local:
            fibers[sigma.images] = (_cycle_minima(sigma), local)
    taus = [group.images_at(g) for g in group.elements()]
    inverses = [taus[group.inv(g)] for g in group.elements()]

    def act(g: int, s: int) -> int:
        timg = taus[g]
        simg, marks = points[s]
        minima, local = fibers[tuple([timg[simg[j]] for j in inverses[g]])]
        return local[tuple([minima[timg[a]] for a in marks])]

    return GroupAction(group=group, carrier_size=len(points), act=act, name=name, _presented=True)


def c_groupoid_skeleton(n: int, p: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP) -> GroupoidSkeleton:
    """Skeleton of the groupoid of cycle-decorated permutations, computed as
    the weak quotient of the decorated-permutation action."""
    return skeleton_from_orbits(orbit_decomposition(cycle_tuple_action(n, p, cap)))


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
            "orbits": [
                {"representative": o.representative, "size": o.size, "stabilizer_order": o.stabilizer_order}
                for o in self.orbits
            ],
        }


def verify_categorified(n: int, p: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP) -> CategorifiedReport:
    """Build both skeletons, compare them as multisets of aut orders and as
    exact cardinalities, and check |Q| / n! against the enumeration
    expectation of the falling-power product."""
    pvec = validate_pvector(n, p)
    action = cycle_tuple_action(n, pvec, cap)
    orbits = orbit_decomposition(action)
    lhs = skeleton_from_orbits(orbits)
    rhs = categorified_rhs_skeleton(n, pvec)
    lhs_card = cardinality(lhs)
    rhs_card = cardinality(rhs)
    bridge = Fraction(action.carrier_size, math.factorial(n)) == expected_product_brute(n, pvec, cap)
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
