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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .groups import FiniteGroup
from .permutations import DEFAULT_PARTITION_CAP, CapExceededError, cycle_type_table
from .rng import SplitMix64

Rational = Fraction

DEFAULT_CHECK_CAP = 10_000_000
DEFAULT_SAMPLE_BUDGET = 5_000
DEFAULT_VALIDATION_SEED = 0x0AC710


def rational_str(q: Fraction) -> str:
    """Serialize exactly, always as "num/den" (integers included: "1/1")."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den))


def label_to_json(label: Any):
    if isinstance(label, tuple):
        return [label_to_json(x) for x in label]
    return label


@dataclass(frozen=True)
class SkeletonComponent:
    """One isomorphism class of objects with aut_order automorphisms each."""

    aut_order: int
    label: Any = None

    def __post_init__(self) -> None:
        if self.aut_order < 1:
            raise ValueError(f"automorphism group order must be positive, got {self.aut_order}")


@dataclass(frozen=True)
class GroupoidSkeleton:
    """Multiset of components, kept in a canonical sorted order."""

    components: tuple[SkeletonComponent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.components, key=lambda c: (c.aut_order, repr(c.label))))
        object.__setattr__(self, "components", ordered)

    def aut_orders(self) -> tuple[int, ...]:
        return tuple(c.aut_order for c in self.components)

    def to_json_dict(self) -> dict:
        return {"components": [{"aut_order": c.aut_order, "label": label_to_json(c.label)} for c in self.components]}


EMPTY_SKELETON = GroupoidSkeleton(())


def cardinality(skeleton: GroupoidSkeleton) -> Fraction:
    """Sum of 1/aut_order over components; 0 for the empty groupoid.
    The sum is taken over the common denominator, normalised once."""
    components = skeleton.components
    denominator = functools.reduce(math.lcm, (c.aut_order for c in components), 1)
    return Fraction(sum(denominator // c.aut_order for c in components), denominator)


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
    """Outcome of checking the identity and compatibility laws of an action."""

    ok: bool
    mode: str  # "exhaustive" or "sampled validation"
    checks: int
    failure: Optional[str] = None


class ActionValidationError(ValueError):
    """An action failed its law checks and cannot be quotiented."""


def first_law_failure(
    rows: Sequence[Sequence[int]],
    multiplication_row: Callable[[int], Sequence[int]],
    generators: Sequence[int],
) -> Optional[tuple[int, int, int]]:
    """The lowest (g, h, s), in lexicographic order, at which the images
    rows[g][s] of g acting on s break compatibility: rows[h][s] falls outside
    the carrier, or rows[g][rows[h][s]] != rows[g h][s], where g h is
    multiplication_row(g)[h]; None when there is none.

    The generators must generate the group (FiniteGroup.spanning_tree()
    gives at most log2 |G| of them), and the caller has checked that the
    identity's row is the identity map. Then, once every row lies inside the
    carrier, it is enough that row s after row h is row s h for each
    generator s and every h. Write g = s_1 ... s_m in the generators;
    induction on m gives row g h = row s_1 after ... after row s_m after
    row h for every h, and h = e gives row g = row s_1 after ... after
    row s_m, so row g after row h is row g h (Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, 2005, ch. 4). A passing check thus
    compares k |G| whole rows, not |G|^2. Only when a row leaves the carrier
    or a generator compare fails is every (g, h) pair compared in
    lexicographic order, and the first pair that mismatches, or whose row h
    leaves the carrier, scanned point by point, so the witness is the lowest
    failing triple whatever the generators."""
    order = len(rows)
    size = len(rows[0]) if order else 0
    if not size:
        return None
    in_range = [0 <= min(row) and max(row) < size for row in rows]
    if all(in_range):
        for s in generators:
            row_s = rows[s]
            if any([row_s[t] for t in row_h] != rows[sh] for row_h, sh in zip(rows, multiplication_row(s))):
                break
        else:
            return None
    for g in range(order):
        row_g = rows[g]
        products = multiplication_row(g)
        for h in range(order):
            row_h = rows[h]
            row_gh = rows[products[h]]
            if in_range[h] and [row_g[t] for t in row_h] == row_gh:
                continue
            for s in range(size):
                t = row_h[s]
                if not 0 <= t < size or row_g[t] != row_gh[s]:
                    return g, h, s
    return None


@dataclass(eq=False)
class GroupAction:
    """A finite group acting on the carrier {0..carrier_size-1} via act(g, s).

    Immutable once built. The images are kept as one row per group element,
    rows[g][s] = act(g, s), when a builder passes them in or exhaustive
    validation evaluates them; otherwise act is called on every lookup.
    """

    group: FiniteGroup
    carrier_size: int
    act: Callable[[int, int], int]
    name: str = "action"
    _rows: Optional[list] = field(default=None, repr=False)
    _validation: Optional[ActionValidation] = field(default=None, repr=False)

    def act_cached(self, g: int, s: int) -> int:
        rows = self._rows
        return self.act(g, s) if rows is None else rows[g][s]

    def validate(self) -> ActionValidation:
        """Check act(e, s) = s for every s, and act(g, act(h, s)) = act(gh, s).

        The identity law is always exhaustive. Compatibility is exhaustive
        when |S| + |G|^2 |S| fits under DEFAULT_CHECK_CAP, otherwise it runs
        over DEFAULT_SAMPLE_BUDGET triples drawn from DEFAULT_VALIDATION_SEED
        in lane-packed blocks (SplitMix64.below_repeating), reported as
        "sampled validation"; the constants are read at call time. The
        exhaustive check reads the rows passed in, or else evaluates act once
        per (g, s), and compares whole rows over the k generators of
        FiniteGroup.spanning_tree() (first_law_failure): by induction on word
        length, act(s g, x) = act(s, act(g, x)) for each generator s and
        every g, with the identity law, gives the law for every pair (Holt,
        Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).
        A passing check reports the compares made, |S| + k |G| |S|; the gate
        still reads the per-triple count, so the mode does not depend on k.
        Either way a failure names the first failing triple in lexicographic
        (exhaustive) or drawn (sampled) order, with the checks up to it. The
        first validation result is cached.
        """
        if self._validation is not None:
            return self._validation
        group, size = self.group, self.carrier_size
        order = group.order
        checks = 0
        failure = None

        e = group.identity
        for s in range(size):
            checks += 1
            t = self.act_cached(e, s)
            if t != s:
                failure = f"identity law fails at s={s}: act(e, s) = {t}"
                break

        compat_total = order * order * size
        mode = "exhaustive"
        if failure is None:
            if checks + compat_total <= DEFAULT_CHECK_CAP:
                rows = self._rows
                if rows is None:
                    act = self.act
                    rows = [list(range(size)) if g == e else [act(g, s) for s in range(size)] for g in range(order)]
                    self._rows = rows
                generators = group.spanning_tree()[0]
                witness = first_law_failure(rows, group.multiplication_row, generators)
                if witness is None:
                    checks += len(generators) * order * size
                else:
                    g, h, s = witness
                    checks += (g * order + h) * size + s + 1
                    t = rows[h][s]
                    if not 0 <= t < size:
                        failure = f"act({h}, {s}) = {t} is outside the carrier"
                    else:
                        failure = (
                            f"compatibility fails at (g={g}, h={h}, s={s}): "
                            f"act(g, act(h, s)) = {rows[g][t]} "
                            f"but act(g*h, s) = {rows[group.mul(g, h)][s]}"
                        )
            else:
                mode = "sampled validation"
                draws = iter(SplitMix64(DEFAULT_VALIDATION_SEED).below_repeating((order, order, size), 3 * DEFAULT_SAMPLE_BUDGET))
                for g, h, s in zip(draws, draws, draws):
                    checks += 1
                    t = self.act_cached(h, s)
                    if not 0 <= t < size or self.act_cached(g, t) != self.act_cached(group.mul(g, h), s):
                        failure = f"compatibility fails at sampled (g={g}, h={h}, s={s})"
                        break

        result = ActionValidation(ok=failure is None, mode=mode, checks=checks, failure=failure)
        self._validation = result
        return result


def _require_valid(action: GroupAction) -> None:
    report = action.validate()
    if not report.ok:
        raise ActionValidationError(f"invalid action {action.name!r}: {report.failure}")


@dataclass(frozen=True)
class Orbit:
    """One orbit: smallest-index representative, size, stabilizer order."""

    representative: int
    size: int
    stabilizer_order: int


def orbit_decomposition(action: GroupAction) -> list[Orbit]:
    """Orbits in order of their smallest carrier index, with the stabilizer
    order of that representative found by direct scan.

    Every image is bounds-checked: a sampled validation can pass an action
    whose images leave the carrier, and such an action has no quotient."""
    _require_valid(action)
    size = action.carrier_size
    act = action.act_cached
    elements = action.group.elements()
    seen = bytearray(size)
    orbits: list[Orbit] = []
    for s in range(size):
        if seen[s]:
            continue
        images = [act(g, s) for g in elements]
        if min(images) < 0 or max(images) >= size:
            g = next(g for g, t in enumerate(images) if not 0 <= t < size)
            raise ActionValidationError(
                f"invalid action {action.name!r}: act({g}, {s}) = {images[g]} is outside the carrier"
            )
        members = set(images)
        for t in members:
            seen[t] = 1
        orbits.append(Orbit(representative=s, size=len(members), stabilizer_order=images.count(s)))
    return orbits


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
    _require_valid(action)
    out_degree = sum(1 for _ in action.group.elements())
    if action.carrier_size == 0:
        return Fraction(0)
    return Fraction(action.carrier_size, out_degree)


def conjugation_action(group: FiniteGroup) -> GroupAction:
    """The group acting on its own elements by h . g = h g h^-1."""
    return GroupAction(
        group=group,
        carrier_size=group.order,
        act=lambda h, s: group.conjugate(s, h),
        name=f"conjugation({group.name})",
    )


def perm_groupoid_skeleton(n: int) -> GroupoidSkeleton:
    """Skeleton of the groupoid of n-element sets with a permutation: one
    component per cycle type, labeled by its partition, with aut order the
    centralizer order. Empty for n < 0; cardinality 1 for n >= 0. Degrees
    above DEFAULT_PARTITION_CAP raise CapExceededError."""
    if n < 0:
        return EMPTY_SKELETON
    if n > DEFAULT_PARTITION_CAP:
        raise CapExceededError(f"degree {n} exceeds partition cap {DEFAULT_PARTITION_CAP}")
    comps = tuple(SkeletonComponent(z, label=partition) for _, z, partition in cycle_type_table(n))
    return GroupoidSkeleton(comps)
